"""Command-line surface: matrix / build / verify / search / export / selftest.

Exit codes: 0 success or verified, 1 verification failure or timeout,
2 usage error.  Output is deterministic: no randomness anywhere, JSON with
sorted keys, DOT with sorted vertices.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import document as doc_mod
from . import families
from .families import ACCEPTANCE_GRID, FAMILIES, build_family
from .graph import LabeledGraph
from .matrices import (
    matrix_5x2k,
    matrix_6x4n,
    matrix_kx10,
    sequences_6x4n,
    validate,
    validate_6x4n,
)
from .search import DEFAULT_MAX_EDGES, STATUS_TIMEOUT, STATUS_VALUE, check_budget, chi_la_exact
from .verify import ColorReport, ExpectedColors, check_expected, induced_coloring

USAGE_ERROR = 2
CHECK_FAILED = 1
OK = 0

BUDGET_ENV_VAR = "ANTIMAGIC_SEARCH_BUDGET"  # seconds; search's default budget
# Input documents are read up to this length.  `build FB_units --k 100000
# --verify`, 10**6 edges, writes the longest document measured: 192,167,544
# characters, all ASCII.
MAX_DOCUMENT_CHARS = 200_000_000


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_document(path: str) -> dict:
    if path == "-":
        raw = sys.stdin.read(MAX_DOCUMENT_CHARS + 1)
    else:
        with open(path, encoding="utf-8") as f:
            raw = f.read(MAX_DOCUMENT_CHARS + 1)
    if len(raw) > MAX_DOCUMENT_CHARS:
        raise ValueError(f"{path}: more than {MAX_DOCUMENT_CHARS} characters, "
                         "longer than any document build writes")
    try:
        return json.loads(raw)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _check(g: LabeledGraph, expected: ExpectedColors | None) -> tuple[ColorReport, list[str]]:
    """Color ``g`` and check it against ``expected`` when there is a claim.
    The problem lines are empty exactly when ``g`` is local antimagic and
    as claimed."""
    report = induced_coloring(g)
    problems = [f"conflict: {u} -- {v} both sum to {s}" for u, v, s in report.conflicts[:10]]
    problems += [f"labels: {p}" for p in report.label_problems[:10]]
    if expected is not None:
        problems += [f"expected-colors mismatch: {d}"
                     for d in check_expected(g, expected, report)]
    return report, problems


def _verdict(problems: list[str]) -> int:
    """Print the check's problem lines to stderr, after the output is
    written, so that a failed write is the one ``error:`` line."""
    for line in problems:
        print(line, file=sys.stderr)
    return CHECK_FAILED if problems else OK


def cmd_matrix(args: argparse.Namespace) -> int:
    kind = args.kind
    param_name, other = ("n", "k") if kind == "6x4n" else ("k", "n")
    param = getattr(args, param_name)
    if param is None:
        raise ValueError(f"matrix {kind} requires --{param_name}")
    if getattr(args, other) is not None:
        raise ValueError(f"matrix {kind} takes --{param_name}, not --{other}")
    if args.sequences and kind != "6x4n":
        raise ValueError("--sequences only applies to the 6x4n matrix")
    labels = (20 if kind == "6x4n" else 10) * param
    if labels > families.MAX_BUILD_EDGES:
        raise ValueError(f"matrix {kind} would have {labels} labels, "
                         f"above the cap of {families.MAX_BUILD_EDGES}")
    generate = {"5x2k": matrix_5x2k, "kx10": matrix_kx10, "6x4n": matrix_6x4n}[kind]
    m = generate(param)

    if args.format == "csv":
        text = doc_mod.rows_csv(m.sequences if args.sequences else m.grid)
    else:
        text = doc_mod.dumps(doc_mod.matrix_json(m, include_sequences=args.sequences))
    _emit(text, args.out)

    if args.validate:
        report = validate(m)
        for check in report.failures:
            print(f"FAIL {check.name}: {check.detail}", file=sys.stderr)
        return OK if report.ok else CHECK_FAILED
    return OK


def cmd_build(args: argparse.Namespace) -> int:
    params = {p: getattr(args, p) for p in ("k", "n", "r", "s", "m")
              if getattr(args, p) is not None}
    built = build_family(args.family, **params)
    for w in built.warnings:
        print(f"warning: {w}", file=sys.stderr)

    verification, problems = _check(built.graph, built.expected) if args.verify else (None, [])
    _emit(doc_mod.dumps(doc_mod.built_to_document(built, verification)), args.out)
    return _verdict(problems)


def cmd_verify(args: argparse.Namespace) -> int:
    g, expected = doc_mod.document_to_graph(_load_document(args.input))
    report, problems = _check(g, expected)
    _emit(doc_mod.dumps(report.to_json_dict()), args.out)
    return _verdict(problems)


def cmd_search(args: argparse.Namespace) -> int:
    budget = args.budget
    if budget is None and os.environ.get(BUDGET_ENV_VAR):
        budget = float(os.environ[BUDGET_ENV_VAR])
    check_budget(budget)
    g, _ = doc_mod.document_to_graph(_load_document(args.input))
    result = chi_la_exact(g, max_edges=args.max_edges, budget=budget)
    _emit(doc_mod.dumps(result.to_json_dict()), args.out)
    if result.status == STATUS_VALUE:
        print(f"chi_la = {result.chi_la}", file=sys.stderr)
    return CHECK_FAILED if result.status == STATUS_TIMEOUT else OK


def cmd_export(args: argparse.Namespace) -> int:
    g, _ = doc_mod.document_to_graph(_load_document(args.input))
    _emit(doc_mod.to_dot(g), args.out)
    return OK


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    top = args.max_param
    if top < 0:
        raise ValueError(f"--max-param must be at least 0, not {top}")
    for label, generate, check in (("matrix 5x2k k", matrix_5x2k, validate),
                                   ("sequences 6x4n n", sequences_6x4n, validate_6x4n),
                                   ("matrix kx10 k", matrix_kx10, validate)):
        before = failures
        for p in range(1, top + 1):
            rep = check(generate(p))
            if not rep.ok:
                report(f"{label}={p}", False, str(rep.failures))
        report(f"{label}=1..{top}", failures == before)

    for tag, grid in ACCEPTANCE_GRID.items():
        before = failures
        for params in grid:
            built = build_family(tag, **params)
            _, problems = _check(built.graph, built.expected)
            if problems:
                report(f"family {tag} {params}", False, "; ".join(problems))
        report(f"family {tag} ({len(grid)} points)", failures == before)

    print(f"selftest: {failures} failure(s)")
    return OK if failures == 0 else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Label matrices, labeled graph families, verification, "
                    "and exact chi_la search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="emit a label matrix (CSV or JSON)")
    p.add_argument("kind", choices=["5x2k", "6x4n", "kx10"])
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--sequences", action="store_true",
                   help="emit the 6x4n trace sequences instead of the grid")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("build", help="construct a labeled family as JSON")
    p.add_argument("family", help=", ".join(sorted(FAMILIES)))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a graph document")
    p.add_argument("input", help="graph document path, or - for stdin")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exact chi_la search on a graph document")
    p.add_argument("input")
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    p.add_argument("--budget", type=float, default=None,
                   help=f"positive seconds; defaults to ${BUDGET_ENV_VAR}, else unlimited")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export", help="export a graph document as DOT")
    p.add_argument("input")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("selftest", help="run all validators over default grids")
    p.add_argument("--max-param", type=int, default=50,
                   help="check the matrices for parameters 1..N (0: none)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # bad input: parameters, documents, files
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
