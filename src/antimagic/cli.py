"""Command-line surface: matrix / build / verify / search / export / selftest.

Exit codes: 0 success or verified, 1 verification failure or timeout,
2 usage error.  Output is deterministic: no randomness anywhere, JSON with
sorted keys, DOT with sorted vertices.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import document as doc_mod
from .families import (
    ACCEPTANCE_GRID,
    FAMILIES,
    ParameterError,
    build_family,
)
from .graph import GraphError
from .matrices import (
    matrix_5x2k,
    matrix_6x4n,
    matrix_kx10,
    sequences_6x4n,
    validate,
    validate_6x4n,
)
from .search import DEFAULT_MAX_EDGES, STATUS_VALUE, chi_la_exact, default_budget
from .verify import check_expected, induced_coloring

USAGE_ERROR = 2
CHECK_FAILED = 1
OK = 0


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_document(path: str) -> dict:
    raw = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return json.loads(raw)


def cmd_matrix(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "6x4n":
        if args.n is None:
            print("matrix 6x4n requires --n", file=sys.stderr)
            return USAGE_ERROR
        param = args.n
    else:
        if args.k is None:
            print(f"matrix {kind} requires --k", file=sys.stderr)
            return USAGE_ERROR
        param = args.k
    try:
        if kind == "5x2k":
            m = matrix_5x2k(param)
        elif kind == "kx10":
            m = matrix_kx10(param)
        else:
            m = matrix_6x4n(param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    if args.sequences and kind != "6x4n":
        print("--sequences only applies to the 6x4n matrix", file=sys.stderr)
        return USAGE_ERROR

    if args.format == "csv":
        if args.sequences:
            text = doc_mod.sequences_csv(m.sequences)
        else:
            text = doc_mod.matrix_csv(m)
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
    try:
        built = build_family(args.family, **params)
    except (ParameterError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for w in built.warnings:
        print(f"warning: {w}", file=sys.stderr)

    verification = None
    failed = False
    if args.verify:
        verification = induced_coloring(built.graph)
        check = check_expected(built.graph, built.expected, verification)
        failed = not (verification.local_antimagic and check.passed)
        if not verification.local_antimagic:
            print("verification: labeling is not local antimagic", file=sys.stderr)
            for u, v, s in verification.conflicts[:5]:
                print(f"  conflict: {u} -- {v} both sum to {s}", file=sys.stderr)
        for d in check.diffs:
            print(f"expected-colors mismatch: {d}", file=sys.stderr)

    _emit(doc_mod.dumps(doc_mod.built_to_document(built, verification)), args.out)
    return CHECK_FAILED if failed else OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        doc = _load_document(args.input)
        g, expected = doc_mod.document_to_graph(doc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = induced_coloring(g)
    _emit(doc_mod.dumps(report.to_json_dict()), args.out)
    ok = report.local_antimagic
    for u, v, s in report.conflicts[:10]:
        print(f"conflict: {u} -- {v} both sum to {s}", file=sys.stderr)
    for p in report.label_problems[:10]:
        print(f"labels: {p}", file=sys.stderr)
    if expected is not None:
        check = check_expected(g, expected, report)
        ok = ok and check.passed
        for d in check.diffs:
            print(f"expected-colors mismatch: {d}", file=sys.stderr)
    return OK if ok else CHECK_FAILED


def cmd_search(args: argparse.Namespace) -> int:
    try:
        doc = _load_document(args.input)
        g, _ = doc_mod.document_to_graph(doc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    budget = args.budget if args.budget is not None else default_budget()
    try:
        result = chi_la_exact(g, max_edges=args.max_edges, budget=budget)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit(doc_mod.dumps(result.to_json_dict()), args.out)
    if result.status == STATUS_VALUE and result.chi_la is not None:
        print(f"chi_la = {result.chi_la}", file=sys.stderr)
    return OK if result.status != "timeout" else CHECK_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    try:
        doc = _load_document(args.input)
        g, _ = doc_mod.document_to_graph(doc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    sums = induced_coloring(g).sums
    _emit(doc_mod.to_dot(g, sums), args.out)
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
    for k in range(1, top + 1):
        rep = validate(matrix_5x2k(k))
        if not rep.ok:
            report(f"matrix 5x2k k={k}", False, str(rep.failures))
    report(f"matrix 5x2k k=1..{top}", failures == 0)

    before = failures
    for n in range(1, top + 1):
        rep = validate_6x4n(sequences_6x4n(n))
        if not rep.ok:
            report(f"sequences 6x4n n={n}", False, str(rep.failures))
    report(f"sequences 6x4n n=1..{top}", failures == before)

    before = failures
    for k in range(1, top + 1):
        rep = validate(matrix_kx10(k))
        if not rep.ok:
            report(f"matrix kx10 k={k}", False, str(rep.failures))
    report(f"matrix kx10 k=1..{top}", failures == before)

    for tag, grid in ACCEPTANCE_GRID.items():
        before = failures
        for params in grid:
            built = build_family(tag, **params)
            rep = induced_coloring(built.graph)
            chk = check_expected(built.graph, built.expected, rep)
            if not (rep.local_antimagic and chk.passed):
                report(f"family {tag} {params}", False,
                       "; ".join(chk.diffs) or "not local antimagic")
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
                   help="seconds; defaults to $ANTIMAGIC_SEARCH_BUDGET")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export", help="export a graph document as DOT")
    p.add_argument("input")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("selftest", help="run all validators over default grids")
    p.add_argument("--max-param", type=int, default=50)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
