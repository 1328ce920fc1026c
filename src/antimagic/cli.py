"""Command-line surface: matrix / build / verify / search / export / selftest.

Exit codes: 0 success or verified, 1 verification failure or timeout,
2 usage error.  Output is deterministic: no randomness and no timings
anywhere, JSON with sorted keys, DOT with sorted vertices.  Only a search
whose budget runs out depends on when it ran out.

``main`` builds the parser once per process, on its first call, and runs
the ``cmd_<command>`` it looks up by name when each call runs, so it may be
called repeatedly in-process.  Each command runs with the cyclic garbage
collector paused, and ``main`` turns it back on only if it was on.  No
command builds cycles worth collecting, yet a 16k-edge build would run
~150 collections in vain.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Iterable, Sequence, TextIO

from . import document as doc_mod
from .families import FAMILIES, build_family, shared_units
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
READ_CHUNK_CHARS = 1 << 16  # a document is read this many characters at a time
# build's parameter flags, one per parameter name of the registry's grids
_BUILD_PARAMS = tuple(dict.fromkeys(p for _, grid in FAMILIES.values() for p in grid[0]))


def _emit(text: str, out: str | None) -> None:
    if out is not None:  # an empty path is an error, as it is for an input
        # encoded before open() truncates out, so that a text UTF-8 cannot
        # encode (a name with a lone surrogate) leaves out as it was
        data = text.encode("utf-8")
        with open(out, "wb") as f:
            f.write(data)
    else:
        sys.stdout.write(text)


def _read_capped(f: TextIO) -> str:
    """Up to ``MAX_DOCUMENT_CHARS + 1`` characters of ``f``, read in chunks
    so that memory grows with the input, not with the cap."""
    chunks = []
    room = MAX_DOCUMENT_CHARS + 1
    while room > 0:
        chunk = f.read(min(READ_CHUNK_CHARS, room))
        if not chunk:
            break
        chunks.append(chunk)
        room -= len(chunk)
    return "".join(chunks)


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            raw = _read_capped(sys.stdin)
        else:
            with open(path, encoding="utf-8") as f:
                raw = _read_capped(f)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(raw) > MAX_DOCUMENT_CHARS:
        raise ValueError(f"{path}: more than {MAX_DOCUMENT_CHARS} characters, "
                         "longer than any document build writes")
    try:
        return json.loads(raw)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    except ValueError as exc:  # malformed JSON, or an int with too many digits
        raise ValueError(f"{path}: {exc}") from None


def _check(g: LabeledGraph, expected: ExpectedColors | None) -> tuple[ColorReport, list[str]]:
    """Color ``g`` and check it against ``expected`` when there is a claim.
    The problem lines are empty exactly when ``g`` is local antimagic and
    as claimed."""
    report = induced_coloring(g)
    problems = [f"conflict: {u} -- {v} both sum to {s}" for u, v, s in report.conflicts[:10]]
    problems += [f"labels: {p}" for p in report.label_problems[:10]]
    if expected is not None:
        problems += [f"expected-colors mismatch: {d}"
                     for d in check_expected(expected, report)]
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
    generate = {"5x2k": matrix_5x2k, "kx10": matrix_kx10, "6x4n": matrix_6x4n}[kind]
    m = generate(param)

    if args.format == "csv":
        text = doc_mod.rows_csv(m.sequences if args.sequences else m.grid)
    else:
        text = doc_mod.dumps(doc_mod.matrix_json(m, include_sequences=args.sequences))
    _emit(text, args.out)
    problems = [f"FAIL {line}" for line in validate(m)] if args.validate else []
    return _verdict(problems)


def cmd_build(args: argparse.Namespace) -> int:
    params = {p: getattr(args, p) for p in _BUILD_PARAMS if getattr(args, p) is not None}
    built = build_family(args.family, **params)
    for w in built.warnings:
        print(f"warning: {w}", file=sys.stderr)

    verification, problems = _check(built.graph, built.expected) if args.verify else (None, [])
    _emit(doc_mod.dumps(doc_mod.built_to_document(built, verification)), args.out)
    return _verdict(problems)


def cmd_verify(args: argparse.Namespace) -> int:
    g, expected = doc_mod.document_to_graph(_load_document(args.input))
    report, problems = _check(g, expected)
    _emit(doc_mod.dumps(doc_mod.report_to_document(report)), args.out)
    return _verdict(problems)


def cmd_search(args: argparse.Namespace) -> int:
    budget = args.budget
    if budget is None and os.environ.get(BUDGET_ENV_VAR):
        try:
            budget = float(os.environ[BUDGET_ENV_VAR])
            check_budget(budget)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV_VAR}: {exc}") from None
    else:
        check_budget(budget)
    if args.max_edges < 0:
        raise ValueError(f"--max-edges must be at least 0, not {args.max_edges}")
    g, _ = doc_mod.document_to_graph(_load_document(args.input))
    result = chi_la_exact(g, max_edges=args.max_edges, budget=budget)
    _emit(doc_mod.dumps(doc_mod.search_to_document(result)), args.out)
    if result.status == STATUS_VALUE:
        print(f"chi_la = {result.chi_la}", file=sys.stderr)
    return CHECK_FAILED if result.status == STATUS_TIMEOUT else OK


def cmd_export(args: argparse.Namespace) -> int:
    g, _ = doc_mod.document_to_graph(_load_document(args.input))
    _emit(doc_mod.to_dot(g), args.out)
    return OK


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def group(summary: str, points: Iterable[tuple[str, Sequence[str]]]) -> None:
        """Print a FAIL line for each (name, problem lines) point that has
        problems, then the group's ok or FAIL line; each FAIL is a failure."""
        nonlocal failures
        before = failures
        for name, problems in points:
            if problems:
                failures += 1
                print(f"FAIL {name}: {'; '.join(problems)}")
        if failures == before:
            print(f"ok   {summary}")
        else:
            failures += 1
            print(f"FAIL {summary}: ")

    top = args.max_param
    if top < 0:
        raise ValueError(f"--max-param must be at least 0, not {top}")
    kinds = (("matrix 5x2k k", matrix_5x2k, validate),
             ("sequences 6x4n n", sequences_6x4n, validate_6x4n),
             ("matrix kx10 k", matrix_kx10, validate))
    if top:  # a top above a generator's cap is refused before any output
        for _, generate, _ in kinds:
            generate(top)
    for label, generate, check in kinds:
        group(f"{label}=1..{top}",
              ((f"{label}={p}", check(generate(p))) for p in range(1, top + 1)))

    with shared_units():  # one unit build per point; DFr shares rDF's split fans
        for tag, (_, grid) in FAMILIES.items():
            group(f"family {tag} ({len(grid)} points)",
                  ((f"family {tag} {params}", _check(built.graph, built.expected)[1])
                   for params in grid for built in [build_family(tag, **params)]))

    print(f"selftest: {failures} failure(s)")
    return OK if failures == 0 else CHECK_FAILED


@functools.cache
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

    p = sub.add_parser("build", help="construct a labeled family as JSON")
    p.add_argument("family", help=", ".join(sorted(FAMILIES)))
    for name in _BUILD_PARAMS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="verify a graph document")
    p.add_argument("input", help="graph document path, or - for stdin")
    p.add_argument("--out")

    p = sub.add_parser("search", help="exact chi_la search on a graph document")
    p.add_argument("input")
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    p.add_argument("--budget", type=float, default=None,
                   help=f"positive seconds; defaults to ${BUDGET_ENV_VAR}, else unlimited")
    p.add_argument("--out")

    p = sub.add_parser("export", help="export a graph document as DOT")
    p.add_argument("input")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--out")

    p = sub.add_parser("selftest", help="run all validators over default grids")
    p.add_argument("--max-param", type=int, default=50,
                   help="check the matrices for parameters 1..N (0: none)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return globals()["cmd_" + args.command](args)
    except (OSError, ValueError) as exc:  # bad input: parameters, documents, files
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
