#!/usr/bin/env python3
"""Desk-scale evidence for the open chromatic-number questions.

The exact values of chi_la for the C8 units, B_k, and kC(8,2) are open;
the single-unit instances at k = 1 have 10 edges each, which is within
reach of the exact search oracle.  This script runs the oracle on them
(and on the smallest closed cases as sanity anchors) and prints the
findings next to the known bounds.

Usage:
    python scripts/explore_small_chi_la.py [--budget SECONDS] [--max-edges N]
"""

from __future__ import annotations

import argparse
import sys

from antimagic.families import build_family
from antimagic.search import (
    DEFAULT_MAX_EDGES,
    STATUS_VALUE,
    check_budget,
    chi_la_exact,
)
from antimagic.graph import GraphTooLarge, LabeledGraph
from antimagic.verify import induced_coloring, lower_bound

CONFIRMED_3 = "confirmed3"
ONLY_UPPER_BOUND = "only_upper_bound"


CASES = (
    ("C8_units", {"k": 1}, "2 <= chi_la <= 4 known"),
    ("Bk", {"k": 1}, "2 <= chi_la <= 3 known"),
    ("kC82", {"k": 1}, "3 <= chi_la <= 4 known"),
    ("kD82", {"k": 1}, "chi_la = 3 known"),
    ("FB", {"k": 1}, "chi_la = 3 known"),
)


def confirm_three(g: LabeledGraph, witness: LabeledGraph) -> str:
    """Upgrade a verified 3-color witness to an exact value when
    ``lower_bound`` reaches 3 (chromatic number, the 2-coloring gate or
    the pendant count)."""
    report = induced_coloring(witness)
    if not (report.local_antimagic and report.color_count == 3):
        raise ValueError("witness is not a local antimagic 3-coloring")
    return CONFIRMED_3 if lower_bound(g) >= 3 else ONLY_UPPER_BOUND


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=None,
                        help="seconds per case (default: unlimited)")
    parser.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    args = parser.parse_args()
    try:
        check_budget(args.budget)
    except ValueError as exc:
        parser.error(str(exc))
    if args.max_edges < 0:
        parser.error(f"--max-edges must be at least 0, not {args.max_edges}")

    for tag, params, known in CASES:
        built = build_family(tag, **params)
        g = built.graph
        constructed = induced_coloring(g).color_count
        try:
            result = chi_la_exact(g, max_edges=args.max_edges, budget=args.budget)
        except GraphTooLarge:
            print(f"{tag:<9} {params} m={g.size:<3} constructed={constructed}  "
                  f"search: above --max-edges {args.max_edges}  known: {known}")
            continue
        if result.status == STATUS_VALUE:
            verdict = f"chi_la = {result.chi_la}"
            if result.chi_la == 3:
                verdict += f" ({confirm_three(g, result.witness)})"
        else:
            verdict = result.status
        print(f"{tag:<9} {params} m={g.size:<3} lower_bound={result.lower_bound} "
              f"constructed={constructed}  search: {verdict} "
              f"[{result.stats.nodes} nodes, {result.stats.elapsed:.2f}s]  "
              f"known: {known}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
