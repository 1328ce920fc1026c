#!/usr/bin/env python3
"""Build and verify every family over its default parameter grid.

Usage:
    python scripts/run_family_grid.py [--families FB rDF ...] [--show-colors]

Prints one line per grid point: tag, parameters, size, verdicts, and the
color values if requested.  Exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from antimagic.families import ACCEPTANCE_GRID, build_family
from antimagic.verify import check_expected, induced_coloring


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="*", default=None,
                        help="subset of family tags (default: all)")
    parser.add_argument("--show-colors", action="store_true")
    args = parser.parse_args()

    tags = args.families or sorted(ACCEPTANCE_GRID)
    failures = 0
    t0 = time.monotonic()
    for tag in tags:
        if tag not in ACCEPTANCE_GRID:
            print(f"unknown family {tag!r}", file=sys.stderr)
            return 2
        for params in ACCEPTANCE_GRID[tag]:
            built = build_family(tag, **params)
            rep = induced_coloring(built.graph)
            chk = check_expected(built.graph, built.expected, rep)
            ok = rep.local_antimagic and chk.passed
            failures += not ok
            param_str = ",".join(f"{k}={v}" for k, v in params.items())
            line = (f"{'ok  ' if ok else 'FAIL'} {tag:<9} {param_str:<14} "
                    f"m={built.graph.size:<4} colors={rep.color_count}")
            if args.show_colors:
                line += f" values={sorted(rep.color_classes)}"
            print(line)
            if not ok:
                for d in chk.diffs[:3]:
                    print(f"      {d}")
    elapsed = time.monotonic() - t0
    print(f"\n{sum(len(g) for t, g in ACCEPTANCE_GRID.items() if t in tags)} "
          f"points, {failures} failure(s), {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
