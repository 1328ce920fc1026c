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

from antimagic.families import ACCEPTANCE_GRID, verify_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="*", default=None,
                        choices=sorted(ACCEPTANCE_GRID), metavar="TAG",
                        help="subset of family tags (default: all)")
    parser.add_argument("--show-colors", action="store_true")
    args = parser.parse_args()

    points = failures = 0
    t0 = time.monotonic()
    for res in verify_grid(args.families or sorted(ACCEPTANCE_GRID)):
        points += 1
        failures += not res.passed
        param_str = ",".join(f"{k}={v}" for k, v in res.params.items())
        line = (f"{'ok  ' if res.passed else 'FAIL'} {res.tag:<9} {param_str:<14} "
                f"m={res.built.graph.size:<4} colors={res.report.color_count}")
        if args.show_colors:
            line += f" values={sorted(res.report.color_classes)}"
        print(line)
        if not res.passed:
            for d in res.check.diffs[:3]:
                print(f"      {d}")
    elapsed = time.monotonic() - t0
    print(f"\n{points} points, {failures} failure(s), {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
