#!/usr/bin/env python3
"""The exact search's node counts on S60 and on the named hard graphs.

S60 is an unbiased sample: the first 60 connected graphs drawn from one
``random.Random(2024)``.  Each draw takes n = ``randint(6, 8)``, then
``sample(pairs, M)``, where ``pairs`` lists every (a, b) with
a < b < n in lexicographic order; a draw is kept only if every vertex is
on an edge and the graph is connected.  M is 11 unless ``--edges M``
says otherwise (S60@M, 5 to 15 edges).  Edges keep the drawn order and
take labels 1..M in that order, with vertex names v0..v{n-1}.  The named
graphs are R1-R3 (11 edges), T12a/b (12) and S13a/b (13), in their given
edge order, whatever M is.

One line per graph (#00..#59, then the named ones: its chi_la and
nodes), then the S60 total, median, p90 (nearest rank) and maximum of
the nodes and the seconds taken, and the named graphs' total nodes and
seconds, so that two trees' outputs can be compared line by line.

Usage:
    python scripts/s60.py [--edges M]
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time

from antimagic.graph import LabeledGraph, new_graph
from antimagic.search import chi_la_exact

S60_SEED = 2024
S60_SIZE = 60
S60_EDGES = 11

NAMED = {
    "R1": [(0, 1), (0, 3), (0, 6), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6),
           (3, 6), (4, 6)],
    "R2": [(0, 1), (0, 2), (1, 2), (1, 4), (1, 6), (2, 3), (2, 6), (3, 4), (3, 6),
           (4, 5), (5, 6)],
    "R3": [(0, 2), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4),
           (3, 5), (4, 5)],
    "T12a": [(0, 6), (2, 5), (4, 6), (1, 5), (3, 4), (1, 2), (2, 4), (1, 3), (2, 6),
             (1, 4), (0, 3), (2, 3)],
    "T12b": [(2, 5), (3, 4), (4, 5), (4, 6), (1, 5), (0, 5), (1, 4), (3, 5), (3, 6),
             (0, 3), (0, 1), (1, 2)],
    "S13a": [(1, 5), (4, 7), (1, 2), (2, 6), (1, 4), (0, 1), (0, 3), (3, 4), (0, 4),
             (1, 7), (3, 5), (4, 6), (3, 6)],
    "S13b": [(3, 4), (2, 5), (6, 7), (0, 5), (1, 7), (0, 6), (3, 6), (4, 7), (1, 4),
             (1, 2), (5, 6), (0, 7), (4, 5)],
}


def graph_of(pairs: list[tuple[int, int]]) -> LabeledGraph:
    """Vertices v0..v{n-1}, the pairs in order, labels 1, 2, ... in that order."""
    n = max(max(p) for p in pairs) + 1
    return new_graph([f"v{i}" for i in range(n)],
                     [(a, b, t + 1) if a < b else (b, a, t + 1)
                      for t, (a, b) in enumerate(pairs)])


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    reached = {0}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                grew = True
    return len(reached) == n


def draw_s60(edges: int = S60_EDGES) -> list[list[tuple[int, int]]]:
    """The S60@``edges`` graphs' edge lists, in the order they are drawn."""
    rng = random.Random(S60_SEED)
    graphs = []
    while len(graphs) < S60_SIZE:
        n = rng.randint(6, 8)
        pairs = rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], edges)
        if len({w for p in pairs for w in p}) == n and _connected(n, pairs):
            graphs.append(pairs)
    return graphs


def _search(name: str, pairs: list[tuple[int, int]]) -> int:
    g = graph_of(pairs)
    result = chi_la_exact(g, max_edges=g.size)
    print(f"{name:<6} n={g.n_vertices} m={g.size} {result.status} chi_la={result.chi_la} "
          f"nodes={result.stats.nodes}", flush=True)
    return result.stats.nodes


def main() -> int:
    parser = argparse.ArgumentParser(description="The exact search's node counts on S60.")
    parser.add_argument("--edges", type=int, default=S60_EDGES, metavar="M",
                        help="draw S60@M, M edges per graph (default %(default)s)")
    args = parser.parse_args()
    # below 5 edges no draw is connected; above 15 a 6-vertex draw has too few pairs
    if not 5 <= args.edges <= 15:
        parser.error(f"--edges must be 5 to 15, not {args.edges}")
    start = time.monotonic()
    nodes = sorted(_search(f"#{i:02d}", pairs)
                   for i, pairs in enumerate(draw_s60(args.edges)))
    seconds = time.monotonic() - start
    start = time.monotonic()
    named = [_search(name, pairs) for name, pairs in NAMED.items()]
    p90 = nodes[math.ceil(0.9 * len(nodes)) - 1]
    print(f"S60: {sum(nodes)} nodes in total, median {statistics.median(nodes):g}, "
          f"p90 {p90}, max {nodes[-1]}, {seconds:.1f} s")
    print(f"named: {sum(named)} nodes in total, {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
