"""Exact brute-force oracle for the local antimagic chromatic number.

``chi_la_exact`` enumerates every bijection from the edge set onto
[1, m], edge by edge in a fixed order and labels in increasing order,
pruning only in ways that cannot change the minimum.  Each rule, with
the ``SearchStats`` counter of the partial assignments it cuts:

* ``conflict``: abort as soon as two adjacent, fully labeled vertices
  carry equal sums; no completion can change either sum.
* ``color_bound``: abort when the distinct sums among fully labeled
  vertices (plus one for an isolated vertex, whose sum 0 is unique)
  already reach the best color count found; final counts can only grow.
* ``symmetry``: pendant edges at the same vertex ("twins") are swapped
  by an automorphism of the graph, which permutes the twins' labels and
  sums and leaves every other sum, so every labeling has an equivalent
  one whose twin labels increase in edge order.  Each twin's label
  therefore starts above the previous twin's; a free label below that
  start counts as one symmetry prune.
* stop when the best count meets ``verify.lower_bound``, which includes
  the pendant bound of Arumugam et al. (Graphs Combin. 2017).

No other symmetry reduction is applied: the label-complement map
l -> m+1-l can break validity between neighbors of unequal degree, so
halving the space with it would be unsound here.  The edge order is
static, so the position at which each vertex becomes fully labeled, and
the neighbors it must then be compared with, are computed once before
the search; the unused labels are a bitmask, so each partial assignment
loops over free labels only.  Default edge budget is 11; the time budget
is the ``budget`` argument in seconds, and ``None`` means unlimited.
A search that runs out of time still reports the lower bound and the
best labeling found so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import GraphTooLarge, LabeledEdge, LabeledGraph
from .verify import induced_coloring, lower_bound

DEFAULT_MAX_EDGES = 11
CLOCK_EVERY = 4096  # nodes between deadline checks

STATUS_VALUE = "value"
STATUS_NO_LABELING = "no_labeling"
STATUS_TIMEOUT = "timeout"

CONFIRMED_3 = "confirmed3"
ONLY_UPPER_BOUND = "only_upper_bound"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    conflict: int
    color_bound: int
    symmetry: int
    elapsed: float

    @property
    def prunes(self) -> int:
        return self.conflict + self.color_bound + self.symmetry


@dataclass(frozen=True)
class SearchResult:
    status: str  # value | no_labeling | timeout
    chi_la: int | None
    witness: LabeledGraph | None  # the best labeling found, also on timeout
    stats: SearchStats
    lower_bound: int  # verify.lower_bound of the graph
    upper_bound: int | None  # color count of the witness
    budget: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "chi_la": self.chi_la,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "witness": (
                [{"u": e.u, "v": e.v, "label": e.label} for e in self.witness.edges]
                if self.witness is not None else None
            ),
            "stats": {
                "nodes": self.stats.nodes,
                "prunes": self.stats.prunes,
                "prunes_by_rule": {
                    "conflict": self.stats.conflict,
                    "color_bound": self.stats.color_bound,
                    "symmetry": self.stats.symmetry,
                },
                "elapsed": self.stats.elapsed,
            },
            "budget": self.budget,
        }


class _Timeout(Exception):
    pass


class _Stop(Exception):
    pass


def _edge_order(g: LabeledGraph) -> list[int]:
    """Static order that completes vertices early (more pruning up front)."""
    deg = [len(nbrs) for nbrs in g.adjacency]
    placed = [0] * g.n_vertices
    remaining = list(range(g.size))
    order = []
    while remaining:
        def score(ei: int) -> tuple[int, int, int]:
            e = g.edges[ei]
            completes = (placed[e.u] == deg[e.u] - 1) + (placed[e.v] == deg[e.v] - 1)
            return (completes, placed[e.u] + placed[e.v], -ei)

        best = max(remaining, key=score)
        remaining.remove(best)
        order.append(best)
        placed[g.edges[best].u] += 1
        placed[g.edges[best].v] += 1
    return order


def _schedule(g: LabeledGraph, order: list[int]) -> list[tuple]:
    """Per position t of the static order: the edge's endpoints, the
    position of the previous twin pendant edge at the same vertex (-1 if
    none), the adjacent vertex pairs that become comparable at t (both
    fully labeled, one of them just now), and the vertices completed at t.
    """
    adj = g.adjacency
    last = [-1] * g.n_vertices
    for t, ei in enumerate(order):
        e = g.edges[ei]
        last[e.u] = last[e.v] = t
    previous_twin: dict[int, int] = {}
    plan = []
    for t, ei in enumerate(order):
        u, v = g.edges[ei].u, g.edges[ei].v
        du, dv = len(adj[u]), len(adj[v])
        hub = u if dv == 1 < du else v if du == 1 < dv else -1
        prev = -1
        if hub >= 0:
            prev = previous_twin.get(hub, -1)
            previous_twin[hub] = t
        done = tuple(w for w in (u, v) if last[w] == t)
        pairs = [(w, nb) for w in done for nb in adj[w] if last[nb] < t]
        if len(done) == 2:
            pairs.append((u, v))
        plan.append((u, v, prev, tuple(pairs), done))
    return plan


class _LabelSets(dict):
    """Bitmask (bit l for label l) -> its labels in increasing order,
    built on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        labels = self[mask] = tuple(
            lab for lab in range(mask.bit_length()) if mask >> lab & 1)
        return labels


def chi_la_exact(
    g: LabeledGraph,
    max_edges: int = DEFAULT_MAX_EDGES,
    budget: float | None = None,
) -> SearchResult:
    """Exhaustive minimum color count over all bijective edge labelings.

    Existing labels on g are ignored; only the structure matters.  Returns
    the minimum with a witness labeling, ``no_labeling`` when no bijection
    is local antimagic, or ``timeout`` when the budget runs out; a timeout
    keeps the lower bound and the best witness found, if any.
    """
    m = g.size
    if m > max_edges:
        raise GraphTooLarge(f"{m} edges exceeds the search budget of {max_edges}")
    start = time.monotonic()
    lb = lower_bound(g)
    if m == 0:
        return SearchResult(STATUS_VALUE, lb, g, SearchStats(0, 0, 0, 0, 0.0),
                            lb, lb, budget)

    order = _edge_order(g)
    plan = _schedule(g, order)
    iso_extra = 1 if any(not nbrs for nbrs in g.adjacency) else 0

    sums = [0] * g.n_vertices
    seen = [0] * (m * (m + 1) // 2 + 1)  # completed vertices per sum value
    assignment = [0] * m
    label_sets = _LabelSets()

    nodes = conflict = color_bound = symmetry = 0
    # prune when the distinct completed sums reach this; no labeling has
    # n + 1 colors, so nothing is pruned before the first one is found
    limit = g.n_vertices + 1 - iso_extra
    best_assignment: list[int] | None = None
    deadline = start + budget if budget is not None else None
    next_clock = 1 if deadline is not None else -1
    final = m - 1

    def dfs(t: int, distinct: int, free: int) -> None:
        nonlocal nodes, conflict, color_bound, symmetry, limit, best_assignment, \
            next_clock
        u, v, prev, pairs, done = plan[t]
        tried = free
        if prev >= 0:  # skip labels up to the previous twin's
            below = free & ((2 << assignment[prev]) - 1)
            symmetry += below.bit_count()
            tried ^= below
        for lab in label_sets[tried]:
            nodes += 1
            if nodes == next_clock:
                if time.monotonic() > deadline:
                    raise _Timeout
                next_clock += CLOCK_EVERY
            sums[u] += lab
            sums[v] += lab
            for a, b in pairs:
                if sums[a] == sums[b]:
                    conflict += 1
                    break
            else:
                d = distinct
                for w in done:
                    s = sums[w]
                    if not seen[s]:
                        d += 1
                    seen[s] += 1
                if d >= limit:
                    color_bound += 1
                else:
                    assignment[t] = lab
                    if t < final:
                        dfs(t + 1, d, free ^ (1 << lab))
                    else:
                        limit = d
                        best_assignment = assignment[:]
                        if d + iso_extra <= lb:
                            raise _Stop
                for w in done:
                    seen[sums[w]] -= 1
            sums[u] -= lab
            sums[v] -= lab

    status = STATUS_VALUE
    try:
        dfs(0, 0, (2 << m) - 2)  # bit l set: label l is free; all of 1..m
    except _Stop:
        pass
    except _Timeout:
        status = STATUS_TIMEOUT

    stats = SearchStats(nodes, conflict, color_bound, symmetry,
                        time.monotonic() - start)
    if best_assignment is None:
        if status == STATUS_VALUE:
            status = STATUS_NO_LABELING
        return SearchResult(status, None, None, stats, lb, None, budget)
    witness_edges = [None] * m
    for ei, lab in zip(order, best_assignment):
        e = g.edges[ei]
        witness_edges[ei] = LabeledEdge(e.u, e.v, lab)
    witness = LabeledGraph(g.names, tuple(witness_edges))
    best = limit + iso_extra
    chi = best if status == STATUS_VALUE else None
    return SearchResult(status, chi, witness, stats, lb, best, budget)


def confirm_three(g: LabeledGraph, witness: LabeledGraph) -> str:
    """Upgrade a verified 3-color witness to an exact value when
    ``lower_bound`` reaches 3 (chromatic number, the 2-coloring gate or
    the pendant count)."""
    report = induced_coloring(witness)
    if not (report.local_antimagic and report.color_count == 3):
        raise ValueError("witness is not a local antimagic 3-coloring")
    return CONFIRMED_3 if lower_bound(g) >= 3 else ONLY_UPPER_BOUND
