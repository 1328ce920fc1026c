"""Exact brute-force oracle for the local antimagic chromatic number.

``chi_la_exact`` enumerates bijections from the edge set onto [1, m],
edge by edge in a fixed order and labels in increasing order, pruning
only in ways that cannot change the minimum.  It searches in rounds:

* (a) **Deepen on the target.**  A first *dive* runs the search with no
  color target and stops at its first complete labeling, which gives a
  witness with u colors (if it finds none, the dive has enumerated
  everything and there is no labeling).  If u meets
  ``verify.lower_bound`` the search stops: that bound includes the
  pendant bound of Arumugam et al. (Graphs Combin. 2017).  Otherwise
  one round runs for each target c = lower_bound, ..., u - 1 in turn,
  looking for any labeling with at most c colors.  Proof: a round prunes
  only assignments that cannot complete to at most c colors (the rules
  below), so a round that finds nothing proves chi_la > c; every target
  below c has been refuted or lies below ``lower_bound``, so a round
  that finds a labeling proves chi_la = c, and when every round fails
  chi_la = u with the dive's witness.

Each pruning rule, with the ``SearchStats`` counter of the partial
assignments it cuts:

* ``conflict``: abort as soon as two adjacent, fully labeled vertices
  carry equal sums; no completion can change either sum.
* ``color_bound``: abort when the distinct sums among fully labeled
  vertices (plus one for an isolated vertex, whose sum 0 is unique)
  exceed the round's target; a completed vertex keeps its sum, so the
  final count can only be larger.
* ``reach`` (b): when the fully labeled vertices already use every color
  the target allows, no vertex may end on a new sum, so each endpoint w
  of the current edge that still has r unlabeled edges must end on a sum
  some fully labeled vertex already has.  Its final sum is sums[w] plus
  r distinct free labels, which lies between sums[w] plus the r smallest
  and sums[w] plus the r largest free labels; if no taken sum lies in
  that interval, no completion stays within the target.
* ``symmetry``: pendant edges at the same vertex ("twins") are swapped
  by an automorphism of the graph, which permutes the twins' labels and
  sums and leaves every other sum, so every labeling has an equivalent
  one whose twin labels increase in edge order.  Each twin's label
  therefore starts above the previous twin's; a free label below that
  start counts as one symmetry prune.

No other symmetry reduction is applied: the label-complement map
l -> m+1-l can break validity between neighbors of unequal degree, so
halving the space with it would be unsound here.  The edge order is
static, so the position at which each vertex becomes fully labeled, the
neighbors it must then be compared with, and the edges each endpoint
still lacks are computed once before the search; the unused labels and
the taken sums are bitmasks, so each partial assignment loops over free
labels only.  Default edge budget is 11; the time budget is the
``budget`` argument in seconds, and ``None`` means unlimited.  A search
that runs out of time reports the best labeling found so far and, as
its lower bound, one more than the largest refuted target (at least
``verify.lower_bound``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate

from .graph import GraphTooLarge, LabeledEdge, LabeledGraph
from .verify import lower_bound

DEFAULT_MAX_EDGES = 11
CLOCK_EVERY = 4096  # nodes between deadline checks

STATUS_VALUE = "value"
STATUS_NO_LABELING = "no_labeling"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    conflict: int
    color_bound: int
    symmetry: int
    reach: int
    elapsed: float

    @property
    def prunes(self) -> int:
        return self.conflict + self.color_bound + self.symmetry + self.reach


@dataclass(frozen=True)
class SearchResult:
    status: str  # value | no_labeling | timeout
    chi_la: int | None
    witness: LabeledGraph | None  # the best labeling found, also on timeout
    stats: SearchStats
    lower_bound: int  # verify.lower_bound; on a timeout, 1 + the largest refuted target
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
                    "reach": self.stats.reach,
                },
                "elapsed": self.stats.elapsed,
            },
            "budget": self.budget,
        }


class _Timeout(Exception):
    pass


class _Found(Exception):
    """A complete labeling within the target; carries its color count."""


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
    fully labeled, one of them just now), the vertices completed at t,
    and each other endpoint with its count of edges after t.
    """
    adj = g.adjacency
    last = [-1] * g.n_vertices
    for t, ei in enumerate(order):
        e = g.edges[ei]
        last[e.u] = last[e.v] = t
    left = [len(nbrs) for nbrs in adj]
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
        left[u] -= 1
        left[v] -= 1
        done = tuple(w for w in (u, v) if not left[w])
        opens = tuple((w, left[w]) for w in (u, v) if left[w])
        pairs = [(w, nb) for w in done for nb in adj[w] if last[nb] < t]
        if len(done) == 2:
            pairs.append((u, v))
        plan.append((u, v, prev, tuple(pairs), done, opens))
    return plan


class _LabelSets(dict):
    """Bitmask (bit l for label l) -> its labels in increasing order,
    built on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        labels = self[mask] = tuple(
            lab for lab in range(mask.bit_length()) if mask >> lab & 1)
        return labels


class _Spans(dict):
    """Bitmask of free labels -> per count r, the sum lo of its r smallest
    labels and the bitmask of hi - lo + 1 ones, hi the sum of its r
    largest; built on first use."""

    def __missing__(self, mask: int) -> tuple[tuple[int, int], ...]:
        labels = [lab for lab in range(mask.bit_length()) if mask >> lab & 1]
        spans = self[mask] = tuple(
            (lo, (2 << (hi - lo)) - 1)
            for lo, hi in zip(accumulate(labels, initial=0),
                              accumulate(reversed(labels), initial=0)))
        return spans


def check_budget(budget: float | None) -> None:
    """Reject a time budget that is not a positive finite number of
    seconds; ``None`` means unlimited."""
    if budget is not None and not 0 < budget < math.inf:  # also rejects nan
        raise ValueError(
            f"search budget must be a positive finite number of seconds, not {budget}")


def chi_la_exact(
    g: LabeledGraph,
    max_edges: int = DEFAULT_MAX_EDGES,
    budget: float | None = None,
) -> SearchResult:
    """Exhaustive minimum color count over all bijective edge labelings.

    Existing labels on g are ignored; only the structure matters.  Returns
    the minimum with a witness labeling, ``no_labeling`` when no bijection
    is local antimagic, or ``timeout`` when the budget runs out; a timeout
    keeps the best witness found, if any, and the best proven lower bound.
    """
    m = g.size
    if m > max_edges:
        raise GraphTooLarge(f"{m} edges exceeds the search budget of {max_edges}")
    check_budget(budget)
    start = time.monotonic()
    lb = lower_bound(g)
    if m == 0:
        return SearchResult(STATUS_VALUE, lb, g, SearchStats(0, 0, 0, 0, 0, 0.0),
                            lb, lb, budget)

    order = _edge_order(g)
    plan = _schedule(g, order)
    n = g.n_vertices
    iso_extra = 1 if any(not nbrs for nbrs in g.adjacency) else 0

    sums = [0] * n
    assignment = [0] * m
    label_sets = _LabelSets()
    spans = _Spans()

    nodes = conflict = color_bound = symmetry = reach = 0
    cap = 0  # most distinct completed sums the current target allows
    deadline = start + budget if budget is not None else None
    next_clock = 1 if deadline is not None else -1
    final = m - 1

    def dfs(t: int, distinct: int, taken: int, free: int) -> None:
        nonlocal nodes, conflict, color_bound, symmetry, reach, next_clock
        u, v, prev, pairs, done, opens = plan[t]
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
                now = taken  # bit s set: a completed vertex has sum s
                for w in done:
                    bit = 1 << sums[w]
                    if not now & bit:
                        now |= bit
                        d += 1
                if d > cap:
                    color_bound += 1
                else:
                    rest = free ^ (1 << lab)
                    cut = False
                    if d == cap:  # no new sum fits: each open endpoint needs a taken one
                        span = spans[rest]
                        for w, r in opens:
                            lo, width = span[r]
                            if not now >> (sums[w] + lo) & width:
                                reach += 1
                                cut = True
                                break
                    if not cut:
                        assignment[t] = lab
                        if t < final:
                            dfs(t + 1, d, now, rest)
                        else:
                            raise _Found(d + iso_extra)
            sums[u] -= lab
            sums[v] -= lab

    def attempt(target: int) -> int | None:
        """Colors of the first labeling in search order with at most
        `target` colors, left in `assignment`; None if there is none."""
        nonlocal cap
        cap = target - iso_extra
        sums[:] = [0] * n  # a search that found a labeling left them set
        try:
            dfs(0, 0, 0, (2 << m) - 2)  # bit l set: label l is free; all of 1..m
        except _Found as found:
            return found.args[0]
        return None

    status = STATUS_VALUE
    best: tuple[int, list[int]] | None = None  # colors, assignment
    refuted = lb - 1  # chi_la > refuted is proven
    try:
        colors = attempt(n)  # the dive: n colors never prune
        if colors is not None:
            best = colors, assignment[:]
            while refuted + 1 < best[0]:
                colors = attempt(refuted + 1)
                if colors is not None:
                    best = colors, assignment[:]
                    break
                refuted += 1
    except _Timeout:
        status = STATUS_TIMEOUT

    stats = SearchStats(nodes, conflict, color_bound, symmetry, reach,
                        time.monotonic() - start)
    proven = refuted + 1 if status == STATUS_TIMEOUT else lb
    if best is None:
        if status == STATUS_VALUE:
            status = STATUS_NO_LABELING
        return SearchResult(status, None, None, stats, proven, None, budget)
    colors, best_assignment = best
    witness_edges = [None] * m
    for ei, lab in zip(order, best_assignment):
        e = g.edges[ei]
        witness_edges[ei] = LabeledEdge(e.u, e.v, lab)
    witness = LabeledGraph(g.names, tuple(witness_edges))
    chi = colors if status == STATUS_VALUE else None
    return SearchResult(status, chi, witness, stats, proven, colors, budget)
