"""Exact brute-force oracle for the local antimagic chromatic number.

``chi_la_exact`` enumerates bijections from the edge set onto [1, m],
edge by edge in a fixed order and labels in increasing order, pruning
only in ways that cannot change the minimum.  It searches in rounds:

* **Deepen on the target.**  A first *dive* runs the search with no
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
  chi_la = u with the dive's witness.  ``_searcher`` is the setup and
  the node loop for one edge order, one target per call, and
  ``chi_la_exact`` decides the targets.

Each pruning rule, with the ``SearchStats`` counter of the partial
assignments it cuts:

* ``conflict``: abort as soon as two adjacent, fully labeled vertices
  carry equal sums; no completion can change either sum.
* ``color_bound``: abort when the distinct sums among fully labeled
  vertices exceed the round's target; a completed vertex keeps its sum,
  so the final count can only be larger.  An isolated vertex counts as
  a completed vertex from the start, at sum 0, which no vertex on an
  edge can have.
* ``reach``: let w be a vertex with r unlabeled edges and F the free
  labels.  Its edges take r distinct labels of F, so it ends on sums[w]
  plus a sum in S_r(F), the set of sums of r distinct labels of F (a
  bitmask, cached per F as told below).  A neighbor of w whose edges are
  all labeled keeps its sum, and adjacent sums differ, so w cannot end
  on it.  Call w *stuck* if no sum of a fully labeled vertex is
  reachable that way, leaving out the sums of w's fully labeled
  neighbors: w must end on a sum no vertex has yet.  When the fully
  labeled vertices already use every color the target allows, one stuck
  vertex cuts the branch.  When they use all but one, only one new sum
  is left, and every stuck vertex ends on it: so two adjacent stuck
  vertices cut the branch (adjacent sums differ), and so do stuck
  vertices whose sets of reachable sums outside the taken ones,
  (S_r(F) << sums[w]) & ~taken, have no common member.  Every vertex
  with unlabeled edges is checked, not only the current edge's
  endpoints.
* ``clique``: the all-different filter of Regin ("A filtering
  algorithm for constraints of difference in CSPs", AAAI 1994), reduced
  to Hall's condition on the whole clique.  Let d be the distinct sums
  of the fully labeled vertices and cap the round's target, so that at
  most cap - d new sums may still appear, and let Q be a clique of open
  vertices.  The members of Q are pairwise adjacent, so they end on
  pairwise distinct sums.  Each ends either on a taken sum it can reach,
  from fin[w], the taken sums ``reach`` finds w able to end on (those of
  w's fully labeled neighbors left out), or on one of the at most
  cap - d new sums.  So |Q| <= |U fin[w]| + cap - d over w in Q, and a
  branch is cut when Q breaks it.  The first ``reach`` cuts are the
  cases |Q| = 1 at cap - d = 0 and |Q| = 2 (an edge) at cap - d = 1,
  both with U fin[w] empty.  The cliques tested
  at a position are g's maximal cliques of three or more vertices,
  found once, each restricted to the position's open vertices and
  dropped once fewer than three of its members are open (see
  ``_schedule``).  A clique of q open members can cut only when
  d > cap - q, so the reach loop runs from d = cap - (w_t - 1) on, with
  w_t the largest open clique of position t (2 when there is none): a
  position with no open triangle, as on every bipartite g, runs it only
  at d >= cap - 1, as it would without this rule.
* ``sum_total``: the label-total identity of
  ``verify.two_coloring_impossible``, applied to a partial labeling.
  When the fully labeled vertices use every color the target allows,
  each open vertex w must end on a taken sum other than those of its
  fully labeled neighbors, so its increment (its final sum less
  sums[w]) lies in the set ``reach`` tests it against.  Each free label
  ends on exactly one unlabeled edge, whose two ends are open, so the
  increments of all open vertices add up to 2 * sum(F).  On a bipartite
  g, fix a proper 2-coloring: each unlabeled edge has one end on each
  side, so the increments of each side add up to sum(F).  A branch is
  cut when that total is not a sum of one increment per open vertex:
  per side on a bipartite g, over all open vertices otherwise.  The
  totals reachable so far are a bitmask, and adding a vertex ORs one
  shift of it per candidate increment (the dynamic program of Trick,
  "A dynamic programming approach for consistency and propagation for
  knapsack constraints", Annals of OR 118, 2003).
* ``symmetry`` (lex-leader, Crawford, Ginsberg, Luks and Roy, KR 1996):
  let pi be a vertex automorphism of g, s the first position of the
  static edge order whose edge pi moves, and q the position of the image
  of that edge; q > s, because pi fixes every edge before s.  For any
  labeling f, f o pi has the sums f+ o pi, so it is local antimagic
  exactly when f is, with as many colors.  f and f o pi agree before s
  and differ at s (labels are distinct), so the lexicographically least
  labeling of each orbit has label[q] > label[s], for every pi at once;
  searching only labelings that meet these constraints, for any set of
  automorphisms, keeps one labeling of every orbit.  At position q each
  free label up to the largest such label[s] counts as one symmetry
  prune.  The automorphisms come from the twin quotient (see
  ``_automorphisms``), so a star K1,n costs n - 1 swaps, not n! maps.

A sound cut removes only subtrees that hold no labeling within the
round's target, and the labels are tried in the same order whatever is
cut, so each round's first labeling, and with it the witness, does not
depend on which sound cuts are made: a new rule changes the node and
prune counts only.

No other symmetry reduction is applied: the label-complement map
l -> m+1-l can break validity between neighbors of unequal degree, so
halving the space with it would be unsound here.  The edge order is
static, so the position at which each vertex becomes fully labeled, the
neighbors it must then be compared with, the edges each vertex still
lacks, its neighbors fully labeled by each position, the open cliques
of each position and the lex-leader constraints are computed once
before the search (``_schedule``); what does not change with the
position, a vertex's neighbors as a bitmask and its side, is kept once
per vertex.  The unused labels and the taken sums are bitmasks, so each
partial assignment loops over free labels only.

The sum sets S_r(F) are kept for r up to R, the most unlabeled edges
any open vertex has at any position, since no larger r is asked for.
The set of a new F is derived, not built from scratch: drop the lowest
labels of F until a cached mask is reached (the empty one always is),
then add the dropped labels back one at a time, each label l turning
every S_r into S_r | S_(r-1) << l.  The masks passed on the way, F
last, are all cached.  The cache has one bound: once it holds
``SUM_SETS_ROOM`` bytes (at the size of the largest possible entry), the
next new F first empties it back to the empty mask's entry.

Default edge budget is 11, and a graph too deep for the recursion limit
(see ``FRAME_MARGIN``) raises ``GraphTooLarge`` up front: ``dfs`` takes
one frame per edge, plus one in which it recognizes the complete
labeling, at position m.  The time budget is the ``budget`` argument
in seconds, and ``None`` means unlimited.  It covers the setup too: each
step of each long loop reads the clock (each pick of the edge order,
pair of blocks of the transversal, step of the clique enumeration,
position of the schedule and search node).  A search that runs out of
time reports the best labeling found so far and, as its lower bound,
one more than the largest refuted target (at least
``verify.lower_bound``); one that runs out in the setup has no labeling
and the lower bound ``verify.lower_bound``.

This module only computes: ``document.search_to_document`` writes a
``SearchResult``.  ``SearchStats.elapsed`` stays on the record and is not
written, so equal searches write equal bytes.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .graph import GraphTooLarge, LabeledGraph, is_bipartite
from .verify import induced_coloring, lower_bound

DEFAULT_MAX_EDGES = 11
SUM_SETS_ROOM = 16 << 20  # bytes of sum sets; past them the cache empties
# frames of the recursion limit left to the caller, the setup and the
# frame in which dfs recognizes a complete labeling
FRAME_MARGIN = 100

STATUS_VALUE = "value"
STATUS_NO_LABELING = "no_labeling"
STATUS_TIMEOUT = "timeout"


class SearchStats(NamedTuple):
    nodes: int = 0
    conflict: int = 0
    color_bound: int = 0
    symmetry: int = 0
    reach: int = 0
    sum_total: int = 0
    clique: int = 0
    elapsed: float = 0.0

    @property
    def prunes(self) -> int:
        return sum(getattr(self, rule) for rule in RULES)


RULES = SearchStats._fields[1:-1]  # the prune counters, between nodes and elapsed


class SearchResult(NamedTuple):
    status: str  # value | no_labeling | timeout
    chi_la: int | None
    witness: LabeledGraph | None  # the best labeling found, also on timeout
    stats: SearchStats
    lower_bound: int  # verify.lower_bound; on a timeout, 1 + the largest refuted target
    upper_bound: int | None  # color count of the witness
    budget: float | None = None


class _Timeout(Exception):
    pass


class _Found(Exception):
    """A complete labeling within the target; carries its color count."""


def _edge_order(g: LabeledGraph, deadline: float | None = None) -> list[int]:
    """Static order that completes vertices early (more pruning up front);
    raises ``_Timeout`` past ``deadline``."""
    deg = g.degree
    placed = [0] * g.n_vertices

    def score(ei: int) -> tuple[int, int, int]:
        u, v, _ = g.edges[ei]
        completes = (placed[u] == deg[u] - 1) + (placed[v] == deg[v] - 1)
        return (completes, placed[u] + placed[v], -ei)

    remaining = list(range(g.size))
    order = []
    while remaining:
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout
        best = max(remaining, key=score)
        remaining.remove(best)
        order.append(best)
        for w in g.edges[best][:2]:
            placed[w] += 1
    return order


def _automorphisms(g: LabeledGraph, order: list[int],
                   deadline: float | None = None) -> list[list[int]]:
    """Vertex automorphisms of g as image lists: the swap of each pair of
    consecutive twins, and maps of the twin quotient lifted to g.

    Twins are vertices x, y with N(x) - {y} = N(y) - {x}; they fall into
    classes, each a clique or an independent set, and swapping two twins
    is an automorphism.  Each class contracts to one block whose kind is
    its adjacency, size and member kind, and the contraction repeats on
    the quotient (blocks of equal kind only) until no twins are left.  A
    map of the final quotient that keeps kinds and adjacency lifts to g
    by sending each block's vertices onto its image's in member order.
    Of those maps, one is kept per block b and later block c: the first
    found that fixes every block before b and sends b to c, if any.
    These generate the quotient's group (a Sims transversal) with at most
    size^2 / 2 maps, however large the group.  Vertices are ordered by
    their first edge in the static order, so the constraints the maps
    give do not depend on vertex ids.  A vertex on no edge takes no part:
    every map sends it to itself, since a map that moves only such
    vertices fixes every edge and constrains nothing.  Past ``deadline``
    the transversal raises ``_Timeout``.
    """
    rank = dict.fromkeys(w for ei in order for w in g.edges[ei][:2])  # by first edge
    members = [[w] for w in rank]
    block_of = {m[0]: b for b, m in enumerate(members)}
    nbrs = [{block_of[x] for x in g.adjacency[m[0]]} for m in members]
    kinds: list[tuple] = [()] * len(members)
    identity = list(range(g.n_vertices))
    maps = []
    while True:
        classes: dict[tuple, list[int]] = {}
        for b, around in enumerate(nbrs):
            classes.setdefault((kinds[b], False, frozenset(around)), []).append(b)
            classes.setdefault((kinds[b], True, frozenset(around | {b})), []).append(b)
        twins = [(key[1], c) for key, c in classes.items() if len(c) > 1]
        if not twins:
            break
        head = list(range(len(members)))
        for adjacent, c in twins:
            for a, b in zip(c, c[1:]):
                pi = identity[:]
                for x, y in zip(members[a], members[b]):
                    pi[x], pi[y] = y, x
                maps.append(pi)
            kinds[c[0]] = (adjacent, len(c), kinds[c[0]])
            for b in c[1:]:
                members[c[0]] += members[b]
                head[b] = c[0]
        keep = [b for b, h in enumerate(head) if h == b]
        renum = {b: i for i, b in enumerate(keep)}
        nbrs = [{renum[head[x]] for x in nbrs[b]} - {renum[b]} for b in keep]
        members = [members[b] for b in keep]
        kinds = [kinds[b] for b in keep]

    size = len(members)
    image = list(range(size))
    unused = [False] * size

    def fits(b: int, c: int) -> bool:
        """Block b may map onto c, given the images of the blocks before b."""
        return (unused[c] and kinds[c] == kinds[b] and len(nbrs[c]) == len(nbrs[b])
                and all((image[a] in nbrs[c]) == (a in nbrs[b]) for a in range(b)))

    def extend(b: int, targets: Sequence[int]) -> bool:
        """Map block b onto one of ``targets`` and complete ``image`` from
        there; record the first map found."""
        if b == size:
            pi = identity[:]
            for src, c in zip(members, image):
                for x, y in zip(src, members[c]):
                    pi[x] = y
            maps.append(pi)
            return True
        for c in targets:
            if fits(b, c):
                unused[c] = False
                image[b] = c
                if extend(b + 1, range(size)):
                    return True
                unused[c] = True
        return False

    for b, c in itertools.combinations(range(size), 2):
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout
        image[:b] = range(b)
        unused[:] = [x >= b for x in range(size)]
        extend(b, (c,))
    return maps


def _cliques(g: LabeledGraph, neighbors: list[int],
             deadline: float | None) -> list[tuple[int, ...]]:
    """The maximal cliques of three or more vertices of g, each as
    increasing vertex ids: Bron-Kerbosch with Tomita's pivot, over the
    bitmasks ``neighbors`` (bit x of entry w set when x is adjacent to
    w), among the vertices on a triangle only.  A member of such a
    clique is on a triangle, and so is a vertex that would extend one, so
    each is maximal in g; a triangle-free g costs one pass over its
    edges.  Each call reads the clock and raises ``_Timeout`` past
    ``deadline``."""
    found = []

    def expand(clique: tuple[int, ...], cand: int, seen: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout
        if not cand:
            if not seen and len(clique) >= 3:
                found.append(tuple(sorted(clique)))
            return
        pivot = max(((cand & neighbors[x]).bit_count(), x) for x in _bits(cand | seen))[1]
        for x in _bits(cand & ~neighbors[pivot]):
            expand(clique + (x,), cand & neighbors[x], seen & neighbors[x])
            cand ^= 1 << x
            seen |= 1 << x

    on_triangle = 0
    for u, v, _ in g.edges:
        if neighbors[u] & neighbors[v]:
            on_triangle |= 1 << u | 1 << v
    if on_triangle:
        expand((), on_triangle, 0)
    return sorted(found)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _schedule(g: LabeledGraph, order: list[int], neighbors: list[int],
              deadline: float | None) -> list[tuple]:
    """Per position t of the static order: the edge's endpoints, the
    earlier positions whose labels the label at t must exceed, the
    adjacent vertex pairs that become comparable at t (both fully
    labeled, one of them just now), the vertices completed at t, the
    open entries: ``(w, r, finished)`` for every vertex w with r > 0
    edges after t (the edge's endpoints first), where ``finished`` holds
    w's neighbors whose last edge is at or before t, the open cliques,
    the reach span and the open entries of the open cliques' members,
    in the order of the open entries.  The open cliques are the
    restrictions to the open vertices of g's maximal cliques of three or
    more vertices, those with three or more open members, without
    repeats; the span is the size of the largest, less one, and 1 when
    there is none.  An entry holds only what changes with t: ``dfs``
    reads w's neighbor mask and side from per-vertex lists, and the open
    cliques of a position that completes no vertex are its predecessor's
    tuple (one that does filters that tuple by the vertices left open).
    The open vertices are carried forward in id order, and a vertex's
    entry is rebuilt only when its count or its finished neighbors
    change, so a position costs time in its open vertices and open
    cliques, not in n.  ``neighbors`` holds g's neighbor bitmasks, for
    ``_cliques``.  Raises ``_Timeout`` past ``deadline``.
    """
    adj = g.adjacency
    n = g.n_vertices
    last = [-1] * n
    position = {}
    for t, ei in enumerate(order):
        u, v, _ = g.edges[ei]
        last[u] = last[v] = t
        position[u, v] = position[v, u] = t
    after: list[set[int]] = [set() for _ in order]  # q -> each s that label[q] must exceed
    for pi in _automorphisms(g, order, deadline):
        for s, ei in enumerate(order):
            u, v, _ = g.edges[ei]
            q = position[pi[u], pi[v]]
            if q != s:
                after[q].add(s)
                break
    # the open members of each clique, without repeats; a vertex leaves its
    # cliques at its last edge, and a clique left with two is dropped
    cliques = tuple(_cliques(g, neighbors, deadline))
    left = list(g.degree)
    open_ids = [x for x in range(n) if left[x]]  # in id order: the vertices with edges left
    latest = [(w, left[w], ()) for w in range(n)]  # each vertex's open entry, rebuilt on change
    plan = []
    for t, ei in enumerate(order):
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout
        u, v, _ = g.edges[ei]
        left[u] -= 1
        left[v] -= 1
        done = tuple(w for w in (u, v) if not left[w])
        if done:
            open_ids = [x for x in open_ids if left[x]]
            for x in {x for w in done for x in adj[w]}:
                latest[x] = (x, left[x], tuple(y for y in adj[x] if last[y] <= t))
            kept = (tuple(x for x in q if left[x]) for q in cliques)
            cliques = tuple(dict.fromkeys(q for q in kept if len(q) > 2))
        latest[u] = (u, left[u], latest[u][2])
        latest[v] = (v, left[v], latest[v][2])
        opens = tuple(latest[w] for w in (u, v, *(x for x in open_ids if x != u and x != v))
                      if left[w])
        pairs = [(w, nb) for w in done for nb in adj[w] if last[nb] < t]
        if len(done) == 2:
            pairs.append((u, v))
        inner = {w for q in cliques for w in q}
        plan.append((u, v, tuple(sorted(after[t])), tuple(pairs), done, opens, cliques,
                     max(map(len, cliques), default=2) - 1,
                     tuple(entry for entry in opens if entry[0] in inner)))
    return plan


class _SumSets(dict):
    """Bitmask of free labels among 1..top -> per count r = 0..rmax, the
    bitmask of the sums of r distinct labels among them; derived on first
    use from the nearest cached mask with fewer low labels, after
    emptying a full cache (see the module docstring)."""

    def __init__(self, rmax: int, top: int) -> None:
        super().__init__({0: (1,) + (0,) * rmax})
        # r distinct labels of 1..top sum to at most r * top - r * (r - 1) / 2
        largest = sys.getsizeof(self[0]) + sum(
            sys.getsizeof(1 << r * top - r * (r - 1) // 2) for r in range(rmax + 1))
        self.room = SUM_SETS_ROOM // largest  # entries

    def __missing__(self, mask: int) -> tuple[int, ...]:
        if len(self) >= self.room:  # full: keep only the empty mask's entry
            empty = self[0]
            self.clear()
            self[0] = empty
        dropped = []
        base = mask
        while base not in self:
            low = base & -base
            dropped.append(low)
            base ^= low
        sets = self[base]
        for low in reversed(dropped):
            lab = low.bit_length() - 1
            sets = (1, *[a | b << lab for a, b in zip(sets[1:], sets)])
            base |= low
            self[base] = sets
        return sets


def check_budget(budget: float | None) -> None:
    """Reject a time budget that is not a positive finite number of
    seconds; ``None`` means unlimited."""
    # bool is an int subclass, so compare types; the bounds also reject nan
    if budget is not None and not (type(budget) in (int, float) and 0 < budget < math.inf):
        raise ValueError(
            f"search budget must be a positive finite number of seconds, not {budget!r}")


def _searcher(g: LabeledGraph, order: list[int],
              deadline: float | None) -> tuple[Callable, Callable]:
    """The setup and the node loop of the search in the static edge order
    ``order`` of g's m edges; the setup and each node raise
    ``_Timeout`` past ``deadline``.  Returns two closures:
    ``attempt(target)``, the color count and the labels per edge id of the
    first labeling in search order with at most ``target`` colors, or None
    if there is none; and ``counts()``, the nodes and the prunes of every
    attempt so far, in ``SearchStats`` order."""
    m = g.size
    n = g.n_vertices
    bip = is_bipartite(g)
    # at a sum_total check the open vertices of side 0 gain share0 * sum(F)
    # in all and those of side 1 share1 * sum(F); with no 2-coloring every
    # vertex is on side 0, which then holds both ends of each free label
    side = bip.side if bip else (0,) * n
    share0, share1 = (1, 1) if bip else (2, 0)
    neighbors = [sum(1 << x for x in nbrs) for nbrs in g.adjacency]  # bitmasks
    plan = _schedule(g, order, neighbors, deadline)
    sum_sets = _SumSets(max((r for step in plan for _, r, _ in step[5]), default=0), m)

    sums = [0] * n
    fin = [0] * n  # per open clique member: the taken sums it can end on, set by the reach loop
    assignment = [0] * m  # per position of the order

    nodes = conflict = color_bound = symmetry = reach = sum_total = clique = 0
    cap = 0  # the current target: most distinct completed sums allowed

    def dfs(t: int, taken: int, free: int, total: int) -> None:
        """Label position t onward, or at t == m report the complete
        labeling; bit s of ``taken`` is set when a completed vertex has
        sum s, and ``total`` is the sum of the free labels."""
        nonlocal nodes, conflict, color_bound, symmetry, reach, sum_total, clique
        if t == m:
            raise _Found(taken.bit_count())
        u, v, after, pairs, done, opens, cliques, span, members = plan[t]
        su = sums[u]
        sv = sums[v]
        tried = free
        if after:  # skip labels up to the largest label this one must exceed
            below = free & ((2 << max([assignment[s] for s in after])) - 1)
            symmetry += below.bit_count()
            tried ^= below
        while tried:  # the labels of tried, in increasing order
            low = tried & -tried
            tried ^= low
            lab = low.bit_length() - 1
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                raise _Timeout
            sums[u] = su + lab
            sums[v] = sv + lab
            for a, b in pairs:
                if sums[a] == sums[b]:
                    conflict += 1
                    break
            else:
                now = taken
                for w in done:
                    now |= 1 << sums[w]
                spare = cap - now.bit_count()  # new sums the target still allows
                if spare < 0:
                    color_bound += 1
                else:
                    rest = free ^ low
                    cut = False
                    if spare <= span:
                        reachable = sum_sets[rest]
                        # below spare 2, an open vertex that cannot end on a taken
                        # sum needs a new one: at spare 0 it cuts, and at spare 1
                        # all such vertices share the one new sum, so no two are
                        # adjacent and their reachable new sums meet; above it,
                        # only a clique can cut, so only its members are visited
                        stuck = 0  # bitmask of open vertices that cannot
                        shared = ~now  # the new sums every one of them can reach
                        ends = [1, 1]  # per side, bit k: its open vertices so far can gain k
                        for w, r, finished in (opens if spare < 2 else members):
                            hit = now >> sums[w] & reachable[r]  # bit k: w can gain k
                            if hit and finished:  # leaving out their sums only clears bits
                                ok = now  # taken sums no finished neighbor of w carries
                                for x in finished:
                                    ok &= ~(1 << sums[x])
                                hit = ok >> sums[w] & reachable[r]
                            if cliques:
                                fin[w] = hit << sums[w]
                            if not hit and spare < 2:
                                shared &= reachable[r] << sums[w]
                                if not spare or not shared or stuck & neighbors[w]:
                                    reach += 1
                                    cut = True
                                    break
                                stuck |= 1 << w
                            elif not spare:
                                # add w's increment to its side's totals, a shift per bit
                                s = side[w]
                                grown = 0
                                while hit:
                                    gain = hit & -hit
                                    grown |= ends[s] << gain.bit_length() - 1
                                    hit ^= gain
                                ends[s] = grown
                        else:
                            left = total - lab
                            if not spare and not (
                                    ends[0] >> share0 * left & ends[1] >> share1 * left & 1):
                                sum_total += 1
                                cut = True
                        if cliques and not cut:
                            # a clique's members end on distinct sums, each on a
                            # taken sum it can reach or on one of the spare new ones
                            for q in cliques:
                                need = len(q) - spare  # members that end on distinct taken sums
                                if need > 0:
                                    union = 0  # the taken sums they can end on
                                    for x in q:
                                        union |= fin[x]
                                    if union.bit_count() < need:
                                        clique += 1
                                        cut = True
                                        break
                    if not cut:
                        assignment[t] = lab
                        dfs(t + 1, now, rest, total - lab)
        sums[u] = su
        sums[v] = sv

    def attempt(target: int) -> tuple[int, list[int]] | None:
        nonlocal cap
        cap = target
        sums[:] = [0] * n  # a search that found a labeling left them set
        try:
            # taken: bit 0 if a vertex is isolated (complete from the start, at
            # sum 0); free: bit l per label l of 1..m, which add up to m(m+1)/2
            dfs(0, int(0 in g.degree), (2 << m) - 2, m * (m + 1) // 2)
        except _Found as found:
            return found.args[0], [lab for _, lab in sorted(zip(order, assignment))]
        return None

    def counts() -> tuple[int, ...]:
        return nodes, conflict, color_bound, symmetry, reach, sum_total, clique

    return attempt, counts


def chi_la_exact(
    g: LabeledGraph,
    max_edges: int = DEFAULT_MAX_EDGES,
    budget: float | None = None,
) -> SearchResult:
    """Exhaustive minimum color count over all bijective edge labelings.

    Existing labels on g serve only as a timeout's fallback witness; the
    search itself reads only the structure.  Returns the minimum with a
    witness labeling, ``no_labeling`` when no bijection is local
    antimagic, or ``timeout`` when the budget runs out; a timeout keeps
    the best proven lower bound and the best witness: the one found, or
    g's own labeling when it is local antimagic with fewer colors.  The
    witness is g with new labels, copied by ``_replace``: g's names and
    pairs, which ``new_graph`` or ``apply_merge`` checked when g was made.
    """
    m = g.size
    if m > max_edges:
        raise GraphTooLarge(f"{m} edges exceeds the search's edge cap of {max_edges} (--max-edges)")
    ceiling = sys.getrecursionlimit() - FRAME_MARGIN
    # dfs takes a frame per edge (and the margin's one for the complete
    # labeling), the transversal one per vertex on an edge
    if max(m, g.n_vertices - g.degree.count(0) - 1) > ceiling:
        raise GraphTooLarge(f"too deep to search: at most {ceiling} edges on {ceiling + 1} "
                            f"vertices fit the recursion limit")
    check_budget(budget)
    start = time.monotonic()
    lb = lower_bound(g)
    deadline = start + budget if budget is not None else None

    status = STATUS_VALUE
    best = None  # colors, labels per edge id
    target = lb  # every target below it is refuted, until a round finds a labeling
    counts = tuple  # a setup that times out has counted nothing
    try:
        attempt, counts = _searcher(g, _edge_order(g, deadline), deadline)
        best = attempt(g.n_vertices)  # the dive: n colors never prune
        # a round that finds a labeling ends the rounds: it has at most target colors
        while best is not None and target < best[0]:
            best = attempt(target) or best
            target += 1
    except _Timeout:
        status = STATUS_TIMEOUT

    stats = SearchStats(*counts(), elapsed=time.monotonic() - start)
    proven = target if status == STATUS_TIMEOUT else lb
    if status == STATUS_TIMEOUT:
        own = induced_coloring(g)
        if own.local_antimagic and (best is None or own.color_count < best[0]):
            best = own.color_count, g.labels()
    if best is None and status == STATUS_VALUE:
        status = STATUS_NO_LABELING
    colors, labels = best or (None, None)
    witness = None if best is None else g._replace(edges=tuple(
        (u, v, lab) for (u, v, _), lab in zip(g.edges, labels)))
    chi = colors if status == STATUS_VALUE else None
    return SearchResult(status, chi, witness, stats, proven, colors, budget)
