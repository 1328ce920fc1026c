"""Independent brute-force oracles used only by the tests.

``naive_chi_la`` enumerates every permutation of [1, m] over the edge list
with no pruning at all, so it shares no code path with the package's
search module.  ``naive_merge`` does ``apply_merge``'s surgery on vertex
names, with linear scans and no integer ids or pair keys.
``split_vertex`` is the inverse surgery, which no builder does: it is the
oracle for the hubs that ``families._fan_units`` makes already split, and
it finds each vertex by a scan of ``names``.
``naive_two_coloring_impossible`` is ``verify.two_coloring_impossible``
with the achievable part sizes as a set, not a bitmask.
``fan_units_by_name``, ``nc482_by_name`` and ``prism_units_by_name``
make the three unit graphs the family builders start from with an edge
list of vertex names (``helpers.by_name(names, triples)``), where the
builders lay out ids by arithmetic and call ``new_graph``, the
package's one way to build a graph, with int edges; so this by-name path
shares none of the builders' index arithmetic.
"""

from __future__ import annotations

import itertools

from antimagic.graph import (
    DuplicateName,
    GraphError,
    InvalidPlan,
    LabeledGraph,
    LoopCreated,
    ParallelEdgeCreated,
    is_bipartite,
)
from antimagic.matrices import matrix_5x2k, matrix_kx10, sequences_6x4n
from helpers import by_name


class NotAPartition(GraphError):
    pass


def naive_chi_la(g: LabeledGraph) -> int | None:
    """Minimum color count over all bijective labelings; None if none is valid."""
    m = g.size
    n = g.n_vertices
    edges = [(u, v) for u, v, _ in g.edges]
    best: int | None = None
    for perm in itertools.permutations(range(1, m + 1)):
        sums = [0] * n
        for (u, v), lab in zip(edges, perm):
            sums[u] += lab
            sums[v] += lab
        if any(sums[u] == sums[v] for u, v in edges):
            continue
        c = len(set(sums))
        if best is None or c < best:
            best = c
    return best


def naive_two_coloring_impossible(g: LabeledGraph) -> bool:
    """The 2-coloring lemma's verdict, with every achievable |X| in a set."""
    m, n = g.size, g.n_vertices
    bip = is_bipartite(g)
    if m == 0 or bip is None:
        return False
    if bip.balanced:
        return True
    sizes = {0}
    for a, b in bip.component_parts:
        sizes = {t + a for t in sizes} | {t + b for t in sizes}
    half = m * (m + 1) // 2
    splits = ((big, n - big) for big in sizes if big > n - big >= 1)
    return not any(half % big == 0 and half % small == 0 for big, small in splits)


def naive_merge(g: LabeledGraph, groups) -> LabeledGraph:
    """``apply_merge(g, groups)`` with each member given by name, not id,
    raising the same exceptions with the same messages; where
    ``apply_merge`` refuses an id out of range, this refuses an unknown
    name.

    Each vertex is renamed to its group's fused name; the new vertex list
    is the renamed names in order of first occurrence, so a fused vertex
    sits where its lowest member was.  Every edge is checked.
    """
    fused_name_of: dict[str, str] = {}
    for members, fused in groups:
        if len(members) < 2:
            raise InvalidPlan(f"group {fused!r} has fewer than 2 members")
        if len(set(members)) != len(members):
            raise InvalidPlan(f"group {fused!r} repeats a member")
        for nm in members:
            if nm not in g.names:
                raise GraphError(f"no vertex named {nm!r}")
            if nm in fused_name_of:
                raise InvalidPlan(f"vertex {nm!r} appears in two merge groups")
            fused_name_of[nm] = fused
    fused_names = [fused for _, fused in groups]
    if len(set(fused_names)) != len(fused_names):
        raise InvalidPlan("fused vertex names are not distinct")
    for nm in fused_names:
        if nm in g.names and nm not in fused_name_of:
            raise InvalidPlan(f"fused name {nm!r} collides with a surviving vertex")

    renamed = [fused_name_of.get(nm, nm) for nm in g.names]
    names = [nm for i, nm in enumerate(renamed) if nm not in renamed[:i]]
    edges = []
    joined: list[tuple[set[str], int]] = []
    for x, y, label in g.edges:
        a, b = renamed[x], renamed[y]
        if a == b:
            raise LoopCreated(f"merging adjacent vertices {g.names[x]!r} and {g.names[y]!r}")
        u, v = sorted((names.index(a), names.index(b)))
        for ends, first in joined:
            if ends == {a, b}:
                raise ParallelEdgeCreated(f"edges labeled {first} and {label} would join "
                                          f"{names[u]!r} and {names[v]!r} twice")
        joined.append(({a, b}, label))
        edges.append((u, v, label))
    return LabeledGraph(tuple(names), tuple(edges))


def fan_units_by_name(k: int, split=()) -> LabeledGraph:
    """``families._fan_units(k, split)``'s graph, its edges given by name."""
    m = matrix_5x2k(k)
    split = list(split)
    names: list[str] = []
    for i in range(1, 2 * k + 1):
        names += [f"u_{i}", f"v_{i}", f"w_{i}", f"x_{i}^1" if i in split else f"x_{i}"]
    names += [f"x_{i}^2" for i in split]
    triples = []
    for i, col in enumerate(zip(*m.grid), start=1):
        x1, x2 = (f"x_{i}^1", f"x_{i}^2") if i in split else (f"x_{i}",) * 2
        triples += [(f"u_{i}", f"w_{i}", col[0]), (f"v_{i}", f"w_{i}", col[1]),
                    (x1, f"w_{i}", col[2]), (x2, f"u_{i}", col[3]), (x2, f"v_{i}", col[4])]
    return by_name(names, triples)


def nc482_by_name(n: int) -> LabeledGraph:
    """``families.build_nc482(n)``'s graph, its edges given by name."""
    seqs = sequences_6x4n(n)
    names = [f"{x}_{a}_{i}" for a in range(1, n + 1) for x in "uv" for i in range(1, 9)]
    cycle_pos = (0, 2, 3, 5, 6, 8, 9, 11)
    rung_pos = (1, 4, 7, 10)
    triples = []
    for a in range(1, n + 1):
        t, u = seqs[a - 1], seqs[n + a - 1]
        for i in range(1, 9):
            j = i % 8 + 1
            triples.append((f"u_{a}_{i}", f"u_{a}_{j}", t[cycle_pos[i - 1]]))
            triples.append((f"v_{a}_{i}", f"v_{a}_{j}", u[cycle_pos[i - 1]]))
        for idx, i in enumerate((2, 4, 6, 8)):
            triples.append((f"u_{a}_{i}", f"v_{a}_{i}", t[rung_pos[idx]]))
    return by_name(names, triples)


def prism_units_by_name(k: int) -> LabeledGraph:
    """``families._prism_units(k)``, its edges given by name."""
    m = matrix_kx10(k)
    names = [f"u_{i}_{j}" if j < 9 else f"x_{i}" for i in range(1, k + 1) for j in range(1, 10)]
    triples = []
    for i in range(1, k + 1):
        row = m.grid[i - 1]
        for j in range(1, 9):
            triples.append((f"u_{i}_{j}", f"u_{i}_{j % 8 + 1}", row[j - 1]))
        triples.append((f"x_{i}", f"u_{i}_2", row[8]))
        triples.append((f"x_{i}", f"u_{i}_6", row[9]))
    return by_name(names, triples)


def split_vertex(
    g: LabeledGraph,
    v: str,
    first: set[str] | frozenset[str],
    second: set[str] | frozenset[str],
    name_first: str,
    name_second: str,
) -> LabeledGraph:
    """Split v into two vertices; edges to `first` neighbors follow the first.

    The two blocks must partition the neighbor set of v (simple graph, so
    incident edges correspond to neighbors).  Empty blocks are allowed and
    produce an isolated vertex.
    """
    vid = g.names.index(v)
    nbrs = {g.names[w] for w in g.adjacency[vid]}
    first = set(first)
    second = set(second)
    if first & second:
        raise NotAPartition(f"blocks for {v!r} overlap: {sorted(first & second)}")
    if first | second != nbrs:
        raise NotAPartition(
            f"blocks for {v!r} do not cover its neighbors exactly "
            f"(got {sorted(first | second)}, need {sorted(nbrs)})"
        )
    if name_first == name_second:
        raise DuplicateName(f"split names for {v!r} are equal")
    for nm in (name_first, name_second):
        if nm in g.names and nm != v:
            raise DuplicateName(f"split name {nm!r} already in use")

    names = list(g.names)
    names[vid] = name_first
    names.append(name_second)
    second_id = len(names) - 1
    first_ids = {g.names.index(nm) for nm in first}
    new_edges = []
    for e in g.edges:
        a, b, label = e
        if vid not in (a, b):
            new_edges.append(e)
            continue
        other = b if a == vid else a
        mine = vid if other in first_ids else second_id
        new_edges.append((min(mine, other), max(mine, other), label))
    return LabeledGraph(tuple(names), tuple(new_edges))
