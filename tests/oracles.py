"""Independent brute-force oracles used only by the tests.

``naive_chi_la`` enumerates every permutation of [1, m] over the edge list
with no pruning at all, so it shares no code path with the package's
search module.  ``naive_merge`` does ``apply_merge``'s surgery on vertex
names, with linear scans and no integer ids or pair keys.
``split_vertex`` is the inverse surgery, which no builder does: it is the
oracle for the hubs that ``families._fan_units`` makes already split.
``naive_two_coloring_impossible`` is ``verify.two_coloring_impossible``
with the achievable part sizes as a set, not a bitmask.
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
    """``apply_merge(g, groups)`` by name, raising the same exception types.

    Each vertex is renamed to its group's fused name; the new vertex list
    is the renamed names in order of first occurrence, so a fused vertex
    sits where its lowest member was.
    """
    fused_name_of: dict[str, str] = {}
    for members, fused in groups:
        if len(members) < 2 or len(set(members)) != len(members):
            raise InvalidPlan(f"bad group {fused!r}")
        for nm in members:
            if nm not in g.names:
                raise GraphError(f"no vertex named {nm!r}")
            if nm in fused_name_of:
                raise InvalidPlan(f"{nm!r} is in two groups")
            fused_name_of[nm] = fused
    fused_names = [fused for _, fused in groups]
    if len(set(fused_names)) != len(fused_names):
        raise InvalidPlan("fused names repeat")
    if any(nm in fused_names for nm in g.names if nm not in fused_name_of):
        raise InvalidPlan("a fused name is a surviving vertex's name")

    renamed = [fused_name_of.get(nm, nm) for nm in g.names]
    names = [nm for i, nm in enumerate(renamed) if nm not in renamed[:i]]
    edges = []
    joined: list[set[str]] = []
    for x, y, label in g.edges:
        a, b = renamed[x], renamed[y]
        if a == b:
            raise LoopCreated(f"{g.names[x]!r} and {g.names[y]!r} are adjacent")
        if {a, b} in joined:
            raise ParallelEdgeCreated(f"{a!r} and {b!r} are joined twice")
        joined.append({a, b})
        u, v = sorted((names.index(a), names.index(b)))
        edges.append((u, v, label))
    return LabeledGraph(tuple(names), tuple(edges))


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
    vid = g.id_of(v)
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
        if nm in g._id_of and nm != v:
            raise DuplicateName(f"split name {nm!r} already in use")

    names = list(g.names)
    names[vid] = name_first
    names.append(name_second)
    second_id = len(names) - 1
    first_ids = {g.id_of(nm) for nm in first}
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
