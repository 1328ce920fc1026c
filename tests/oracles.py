"""Independent brute-force oracles used only by the tests.

``naive_chi_la`` enumerates every permutation of [1, m] over the edge list
with no pruning at all, so it shares no code path with the package's
search module.  ``naive_merge`` does ``apply_merge``'s surgery on vertex
names, with linear scans and no integer ids or pair keys.
"""

from __future__ import annotations

import itertools

from antimagic.graph import (
    GraphError,
    InvalidPlan,
    LabeledEdge,
    LabeledGraph,
    LoopCreated,
    ParallelEdgeCreated,
)


def naive_chi_la(g: LabeledGraph) -> int | None:
    """Minimum color count over all bijective labelings; None if none is valid."""
    m = g.size
    n = g.n_vertices
    edges = [(e.u, e.v) for e in g.edges]
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
    for e in g.edges:
        a, b = renamed[e.u], renamed[e.v]
        if a == b:
            raise LoopCreated(f"{g.names[e.u]!r} and {g.names[e.v]!r} are adjacent")
        if {a, b} in joined:
            raise ParallelEdgeCreated(f"{a!r} and {b!r} are joined twice")
        joined.append({a, b})
        u, v = sorted((names.index(a), names.index(b)))
        edges.append(LabeledEdge(u, v, e.label))
    return LabeledGraph(tuple(names), tuple(edges))
