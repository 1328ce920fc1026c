"""Shared test utilities: structural graph comparison and fast transposition
checking for the metamorphic suites."""

from __future__ import annotations

from collections import Counter

from antimagic.families import BuiltFamily
from antimagic.graph import LabeledGraph
from antimagic.verify import vertex_sums


def vertex_label_signature(g: LabeledGraph) -> Counter:
    """Multiset of per-vertex incident-label sets; invariant under renaming."""
    incident: dict[int, list[int]] = {i: [] for i in range(g.n_vertices)}
    for e in g.edges:
        incident[e.u].append(e.label)
        incident[e.v].append(e.label)
    return Counter(tuple(sorted(labs)) for labs in incident.values())


def same_up_to_names(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Equality of the labeled structure, ignoring vertex display names.

    Edge labels are bijective in all uses here, so matching each label's
    endpoint neighborhoods (as incident-label sets) pins the structure.
    """
    if g1.size != g2.size or g1.n_vertices != g2.n_vertices:
        return False
    if sorted(g1.labels()) != sorted(g2.labels()):
        return False
    if vertex_label_signature(g1) != vertex_label_signature(g2):
        return False

    def label_endpoints(g: LabeledGraph) -> dict[int, frozenset]:
        incident: dict[int, list[int]] = {i: [] for i in range(g.n_vertices)}
        for e in g.edges:
            incident[e.u].append(e.label)
            incident[e.v].append(e.label)
        sig = {i: tuple(sorted(labs)) for i, labs in incident.items()}
        return {e.label: frozenset((sig[e.u], sig[e.v])) for e in g.edges}

    return label_endpoints(g1) == label_endpoints(g2)


def transposition_detected(built: BuiltFamily, e1: int, e2: int) -> bool:
    """True when swapping the labels of edges e1, e2 breaks the verifier's
    verdict or the expected-colors table.  Incremental: only the (at most
    four) endpoint sums change."""
    g = built.graph
    a, b = g.edges[e1], g.edges[e2]
    delta = b.label - a.label
    if delta == 0:
        return False  # not a transposition

    sums = vertex_sums(g)
    for w in (a.u, a.v):
        sums[w] += delta
    for w in (b.u, b.v):
        sums[w] -= delta

    touched = {a.u, a.v, b.u, b.v}
    for w in touched:
        for nb in g.adjacency[w]:
            if sums[nb] == sums[w]:
                return True  # verdict flipped

    degree = [len(adj) for adj in g.adjacency]
    table = Counter((sums[i], degree[i]) for i in range(g.n_vertices))
    want = Counter()
    for cls in built.expected.classes:
        want[(cls.value, cls.degree)] += cls.size
    return table != want
