"""Shared test utilities: structural graph comparison, fast transposition
checking for the metamorphic suites, and graph, matrix and family helpers
that only the tests need (a graph from edges by vertex name, degrees by
name, components, disjoint union, two labels swapped, the 6x4n
closed-form rows, the verified acceptance grid, the 3-color claim) and a
fresh interpreter on the package's source."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter, deque
from itertools import combinations
from pathlib import Path
from typing import Iterable

from antimagic.families import FAMILIES, BuiltFamily, build_family
from antimagic.graph import LabeledGraph, new_graph
from antimagic.matrices import KIND_6X4N, LabelMatrix
from antimagic.verify import check_expected, induced_coloring, vertex_sums


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str, timeout: float = 120, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's source first on its path;
    ``kwargs`` go to ``subprocess.run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout, **kwargs)


def grid_points(tags: Iterable[str] = FAMILIES):
    """Build and check every grid point of each tag, in grid order: yields
    the tag, the parameters, the build, its induced coloring and
    ``check_expected``'s difference lines."""
    for tag in tags:
        for params in FAMILIES[tag][1]:
            built = build_family(tag, **params)
            report = induced_coloring(built.graph)
            yield tag, params, built, report, check_expected(built.expected, report)


def chi_la_is_three(built: BuiltFamily) -> bool:
    """The construction's coloring is known optimal at 3: an exact
    3-coloring claim whose hypotheses raised no warning."""
    claim = built.expected
    return claim.exact and claim.claimed_colors == 3 and not built.warnings


def by_name(names: Iterable[str], triples: Iterable[tuple[str, str, int]]) -> LabeledGraph:
    """``new_graph`` on ``names`` with each edge given as ``(name_a,
    name_b, label)``, its ends in either order; an unknown name raises
    KeyError."""
    names = tuple(names)
    ids = {nm: i for i, nm in enumerate(names)}
    edges = []
    for a, b, label in triples:
        u, v = ids[a], ids[b]
        edges.append((u, v, label) if u < v else (v, u, label))
    return new_graph(names, edges)


def degrees(g: LabeledGraph) -> dict[str, int]:
    """Each vertex's degree, keyed by its name."""
    return dict(zip(g.names, g.degree))


def swapped(g: LabeledGraph, i: int, j: int) -> LabeledGraph:
    """g with the labels of edges i and j (in ``g.edges`` order) swapped."""
    labels = list(g.labels())
    labels[i], labels[j] = labels[j], labels[i]
    return LabeledGraph(g.names, tuple(
        (u, v, label) for (u, v, _), label in zip(g.edges, labels)))


def spoilt(g: LabeledGraph) -> LabeledGraph:
    """g with the first two labels, in edge order, whose swap leaves it
    not local antimagic: the same structure with no labeling of its own
    that a search's timeout could fall back on."""
    return next(h for i, j in combinations(range(g.size), 2)
                if not induced_coloring(h := swapped(g, i, j)).local_antimagic)


def components(g: LabeledGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex ids of each connected component, in order of lowest id."""
    seen = [False] * g.n_vertices
    comps = []
    for start in range(g.n_vertices):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def disjoint_union(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Concatenate vertex and edge sets; names are namespaced per operand."""
    names = tuple(f"1:{nm}" for nm in g1.names) + tuple(f"2:{nm}" for nm in g2.names)
    off = g1.n_vertices
    edges = g1.edges + tuple(
        (u + off, v + off, label) for u, v, label in g2.edges
    )
    return LabeledGraph(names, edges)


def row_structure_6x4n(m: LabelMatrix) -> tuple[str, ...]:
    """One ``row_i_structure`` line for each row of the reconstructed 6x4n
    grid that is not its closed form; none when every row is."""
    if m.kind != KIND_6X4N:
        return (f"kind: expected {KIND_6X4N}",)
    n = m.param
    want = (
        list(range(1, 2 * n + 1)) + list(range(6 * n + 2, 10 * n + 1, 2)),
        list(range(16 * n + 1, 18 * n + 1)) + list(range(18 * n, 16 * n, -1)),
        list(range(14 * n - 1, 10 * n, -2)) + list(range(6 * n, 4 * n, -1)),
        list(range(14 * n + 1, 16 * n + 1)) + list(range(6 * n + 1, 10 * n, 2)),
        list(range(2 * n + 1, 4 * n + 1)) + list(range(4 * n, 2 * n, -1)),
        list(range(14 * n, 10 * n + 1, -2)) + list(range(20 * n, 18 * n, -1)),
    )
    return tuple(f"row_{i + 1}_structure: {list(m.grid[i])} is not {want[i]}"
                 for i in range(6) if list(m.grid[i]) != want[i])


def vertex_label_signature(g: LabeledGraph) -> Counter:
    """Multiset of per-vertex incident-label sets; invariant under renaming."""
    incident: dict[int, list[int]] = {i: [] for i in range(g.n_vertices)}
    for u, v, label in g.edges:
        incident[u].append(label)
        incident[v].append(label)
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
        for u, v, label in g.edges:
            incident[u].append(label)
            incident[v].append(label)
        sig = {i: tuple(sorted(labs)) for i, labs in incident.items()}
        return {label: frozenset((sig[u], sig[v])) for u, v, label in g.edges}

    return label_endpoints(g1) == label_endpoints(g2)


def transposition_detected(built: BuiltFamily, e1: int, e2: int) -> bool:
    """True when swapping the labels of edges e1, e2 breaks the verifier's
    verdict or the expected-colors table.  Incremental: only the (at most
    four) endpoint sums change."""
    g = built.graph
    au, av, a_label = g.edges[e1]
    bu, bv, b_label = g.edges[e2]
    delta = b_label - a_label
    if delta == 0:
        return False  # not a transposition

    sums = vertex_sums(g)
    for w in (au, av):
        sums[w] += delta
    for w in (bu, bv):
        sums[w] -= delta

    touched = {au, av, bu, bv}
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
