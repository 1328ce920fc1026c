"""Ground-truth checking of edge labelings.

Everything here recomputes from the edge list: induced vertex sums, color
classes, the local-antimagic verdict (labels bijective onto [1, m] and
adjacent sums distinct), comparison against a builder's claimed coloring,
and ``lower_bound`` from four sources: the chromatic number, the
2-coloring lemma (``two_coloring_impossible``: the divisor-pair scan),
the pendant count and the isolated vertices.  The chromatic number of a
graph that is not bipartite is found exactly, by backtracking, on at
most ``CHI_EXACT_MAX_VERTICES`` vertices, and taken as 3 above that.
The verdict and the claim check work on vertex ids: the per-id sums,
their distinct count, the label bijection, the conflicting pairs and
the graph's one degree count.  A name is formatted only for a failing
line.  A ``ColorReport`` is a plain record of six fields: the graph,
its per-id sums, their distinct count, the label problems, the
conflicting pairs and the verdict.  It holds no name view, no
bipartition and nothing derived from its own fields, so a check builds
no adjacency and runs no BFS.  The bound and the gate each ask
``is_bipartite(g)``, which runs its BFS once per graph and keeps the
answer on it.  Exact integer arithmetic throughout.  This module only
computes: ``document.report_to_document`` writes a ``ColorReport``, and
derives from it every name-keyed and bipartition field it writes, the
label bijection and the sum total.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from operator import ne
from typing import Iterable, NamedTuple, Sequence

from .graph import LabeledGraph, is_bipartite

CHI_EXACT_MAX_VERTICES = 20  # _chromatic_number's backtracking budget


class ColorClass(NamedTuple):
    value: int
    size: int
    degree: int


class ExpectedColors(NamedTuple):
    classes: tuple[ColorClass, ...]
    claimed_colors: int
    exact: bool = True  # False: claimed_colors is an upper bound


class ColorReport(NamedTuple):
    graph: LabeledGraph
    id_sums: tuple[int, ...]  # induced sum per vertex id
    color_count: int
    label_problems: tuple[str, ...]  # none: the labels are a bijection onto [1, m]
    conflicts: tuple[tuple[str, str, int], ...]  # adjacent pair, shared sum
    local_antimagic: bool


def vertex_sums(g: LabeledGraph) -> list[int]:
    """Sum of incident edge labels, indexed by vertex id."""
    sums = [0] * g.n_vertices
    for u, v, label in g.edges:
        sums[u] += label
        sums[v] += label
    return sums


def label_problems(labels: Iterable[int], top: int) -> tuple[str, ...]:
    """One line per way ``labels`` fail to be a bijection onto [1, top]:
    each repeat and each label out of range, in increasing order, then
    each missing label; none when they are one."""
    labels = tuple(labels)
    in_range = not labels or min(labels) == 1 and max(labels) == top
    if len(labels) == top and in_range and len(set(labels)) == top:
        return ()
    labels = sorted(labels)
    problems = []
    seen: set[int] = set()
    for lab in labels:
        if lab in seen:
            problems.append(f"label {lab} used more than once")
        seen.add(lab)
        if not 1 <= lab <= top:
            problems.append(f"label {lab} outside [1, {top}]")
    problems += [f"label {lab} missing" for lab in range(1, top + 1) if lab not in seen]
    return tuple(problems)


def induced_coloring(g: LabeledGraph) -> ColorReport:
    """Induced vertex sums and the local-antimagic verdict, from vertex ids."""
    sums = vertex_sums(g)
    problems = label_problems(g.labels(), g.size)
    names = g.names
    conflicts = tuple(
        (names[u], names[v], sums[u])
        for u, v, _ in g.edges
        if sums[u] == sums[v]
    )
    return ColorReport(g, tuple(sums), len(set(sums)), problems, conflicts,
                       not problems and not conflicts)


def check_expected(expected: ExpectedColors, report: ColorReport) -> tuple[str, ...]:
    """Exact comparison of color values, class sizes and member degrees in
    ``report.graph``, whose ``induced_coloring`` ``report`` is.  Returns one
    line per difference, so the claim holds exactly when there are none."""
    g = report.graph
    sums, degree = report.id_sums, g.degree
    diffs: list[str] = []

    values = [cls.value for cls in expected.classes]
    if len(set(values)) != len(values):
        diffs.append(f"expected color values are not distinct: {sorted(values)}")

    sizes = Counter(sums)
    # the ids off their value's claimed degree, in one pass; with a repeated
    # value (a line above) every id is a suspect, checked per class
    claimed_degree = {cls.value: cls.degree for cls in expected.classes}
    suspects = (range(len(sums)) if diffs else
                compress(count(), map(ne, map(claimed_degree.get, sums), degree)))
    off: dict[int, list[int]] = {}
    for vid in suspects:
        off.setdefault(sums[vid], []).append(vid)
    for cls in expected.classes:
        if sizes[cls.value] != cls.size:
            diffs.append(
                f"color {cls.value}: expected {cls.size} vertices, found {sizes[cls.value]}")
        bad_deg = sorted(g.names[vid] for vid in off.get(cls.value, ())
                         if degree[vid] != cls.degree)
        if bad_deg:
            diffs.append(
                f"color {cls.value}: vertices {bad_deg[:4]} do not have degree {cls.degree}")
    unexpected = sorted(set(sizes) - set(values))
    if unexpected:
        diffs.append(f"unexpected color values {unexpected}")

    if expected.exact and report.color_count != expected.claimed_colors:
        diffs.append(
            f"color count {report.color_count} != claimed {expected.claimed_colors}")
    if not expected.exact and report.color_count > expected.claimed_colors:
        diffs.append(
            f"color count {report.color_count} exceeds claimed bound "
            f"{expected.claimed_colors}")
    return tuple(diffs)


def two_coloring_impossible(g: LabeledGraph) -> bool:
    """True when the lemma rules out every local antimagic 2-coloring;
    False means inconclusive.

    Lemma: a local antimagic 2-coloring with colors x < y on classes X, Y
    forces a bipartition with |X| > |Y| and x|X| = y|Y| = m(m+1)/2.  Proof:
    adjacent sums differ, so X and Y are the sides of a bipartition; each
    edge has one endpoint in each side, so each side's sums add up to the
    label total m(m+1)/2, and x < y then gives |X| > |Y|.  So some
    achievable split with |X| > n/2 must admit the integer divisor pair;
    a balanced bipartite graph (equal sides in every component) has no
    such split.  Graphs without edges or that are not bipartite are
    inconclusive.
    """
    bip = is_bipartite(g)
    return g.size > 0 and bip is not None and _no_divisor_split(bip.component_parts, g.size)


def _no_divisor_split(parts: Sequence[tuple[int, int]], m: int) -> bool:
    """The lemma's scan for a bipartite graph with m >= 1 edges whose
    components have the side sizes ``parts``."""
    n = sum(a + b for a, b in parts)
    half = m * (m + 1) // 2
    sizes = 1  # bit t: flipping sides per component can give |X| = t
    for a, b in parts:
        sizes = sizes << a | sizes << b
    return not any(half % big == 0 and half % (n - big) == 0 and sizes >> big & 1
                   for big in range(n // 2 + 1, n))


def lower_bound(g: LabeledGraph) -> int:
    """Best available lower bound on the local antimagic chromatic number.

    Combines chi(g) (exact when the graph is bipartite or has at most
    ``CHI_EXACT_MAX_VERTICES`` vertices on an edge, else the odd-cycle
    bound 3), the 2-coloring gate, and the pendant bound of Arumugam,
    Premalatha, Baca and Semanicova-Fenovcikova (Local antimagic vertex
    coloring of a graph, Graphs Combin. 33, 2017): with l >= 1 vertices
    of degree 1, every local antimagic labeling uses at least l + 1
    colors.  Proof: a pendant vertex's sum is the label of its own edge,
    so the l pendant sums are distinct.  The edge labeled m has an
    endpoint of degree >= 2 (else it is a K2 component, whose two equal
    sums admit no valid labeling at all), and that endpoint's sum
    exceeds m, hence every pendant sum.

    Isolated vertices are bounded apart: on a graph with edges they all
    have sum 0, below every other sum, and the labelings of g are those
    of g without them, so chi_la(g) is one more than chi_la of the rest.
    The bound of g is one more than the bound of the rest.  An isolated
    vertex is a (1, 0) part of g's bipartition, and the gate and the
    vertex cap of chi count only the other parts and vertices, so g's
    own BFS bounds the rest too.
    """
    if g.n_vertices == 0:
        return 0
    if g.size == 0:
        return 1
    degree = g.degree
    isolated = degree.count(0)
    pendants = degree.count(1)
    bound = pendants + 1 if pendants else 2
    bip = is_bipartite(g)
    if bip is None:
        small = g.n_vertices - isolated <= CHI_EXACT_MAX_VERTICES
        bound = max(bound, _chromatic_number(g) if small else 3)  # chi of the rest
    elif _no_divisor_split([p for p in bip.component_parts if p != (1, 0)], g.size):
        bound = max(bound, 3)
    return bound + (isolated > 0)


def _chromatic_number(g: LabeledGraph) -> int:
    """Exact chromatic number, by backtracking, of a graph that is not
    bipartite, so 3 or more.

    Vertices are colored in a fixed order.  First-use symmetry break:
    unused colors are interchangeable, so a vertex takes no color above
    ``top + 1`` (nor above c), where ``top`` is the highest color used so
    far.  ``place`` carries ``top`` down the recursion instead of
    rescanning the colored vertices on every call, and tries the same
    colorings in the same order."""
    adj = g.adjacency
    # isolated vertices never change chi: only the others are colored, so
    # the recursion takes a frame per vertex on an edge
    order = sorted((v for v in range(g.n_vertices) if adj[v]), key=lambda v: -len(adj[v]))
    n = len(order)

    def colorable(c: int) -> bool:
        colors = [0] * g.n_vertices  # 0 = unassigned

        def place(idx: int, top: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            used_here = {colors[w] for w in adj[v] if colors[w]}
            for col in range(1, min(c, top + 1) + 1):
                if col in used_here:
                    continue
                colors[v] = col
                if place(idx + 1, max(top, col)):
                    return True
                colors[v] = 0
            return False

        return place(0, 0)

    return next(c for c in range(3, n + 1) if colorable(c))  # c = n always succeeds
