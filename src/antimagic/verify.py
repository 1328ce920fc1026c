"""Ground-truth checking of edge labelings.

Everything here recomputes from the edge list: induced vertex sums, color
classes, the local-antimagic verdict (labels bijective onto [1, m] and
adjacent sums distinct), comparison against a builder's claimed coloring,
and ``lower_bound`` from four sources: the chromatic number, the
2-coloring lemma (``two_coloring_impossible``: the divisor-pair scan),
the pendant count and the isolated vertices.  The chromatic number of a
graph that is not bipartite is found exactly, by backtracking, on at
most ``CHI_EXACT_MAX_VERTICES`` vertices, and taken as 3 above that.
The report, the bound and the gate each ask ``is_bipartite(g)``, which
runs its BFS once per graph and keeps the answer on it.
Exact integer arithmetic throughout.  This module only computes:
``document.report_to_document`` writes a ``ColorReport``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(c.value for c in self.classes)


class ColorReport(NamedTuple):
    sums: dict[str, int]
    color_classes: dict[int, tuple[str, ...]]
    color_count: int
    labels_bijective: bool
    label_problems: tuple[str, ...]
    conflicts: tuple[tuple[str, str, int], ...]  # adjacent pair, shared sum
    local_antimagic: bool
    bipartite: bool
    part_sizes: tuple[int, int] | None
    balanced_bipartition: bool | None
    total: int  # sum of induced values; m(m+1) for bijective labelings


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
    labels = sorted(labels)
    if labels == list(range(1, top + 1)):
        return ()
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
    """Induced vertex sums, color classes, and the local-antimagic verdict."""
    sums = vertex_sums(g)
    problems = label_problems(g.labels(), g.size)
    bijective = not problems

    conflicts = tuple(
        (g.names[u], g.names[v], sums[u])
        for u, v, _ in g.edges
        if sums[u] == sums[v]
    )

    classes: dict[int, list[str]] = {}
    for vid, value in enumerate(sums):
        classes.setdefault(value, []).append(g.names[vid])
    color_classes = {v: tuple(sorted(ns)) for v, ns in classes.items()}

    bip = is_bipartite(g)
    return ColorReport(
        sums={g.names[i]: sums[i] for i in range(g.n_vertices)},
        color_classes=color_classes,
        color_count=len(color_classes),
        labels_bijective=bijective,
        label_problems=problems,
        conflicts=conflicts,
        local_antimagic=bijective and not conflicts,
        bipartite=bip is not None,
        part_sizes=bip.part_sizes if bip else None,
        balanced_bipartition=bip.balanced if bip else None,
        total=sum(sums),
    )


def check_expected(g: LabeledGraph, expected: ExpectedColors,
                   report: ColorReport) -> tuple[str, ...]:
    """Exact comparison of color values, class sizes and member degrees;
    ``report`` is ``induced_coloring(g)``.  Returns one line per difference,
    so the claim holds exactly when there are none."""
    degrees = g.degrees()
    diffs: list[str] = []

    values = expected.values
    if len(set(values)) != len(values):
        diffs.append(f"expected color values are not distinct: {sorted(values)}")

    actual_values = set(report.color_classes)
    for cls in expected.classes:
        members = report.color_classes.get(cls.value, ())
        if len(members) != cls.size:
            diffs.append(
                f"color {cls.value}: expected {cls.size} vertices, found {len(members)}")
        bad_deg = [nm for nm in members if degrees[nm] != cls.degree]
        if bad_deg:
            diffs.append(
                f"color {cls.value}: vertices {bad_deg[:4]} do not have degree {cls.degree}")
    unexpected = sorted(actual_values - set(values))
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
    m = g.size
    bip = is_bipartite(g)
    if m == 0 or bip is None:
        return False
    n = g.n_vertices
    half = m * (m + 1) // 2
    sizes = 1  # bit t: flipping sides per component can give |X| = t
    for a, b in bip.component_parts:
        sizes = sizes << a | sizes << b
    return not any(half % big == 0 and half % (n - big) == 0 and sizes >> big & 1
                   for big in range(n // 2 + 1, n))


def lower_bound(g: LabeledGraph) -> int:
    """Best available lower bound on the local antimagic chromatic number.

    Combines chi(g) (exact when the graph is bipartite or has at most
    ``CHI_EXACT_MAX_VERTICES`` vertices, else the odd-cycle bound 3), the
    2-coloring gate, and the pendant bound of Arumugam, Premalatha, Baca
    and Semanicova-Fenovcikova (Local antimagic vertex coloring of a
    graph, Graphs Combin. 33, 2017): with l >= 1 vertices of degree 1,
    every local antimagic labeling uses at least l + 1 colors.  Proof: a
    pendant vertex's sum is the label of its own edge, so the l pendant
    sums are distinct.  The edge labeled m has an endpoint of degree >= 2
    (else it is a K2 component, whose two equal sums admit no valid
    labeling at all), and that endpoint's sum exceeds m, hence every
    pendant sum.

    Isolated vertices are bounded apart: on a graph with edges they all
    have sum 0, below every other sum, and the labelings of g are those
    of g without them, so chi_la(g) is one more than chi_la of the rest.
    The bound of g is one more than the bound of the rest, whose gate
    and chi see no isolated vertex.
    """
    if g.n_vertices == 0:
        return 0
    if g.size == 0:
        return 1
    degrees = [len(nbrs) for nbrs in g.adjacency]
    if 0 in degrees:
        kept = [v for v, d in enumerate(degrees) if d]
        index = {v: i for i, v in enumerate(kept)}
        rest = LabeledGraph(tuple(g.names[v] for v in kept),
                            tuple((index[u], index[v], label) for u, v, label in g.edges))
        return lower_bound(rest) + 1
    pendants = degrees.count(1)
    bound = pendants + 1 if pendants else 2
    if is_bipartite(g) is None:
        small = g.n_vertices <= CHI_EXACT_MAX_VERTICES
        bound = max(bound, _chromatic_number(g) if small else 3)
    elif two_coloring_impossible(g):
        bound = max(bound, 3)
    return bound


def _chromatic_number(g: LabeledGraph) -> int:
    """Exact chromatic number, by backtracking, of a graph that is not
    bipartite, so 3 or more."""
    n = g.n_vertices
    adj = g.adjacency
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def colorable(c: int) -> bool:
        colors = [0] * n  # 0 = unassigned

        def place(idx: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            used_here = {colors[w] for w in adj[v] if colors[w]}
            # first-use symmetry break: never skip past the lowest fresh color
            max_new = min(c, max((colors[order[i]] for i in range(idx)), default=0) + 1)
            for col in range(1, max_new + 1):
                if col in used_here:
                    continue
                colors[v] = col
                if place(idx + 1):
                    return True
                colors[v] = 0
            return False

        return place(0)

    return next(c for c in range(3, n + 1) if colorable(c))  # c = n always succeeds
