"""Ground-truth checking of edge labelings.

Everything here recomputes from the edge list: induced vertex sums, color
classes, the local-antimagic verdict (labels bijective onto [1, m] and
adjacent sums distinct), comparison against a builder's claimed coloring,
and the two lower-bound sources (chromatic number and the balanced /
divisor-pair 2-coloring impossibility gate).  Exact integer arithmetic
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .families import ExpectedColors
from .graph import (
    Bipartition,
    GraphTooLarge,
    LabeledGraph,
    chromatic_number_small,
    is_bipartite,
)


@dataclass(frozen=True)
class ColorReport:
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

    def to_json_dict(self) -> dict:
        return {
            "sums": dict(sorted(self.sums.items())),
            "classes": {str(v): list(names)
                        for v, names in sorted(self.color_classes.items())},
            "color_count": self.color_count,
            "labels_bijective": self.labels_bijective,
            "label_problems": list(self.label_problems),
            "conflicts": [{"u": u, "v": v, "sum": s} for u, v, s in self.conflicts],
            "local_antimagic": self.local_antimagic,
            "bipartite": self.bipartite,
            "part_sizes": list(self.part_sizes) if self.part_sizes else None,
            "balanced_bipartition": self.balanced_bipartition,
            "total": self.total,
        }


def induced_coloring(g: LabeledGraph) -> ColorReport:
    """Induced vertex sums, color classes, and the local-antimagic verdict."""
    sums = [0] * g.n_vertices
    for e in g.edges:
        sums[e.u] += e.label
        sums[e.v] += e.label

    problems: list[str] = []
    labels = sorted(g.labels())
    m = g.size
    if labels != list(range(1, m + 1)):
        seen: set[int] = set()
        for lab in labels:
            if lab in seen:
                problems.append(f"label {lab} used more than once")
            seen.add(lab)
            if not 1 <= lab <= m:
                problems.append(f"label {lab} outside [1, {m}]")
        for lab in range(1, m + 1):
            if lab not in seen:
                problems.append(f"label {lab} missing")
    bijective = not problems

    conflicts = tuple(
        (g.names[e.u], g.names[e.v], sums[e.u])
        for e in g.edges
        if sums[e.u] == sums[e.v]
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
        label_problems=tuple(problems),
        conflicts=conflicts,
        local_antimagic=bijective and not conflicts,
        bipartite=bip is not None,
        part_sizes=bip.part_sizes if bip else None,
        balanced_bipartition=bip.balanced if bip else None,
        total=sum(sums),
    )


@dataclass(frozen=True)
class ExpectedCheck:
    passed: bool
    diffs: tuple[str, ...]


def check_expected(g: LabeledGraph, expected: ExpectedColors,
                   report: ColorReport | None = None) -> ExpectedCheck:
    """Exact comparison of color values, class sizes and member degrees.

    ``report`` is ``induced_coloring(g)`` when the caller already has it.
    """
    if report is None:
        report = induced_coloring(g)
    degrees = g.degrees()
    diffs: list[str] = []

    values = [c.value for c in expected.classes]
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
    return ExpectedCheck(not diffs, tuple(diffs))


class TwoColorGate(Enum):
    IMPOSSIBLE_BY_LEMMA = "impossible_by_lemma"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GateReport:
    verdict: TwoColorGate
    reason: str


def _achievable_part_sizes(bip: Bipartition) -> set[int]:
    """All |X| achievable by flipping sides independently per component."""
    sizes = {0}
    for a, b in bip.component_parts:
        sizes = {t + a for t in sizes} | {t + b for t in sizes}
    return sizes


def two_color_gate(g: LabeledGraph) -> GateReport:
    """Rule out 2-colorings: any local antimagic 2-coloring with colors
    x < y on classes X, Y forces a bipartition with |X| > |Y| and
    x|X| = y|Y| = m(m+1)/2.  Balanced bipartite graphs fail |X| > |Y|;
    otherwise every achievable split must admit the integer divisor pair.
    """
    m = g.size
    if m == 0:
        return GateReport(TwoColorGate.INCONCLUSIVE, "no edges")
    bip = is_bipartite(g)
    if bip is None:
        return GateReport(TwoColorGate.INCONCLUSIVE, "not bipartite")
    if bip.balanced:
        return GateReport(
            TwoColorGate.IMPOSSIBLE_BY_LEMMA,
            "every bipartition has equal parts, contradicting |X| > |Y|",
        )
    n = g.n_vertices
    half = m * (m + 1) // 2
    for big in sorted(_achievable_part_sizes(bip)):
        small = n - big
        if big <= small or small < 1:
            continue
        if half % big == 0 and half % small == 0:
            return GateReport(
                TwoColorGate.INCONCLUSIVE,
                f"divisor pair x={half // big}, y={half // small} fits parts "
                f"({big}, {small})",
            )
    return GateReport(
        TwoColorGate.IMPOSSIBLE_BY_LEMMA,
        f"no achievable bipartition admits integers x|X| = y|Y| = {half}",
    )


def lower_bound(g: LabeledGraph, chi_budget: int = 20) -> int:
    """Best available lower bound on the local antimagic chromatic number.

    Combines chi(g) (exact when the graph is small or bipartite, else the
    odd-cycle bound 3) with the 2-coloring gate.
    """
    if g.n_vertices == 0:
        return 0
    if g.size == 0:
        return 1
    bound = 2
    if is_bipartite(g) is None:
        bound = 3
        if g.n_vertices <= chi_budget:
            try:
                bound = max(bound, chromatic_number_small(g, chi_budget))
            except GraphTooLarge:  # pragma: no cover - guarded by the size test
                pass
    if two_color_gate(g).verdict is TwoColorGate.IMPOSSIBLE_BY_LEMMA:
        bound = max(bound, 3)
    return bound
