"""Acceptance suite: one test per criterion, exact integer tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and timings).
"""

from __future__ import annotations

import random
import time
from collections import Counter

from antimagic.families import FAMILIES, build_family
from antimagic.matrices import (
    matrix_5x2k,
    matrix_6x4n,
    matrix_kx10,
    sequences_6x4n,
    validate_5x2k,
    validate_6x4n,
    validate_kx10,
)
from antimagic.search import (
    STATUS_NO_LABELING,
    STATUS_VALUE,
    chi_la_exact,
)
from antimagic.verify import (
    induced_coloring,
    lower_bound,
    two_coloring_impossible,
)
from golden import GRID_5X2K_K6, GRID_KX10_K4, SEQUENCES_N6
from helpers import by_name, chi_la_is_three, grid_points, transposition_detected

# families whose construction-time coloring is provably optimal at 3 colors
THREE_COLOR_FAMILIES = (
    "FB", "rFB", "FB1", "FB2", "rDF", "DFr", "DF1", "DF2", "DF3", "DF4",
    "nC482", "G1", "G2", "H1", "H2", "H3", "Hm_rs", "kD82", "rG82",
)

BALANCED_BIPARTITE_FAMILIES = (
    "rDF", "nC482", "G1", "G2", "H1", "DF1", "DF2", "DF3", "DF4",
)


def _report(number: int, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {detail}")


def test_criterion_1_golden_matrices():
    start = time.monotonic()
    assert matrix_5x2k(6).grid == GRID_5X2K_K6
    assert sequences_6x4n(6) == SEQUENCES_N6
    assert matrix_kx10(4).grid == GRID_KX10_K4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "three worked example tables reproduced cell-for-cell", elapsed)


def test_criterion_2_matrix_invariants_to_50():
    start = time.monotonic()
    for k in range(1, 51):
        rep = validate_5x2k(matrix_5x2k(k))
        assert rep.ok, (k, rep.failures)
        rep = validate_kx10(matrix_kx10(k))
        assert rep.ok, (k, rep.failures)
    for n in range(1, 51):
        m = matrix_6x4n(n)
        rep = validate_6x4n(m.sequences)
        assert rep.ok, (n, rep.failures)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, "all validators pass for every parameter in [1, 50]", elapsed)


def test_criterion_3_family_verification_grid():
    start = time.monotonic()
    for tag, (_, grid) in FAMILIES.items():
        assert len(grid) >= 10, tag
    seen = []
    for tag, params, _, report, diffs in grid_points():
        assert report.local_antimagic, (tag, params, report.conflicts[:3])
        assert not diffs, (tag, params, diffs)
        seen.append((tag, params))
    assert seen == [(tag, params) for tag, (_, grid) in FAMILIES.items()
                    for params in grid]
    points = len(seen)
    assert points == 260
    # the worked diamond-fan instance, class sizes included
    built = build_family("rDF", r=3, s=2)
    rep = induced_coloring(built.graph)
    assert Counter(rep.id_sums) == {61: 24, 79: 12, 208: 6}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"{points} grid points verify with exact class tables", elapsed)


def test_criterion_4_color_count_claims():
    start = time.monotonic()
    for tag in THREE_COLOR_FAMILIES:
        for params in FAMILIES[tag][1]:
            built = build_family(tag, **params)
            if not chi_la_is_three(built):
                continue
            rep = induced_coloring(built.graph)
            assert rep.color_count == 3, (tag, params, rep.color_count)
    for tag in ("C8_units", "kC82"):
        for params in FAMILIES[tag][1]:
            rep = induced_coloring(build_family(tag, **params).graph)
            assert rep.color_count <= 4, (tag, params)
    # Bk's labeling lands on exactly 3 colors even though only a bound is claimed
    for params in FAMILIES["Bk"][1]:
        rep = induced_coloring(build_family("Bk", **params).graph)
        assert rep.color_count == 3
    elapsed = time.monotonic() - start
    _report(4, "3-color claims exact; C8 units and kC(8,2) stay within 4", elapsed)


def test_criterion_5_distinctness_arithmetic():
    start = time.monotonic()
    collisions = []
    for r in range(2, 21):
        for s in range(2, 21, 2):
            k = r * s // 2
            tip = r * (10 * k + 1) == s * (17 * k + 2)
            center = r * (13 * k + 1) == s * (17 * k + 2)
            if r % 4 != 0:
                assert not tip, (r, s)
            if (r * s) % 4 != 0:
                assert not center, (r, s)
            if tip or center:
                collisions.append((r, s, tip, center))
    # verified fact for this grid: no equality instance exists at all, so
    # the modular conditions are never tight within r, s <= 20
    assert collisions == []
    # the diamond-fan variants use k = rs with the same conclusion
    for r in range(2, 21):
        for s in range(2, 21, 2):
            k = r * s
            if (r * s) % 4 != 0:
                assert r * (13 * k + 1) != s * (17 * k + 2)
            if r % 4 != 0:
                assert r * (10 * k + 1) != s * (17 * k + 2)
    elapsed = time.monotonic() - start
    _report(5, "mod-4 characterizations agree with direct evaluation", elapsed)


def test_criterion_6_lower_bounds():
    start = time.monotonic()
    for tag in BALANCED_BIPARTITE_FAMILIES:
        for params in FAMILIES[tag][1]:
            built = build_family(tag, **params)
            assert two_coloring_impossible(built.graph) is True, (tag, params)
    for params in FAMILIES["Hm_rs"][1]:
        if params["m"] == 1:  # the folded variant stays balanced bipartite
            built = build_family("Hm_rs", **params)
            assert two_coloring_impossible(built.graph) is True
    for tag in THREE_COLOR_FAMILIES:
        for params in FAMILIES[tag][1]:
            built = build_family(tag, **params)
            if chi_la_is_three(built):
                assert lower_bound(built.graph) >= 3, (tag, params)
    elapsed = time.monotonic() - start
    _report(6, "gate impossibility and lower bounds >= 3 across the grid", elapsed)


def test_criterion_7_oracle_spot_checks():
    start = time.monotonic()
    k2 = by_name(["a", "b"], [("a", "b", 1)])
    assert chi_la_exact(k2).status == STATUS_NO_LABELING

    p3 = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    result = chi_la_exact(p3)
    assert result.status == STATUS_VALUE and result.chi_la == 3

    fb1 = by_name(["u", "v", "w", "x"],
                  [("u", "w", 1), ("v", "w", 2), ("x", "w", 3), ("x", "u", 4), ("x", "v", 5)])
    t0 = time.monotonic()
    result = chi_la_exact(fb1)
    fb1_time = time.monotonic() - t0
    assert result.status == STATUS_VALUE and result.chi_la == 3
    assert fb1_time < 1.0

    fb2 = build_family("FB", k=1).graph  # 10 edges
    t0 = time.monotonic()
    result = chi_la_exact(fb2)
    fb2_time = time.monotonic() - t0
    assert result.status == STATUS_VALUE and result.chi_la == 3
    assert fb2_time < 300.0
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == 3
    elapsed = time.monotonic() - start
    _report(7, f"K2 none, P3=3, FB(1)=3 ({fb1_time:.2f}s), FB(2)=3 "
               f"({fb2_time:.2f}s)", elapsed)


def test_criterion_8_discrepancy_values():
    start = time.monotonic()
    for k in (1, 2, 4, 7):
        built = build_family("kD82", k=k)
        sizes = Counter(induced_coloring(built.graph).id_sums)
        assert 34 * k + 4 in sizes
        assert 34 * k + 2 not in sizes
        assert sizes[34 * k + 4] == k
        assert any("34k+2" in note for note in built.notes)

        built = build_family("C8_units", k=k)
        sizes = Counter(induced_coloring(built.graph).id_sums)
        assert 13 * k + 1 in sizes
        assert 13 * k + 2 not in sizes
        assert sizes[13 * k + 1] == 2 * k
        assert any("13k+2" in note for note in built.notes)
    elapsed = time.monotonic() - start
    _report(8, "verified values 34k+4 and 13k+1 asserted; divergences "
               "recorded in builder notes", elapsed)


def test_criterion_9_metamorphic_transpositions():
    start = time.monotonic()
    rng = random.Random(90125)
    checked = 0
    for tag, (_, grid) in FAMILIES.items():
        for params in grid:
            built = build_family(tag, **params)
            m = built.graph.size
            for _ in range(100):
                e1 = rng.randrange(m)
                e2 = rng.randrange(m - 1)
                if e2 >= e1:
                    e2 += 1
                assert transposition_detected(built, e1, e2), \
                    (tag, params, e1, e2)
                checked += 1
    elapsed = time.monotonic() - start
    _report(9, f"{checked} random label transpositions all detected", elapsed)
