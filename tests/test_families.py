"""Family builders: hand-checked color values, degree spectra, component
counts, hypothesis gates, and the full verification grid."""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic.families as families
from antimagic.families import (
    ACCEPTANCE_GRID,
    FAMILIES,
    ParameterError,
    _fan,
    _fan_units,
    _nc,
    _param_names,
    _prism,
    _prism_units,
    build_dfr,
    build_family,
    build_fb,
    build_fb_units,
    build_h,
    build_nc482,
    build_oddk_h,
    build_rg82,
)
from antimagic.cli import _check
from antimagic.verify import induced_coloring
from helpers import chi_la_is_three, components, disjoint_union, grid_points
from oracles import fan_units_by_name, nc482_by_name, prism_units_by_name, split_vertex


def sums_of(g):
    return induced_coloring(g).sums


def test_fb_units_k1_hub_sums():
    built = build_fb_units(1)
    s = sums_of(built.graph)
    assert s["x_1"] == 22 and s["x_2"] == 16
    assert s["u_1"] == s["v_1"] == s["u_2"] == s["v_2"] == 11
    assert s["w_1"] == s["w_2"] == 14
    assert sorted(built.graph.labels()) == list(range(1, 11))


def test_fb_units_k6_center_sum():
    built = build_fb_units(6)
    s = sums_of(built.graph)
    assert all(s[f"w_{i}"] == 79 for i in range(1, 13))


def test_fb_merge_of_twelve_units():
    built = build_fb(6)
    g = built.graph
    assert g.degrees()["x"] == 36
    assert sums_of(g)["x"] == 1248 == 6 * (34 * 6 + 4)


def test_fb_k1_colors():
    built = build_fb(1)
    assert sorted(set(sums_of(built.graph).values())) == [11, 14, 38]


def test_fb_three_distinct_colors_always():
    for k in (1, 2, 5, 9):
        rep = induced_coloring(build_fb(k).graph)
        assert rep.color_count == 3


def test_rfb_merge_sets_match_worked_example():
    # 6FB(2) at k=6 fuses {x_i, x_13-i}; 3FB(4) fuses consecutive pairs with
    # their mirrors
    b62 = build_family("rFB", r=6, s=2)
    assert len(components(b62.graph)) == 6
    s = sums_of(b62.graph)
    assert all(s[f"x_{j}"] == 208 for j in range(1, 7))

    b34 = build_family("rFB", r=3, s=4)
    assert len(components(b34.graph)) == 3
    s = sums_of(b34.graph)
    assert all(s[f"x_{j}"] == 4 * (17 * 6 + 2) for j in range(1, 4))


def test_rfb_rejects_odd_s():
    with pytest.raises(ParameterError):
        build_family("rFB", r=2, s=3)


def test_fb1_fb2_colors():
    b = build_family("FB1", r=2, s=2)  # k = 2
    assert sorted(set(sums_of(b.graph).values())) == [27, 42, 72]
    assert not b.warnings
    b = build_family("FB2", r=3, s=2)  # k = 3
    assert sorted(set(sums_of(b.graph).values())) == [31, 106, 120]


def test_fb1_fb2_hypothesis_warnings():
    b = build_family("FB2", r=2, s=2)  # rs = 4 divisible by 4
    assert b.warnings and not chi_la_is_three(b)
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic  # graph still produced and labeled
    b = build_family("FB1", r=4, s=2)  # r divisible by 4
    assert b.warnings and not chi_la_is_three(b)


def test_rdf_example_colors_and_structure():
    b = build_family("rDF", r=3, s=2)
    g = b.graph
    assert len(components(g)) == 3
    rep = induced_coloring(g)
    assert sorted(rep.color_classes) == [61, 79, 208]
    assert [len(rep.color_classes[v]) for v in (61, 79, 208)] == [24, 12, 6]
    deg = Counter(g.degrees().values())
    # per diamond fan: 4s degree-2, 2s degree-3, 2 hubs of degree 3s
    assert deg == {2: 24, 3: 12, 6: 6}
    assert all(g.degrees()[f"y_{j}"] == 6 and g.degrees()[f"z_{j}"] == 6
               for j in (1, 2, 3))


def test_rdf_size_formula():
    b = build_family("rDF", r=1, s=2)
    assert b.graph.size == 20
    assert len(components(b.graph)) == 1


def test_dfr_component_count_and_size():
    b = build_dfr(1, 2)
    assert b.graph.size == 30
    assert len(components(b.graph)) == 2  # one diamond fan + the fan
    b = build_dfr(1, 4)
    assert len(components(b.graph)) == 2
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic
    b = build_dfr(3, 2)
    assert len(components(b.graph)) == 4


def test_df_variant_colors():
    b = build_family("DF3", r=2, s=1)  # k = 2
    assert sorted(set(sums_of(b.graph).values())) == [21, 27, 72]
    b = build_family("DF1", r=2, s=2)  # alpha degree 3r
    assert all(b.graph.degrees()[f"alpha_{i}_{a}"] == 6
               for i in (1, 2) for a in (1, 2))


def test_df3_equals_df4_at_r2():
    g3 = build_family("DF3", r=2, s=2).graph
    g4 = build_family("DF4", r=2, s=2).graph
    assert g3.size == g4.size
    assert sorted(g3.degrees().values()) == sorted(g4.degrees().values())
    assert Counter(sums_of(g3).values()) == Counter(sums_of(g4).values())


def test_df4_requires_even_r():
    with pytest.raises(ParameterError):
        build_family("DF4", r=3, s=2)


def test_df12_warnings_on_hypothesis_violation():
    assert build_family("DF1", r=2, s=2).warnings   # rs = 4 divisible by 4
    assert build_family("DF2", r=4, s=2).warnings   # r divisible by 4
    assert not build_family("DF1", r=3, s=2).warnings
    assert not build_family("DF2", r=3, s=2).warnings


def test_nc482_sums():
    b = build_nc482(1)
    s = sums_of(b.graph)
    assert s["u_1_2"] == 31  # 30n+1 at n=1
    assert all(s[f"u_1_{i}"] == 21 for i in (1, 3, 5, 7))
    assert all(s[f"v_1_{i}"] == 21 for i in (1, 3, 5, 7))
    b6 = build_nc482(6)
    rep = induced_coloring(b6.graph)
    assert rep.local_antimagic
    assert sorted(rep.color_classes) == [121, 181, 182]


def test_nc482_adjacent_degree3_pairs_alternate():
    g = build_nc482(2).graph
    s = sums_of(g)
    for a in (1, 2):
        for i in (2, 4, 6, 8):
            assert {s[f"u_{a}_{i}"], s[f"v_{a}_{i}"]} == {61, 62}


def test_g1_g2_colors():
    b = build_family("G1", r=1, s=2)  # n = 2
    s = sums_of(b.graph)
    assert all(s[f"U_1_{j}"] == 82 for j in range(1, 5))
    assert b.graph.degrees()["U_1_1"] == 4

    b = build_family("G2", r=3, s=2)  # n = 6: fused vertices carry s*(30n+1)
    s = sums_of(b.graph)
    assert all(s[f"U_{bk}_{j}"] == 2 * 181 for bk in (1, 2, 3) for j in (1, 4))
    assert all(s[f"V_{bk}_{j}"] == 2 * 181 for bk in (1, 2, 3) for j in (2, 3))
    assert len(components(b.graph)) == 3


def test_h_families():
    for m in (1, 2, 3):
        b = build_h(m, 1)
        s = sums_of(b.graph)
        assert s["x_1_1"] == 42
        rep = induced_coloring(b.graph)
        assert rep.local_antimagic and rep.color_count == 3
    # aligned-corner variant folds each component into a triangular bracelet:
    # 6 triangles around the four degree-4 vertices
    g = build_h(3, 2).graph
    assert len(components(g)) == 2
    deg = Counter(g.degrees().values())
    assert deg == {3: 16, 4: 8}


def test_hm_rs():
    b = build_family("Hm_rs", m=2, r=2, s=3)  # n = 6
    s = sums_of(b.graph)
    assert all(s[f"X_{bk}_{j}"] == 3 * 242 for bk in (1, 2) for j in (1, 2))
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic and rep.color_count == 3


def test_c8_units_k4_sums():
    b = build_family("C8_units", k=4)
    s = sums_of(b.graph)
    assert s["u_1_2"] == 53          # 1 + 24 + 28
    assert s["u_1_4"] == 26          # 17 + 9
    assert s["u_1_8"] == 73          # 33 + 40
    assert s["x_1"] == 41
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic and rep.color_count == 4


def test_bk_and_kc82():
    b = build_family("Bk", k=2)
    s = sums_of(b.graph)
    assert all(s[f"b_{i}"] == 24 * 2 + 3 for i in (1, 2))
    b = build_family("kC82", k=2)
    s = sums_of(b.graph)
    assert all(s[f"z_{i}"] == 28 * 2 + 2 for i in (1, 2))
    assert b.graph.degrees()["z_1"] == 4


def test_kd82_fused_value_is_34k_plus_4():
    for k in (1, 4):
        b = build_family("kD82", k=k)
        s = sums_of(b.graph)
        assert all(s[f"w_{i}"] == 34 * k + 4 for i in range(1, k + 1))
        assert all(s[f"w_{i}"] != 34 * k + 2 for i in range(1, k + 1))
        assert b.graph.degrees()["w_1"] == 6
    assert build_family("kD82", k=4).expected.values.count(140) == 1


def test_rg82_small():
    b = build_rg82(1, 2)  # k = 2
    s = sums_of(b.graph)
    assert s["p_1"] == 72 and s["q_1"] == 72
    assert b.graph.degrees()["p_1"] == 6
    assert len(components(b.graph)) == 1
    b = build_rg82(2, 2)  # the two-component case
    assert len(components(b.graph)) == 2
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic and rep.color_count == 3


def test_oddk_h_matches_its_claim():
    b = build_oddk_h(1, 3)  # k = 3
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic
    assert sorted(rep.color_classes) == sorted([31, 40, 2 * 53 + 55, 2 * 53 + 20])
    assert any("match" in note for note in b.notes)
    # merges never change labels, so the bijection survives
    assert sorted(b.graph.labels()) == list(range(1, 31))
    b = build_oddk_h(3, 1)  # s = 1 degenerates to the plain units
    rep = induced_coloring(b.graph)
    assert rep.local_antimagic
    assert sorted(rep.color_classes) == [20, 31, 40, 55]


def test_oddk_h_notes_a_failed_post_hoc_check(monkeypatch):
    # the note reports the sums the verifier computes, never the claim
    monkeypatch.setattr(families, "vertex_sums", lambda g: [0] * g.n_vertices)
    b = build_oddk_h(1, 3)
    assert b.notes[-1] == ("post-hoc check FAILED: achieved colors [0] differ "
                           "from claimed [31, 40, 126, 161]")


def test_oddk_h_rejects_even_k():
    with pytest.raises(ParameterError):
        build_oddk_h(2, 3)


def test_parameter_errors():
    # a parameter below 1 is refused once, by the generator of its matrix
    with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
        build_family("FB", k=0)
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0$"):
        build_family("nC482", n=0)
    with pytest.raises(ParameterError):
        build_family("rDF", r=1, s=1)  # rs < 2
    with pytest.raises(ParameterError):
        build_family("DFr", r=1, s=3)  # odd s
    with pytest.raises(ParameterError):
        build_family("rG82", r=2, s=3)  # odd s
    with pytest.raises(ParameterError):
        build_family("nope", k=1)
    with pytest.raises(ParameterError):
        build_family("FB", n=1)  # wrong parameter name
    with pytest.raises(ParameterError, match="must be an integer"):
        build_family("FB", k=True)  # a bool is not a parameter value
    with pytest.raises(ParameterError, match="must be an integer"):
        build_family("rDF", r=1.5, s=2)
    with pytest.raises(ParameterError, match=r"needs parameters \('r', 's'\)"):
        build_family("DF1", r=3)  # partial builders report their own names
    with pytest.raises(ParameterError, match=r"^m must be 1, 2 or 3$"):
        build_family("Hm_rs", m=0, r=1, s=2)  # the message names the parameter typed
    # each fan variant checks its own hypotheses before its base family's
    for tag, r, s, message in (
        ("rDF", 0, 2, "r and s must be >= 1"),
        ("DF1", 1, 1, "r must be >= 2"),
        ("DF4", 3, 2, "variant 4 needs even r"),
        ("FB1", 1, 2, "r must be >= 2"),
        ("FB2", 2, 3, "s must be even and >= 2"),
    ):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            build_family(tag, r=r, s=s)


@pytest.mark.parametrize("tag", sorted(ACCEPTANCE_GRID))
def test_family_grid_verifies(tag):
    results = list(grid_points([tag]))
    assert [params for _, params, *_ in results] == list(ACCEPTANCE_GRID[tag])
    for _, params, built, report, diffs in results:
        g = built.graph
        assert sorted(g.labels()) == list(range(1, g.size + 1))
        assert report.local_antimagic, (tag, params, report.conflicts[:3])
        assert not diffs, (tag, params, diffs)
        assert _check(g, built.expected)[1] == []  # selftest's verdict


def test_registry_covers_grid():
    assert set(ACCEPTANCE_GRID) == set(FAMILIES)


def test_each_family_takes_its_grid_parameters_in_order():
    # the names build_family checks come off the builder's code object,
    # less the leading arguments a partial binds (17 of the 24 entries)
    assert sum(isinstance(build, partial) for build in FAMILIES.values()) == 17
    for tag, build in FAMILIES.items():
        assert _param_names(build) == tuple(ACCEPTANCE_GRID[tag][0]), tag


OPTIMAL_AT_THREE = {
    "FB", "rFB", "FB1", "FB2", "rDF", "DFr", "DF1", "DF2", "DF3", "DF4",
    "nC482", "G1", "G2", "H1", "H2", "H3", "Hm_rs", "kD82", "rG82",
}


@pytest.mark.parametrize("tag", sorted(ACCEPTANCE_GRID))
def test_chi_la_is_three_per_tag(tag):
    for params in ACCEPTANCE_GRID[tag]:
        assert chi_la_is_three(build_family(tag, **params)) is (tag in OPTIMAL_AT_THREE)


@pytest.mark.parametrize("tag, r, s", [
    ("FB1", 4, 2), ("FB2", 2, 2), ("DF1", 2, 2), ("DF2", 4, 2),
])
def test_chi_la_is_three_false_where_hypotheses_warn(tag, r, s):
    built = build_family(tag, r=r, s=s)
    assert built.warnings and chi_la_is_three(built) is False


def test_c482_is_balanced_bipartite():
    from antimagic.graph import is_bipartite

    bip = is_bipartite(build_nc482(1).graph)
    assert bip is not None and bip.part_sizes == (8, 8)


def test_dfr_shape_equals_rdf_plus_fan():
    # structurally, DF_1(4) is the disjoint union of 1DF(4) and FB(2)
    combined = disjoint_union(build_family("rDF", r=1, s=2).graph, build_fb(1).graph)
    direct = build_dfr(1, 2).graph
    assert sorted(combined.degrees().values()) == sorted(direct.degrees().values())
    assert combined.size == direct.size
    assert len(components(combined)) == len(components(direct)) == 2


def _same_graph(g, oracle):
    assert g.names == oracle.names
    assert g.edges == oracle.edges


@settings(max_examples=80)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(1, 2 * k), unique=True))))
def test_presplit_fan_units_match_sequential_splits(case):
    k, split = case
    oracle = _fan_units(k)[0]
    for i in split:
        oracle = split_vertex(oracle, f"x_{i}", {f"w_{i}"}, {f"u_{i}", f"v_{i}"},
                              f"x_{i}^1", f"x_{i}^2")
    _same_graph(_fan_units(k, split)[0], oracle)


@pytest.mark.parametrize("k", range(1, 9))
def test_unit_generators_match_the_name_based_oracles(k):
    _same_graph(_fan_units(k)[0], fan_units_by_name(k))
    _same_graph(build_nc482(k).graph, nc482_by_name(k))
    _same_graph(_prism_units(k), prism_units_by_name(k))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(1, 2 * k), unique=True))))
def test_split_fan_units_match_the_name_based_oracle(case):
    k, split = case
    _same_graph(_fan_units(k, split)[0], fan_units_by_name(k, split))


@pytest.mark.parametrize("tag, params", [
    ("rDF", {"r": 3, "s": 2}), ("DFr", {"r": 2, "s": 4}),
    ("DF1", {"r": 3, "s": 2}), ("DF2", {"r": 2, "s": 4}),
    ("DF3", {"r": 3, "s": 2}), ("DF4", {"r": 4, "s": 2}),
    ("FB_units", {"k": 6}),
    ("rFB", {"r": 3, "s": 2}), ("FB1", {"r": 3, "s": 2}),
    ("FB2", {"r": 3, "s": 2}), ("FB", {"k": 3}),
])
def test_fan_builds_make_one_matrix_and_split_nothing(monkeypatch, tag, params):
    # the per-hub split_vertex copies (O(k m)), per-column matrix rebuilds
    # (O(k^2)) and second merges over a built base family must not come back
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("matrix_5x2k", "split_vertex", "apply_merge"):
        monkeypatch.setattr(families, name, counted(name, getattr(families, name)))
    build_family(tag, **params)
    merges = {"apply_merge": 1} if tag != "FB_units" else {}
    assert calls == {"matrix_5x2k": 1, **merges}


@pytest.mark.parametrize("k", range(1, 9))
def test_unit_vertex_ids_name_their_vertices(k):
    # each layout helper gives every vertex of its units, under the name
    # its docstring says, and no other id
    units = range(1, 2 * k + 1)
    fans, _, _ = _fan_units(k)
    assert dict(enumerate(fans.names)) == {
        _fan(i, role): f"{role}_{i}" for i in units for role in "uvwx"}
    split, _, second = _fan_units(k, reversed(units))
    assert dict(enumerate(split.names)) == {
        **{_fan(i, role): f"{role}_{i}" for i in units for role in "uvw"},
        **{_fan(i, "x"): f"x_{i}^1" for i in units},
        **{second[i]: f"x_{i}^2" for i in units}}
    assert dict(enumerate(_prism_units(k).names)) == {
        **{_prism(i, j): f"u_{i}_{j}" for i in range(1, k + 1) for j in range(1, 9)},
        **{_prism(i, 9): f"x_{i}" for i in range(1, k + 1)}}
    assert dict(enumerate(build_nc482(k).graph.names)) == {
        _nc(a, role, i): f"{role}_{a}_{i}"
        for a in range(1, k + 1) for role in "uv" for i in range(1, 9)}
