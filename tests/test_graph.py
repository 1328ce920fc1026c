"""Graph core: construction, surgery, and the small exact colorer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.graph import (
    DuplicateName,
    GraphTooLarge,
    InvalidPlan,
    Loop,
    LoopCreated,
    NotAPartition,
    ParallelEdge,
    ParallelEdgeCreated,
    apply_merge,
    chromatic_number_small,
    is_bipartite,
    new_graph,
    split_vertex,
)
from helpers import disjoint_union, same_up_to_names, vertex_label_signature


def fan_unit(labels=(1, 2, 3, 4, 5), suffix=""):
    u, v, w, x = (f"u{suffix}", f"v{suffix}", f"w{suffix}", f"x{suffix}")
    g = new_graph([u, v, w, x])
    return g.with_edges([
        (u, w, labels[0]), (v, w, labels[1]), (x, w, labels[2]),
        (x, u, labels[3]), (x, v, labels[4]),
    ])


def neighbor_names(g, name):
    return {g.names[w] for w in g.adjacency[g.id_of(name)]}


def test_new_graph_and_errors():
    g = new_graph(["u", "v"])
    assert g.n_vertices == 2 and g.size == 0
    assert new_graph([]).n_vertices == 0
    with pytest.raises(DuplicateName):
        new_graph(["u", "u"])


def test_add_edge_and_errors():
    g = new_graph(["u", "v"])
    g = g.with_edges([("u", "v", 1)])
    assert g.size == 1
    with pytest.raises(Loop):
        g.with_edges([("u", "u", 2)])
    with pytest.raises(ParallelEdge):
        g.with_edges([("v", "u", 2)])


def test_merge_two_units_degree_additivity():
    g1 = fan_unit((1, 2, 3, 4, 5), "1")
    g2 = fan_unit((6, 7, 8, 9, 10), "2")
    g = disjoint_union(g1, g2)
    g = apply_merge(g, [(["1:x1", "2:x2"], "x")])
    assert g.n_vertices == 7
    assert g.degrees()["x"] == 6


def test_merge_adjacent_vertices_is_loop():
    g = fan_unit()
    with pytest.raises(LoopCreated):
        apply_merge(g, [(["u", "w"], "uw")])


def test_merge_creating_parallel_edge_detected():
    g = new_graph(["a", "b", "c"]).with_edges([("a", "c", 1), ("b", "c", 2)])
    with pytest.raises(ParallelEdgeCreated):
        apply_merge(g, [(["a", "b"], "ab")])


def test_merge_plan_validation():
    g = fan_unit()
    with pytest.raises(InvalidPlan):
        apply_merge(g, [(["u"], "solo")])
    with pytest.raises(InvalidPlan):
        apply_merge(g, [(["u", "v"], "a"), (["v", "x"], "b")])
    with pytest.raises(InvalidPlan):
        apply_merge(g, [(["u", "v"], "w")])  # name collision


def test_merge_ignores_member_order():
    units = disjoint_union(disjoint_union(fan_unit((1, 2, 3, 4, 5), "1"),
                                          fan_unit((6, 7, 8, 9, 10), "2")),
                           fan_unit((11, 12, 13, 14, 15), "3"))
    sorted_first = apply_merge(units, [(["1:1:x1", "1:2:x2", "2:x3"], "x")])
    reordered = apply_merge(units, [(["2:x3", "1:1:x1", "1:2:x2"], "x")])
    assert sorted_first == reordered


def test_merge_keeps_labels_and_size():
    units = disjoint_union(fan_unit((1, 2, 3, 4, 5), "1"),
                           fan_unit((6, 7, 8, 9, 10), "2"))
    merged = apply_merge(units, [(["1:x1", "2:x2"], "x")])
    assert sorted(merged.labels()) == sorted(units.labels())
    assert merged.size == units.size
    assert merged.n_vertices == units.n_vertices - 1


def test_split_vertex_fan():
    g = fan_unit()
    g = split_vertex(g, "x", {"w"}, {"u", "v"}, "x^1", "x^2")
    assert g.n_vertices == 5
    assert g.degrees()["x^1"] == 1 and g.degrees()["x^2"] == 2
    assert "w" in neighbor_names(g, "x^1") and "u" in neighbor_names(g, "x^2")


def test_split_empty_block_gives_isolated_vertex():
    g = new_graph(["a", "b"]).with_edges([("a", "b", 1)])
    g = split_vertex(g, "a", {"b"}, set(), "a1", "a2")
    assert g.degrees()["a2"] == 0


def test_split_overlapping_blocks_rejected():
    g = fan_unit()
    with pytest.raises(NotAPartition):
        split_vertex(g, "x", {"w", "u"}, {"u", "v"}, "x1", "x2")
    with pytest.raises(NotAPartition):
        split_vertex(g, "x", {"w"}, {"u"}, "x1", "x2")  # v not covered


def test_split_then_merge_is_identity_up_to_names():
    g = fan_unit()
    h = split_vertex(g, "x", {"w"}, {"u", "v"}, "x^1", "x^2")
    back = apply_merge(h, [(["x^1", "x^2"], "x")])
    assert same_up_to_names(g, back)


def test_disjoint_union_sizes_and_identity():
    g = fan_unit()
    empty = new_graph([])
    u = disjoint_union(g, empty)
    assert same_up_to_names(g, u)
    g2 = fan_unit((6, 7, 8, 9, 10))
    both = disjoint_union(g, g2)
    assert both.size == 10 and both.n_vertices == 8
    assert sorted(both.labels()) == list(range(1, 11))


def test_disjoint_union_associative_up_to_names():
    a, b, c = fan_unit(suffix="a"), fan_unit((6, 7, 8, 9, 10), "b"), \
        new_graph(["z"])
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    assert vertex_label_signature(left) == vertex_label_signature(right)


def test_degrees_sum_to_twice_size():
    g = disjoint_union(fan_unit(suffix="1"), fan_unit((6, 7, 8, 9, 10), "2"))
    assert sum(g.degrees().values()) == 2 * g.size


def test_is_bipartite():
    p3 = new_graph(["a", "b", "c"]).with_edges([("a", "b", 1), ("b", "c", 2)])
    bip = is_bipartite(p3)
    assert bip is not None and bip.part_sizes in ((2, 1), (1, 2))
    tri = new_graph(["a", "b", "c"]).with_edges(
        [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    assert is_bipartite(tri) is None


def test_chromatic_number_small():
    assert chromatic_number_small(fan_unit()) == 3
    edge = new_graph(["a", "b"]).with_edges([("a", "b", 1)])
    assert chromatic_number_small(edge) == 2
    k4 = new_graph(list("abcd")).with_edges(
        [(a, b, i + 1) for i, (a, b) in enumerate(
            (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")))])
    assert chromatic_number_small(k4) == 4
    with pytest.raises(GraphTooLarge):
        chromatic_number_small(new_graph([str(i) for i in range(25)]))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=len(pairs)))
    labels = draw(st.permutations(range(1, len(chosen) + 1)))
    g = new_graph(names)
    return g.with_edges([
        (names[i], names[j], lab) for (i, j), lab in zip(chosen, labels)
    ])


@settings(max_examples=60)
@given(small_graphs(), st.data())
def test_split_merge_roundtrip_random(g, data):
    candidates = [nm for nm in g.names if g.degrees()[nm] >= 1]
    v = data.draw(st.sampled_from(candidates))
    nbrs = sorted(neighbor_names(g, v))
    block1 = set(data.draw(st.lists(st.sampled_from(nbrs), unique=True,
                                    max_size=len(nbrs)))) if nbrs else set()
    block2 = set(nbrs) - block1
    h = split_vertex(g, v, block1, block2, f"{v}^1", f"{v}^2")
    assert h.size == g.size
    back = apply_merge(h, [([f"{v}^1", f"{v}^2"], v)])
    assert same_up_to_names(g, back)


@settings(max_examples=60)
@given(small_graphs())
def test_degree_sum_invariant_random(g):
    assert sum(g.degrees().values()) == 2 * g.size
