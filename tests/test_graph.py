"""Graph core: construction, surgery, and the small exact colorer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.document import document_to_graph, graph_to_document
from antimagic.families import build_family
from antimagic.graph import (
    DuplicateName,
    GraphError,
    GraphTooLarge,
    InvalidPlan,
    LabeledEdge,
    Loop,
    LoopCreated,
    ParallelEdge,
    ParallelEdgeCreated,
    apply_merge,
    chromatic_number_small,
    is_bipartite,
    new_graph,
)
from helpers import disjoint_union, same_up_to_names, vertex_label_signature
from oracles import NotAPartition, naive_merge, split_vertex


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


def test_edge_is_an_immutable_named_triple():
    e = LabeledEdge(2, 5, 7)
    assert LabeledEdge._fields == ("u", "v", "label")
    assert (e.u, e.v, e.label) == (2, 5, 7)
    u, v, label = e
    assert (u, v, label) == (2, 5, 7)
    with pytest.raises(AttributeError):
        e.label = 8
    assert e._replace(label=8) == LabeledEdge(2, 5, 8) and e.label == 7


def _ordered(g) -> bool:
    return all(type(e) is LabeledEdge and e.u < e.v for e in g.edges)


def test_every_edge_keeps_u_below_v():
    g = new_graph(["a", "b", "c", "d", "e"]).with_edges(
        [("b", "a", 1), ("e", "c", 2), ("a", "d", 3), ("d", "b", 4)])
    assert _ordered(g) and [e[:2] for e in g.edges] == [(0, 1), (2, 4), (0, 3), (1, 3)]
    merged = apply_merge(g, [(["e", "a"], "ae")])  # e lands on a's id 0
    assert _ordered(merged) and merged.names == ("ae", "b", "c", "d")
    assert [e[:2] for e in merged.edges] == [(0, 1), (0, 2), (0, 3), (1, 3)]
    doc = graph_to_document(g)
    for row in doc["edges"]:
        row["u"], row["v"] = row["v"], row["u"]
    read, _ = document_to_graph(doc)
    assert _ordered(read) and read == g
    assert _ordered(build_family("FB", k=2).graph)


def test_surgery_error_messages():
    g = fan_unit()  # edges u-w 1, v-w 2, x-w 3, x-u 4, x-v 5
    cases = [
        (lambda: g.with_edges([("u", "u", 6)]), Loop, "loop at vertex 'u'"),
        (lambda: g.with_edges([("w", "u", 6)]), ParallelEdge, "edge 'w'--'u' already present"),
        (lambda: g.with_edges([("u", "zz", 6)]), GraphError, "no vertex named 'zz'"),
        (lambda: g.with_edges([("zz", "yy", 6)]), GraphError, "no vertex named 'zz'"),
        (lambda: g.id_of("zz"), GraphError, "no vertex named 'zz'"),
        (lambda: apply_merge(g, [(["u", "zz"], "uz")]), GraphError, "no vertex named 'zz'"),
        (lambda: apply_merge(g, [(["v", "u", "w"], "uvw")]), LoopCreated,
         "merging adjacent vertices 'u' and 'w'"),
        (lambda: apply_merge(g, [(["u", "v"], "uv")]), ParallelEdgeCreated,
         "edges labeled 1 and 2 would join 'uv' and 'w' twice"),
        (lambda: apply_merge(g, [(["u", "v"], "w")]), InvalidPlan,
         "fused name 'w' collides with a surviving vertex"),
    ]
    for call, kind, message in cases:
        with pytest.raises(GraphError) as info:
            call()
        assert type(info.value) is kind and str(info.value) == message
    two = new_graph(["a", "b", "c", "d"]).with_edges([("a", "c", 4), ("d", "b", 9)])
    with pytest.raises(ParallelEdgeCreated) as info:
        apply_merge(two, [(["c", "d"], "cd"), (["b", "a"], "ab")])
    assert str(info.value) == "edges labeled 4 and 9 would join 'ab' and 'cd' twice"


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


@st.composite
def merge_cases(draw):
    """A sparse small graph and a merge plan that is often valid, and
    otherwise breaks one of apply_merge's rules."""
    n = draw(st.integers(min_value=2, max_value=8))
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    labels = draw(st.permutations(range(1, len(chosen) + 1)))
    g = new_graph(names).with_edges([
        (names[j], names[i], lab) if flip else (names[i], names[j], lab)
        for (i, j), flip, lab in zip(chosen, flips, labels)])
    if draw(st.integers(0, 3)):  # disjoint groups of known vertices, mostly fresh names
        order = draw(st.permutations(names))
        k = draw(st.integers(1, n // 2))
        blocks = [order[2 * i:2 * i + 2] for i in range(k)]
        if 2 * k < n and draw(st.booleans()):
            blocks[-1].append(order[2 * k])
        plan = [(block, draw(st.sampled_from([f"f{i}"] * 3 + [block[-1], names[0]])))
                for i, block in enumerate(blocks)]
    else:
        members = st.lists(st.sampled_from([*names, "zz"]), min_size=1, max_size=4)
        fused = st.sampled_from(["f0", "f1", *names])
        plan = draw(st.lists(st.tuples(members, fused), min_size=1, max_size=3))
    return g, plan


def _outcome(merge, g, plan):
    try:
        return merge(g, plan)
    except GraphError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(merge_cases())
def test_merge_matches_the_naive_merge(case):
    g, plan = case
    assert _outcome(apply_merge, g, plan) == _outcome(naive_merge, g, plan)
