"""Graph core: construction, surgery and the bipartiteness test."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antimagic.graph as graph
from antimagic.document import (
    FORMAT,
    DocumentError,
    document_to_graph,
    dumps,
    graph_to_document,
    report_to_document,
)
from antimagic.families import FAMILIES, build_family
from antimagic.graph import (
    DuplicateName,
    GraphError,
    InvalidPlan,
    LabeledEdge,
    LabeledGraph,
    apply_merge,
    is_bipartite,
    new_graph,
)
from antimagic.matrices import matrix_5x2k
from antimagic.search import chi_la_exact
from antimagic.verify import induced_coloring
from helpers import by_name, degrees, disjoint_union, same_up_to_names, vertex_label_signature
from oracles import NotAPartition, naive_bipartition, naive_merge, split_vertex


def fan_unit(labels=(1, 2, 3, 4, 5), suffix=""):
    u, v, w, x = (f"u{suffix}", f"v{suffix}", f"w{suffix}", f"x{suffix}")
    return by_name([u, v, w, x], [
        (u, w, labels[0]), (v, w, labels[1]), (x, w, labels[2]),
        (x, u, labels[3]), (x, v, labels[4]),
    ])


def neighbor_names(g, name):
    return {g.names[w] for w in g.adjacency[g.names.index(name)]}


def ids(g, *names):
    """The ids of the named vertices, for apply_merge."""
    return [g.names.index(nm) for nm in names]


def test_new_graph_and_errors():
    g = new_graph(["u", "v"])
    assert g.n_vertices == 2 and g.size == 0
    assert new_graph([]).n_vertices == 0
    for names, edges, repeated in ((["u", "v", "u"], [], "u"), (["v", "v"], [(0, 1, 1)], "v")):
        with pytest.raises(GraphError) as info:
            new_graph(names, edges)
        assert type(info.value) is DuplicateName
        assert str(info.value) == f"duplicate vertex name {repeated!r}"


def test_new_graph_takes_int_edges():
    edges = [(0, 2, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4), (1, 3, 5)]
    g = new_graph(["u", "v", "w", "x"], edges)
    assert g == fan_unit() and _ordered(g)
    assert new_graph(("a", "b"), iter([(0, 1, 7)])).edges == ((0, 1, 7),)


@pytest.mark.parametrize("edges, kind, message", [
    ([(1, 1, 1)], GraphError, "edge (1, 1, 1) is a loop"),
    ([(2, 1, 1)], GraphError, "edge (2, 1, 1) needs ids 0 <= u < v < 3"),
    ([(-1, 1, 1)], GraphError, "edge (-1, 1, 1) needs ids 0 <= u < v < 3"),
    ([(1, 3, 1)], GraphError, "edge (1, 3, 1) needs ids 0 <= u < v < 3"),
    ([(0, 1, 1), (1, 2, 2), (0, 1, 3)], GraphError, "edge (0, 1, 3) repeats the pair (0, 1)"),
    ([(0, 1, 0)], GraphError, "edge (0, 1, 0) has label 0; labels must be >= 1"),
    # the first bad edge in order is the one named
    ([(0, 1, 1), (0, 2, -4), (2, 2, 3), (0, 1, 2)], GraphError,
     "edge (0, 2, -4) has label -4; labels must be >= 1"),
])
def test_new_graph_refuses_a_bad_edge(edges, kind, message):
    with pytest.raises(GraphError) as info:
        new_graph(["a", "b", "c"], edges)
    assert type(info.value) is kind and str(info.value) == message


def test_new_graph_scans_only_a_refused_input_again(monkeypatch):
    # a valid edge list passes the one set of pair keys, edges at id 0 and
    # edges sharing an end included; only a refused one is scanned edge by
    # edge for the first bad edge
    def rescan(edges, n):
        raise AssertionError(f"valid edges {edges} scanned again")

    monkeypatch.setattr(graph, "_refuse_edge", rescan)
    edges = ((0, 2, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4), (1, 3, 5))
    assert new_graph(["u", "v", "w", "x"], edges).edges == edges


def test_add_edge_and_errors():
    g = by_name(["u", "v"], [("u", "v", 1)])
    assert g.size == 1
    with pytest.raises(GraphError, match=r"^edge \(0, 0, 2\) is a loop$"):
        by_name(["u", "v"], [("u", "v", 1), ("u", "u", 2)])
    with pytest.raises(GraphError, match=r"^edge \(0, 1, 2\) repeats the pair \(0, 1\)$"):
        by_name(["u", "v"], [("u", "v", 1), ("v", "u", 2)])


def test_edge_is_an_immutable_named_triple():
    e = LabeledEdge(2, 5, 7)
    assert LabeledEdge._fields == ("u", "v", "label")
    assert (e.u, e.v, e.label) == (2, 5, 7)
    u, v, label = e
    assert (u, v, label) == (2, 5, 7)
    with pytest.raises(AttributeError):
        e.label = 8
    assert e._replace(label=8) == LabeledEdge(2, 5, 8) and e.label == 7
    assert LabeledEdge(2, 5, 7) == (2, 5, 7)


def _records():
    """One instance of each public record, by name."""
    g = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    built = build_family("FB", k=1)
    result = chi_la_exact(g)
    return {"LabeledGraph": g, "Bipartition": is_bipartite(g),
            "ColorClass": built.expected.classes[0], "ExpectedColors": built.expected,
            "ColorReport": induced_coloring(g), "LabelMatrix": matrix_5x2k(1),
            "BuiltFamily": built, "SearchStats": result.stats, "SearchResult": result}


@pytest.mark.parametrize("name, field", [
    ("LabeledGraph", "edges"), ("Bipartition", "side"), ("ColorClass", "value"),
    ("ExpectedColors", "exact"), ("ColorReport", "color_count"), ("LabelMatrix", "grid"),
    ("BuiltFamily", "graph"), ("SearchStats", "nodes"), ("SearchResult", "chi_la"),
])
def test_every_record_is_immutable(name, field):
    record = _records()[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def _ordered(g) -> bool:
    """Every edge is exactly a tuple of three ints, u < v and label >= 1."""
    return all(type(e) is tuple and len(e) == 3 and all(type(x) is int for x in e)
               and e[0] < e[1] and e[2] >= 1 for e in g.edges)


def test_every_edge_keeps_u_below_v():
    g = by_name(["a", "b", "c", "d", "e"],
                [("b", "a", 1), ("e", "c", 2), ("a", "d", 3), ("d", "b", 4)])
    assert _ordered(g) and [e[:2] for e in g.edges] == [(0, 1), (2, 4), (0, 3), (1, 3)]
    merged = apply_merge(g, [(ids(g, "e", "a"), "ae")])  # e lands on a's id 0
    assert _ordered(merged) and merged.names == ("ae", "b", "c", "d")
    assert [e[:2] for e in merged.edges] == [(0, 1), (0, 2), (0, 3), (1, 3)]
    doc = json.loads(dumps(graph_to_document(g)))
    for row in doc["edges"]:
        row["u"], row["v"] = row["v"], row["u"]
    read, _ = document_to_graph(doc)
    assert _ordered(read) and read == g
    assert _ordered(build_family("FB", k=2).graph)
    assert _ordered(chi_la_exact(fan_unit()).witness)


@st.composite
def edge_lists(draw):
    """Names, now and then with a repeat, and int triples that may hold
    loops, reversed pairs, ids out of range, repeated pairs or labels <= 0."""
    names = draw(st.lists(st.sampled_from("abcdefg"), max_size=6, unique=True))
    if names and draw(st.integers(0, 9)) == 0:
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    n = len(names)
    # slack 0: every id in range and every label >= 1
    slack = draw(st.integers(0 if names else 1, 2))
    ids = st.integers(-slack, n - 1 + slack)
    triples = draw(st.lists(st.tuples(ids, ids, st.integers(1 - slack, 20)), max_size=9))
    return names, triples


def _outcome_of(build):
    try:
        return build()
    except (GraphError, DocumentError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_every_edge_list_is_judged_alike(case):
    # new_graph and the document reader accept the same edge lists, and
    # refuse the others with one message
    names, triples = case
    n = len(names)
    ordered = [(min(u, v), max(u, v), label) for u, v, label in triples]
    direct = _outcome_of(lambda: new_graph(names, ordered))
    degrees = [sum((u == i) + (v == i) for u, v, _ in triples) for i in range(n)]
    doc = {"format": FORMAT,
           "vertices": [{"id": i, "name": nm, "degree": d}
                        for i, (nm, d) in enumerate(zip(names, degrees))],
           "edges": [{"u": u, "v": v, "label": label} for u, v, label in triples]}
    read = _outcome_of(lambda: document_to_graph(doc)[0])
    if isinstance(direct, LabeledGraph):
        assert _ordered(direct) and read == direct
    else:
        assert read == (DocumentError, direct[1])


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_every_family_edge_is_a_plain_int_triple(tag):
    assert _ordered(build_family(tag, **FAMILIES[tag][1][0]).graph)


def test_surgery_error_messages():
    g = fan_unit()  # edges u-w 1, v-w 2, x-w 3, x-u 4, x-v 5
    cases = [
        (lambda: new_graph(g.names, g.edges + ((0, 0, 6),)), GraphError,
         "edge (0, 0, 6) is a loop"),
        (lambda: new_graph(g.names, g.edges + ((0, 2, 6),)), GraphError,
         "edge (0, 2, 6) repeats the pair (0, 2)"),
        (lambda: apply_merge(g, [(ids(g, "u"), "solo")]), InvalidPlan,
         "group 'solo' has fewer than 2 members"),
        (lambda: apply_merge(g, [(ids(g, "u", "v", "u"), "uvu")]), InvalidPlan,
         "group 'uvu' repeats a member"),
        (lambda: apply_merge(g, [(ids(g, "u", "v"), "a"), (ids(g, "v", "x"), "b")]), InvalidPlan,
         "vertex 'v' appears in two merge groups"),
        (lambda: apply_merge(g, [(ids(g, "u", "v"), "f"), (ids(g, "w", "x"), "f")]), InvalidPlan,
         "fused vertex names are not distinct"),
        (lambda: apply_merge(g, [(ids(g, "v", "u", "w"), "uvw")]), InvalidPlan,
         "merging adjacent vertices 'u' and 'w'"),
        (lambda: apply_merge(g, [(ids(g, "u", "v"), "uv")]), InvalidPlan,
         "edges labeled 1 and 2 would join 'uv' and 'w' twice"),
        (lambda: apply_merge(g, [(ids(g, "u", "v"), "w")]), InvalidPlan,
         "fused name 'w' collides with a surviving vertex"),
    ]
    for call, kind, message in cases:
        with pytest.raises(GraphError) as info:
            call()
        assert type(info.value) is kind and str(info.value) == message
    two = by_name(["a", "b", "c", "d"], [("a", "c", 4), ("d", "b", 9)])
    with pytest.raises(GraphError) as info:
        apply_merge(two, [(ids(two, "c", "d"), "cd"), (ids(two, "b", "a"), "ab")])
    assert type(info.value) is InvalidPlan
    assert str(info.value) == "edges labeled 4 and 9 would join 'ab' and 'cd' twice"


@pytest.mark.parametrize("plan, message", [
    ([([0, 3], "ac")], "member 3 of group 'ac' needs 0 <= id < 3"),
    ([([0, 1], "ab"), ([2, 7], "c7")], "member 7 of group 'c7' needs 0 <= id < 3"),
    # as an index, -1 is c and -3 is a: either would fuse without a complaint
    ([([-1, 0], "ca")], "member -1 of group 'ca' needs 0 <= id < 3"),
    ([([1, -3], "ba")], "member -3 of group 'ba' needs 0 <= id < 3"),
])
def test_merge_refuses_an_id_out_of_range(plan, message):
    g = new_graph(["a", "b", "c"], [(0, 1, 1)])
    with pytest.raises(GraphError) as info:
        apply_merge(g, plan)
    assert type(info.value) is InvalidPlan and str(info.value) == message


def test_merge_two_units_degree_additivity():
    g1 = fan_unit((1, 2, 3, 4, 5), "1")
    g2 = fan_unit((6, 7, 8, 9, 10), "2")
    g = disjoint_union(g1, g2)
    g = apply_merge(g, [(ids(g, "1:x1", "2:x2"), "x")])
    assert g.n_vertices == 7
    assert degrees(g)["x"] == 6


def test_merge_adjacent_vertices_is_loop():
    g = fan_unit()
    with pytest.raises(InvalidPlan, match="^merging adjacent vertices 'u' and 'w'$"):
        apply_merge(g, [(ids(g, "u", "w"), "uw")])


def test_merge_creating_parallel_edge_detected():
    g = by_name(["a", "b", "c"], [("a", "c", 1), ("b", "c", 2)])
    with pytest.raises(InvalidPlan, match="^edges labeled 1 and 2 would join 'ab' and 'c' twice$"):
        apply_merge(g, [(ids(g, "a", "b"), "ab")])


def test_merge_plan_validation():
    g = fan_unit()
    with pytest.raises(InvalidPlan):
        apply_merge(g, [(ids(g, "u"), "solo")])
    with pytest.raises(InvalidPlan):
        apply_merge(g, [(ids(g, "u", "v"), "a"), (ids(g, "v", "x"), "b")])
    with pytest.raises(InvalidPlan):
        apply_merge(g, [(ids(g, "u", "v"), "w")])  # name collision


def test_merge_ignores_member_order():
    units = disjoint_union(disjoint_union(fan_unit((1, 2, 3, 4, 5), "1"),
                                          fan_unit((6, 7, 8, 9, 10), "2")),
                           fan_unit((11, 12, 13, 14, 15), "3"))
    sorted_first = apply_merge(units, [(ids(units, "1:1:x1", "1:2:x2", "2:x3"), "x")])
    reordered = apply_merge(units, [(ids(units, "2:x3", "1:1:x1", "1:2:x2"), "x")])
    assert sorted_first == reordered


def test_merge_keeps_labels_and_size():
    units = disjoint_union(fan_unit((1, 2, 3, 4, 5), "1"),
                           fan_unit((6, 7, 8, 9, 10), "2"))
    merged = apply_merge(units, [(ids(units, "1:x1", "2:x2"), "x")])
    assert sorted(merged.labels()) == sorted(units.labels())
    assert merged.size == units.size
    assert merged.n_vertices == units.n_vertices - 1


def test_split_vertex_fan():
    g = fan_unit()
    g = split_vertex(g, "x", {"w"}, {"u", "v"}, "x^1", "x^2")
    assert g.n_vertices == 5
    assert degrees(g)["x^1"] == 1 and degrees(g)["x^2"] == 2
    assert "w" in neighbor_names(g, "x^1") and "u" in neighbor_names(g, "x^2")


def test_split_empty_block_gives_isolated_vertex():
    g = by_name(["a", "b"], [("a", "b", 1)])
    g = split_vertex(g, "a", {"b"}, set(), "a1", "a2")
    assert degrees(g)["a2"] == 0


def test_split_overlapping_blocks_rejected():
    g = fan_unit()
    with pytest.raises(NotAPartition):
        split_vertex(g, "x", {"w", "u"}, {"u", "v"}, "x1", "x2")
    with pytest.raises(NotAPartition):
        split_vertex(g, "x", {"w"}, {"u"}, "x1", "x2")  # v not covered


def test_split_then_merge_is_identity_up_to_names():
    g = fan_unit()
    h = split_vertex(g, "x", {"w"}, {"u", "v"}, "x^1", "x^2")
    back = apply_merge(h, [(ids(h, "x^1", "x^2"), "x")])
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
    assert sum(degrees(g).values()) == 2 * g.size


def test_is_bipartite():
    p3 = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    bip = is_bipartite(p3)
    assert bip is not None
    assert report_to_document(induced_coloring(p3))["part_sizes"] in ([2, 1], [1, 2])
    c6_names = [f"c{i}" for i in range(6)]
    c6 = by_name(c6_names, [(c6_names[i], c6_names[(i + 1) % 6], i + 1) for i in range(6)])
    # P3 and C6 side by side, with an isolated vertex between them
    apart = disjoint_union(disjoint_union(p3, new_graph(["z"])), c6)
    for g in (p3, c6, apart):
        side = is_bipartite(g).side
        assert len(side) == g.n_vertices and set(side) <= {0, 1}
        assert all(side[u] != side[v] for u, v, _ in g.edges)
        part_sizes = report_to_document(induced_coloring(g))["part_sizes"]
        assert part_sizes == [side.count(0), side.count(1)]
    tri = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    assert is_bipartite(tri) is None


@st.composite
def bipartition_cases(draw):
    """Up to 9 vertices: maybe an odd cycle through some of them in any
    order, a few other pairs, and the vertices on none isolated."""
    n = draw(st.integers(0, 9))
    order = draw(st.permutations(range(n)))
    odd = draw(st.sampled_from([0, *range(3, n + 1, 2)]))
    cycle = [(order[i], order[(i + 1) % odd]) for i in range(odd)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    chosen = list(dict.fromkeys([(min(p), max(p)) for p in cycle] + extra))
    return new_graph([f"n{i}" for i in range(n)],
                     [(u, v, label) for label, (u, v) in enumerate(chosen, start=1)])


@settings(max_examples=300, deadline=None)
@given(bipartition_cases())
@example(new_graph([]))
@example(new_graph(["a", "b", "c", "z"], [(0, 1, 1), (1, 2, 2), (0, 2, 3)]))
def test_is_bipartite_matches_the_brute_force_oracle(g):
    # None exactly when some component has no 2-coloring; otherwise the
    # oracle's sides, lowest id of each component on side 0
    bip, oracle = is_bipartite(g), naive_bipartition(g)
    assert (bip is None) == (oracle is None)
    if bip is not None:
        assert bip.component_parts == oracle[0]
        assert all(bip.side[u] != bip.side[v] for u, v, _ in g.edges)
        assert bip.side == oracle[1]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=len(pairs)))
    labels = draw(st.permutations(range(1, len(chosen) + 1)))
    return new_graph(names, [(i, j, lab) for (i, j), lab in zip(chosen, labels)])


@settings(max_examples=60)
@given(small_graphs(), st.data())
def test_split_merge_roundtrip_random(g, data):
    candidates = [nm for nm in g.names if degrees(g)[nm] >= 1]
    v = data.draw(st.sampled_from(candidates))
    nbrs = sorted(neighbor_names(g, v))
    block1 = set(data.draw(st.lists(st.sampled_from(nbrs), unique=True,
                                    max_size=len(nbrs)))) if nbrs else set()
    block2 = set(nbrs) - block1
    h = split_vertex(g, v, block1, block2, f"{v}^1", f"{v}^2")
    assert h.size == g.size
    back = apply_merge(h, [(ids(h, f"{v}^1", f"{v}^2"), v)])
    assert same_up_to_names(g, back)


@settings(max_examples=60)
@given(small_graphs())
def test_degree_sum_invariant_random(g):
    assert sum(degrees(g).values()) == 2 * g.size


@st.composite
def merge_cases(draw):
    """A sparse small graph and a merge plan of vertex ids that is often
    valid, and otherwise breaks one of apply_merge's rules."""
    n = draw(st.integers(min_value=2, max_value=8))
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    labels = draw(st.permutations(range(1, len(chosen) + 1)))
    g = by_name(names, [
        (names[j], names[i], lab) if flip else (names[i], names[j], lab)
        for (i, j), flip, lab in zip(chosen, flips, labels)])
    if draw(st.integers(0, 3)):  # disjoint groups of known vertices, mostly fresh names
        order = draw(st.permutations(range(n)))
        k = draw(st.integers(1, n // 2))
        blocks = [order[2 * i:2 * i + 2] for i in range(k)]
        if 2 * k < n and draw(st.booleans()):
            blocks[-1].append(order[2 * k])
        plan = [(block, draw(st.sampled_from([f"f{i}"] * 3 + [names[block[-1]], names[0]])))
                for i, block in enumerate(blocks)]
    else:
        # one id out of range per plan, negative ones included: the naive
        # merge sees it as the unknown name "zz"
        bad = draw(st.sampled_from([-n - 1, -1, n, n + 2]))
        members = st.lists(st.sampled_from([*range(n), bad]), min_size=1, max_size=4)
        fused = st.sampled_from(["f0", "f1", *names])
        plan = draw(st.lists(st.tuples(members, fused), min_size=1, max_size=3))
    return g, plan


@st.composite
def colliding_merges(draw):
    """A small graph and a one-group plan that fuses the two ends of an
    edge, or two neighbors of one vertex, with maybe a third vertex."""
    g = draw(small_graphs())
    ends = [[u, v] for u, v, _ in g.edges]
    ends += [[a, b] for nbrs in g.adjacency for i, a in enumerate(nbrs) for b in nbrs[i + 1:]]
    members = draw(st.sampled_from(ends))
    rest = [w for w in range(g.n_vertices) if w not in members]
    if rest and draw(st.booleans()):
        members.append(draw(st.sampled_from(rest)))
    members = draw(st.permutations(members))
    return g, [(members, draw(st.sampled_from(["f", g.names[members[0]]])))]


def _outcome(merge, g, plan):
    try:
        return merge(g, plan)
    except GraphError as exc:
        return type(exc), str(exc)


def _named(g, plan):
    """The id ``plan`` for ``naive_merge``: each member by its vertex name,
    and an id out of range as the unknown name "zz"."""
    return [([g.names[v] if 0 <= v < g.n_vertices else "zz" for v in members], fused)
            for members, fused in plan]


@settings(max_examples=300, deadline=None)
@given(merge_cases())
def test_merge_matches_the_naive_merge(case):
    g, plan = case
    expected = _outcome(naive_merge, g, _named(g, plan))
    if expected == (GraphError, "no vertex named 'zz'"):
        # the naive merge's first unknown name is the plan's first id out of range
        bad, fused = next((v, fused) for members, fused in plan for v in members
                          if not 0 <= v < g.n_vertices)
        expected = (InvalidPlan, f"member {bad} of group {fused!r} needs 0 <= id < {g.n_vertices}")
    assert _outcome(apply_merge, g, plan) == expected


@settings(max_examples=200, deadline=None)
@given(colliding_merges())
def test_merge_refuses_what_the_naive_merge_refuses(case):
    # apply_merge checks only the edges at a fused vertex, the naive merge
    # every edge: both name the same first loop or parallel pair
    g, plan = case
    outcome = _outcome(apply_merge, g, plan)
    assert outcome == _outcome(naive_merge, g, _named(g, plan))
    assert outcome[0] is InvalidPlan
    assert re.fullmatch("merging adjacent vertices .*|edges labeled .* twice", outcome[1])
