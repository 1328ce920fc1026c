"""Verifier: induced coloring, expected-colors checking, the 2-coloring
gate, and lower bounds."""

from __future__ import annotations

import json
import random
from collections import Counter
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antimagic.graph as graph_module
from antimagic.cli import _check
from antimagic.document import dumps, report_to_document
from antimagic.families import FAMILIES, build_family
from antimagic.graph import LabeledGraph, is_bipartite, new_graph
from antimagic.search import chi_la_exact
from antimagic.verify import (
    CHI_EXACT_MAX_VERTICES,
    ColorClass,
    ColorReport,
    ExpectedColors,
    _chromatic_number,
    check_expected,
    induced_coloring,
    label_problems,
    lower_bound,
    two_coloring_impossible,
    vertex_sums,
)
from helpers import by_name
from oracles import (
    naive_check_expected,
    naive_chi_la,
    naive_chromatic_number,
    naive_coloring,
    naive_label_problems,
    naive_report_document,
    naive_two_coloring_gate,
)

ID_FIELDS = ("color_count", "label_problems", "conflicts", "local_antimagic")
# the keys that report_to_document derives, not copies from the report
DERIVED_KEYS = ("sums", "classes", "labels_bijective", "bipartite", "part_sizes",
                "balanced_bipartition", "total")


def test_induced_coloring_fb12():
    rep = induced_coloring(build_family("FB", k=6).graph)
    assert rep.local_antimagic
    sizes = Counter(rep.id_sums)
    assert sorted(sizes) == [61, 79, 1248]
    assert [sizes[v] for v in (61, 79, 1248)] == [24, 12, 1]
    assert report_to_document(rep)["total"] == 60 * 61  # m(m+1) for a bijective labeling


def test_vertex_sums_match_the_report():
    g = build_family("rDF", r=2, s=2).graph
    sums = vertex_sums(g)
    assert sums == [report_to_document(induced_coloring(g))["sums"][nm] for nm in g.names]
    assert sum(sums) == g.size * (g.size + 1)


def test_a_report_is_a_plain_record():
    rep = induced_coloring(build_family("FB", k=1).graph)
    assert not hasattr(rep, "__dict__")
    assert ColorReport._fields == ("graph", "id_sums", "color_count", "label_problems",
                                   "conflicts", "local_antimagic")


def test_writing_a_report_asks_for_the_bipartition_once(monkeypatch):
    # all three bipartition keys read one answer, asked of the graph module
    # at call time, where the benchmark's tracer wraps it
    asked = []

    def counted(g):
        asked.append(g)
        return is_bipartite(g)

    monkeypatch.setattr(graph_module, "is_bipartite", counted)
    triangle = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    for g in (build_family("rDF", r=3, s=2).graph, triangle, new_graph([], [])):
        report_to_document(induced_coloring(g))
        assert asked == [g]
        asked.clear()


def test_single_edge_is_never_local_antimagic():
    g = by_name(["a", "b"], [("a", "b", 1)])
    rep = induced_coloring(g)
    assert report_to_document(rep)["labels_bijective"] and not rep.local_antimagic
    assert rep.conflicts == (("a", "b", 1),)


def test_nonbijective_labels_reported():
    g = LabeledGraph(("a", "b", "c"), ((0, 1, 1), (1, 2, 1)))
    rep = induced_coloring(g)
    assert not report_to_document(rep)["labels_bijective"]
    assert any("more than once" in p for p in rep.label_problems)
    assert not rep.local_antimagic
    # a label above m on the 3-vertex path
    rep = induced_coloring(by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 5)]))
    assert not report_to_document(rep)["labels_bijective"] and not rep.local_antimagic
    assert "label 5 outside [1, 2]" in rep.label_problems


def test_check_expected_passes_and_catches_tampering():
    built = build_family("rDF", r=3, s=2)
    assert check_expected(built.expected, induced_coloring(built.graph)) == ()
    # swap two labels: class table must notice
    edges = list(built.graph.edges)
    (u0, v0, label0), (u1, v1, label1) = edges[0], edges[7]
    edges[0] = (u0, v0, label1)
    edges[7] = (u1, v1, label0)
    tampered = LabeledGraph(built.graph.names, tuple(edges))
    rep = induced_coloring(tampered)
    diffs = check_expected(built.expected, rep)
    assert diffs or not rep.local_antimagic


def test_a_check_builds_no_adjacency_and_runs_no_bfs():
    # the verdict and the claim check read vertex ids and the degree count;
    # writing the report derives its bipartition fields, and they build both
    for tag, (_, grid) in FAMILIES.items():
        for params in grid:
            built = build_family(tag, **params)
            g = built.graph
            report, problems = _check(g, built.expected)
            cached = g.__dict__
            assert problems == []
            assert "adjacency" not in cached and "_bipartition" not in cached, (tag, params)
            report_to_document(report)
            assert "adjacency" in cached and "_bipartition" in cached, (tag, params)


def _spoiled(built):
    """The grid point's graph and claim, then spoilt copies of either."""
    g, claim = built.graph, built.expected
    classes = claim.classes
    edges = list(g.edges)
    (u0, v0, first), (u1, v1, _), (ul, vl, last) = edges[0], edges[1], edges[-1]
    swapped = [(u0, v0, last), *edges[1:-1], (ul, vl, first)]
    repeated = [edges[0], (u1, v1, first), *edges[2:]]
    extra = ColorClass(max(cls.value for cls in classes) + 1, 1, 1)
    yield g, claim
    yield LabeledGraph(g.names, tuple(swapped)), claim
    yield LabeledGraph(g.names, tuple(repeated)), claim
    yield g, claim._replace(classes=(classes[0]._replace(size=classes[0].size + 1),
                                     *classes[1:]))
    yield g, claim._replace(classes=(*classes[:-1],
                                     classes[-1]._replace(degree=classes[-1].degree + 1)))
    yield g, claim._replace(classes=(*classes, extra))
    yield g, claim._replace(classes=classes[1:])
    yield g, claim._replace(classes=(classes[0]._replace(degree=0), *classes))
    yield g, ExpectedColors(classes, len(classes) - 1, exact=False)


def test_the_check_matches_the_name_level_oracle_on_spoilt_grid_points():
    for tag, (_, grid) in FAMILIES.items():
        for params in grid:
            for g, claim in _spoiled(build_family(tag, **params)):
                report, problems = _check(g, claim)
                views = naive_coloring(g)
                assert [getattr(report, f) for f in ID_FIELDS] == [views[f] for f in ID_FIELDS]
                written, oracle = report_to_document(report), naive_report_document(views)
                assert [written[k] for k in DERIVED_KEYS] == [oracle[k] for k in DERIVED_KEYS]
                want = [f"conflict: {u} -- {v} both sum to {s}"
                        for u, v, s in views["conflicts"][:10]]
                want += [f"labels: {p}" for p in views["label_problems"][:10]]
                want += [f"expected-colors mismatch: {d}"
                         for d in naive_check_expected(g, claim, views)]
                assert problems == want, (tag, params, claim)


@st.composite
def report_graphs(draw):
    """Up to 7 vertices with names to quote: maybe an odd cycle on the
    first ids, any other pairs, isolated vertices, labels bijective or
    not, or no vertex at all."""
    n = draw(st.integers(0, 7))
    names = draw(st.lists(st.text('ab"\\\u00e9', min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    odd = draw(st.sampled_from([0, *range(3, n + 1, 2)]))
    cycle = [(i, i + 1) for i in range(odd - 1)] + [(0, odd - 1)] * (odd > 0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    chosen = list(dict.fromkeys(cycle + extra))
    m = len(chosen)
    labels = draw(st.one_of(st.permutations(range(1, m + 1)),
                            st.lists(st.integers(1, m + 2), min_size=m, max_size=m)))
    return new_graph(names, [(u, v, lab) for (u, v), lab in zip(chosen, labels)])


@settings(max_examples=200, deadline=None)
@given(report_graphs())
@example(new_graph([], []))
@example(new_graph(["a", "b"], []))
def test_the_written_report_matches_the_name_level_oracle(g):
    # odd cycles write part_sizes null, the empty graph [0, 0]
    want = naive_report_document(naive_coloring(g))
    assert dumps(report_to_document(induced_coloring(g))) == \
        json.dumps(want, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda top: st.tuples(st.just(top), st.one_of(
    st.permutations(range(1, top + 1)),
    st.lists(st.integers(-1, top + 2), max_size=top + 2)))))
def test_label_problems_match_the_sorting_oracle(case):
    top, labels = case
    assert label_problems(labels, top) == naive_label_problems(labels, top)
    assert label_problems(iter(labels), top) == naive_label_problems(labels, top)


def test_check_expected_fails_on_colliding_expectations():
    built = build_family("FB", k=1)
    collided = ExpectedColors(
        (ColorClass(11, 4, 2), ColorClass(11, 2, 3), ColorClass(38, 1, 6)), 3)
    diffs = check_expected(collided, induced_coloring(built.graph))
    assert diffs
    assert any("not distinct" in d for d in diffs)


def test_check_expected_degree_mismatch_detected():
    built = build_family("FB", k=1)
    wrong_degree = ExpectedColors(
        (ColorClass(11, 4, 3), ColorClass(14, 2, 3), ColorClass(38, 1, 6)), 3)
    diffs = check_expected(wrong_degree, induced_coloring(built.graph))
    assert diffs and any("degree" in d for d in diffs)
    # a bound claim (exact=False) of 2 colors, where FB_1 has 3
    bound = ExpectedColors(
        (ColorClass(11, 4, 2), ColorClass(14, 2, 3), ColorClass(38, 1, 6)), 2, exact=False)
    diffs = check_expected(bound, induced_coloring(built.graph))
    assert diffs == ("color count 3 exceeds claimed bound 2",)


def test_two_color_gate_balanced_families():
    assert two_coloring_impossible(build_family("rDF", r=1, s=2).graph) is True
    assert two_coloring_impossible(build_family("nC482", n=1).graph) is True


def test_two_color_gate_tripartite_inconclusive():
    assert two_coloring_impossible(build_family("FB", k=1).graph) is False


def test_two_color_gate_divisor_scan():
    # path on 3 vertices: q = 2, q(q+1)/2 = 3 does not split as x*2 = 3
    p3 = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    assert two_coloring_impossible(p3) is True
    # star K_{1,3}: q = 3, parts (1, 3): 6 = 2*3 = 6*1 fits, so inconclusive
    star = by_name(["c", "l1", "l2", "l3"], [("c", "l1", 1), ("c", "l2", 2), ("c", "l3", 3)])
    assert two_coloring_impossible(star) is False


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just((1, 0, False)),
                          st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans())),
                min_size=1, max_size=7))
def test_two_color_gate_bitmask_matches_the_set_oracle(parts):
    # each component is K_{a,b} (dense) or a spanning tree of it; (1, 0)
    # is an isolated vertex
    names, triples = [], []
    for c, (a, b, dense) in enumerate(parts):
        xs, ys = [f"x{c}_{i}" for i in range(a)], [f"y{c}_{j}" for j in range(b)]
        names += xs + ys
        pairs = [(x, y) for x in xs for y in ys] if dense else \
            [(xs[0], y) for y in ys] + [(x, ys[0]) for x in xs[1:]]
        triples += [(x, y, len(triples) + 1) for x, y in pairs]
    g = by_name(names, triples)
    assert two_coloring_impossible(g) is naive_two_coloring_gate(g)


def test_lower_bounds():
    assert lower_bound(build_family("FB", k=1).graph) == 3  # chromatic number
    assert lower_bound(build_family("rDF", r=1, s=2).graph) == 3  # balanced gate
    # the divisor scan also proves 3 for the 3-vertex path (its sums are
    # forced to 1, 3, 2); chi alone would only give 2
    p3 = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    assert lower_bound(p3) == 3
    # the pendant bound: three leaves sum to three distinct labels, and the
    # center's sum exceeds them all
    star = by_name(["c", "l1", "l2", "l3"], [("c", "l1", 1), ("c", "l2", 2), ("c", "l3", 3)])
    assert lower_bound(star) == naive_chi_la(star) == 4
    assert lower_bound(new_graph(["a"])) == 1
    assert lower_bound(new_graph([])) == 0


def _plus_isolated(g: LabeledGraph, count: int = 1) -> LabeledGraph:
    return new_graph([*g.names, *(f"z{i}" for i in range(count))], g.edges)


def test_pendant_lower_bound():
    p3 = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    two_p3 = by_name(["a", "b", "c", "d", "e", "f"],
                     [("a", "b", 1), ("b", "c", 2), ("d", "e", 3), ("e", "f", 4)])
    for g, bound in ((p3, 3), (two_p3, 5)):
        assert lower_bound(g) == naive_chi_la(g) == bound
        with_isolated = _plus_isolated(g)
        assert lower_bound(with_isolated) == naive_chi_la(with_isolated) == bound + 1


def test_an_isolated_vertex_adds_a_color_to_chi_and_to_the_gate():
    # sum 0 is a color of its own on top of chi (K3, K4) or of the
    # 2-coloring gate's 3 (C4, C6), where no pendant bound counts it
    cases = {
        "K3": ([(0, 1), (1, 2), (0, 2)], 4),
        "K4": ([(a, b) for a in range(4) for b in range(a + 1, 4)], 5),
        "C4": ([(i, (i + 1) % 4) for i in range(4)], 4),
        "C6": ([(i, (i + 1) % 6) for i in range(6)], 4),
    }
    for name, (pairs, chi_la) in cases.items():
        names = [f"v{i}" for i in range(max(b for _, b in pairs) + 1)]
        g = _plus_isolated(by_name(
            names, [(names[a], names[b], t + 1) for t, (a, b) in enumerate(pairs)]))
        assert lower_bound(g) == naive_chi_la(g) == chi_la, name


def test_the_gate_of_a_graph_with_isolated_vertices_is_not_added_to():
    # on B_2 plus two isolated vertices the whole graph's divisor scan
    # rules out 2 colors, which is true of any graph with an isolated
    # vertex; B_2 itself has a 2-coloring, so chi_la is 3, not 4
    g = _plus_isolated(build_family("Bk", k=2).graph, 2)
    assert two_coloring_impossible(g) is True
    assert lower_bound(g) == chi_la_exact(g, max_edges=g.size, budget=30).chi_la == 3


@st.composite
def graphs_with_isolated_vertices(draw):
    """Up to 7 edges on 2-6 vertices, 1-2 more vertices on no edge, and
    every vertex id shuffled."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=min(7, len(pairs))))
    total = n + draw(st.integers(1, 2))
    ids = draw(st.permutations(range(total)))
    names = [f"n{i}" for i in range(total)]
    return by_name(names,
                   [(names[ids[a]], names[ids[b]], t + 1) for t, (a, b) in enumerate(chosen)])


@settings(max_examples=100, deadline=None)
@given(graphs_with_isolated_vertices())
def test_lower_bound_with_isolated_vertices_is_sound(g):
    chi_la = naive_chi_la(g)
    assert chi_la is None or lower_bound(g) <= chi_la


def k4_with_path(n):
    """K4 on v0..v3 and a path from v3 through v4..v{n-1}."""
    names = [f"v{i}" for i in range(n)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    pairs += [(i, i + 1) for i in range(3, n - 1)]
    return by_name(names, [(names[a], names[b], t + 1) for t, (a, b) in enumerate(pairs)])


def test_chromatic_number_small():
    fan = by_name(list("uvwx"),
                  [("u", "w", 1), ("v", "w", 2), ("x", "w", 3), ("x", "u", 4), ("x", "v", 5)])
    assert _chromatic_number(fan) == 3
    assert _chromatic_number(k4_with_path(4)) == 4


def test_chromatic_number_matches_the_brute_force_oracle():
    # 3-colorable, but the colorer's first choices fail on it, so it
    # must undo them: each color it takes back has to be freed
    pairs = [(2, 3), (4, 6), (3, 4), (0, 4), (2, 5), (2, 6), (3, 5), (3, 6), (0, 6),
             (1, 2), (1, 4), (0, 1), (0, 5)]
    g = new_graph([f"v{i}" for i in range(7)], [(u, v, t) for t, (u, v) in enumerate(pairs, 1)])
    assert _chromatic_number(g) == naive_chromatic_number(g) == 3
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 9)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
        g = new_graph([f"v{i}" for i in range(n)],
                      [(u, v, t) for t, (u, v) in enumerate(pairs, 1)])
        if is_bipartite(g) is None:  # the colorer's precondition
            assert _chromatic_number(g) == naive_chromatic_number(g), pairs
            checked += 1


def test_lower_bound_colors_exactly_up_to_the_vertex_cap():
    # K4 with a pendant path: chi = 4 is found at the cap, and past it
    # only the odd-cycle bound 3 is taken
    assert lower_bound(k4_with_path(CHI_EXACT_MAX_VERTICES)) == 4
    assert lower_bound(k4_with_path(CHI_EXACT_MAX_VERTICES + 1)) == 3
    # the cap counts the vertices on an edge: an isolated one adds a color
    assert lower_bound(_plus_isolated(k4_with_path(CHI_EXACT_MAX_VERTICES))) == 5


def test_many_isolated_vertices_cost_the_coloring_no_depth():
    # chi is found on the vertices on an edge only, so isolated vertices
    # past the recursion limit neither raise nor change the bound
    triangle = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    for g in (triangle, k4_with_path(8)):
        crowded = _plus_isolated(g, 1500)
        assert _chromatic_number(crowded) == _chromatic_number(g)
        assert lower_bound(crowded) == lower_bound(g) + 1
        assert chi_la_exact(crowded).chi_la == chi_la_exact(g).chi_la + 1


@pytest.fixture
def bfs_runs(monkeypatch):
    """The graphs whose bipartition BFS runs, in order."""
    runs = []
    bfs = LabeledGraph.__dict__["_bipartition"]

    def counted(g):
        runs.append(g)
        return bfs.func(g)

    traced = cached_property(counted)
    traced.__set_name__(LabeledGraph, "_bipartition")
    monkeypatch.setattr(LabeledGraph, "_bipartition", traced)
    return runs


def test_lower_bound_tests_bipartiteness_once(bfs_runs):
    # a graph keeps the bipartition its one BFS finds, and lower_bound, its
    # 2-coloring gate and the search's sides all read it
    runs = bfs_runs
    balanced = build_family("rDF", r=1, s=2).graph
    for g, bound in ((k4_with_path(8), 4), (balanced, 3)):
        assert lower_bound(g) == bound and two_coloring_impossible(g) is (bound == 3)
        assert len(runs) == 1 and runs[0] is g
        runs.clear()
    # the exact search: lower_bound's BFS gives the search's sides too
    g = build_family("Bk", k=1).graph
    assert chi_la_exact(g).chi_la is not None
    assert len(runs) == 1 and runs[0] is g


def test_one_bfs_bounds_and_searches_a_graph_with_an_isolated_vertex(bfs_runs):
    # C4 with a pendant edge and an isolated vertex: the bound of the rest
    # comes from g's own bipartition, less its (1, 0) part
    g = by_name(["a", "b", "c", "d", "e", "z"],
                [("a", "b", 1), ("b", "c", 2), ("c", "d", 3), ("a", "d", 4), ("d", "e", 5)])
    result = chi_la_exact(g)
    assert result.chi_la == naive_chi_la(g) and result.lower_bound == lower_bound(g)
    assert bfs_runs == [g] and bfs_runs[0] is g


def test_lower_bound_large_graphs_do_not_raise():
    g = build_family("rFB", r=12, s=10).graph  # 600 edges, tripartite
    assert lower_bound(g) == 3


@settings(max_examples=40)
@given(st.data())
def test_transposition_changes_at_most_four_sums(data):
    built = build_family("rFB", r=3, s=2)
    g = built.graph
    i = data.draw(st.integers(0, g.size - 1))
    j = data.draw(st.integers(0, g.size - 1).filter(lambda x: x != i))
    edges = list(g.edges)
    (ui, vi, label_i), (uj, vj, label_j) = edges[i], edges[j]
    edges[i] = (ui, vi, label_j)
    edges[j] = (uj, vj, label_i)
    swapped = LabeledGraph(g.names, tuple(edges))
    before = report_to_document(induced_coloring(g))["sums"]
    after = report_to_document(induced_coloring(swapped))["sums"]
    changed = {nm for nm in before if before[nm] != after[nm]}
    assert len(changed) <= 4
    touched = {g.names[v] for v in (ui, vi, uj, vj)}
    assert changed <= touched
