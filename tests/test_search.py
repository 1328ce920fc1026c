"""Exact search oracle: equivalence with the unpruned enumeration,
spot values, determinism, and witness re-verification."""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antimagic.search as search
from antimagic.cli import main
from antimagic.document import dumps, graph_to_document, search_to_document, to_dot
from antimagic.families import FAMILIES, build_family
from antimagic.graph import GraphTooLarge, LabeledEdge, LabeledGraph, is_bipartite, new_graph
from antimagic.search import (
    STATUS_NO_LABELING,
    STATUS_TIMEOUT,
    STATUS_VALUE,
    chi_la_exact,
)
from antimagic.verify import induced_coloring, lower_bound, two_coloring_impossible
from helpers import by_name, components, spoilt, swapped
from oracles import naive_chi_la, schedule_opens


def path(n, labels=None):
    names = [f"p{i}" for i in range(n)]
    labels = labels or list(range(1, n))
    return by_name(names, [(names[i], names[i + 1], labels[i]) for i in range(n - 1)])


def cycle(n):
    names = [f"c{i}" for i in range(n)]
    return by_name(names, [(names[i], names[(i + 1) % n], i + 1) for i in range(n)])


def star(n):
    names = ["hub"] + [f"l{i}" for i in range(n)]
    return by_name(names, [("hub", f"l{i}", i + 1) for i in range(n)])


def k4_path():
    names = [f"v{i}" for i in range(8)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (3, 4), (4, 5), (5, 6), (6, 7)]
    return by_name(names, [(names[a], names[b], t + 1) for t, (a, b) in enumerate(pairs)])


def bull():
    # a triangle a, b, c with a pendant at a and one at b
    return by_name(["a", "b", "c", "x", "y"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3),
                                               ("a", "x", 4), ("b", "y", 5)])


def double_star(leaves):
    names = ["a", "b"] + [f"a{i}" for i in range(leaves)] + [f"b{i}" for i in range(leaves)]
    pairs = [("a", "b")] + [(h, f"{h}{i}") for h in "ab" for i in range(leaves)]
    return by_name(names, [(a, b, t + 1) for t, (a, b) in enumerate(pairs)])


def fan_with_leaves():
    # hub h joined to the path a-b-c and to two leaves x, y
    return by_name(["h", "a", "b", "c", "x", "y"],
                   [("h", "a", 1), ("h", "b", 2), ("h", "c", 3), ("h", "x", 4),
                    ("a", "b", 5), ("b", "c", 6), ("h", "y", 7)])


def fb1_graph():
    return by_name(["u", "v", "w", "x"], [("u", "w", 1), ("v", "w", 2), ("x", "w", 3),
                                          ("x", "u", 4), ("x", "v", 5)])


def _document(result) -> dict:
    """The plain form of the ``search`` output of ``result``."""
    return json.loads(dumps(search_to_document(result)))


def test_k2_has_no_labeling():
    assert chi_la_exact(path(2)).status == STATUS_NO_LABELING


@pytest.mark.parametrize("budget", [None, 60.0])
@pytest.mark.parametrize("g, lb, nodes", [
    (path(2), 3, 1),
    (by_name(["p0", "p1", "i"], [("p0", "p1", 1)]), 4, 1),
    (by_name(["a", "b", "c", "d", "e"], [("a", "b", 1), ("b", "c", 2), ("d", "e", 3)]), 5, 3),
], ids=["K2", "K2_plus_isolated", "P3_plus_K2"])
def test_a_graph_with_no_labeling_writes_no_witness(g, lb, nodes, budget):
    # a K2 component has two equal sums under every labeling: no witness,
    # no chi_la and no upper bound, with or without a budget
    result = chi_la_exact(g, budget=budget)
    assert result.status == STATUS_NO_LABELING
    assert result.chi_la is None and result.witness is None and result.upper_bound is None
    assert result.lower_bound == lower_bound(g) == lb
    assert _document(result) == {
        "budget": budget, "chi_la": None, "lower_bound": lb,
        "stats": {"nodes": nodes, "prunes": nodes, "prunes_by_rule": {
            "clique": 0, "color_bound": 0, "conflict": nodes, "reach": 0, "sum_total": 0,
            "symmetry": 0}},
        "status": STATUS_NO_LABELING, "upper_bound": None, "witness": None}


def test_p3_value_3():
    result = chi_la_exact(path(3))
    assert result.status == STATUS_VALUE and result.chi_la == 3


def test_fb1_value_3():
    result = chi_la_exact(fb1_graph())
    assert result.status == STATUS_VALUE and result.chi_la == 3
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == 3


@pytest.mark.parametrize("g", [
    path(3), path(4), path(5), cycle(3), cycle(4), cycle(5), cycle(6),
    star(3), star(4), fb1_graph(), bull(), fan_with_leaves(),
], ids=["P3", "P4", "P5", "C3", "C4", "C5", "C6", "K13", "K14", "FB1", "bull",
        "fan_with_leaves"])
def test_pruned_matches_naive_oracle(g):
    naive = naive_chi_la(g)
    result = chi_la_exact(g)
    if naive is None:
        assert result.status == STATUS_NO_LABELING
    else:
        assert result.status == STATUS_VALUE and result.chi_la == naive


@st.composite
def small_graphs(draw):
    """Up to 8 edges: a random core (often disconnected, sometimes with
    untouched vertices), 0-3 leaves hung on one core vertex, and maybe
    one more isolated vertex."""
    leaves = draw(st.integers(0, 3))
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=min(8 - leaves, len(pairs))))
    hub = draw(st.integers(0, n - 1))
    chosen += [(hub, n + i) for i in range(leaves)]
    names = [f"n{i}" for i in range(n + leaves + draw(st.integers(0, 1)))]
    return by_name(names, [(names[i], names[j], t + 1) for t, (i, j) in enumerate(chosen)])


@st.composite
def symmetric_graphs(draw):
    """Up to 8 edges with many automorphisms: a cycle, a complete
    bipartite graph, disjoint copies of a small graph, or a star with a
    chord between two leaves; vertex ids shuffled."""
    kind = draw(st.sampled_from(["cycle", "bipartite", "copies", "chorded_star"]))
    if kind == "cycle":
        n = draw(st.integers(3, 8))
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "bipartite":
        a = draw(st.integers(1, 2))
        b = draw(st.integers(a, 8 // a))
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
    elif kind == "copies":
        base = draw(st.sampled_from([
            [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)],
            [(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (2, 3)],
            [(0, 1), (1, 2), (2, 3), (0, 3)]]))
        k = draw(st.integers(2, 8 // len(base)))
        pairs = [(a + 4 * i, b + 4 * i) for i in range(k) for a, b in base]
    else:
        leaves = draw(st.integers(2, 7))
        pairs = [(0, i) for i in range(1, leaves + 1)] + [(1, 2)]
    used = sorted({w for p in pairs for w in p})
    ids = dict(zip(used, draw(st.permutations(range(len(used))))))
    names = [f"n{i}" for i in range(len(used))]
    return by_name(names,
                   [(names[ids[a]], names[ids[b]], t + 1) for t, (a, b) in enumerate(pairs)])


@st.composite
def bipartite_graphs(draw):
    """Up to 8 edges between two sides of 1-4 and 1-5 vertices, vertex
    ids shuffled: the sum_total cut runs in its per-side form."""
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, 5))
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=min(8, len(pairs))))
    used = sorted({w for p in chosen for w in p})
    ids = dict(zip(used, draw(st.permutations(range(len(used))))))
    names = [f"n{i}" for i in range(len(used))]
    return by_name(names,
                   [(names[ids[x]], names[ids[y]], t + 1) for t, (x, y) in enumerate(chosen)])


@st.composite
def dense_graphs(draw):
    """3 to 8 edges on 3-6 vertices, a triangle among them and often a
    K4, so that the clique cut runs; vertex ids and edge order shuffled."""
    n = draw(st.integers(3, 6))
    triangle = [(0, 1), (0, 2), (1, 2)]
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in triangle]
    chosen = triangle + (draw(st.lists(st.sampled_from(rest), unique=True, min_size=1,
                                       max_size=min(5, len(rest)))) if rest else [])
    ids = draw(st.permutations(range(n)))
    names = [f"n{i}" for i in range(n)]
    return by_name(names,
                   [(names[ids[a]], names[ids[b]], t + 1)
                    for t, (a, b) in enumerate(draw(st.permutations(chosen)))])


# Budget of the searches that must prove a value, so a pruning bug that
# refutes true targets fails its test instead of stalling the suite: over
# 100 times each random, benchmark or hard graph (R3 takes 0.24 s on a
# 2-vCPU 2.0 GHz Xeon VM) and 17 times the star at the depth ceiling (1.75 s).
SEARCH_BUDGET_S = 30.0


@settings(max_examples=120, deadline=None)
@given(st.one_of(small_graphs(), symmetric_graphs(), bipartite_graphs()))
def test_pruned_matches_naive_on_random_graphs(g):
    # the symmetry rule is sound only if every map it uses is an automorphism
    edges = {frozenset(e[:2]) for e in g.edges}
    for pi in search._automorphisms(g, search._edge_order(g)):
        assert sorted(pi) == list(range(g.n_vertices))
        assert {frozenset((pi[u], pi[v])) for u, v, _ in g.edges} == edges
    naive = naive_chi_la(g)
    result = chi_la_exact(g, budget=SEARCH_BUDGET_S)
    assert result.lower_bound == lower_bound(g)
    assert result.stats.prunes == (result.stats.conflict + result.stats.color_bound
                                   + result.stats.symmetry + result.stats.reach
                                   + result.stats.sum_total + result.stats.clique)
    if naive is None:
        assert result.status == STATUS_NO_LABELING
        # Haslegrave (DMTCS 2018): every connected graph but K2 is local antimagic
        assert len(components(g)) > 1 or g.n_vertices == 2
        return
    assert result.status == STATUS_VALUE and result.chi_la == naive
    assert lower_bound(g) <= naive
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == naive


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_searcher_answers_any_target_in_any_order(g):
    # one searcher, asked for targets in an order chi_la_exact never uses:
    # above every count, then each of 1..n + 1 (below lower_bound too),
    # then the first target again
    naive = naive_chi_la(g)
    n = g.n_vertices
    attempt, counts = search._searcher(g, search._edge_order(g), None)
    answers = []
    for target in (n + 1, *range(1, n + 2), n + 1):
        found = attempt(target)
        assert (found is None) == (naive is None or naive > target), target
        if found is not None:
            colors, labels = found
            rep = induced_coloring(LabeledGraph(
                g.names, tuple((u, v, lab) for (u, v, _), lab in zip(g.edges, labels))))
            assert rep.local_antimagic and rep.color_count == colors <= target
        answers.append(found)
    assert answers[-1] == answers[0]  # the same first labeling, labels and colors
    assert len(counts()) == len(search.RULES) + 1 and counts()[0] > 0


@st.composite
def connected_graphs(draw):
    """Connected with 9 or 10 edges, past the naive oracle's reach: a
    random spanning tree on 5-11 vertices plus random further edges, in
    a random order."""
    m = draw(st.integers(9, 10))
    n = draw(st.integers(5, m + 1))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), unique=True,
                           min_size=m - len(pairs), max_size=m - len(pairs)))
    names = [f"n{i}" for i in range(n)]
    return by_name(names,
                   [(names[a], names[b], t + 1)
                    for t, (a, b) in enumerate(draw(st.permutations(pairs)))])


@settings(max_examples=60, deadline=None)
@given(dense_graphs())
def test_clique_cut_matches_naive_on_dense_graphs(g):
    naive = naive_chi_la(g)
    result = chi_la_exact(g, budget=SEARCH_BUDGET_S)
    if naive is None:
        assert result.status == STATUS_NO_LABELING
        return
    assert result.status == STATUS_VALUE and result.chi_la == naive
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == naive


@settings(max_examples=25, deadline=None)
@given(connected_graphs())
def test_connected_graphs_are_local_antimagic(g):
    # Haslegrave (DMTCS 2018): every connected graph but K2 is local
    # antimagic, so the search must find a labeling
    result = chi_la_exact(g)
    assert result.status == STATUS_VALUE
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == result.chi_la >= result.lower_bound


@pytest.mark.parametrize("n", range(3, 12))
def test_star_proven_by_first_labeling(n):
    # the pendant bound is n + 1 and twin leaves take labels 1..n in order
    result = chi_la_exact(star(n))
    assert result.status == STATUS_VALUE and result.chi_la == n + 1
    assert result.lower_bound == n + 1
    assert result.stats.nodes <= n + 1


def test_symmetry_rule_prunes_twin_leaves():
    # a double star: two leaves on a, two on b
    g = by_name(["a", "b", "w", "x", "y", "z"],
                [("a", "b", 1), ("a", "w", 2), ("a", "x", 3), ("b", "y", 4), ("b", "z", 5)])
    result = chi_la_exact(g)
    assert result.chi_la == naive_chi_la(g) == 6
    assert result.lower_bound == 5
    assert result.stats.symmetry > 0
    stats = _document(result)["stats"]
    by_rule = stats["prunes_by_rule"]
    assert by_rule == {"conflict": result.stats.conflict,
                       "color_bound": result.stats.color_bound,
                       "symmetry": result.stats.symmetry,
                       "reach": result.stats.reach,
                       "sum_total": result.stats.sum_total,
                       "clique": result.stats.clique}
    assert stats["prunes"] == sum(by_rule.values())


@pytest.mark.parametrize("g, lb, chi", [
    (bull(), 3, 4),  # the dive finds 5 colors; the round for 3 fails, 4 succeeds
    (double_star(2), 5, 6),  # the dive finds 6; the round for 5 fails
    (double_star(3), 7, 8),
], ids=["bull", "double_star_2", "double_star_3"])
def test_value_above_lower_bound(g, lb, chi):
    result = chi_la_exact(g)
    assert result.status == STATUS_VALUE and result.chi_la == naive_chi_la(g) == chi
    # a value keeps verify.lower_bound, not the largest refuted target + 1
    assert result.lower_bound == lower_bound(g) == lb
    assert result.upper_bound == chi
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == chi


def test_k4_path_proven_by_reach_prunes():
    # lower_bound is 4 but the dive's first labeling has more colors, so
    # the round for 4 must find one; reach and clique prunes keep it
    # small, the latter on the K4's open vertices
    result = chi_la_exact(k4_path())
    assert result.status == STATUS_VALUE and result.chi_la == result.lower_bound == 4
    assert result.stats.reach > 0 and result.stats.clique > 0
    assert result.stats.nodes <= NODES_TO_PROOF["K4_path"]


@pytest.mark.parametrize("name, bipartite", [("C8_units", True), ("K4_path", False)])
def test_sum_total_cuts(name, bipartite):
    # C8_units is cut per side of its 2-coloring, K4 plus a path (not
    # bipartite) over all open vertices at once
    g = _benchmark_graph(name)
    assert (is_bipartite(g) is not None) == bipartite
    result = chi_la_exact(g)
    assert result.status == STATUS_VALUE and result.stats.sum_total > 0


# Nodes to proof of the graphs of the benchmark's search workload: a gate
# on the search's work that does not time it.  Lower counts may replace
# these; higher ones mean a pruning rule got weaker.
NODES_TO_PROOF = {
    "K4_path": 577, "K1_9": 9, "C8_units": 331, "Bk": 2_319, "kC82": 405,
    "kD82": 610, "FB": 703, "K1_11": 11,
}


def _benchmark_graph(name):
    if name == "K4_path":
        return k4_path()
    if name.startswith("K1_"):
        return star(int(name[3:]))
    return build_family(name, k=1).graph


def _proven_within(g, nodes):
    """Search g: a re-verified value within ``nodes`` nodes, and the same
    node count with the vertex ids reversed (the search tree is the same,
    node for node)."""
    result = chi_la_exact(g, budget=SEARCH_BUDGET_S)
    assert result.status == STATUS_VALUE
    assert result.stats.nodes <= nodes
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == result.chi_la
    last = g.n_vertices - 1
    relabeled = LabeledGraph(g.names[::-1], tuple(
        (last - v, last - u, label) for u, v, label in g.edges))
    again = chi_la_exact(relabeled, budget=SEARCH_BUDGET_S)
    assert again.status == STATUS_VALUE and again.stats.nodes == result.stats.nodes
    return result


@pytest.mark.parametrize("name", list(NODES_TO_PROOF))
def test_benchmark_graph_nodes_to_proof(name):
    _proven_within(_benchmark_graph(name), NODES_TO_PROOF[name])


def graph_of(pairs):
    n = max(max(p) for p in pairs) + 1
    names = [f"v{i}" for i in range(n)]
    return by_name(names, [(names[a], names[b], t + 1) for t, (a, b) in enumerate(pairs)])


# graphs the benchmark's search set does not cover, each chi_la confirmed
# once with naive_chi_la: pairs, chi_la and nodes to proof (upper bounds,
# as above).  The 7-edge ones need the packed sum sets' fields kept
# apart.  On R_below_degree the one vertex of the largest degree is on
# the first edge of the order, so R is below that degree, and a field
# sized from R alone would let the high taken sums a vertex is compared
# with read into the next field.  On stuck_share the new sums the stuck
# vertices share must be read from field r alone, not from those above
HARD_GRAPHS = {
    "R2": ([(0, 1), (0, 2), (1, 2), (1, 4), (1, 6), (2, 3), (2, 6), (3, 4), (3, 6),
            (4, 5), (5, 6)], 3, 6_888),
    "R3": ([(0, 2), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4),
            (3, 5), (4, 5)], 4, 4_782),
    # K3,3 plus a 2-edge path hung on one vertex
    "K33_path2": ([(a, b) for a in range(3) for b in range(3, 6)] + [(0, 6), (6, 7)],
                  4, 11_087),
    "R_below_degree": ([(4, 5), (3, 7), (0, 4), (6, 7), (3, 6), (2, 4), (1, 2)], 4, 179),
    "stuck_share": ([(1, 3), (5, 6), (0, 1), (4, 5), (3, 4), (0, 2), (1, 4)], 4, 71),
}


@pytest.mark.parametrize("name", list(HARD_GRAPHS))
def test_hard_graphs_nodes_to_proof(name):
    pairs, chi, nodes = HARD_GRAPHS[name]
    assert _proven_within(graph_of(pairs), nodes).chi_la == chi


def test_b2_has_the_two_coloring_the_lemma_allows():
    # the lemma of two_coloring_impossible on a graph that has a
    # 2-coloring: sums x < y on classes X, Y with x|X| = y|Y| = m(m+1)/2
    g = build_family("Bk", k=2).graph
    assert two_coloring_impossible(g) is False
    result = chi_la_exact(g, max_edges=20, budget=SEARCH_BUDGET_S)
    assert result.status == STATUS_VALUE and result.chi_la == 2
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == 2
    (x, big), (y, small) = sorted(Counter(rep.id_sums).items())
    assert x * big == y * small == g.size * (g.size + 1) // 2 == 210
    assert big > small


def _chain(mask):
    """The empty mask, mask, and each mask left by dropping its lowest labels."""
    chain = {0}
    while mask:
        chain.add(mask)
        mask &= mask - 1
    return chain


def test_sum_sets_are_the_sums_of_r_distinct_labels(monkeypatch):
    # one cache per R, asked for random label sets over 1..13 in random
    # order, so that masks are derived from one another; with no room past
    # the empty mask's entry, each miss empties the cache and keeps the
    # one chain it derives.  Field r of an entry, width bits from
    # r * width, is the set for r labels, and nothing lies above field R
    rng = random.Random(13)
    masks = rng.sample(range(0, 1 << 14, 2), 300)
    want = {mask: [sum({1 << sum(c) for c in itertools.combinations(
        [lab for lab in range(14) if mask >> lab & 1], r)}) for r in range(14)]
        for mask in masks}
    width = sum(range(14)) + 1  # above the sum of all 13 labels
    for room in (search.SUM_SETS_ROOM, 1):
        monkeypatch.setattr(search, "SUM_SETS_ROOM", room)
        for rmax in range(14):
            sets = search._SumSets(rmax, width)
            for mask in rng.sample(masks, len(masks)):
                kept = set(sets) if mask in sets else _chain(mask)
                packed = sets[mask]
                assert [packed >> r * width & (1 << width) - 1
                        for r in range(rmax + 1)] == want[mask][:rmax + 1]
                assert packed >> (rmax + 1) * width == 0
                if room == 1:
                    assert set(sets) == kept
            if room != 1:
                assert set(sets) - set(masks) - {0}  # met on the way


@pytest.mark.parametrize("g", [
    path(2), star(5), k4_path(), bull(), graph_of(HARD_GRAPHS["R_below_degree"][0]),
    build_family("Bk", k=1).graph, build_family("kC82", k=1).graph,
], ids=["K2", "K1_5", "K4_path", "bull", "R_below_degree", "Bk", "kC82"])
def test_sum_set_fields_are_one_above_the_largest_vertex_sum(g, monkeypatch):
    # the search's one cache has fields 0..R (R = 0 when no vertex is ever
    # open, as on K2), each one bit wider than the top deg(w) labels of
    # 1..m add up to, over every vertex w; R is below the largest degree
    # on K1_5 (the hub is on the first edge) and on R_below_degree
    made = []

    class Recorded(search._SumSets):
        def __init__(self, rmax, width):
            made.append((rmax, width))
            super().__init__(rmax, width)

    monkeypatch.setattr(search, "_SumSets", Recorded)
    chi_la_exact(g, max_edges=g.size)
    m = g.size
    width = max(sum(range(m - d + 1, m + 1)) for d in g.degree) + 1
    rmax = max((r for opens in schedule_opens(g, search._edge_order(g)) for _, r, _ in opens),
               default=0)
    assert made == [(rmax, width)]


@pytest.mark.parametrize("name", ["K1_3", "kC82"])
def test_named_edges_give_what_plain_edges_give(name):
    # bench/workloads.py builds its graphs from LabeledEdge rows; the
    # library makes plain (u, v, label) tuples
    plain = _benchmark_graph(name)
    named = LabeledGraph(plain.names, tuple(LabeledEdge(u, v, label)
                                            for u, v, label in plain.edges))
    assert [type(e) for e in named.edges] == [LabeledEdge] * plain.size
    assert induced_coloring(named) == induced_coloring(plain)
    assert to_dot(named) == to_dot(plain)
    assert dumps(graph_to_document(named)) == dumps(graph_to_document(plain))
    a, b = chi_la_exact(named), chi_la_exact(plain)
    assert a.chi_la == b.chi_la is not None and a.witness == b.witness


def neighbor_masks(g):
    """g's neighbor bitmasks, as ``chi_la_exact`` hands them to ``_schedule``."""
    return [sum(1 << x for x in nbrs) for nbrs in g.adjacency]


def test_star_symmetry_is_a_chain_of_twin_swaps():
    # the 11 leaves are one twin class: its 10 consecutive swaps and no
    # enumeration of the 11! automorphisms
    g = star(11)
    order = search._edge_order(g)
    assert len(search._automorphisms(g, order)) == 10
    after = [step[2] for step in search._schedule(g, order, neighbor_masks(g), None)]
    assert after == [()] + [(t,) for t in range(10)]


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graphs(), symmetric_graphs(), bipartite_graphs(), dense_graphs()))
# K4 and K5: a position completes two members of one clique; a bowtie and
# K4 less an edge: a vertex in two maximal cliques; the last: the cliques
# {0, 1, 3, 4} and {0, 1, 3, 5} keep the same open members once 4 and 5
# are done
@example(graph_of(K4))
@example(graph_of([(a, b) for a in range(5) for b in range(a + 1, 5)]))
@example(graph_of([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]))
@example(graph_of(K4[:-1]))
@example(graph_of([(0, 4), (3, 4), (3, 5), (2, 4), (1, 4), (0, 5), (2, 5), (1, 3), (1, 5),
                   (0, 3), (0, 1)]))
def test_schedule_entries_match_a_brute_force_recount(g):
    # each open entry of position t is (w, r, finished), recounted here
    # from the positions of each vertex's edges in the static order, and
    # so are the open cliques, from every vertex set that is a maximal
    # clique of g
    order = search._edge_order(g)
    at = [[t for t, ei in enumerate(order) if w in g.edges[ei][:2]]
          for w in range(g.n_vertices)]
    plan = search._schedule(g, order, neighbor_masks(g), None)
    assert len(plan) == g.size
    adj = [set(nbrs) for nbrs in g.adjacency]
    inner = [w for w in range(g.n_vertices) if len(adj[w]) >= 2]
    maximal = [set(q) for size in range(3, len(inner) + 1)
               for q in itertools.combinations(inner, size)
               if all(b in adj[a] for a, b in itertools.combinations(q, 2))
               and not set.intersection(*(adj[w] for w in q)) - set(q)]
    for t, (ei, (u, v, _, _, done, opens, cliques, span, members)) in enumerate(zip(order, plan)):
        alive = {w for w in range(g.n_vertices) if at[w] and at[w][-1] > t}
        assert len(set(cliques)) == len(cliques)
        assert {tuple(sorted(q & alive)) for q in maximal if len(q & alive) >= 3} \
            == set(cliques)
        assert span == max(map(len, cliques), default=2) - 1
        assert members == tuple(e for e in opens if any(e[0] in q for q in cliques))
        assert (u, v) == g.edges[ei][:2]
        left = [sum(1 for s in at[w] if s > t) for w in range(g.n_vertices)]
        assert done == tuple(w for w in (u, v) if not left[w])
        want = [w for w in (u, v) if left[w]]
        want += [w for w in range(g.n_vertices) if left[w] and w not in (u, v)]
        assert [entry[0] for entry in opens] == want
        for entry in opens:
            assert len(entry) == 3
            w, r, finished = entry
            assert r == left[w]
            assert sorted(finished) == [x for x in sorted(g.adjacency[w]) if at[x][-1] <= t]


def _opens_match_the_full_scan(g):
    order = search._edge_order(g)
    plan = search._schedule(g, order, neighbor_masks(g), None)
    return [step[5] for step in plan] == schedule_opens(g, order)


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graphs(), symmetric_graphs(), bipartite_graphs(), dense_graphs()))
def test_schedule_open_entries_match_the_full_scan(g):
    assert _opens_match_the_full_scan(g)


@pytest.mark.parametrize("tag", FAMILIES)
def test_schedule_open_entries_match_the_full_scan_on_the_families(tag):
    g = build_family(tag, **FAMILIES[tag][1][0]).graph
    assert _opens_match_the_full_scan(g)
    assert _opens_match_the_full_scan(new_graph([*g.names, "iso"], g.edges))


def test_isolated_vertices_add_no_automorphisms():
    # vertices on no edge are fixed by every map, so their twin swaps
    # (n - 1 maps of n entries each) are never made
    p4 = path(4)
    counts = []
    for extra in (0, 1, 5, 200):
        g = new_graph([*p4.names, *(f"i{j}" for j in range(extra))], p4.edges)
        maps = search._automorphisms(g, search._edge_order(g))
        assert all(pi[4:] == list(range(4, g.n_vertices)) for pi in maps)
        counts.append(len(maps))
    assert counts == [counts[0]] * 4


def without_isolated_vertices(g):
    """g less its vertices on no edge, the others in the same order."""
    used = [w for w in range(g.n_vertices) if g.degree[w]]
    ids = {w: i for i, w in enumerate(used)}
    return new_graph([g.names[w] for w in used],
                     [(ids[u], ids[v], label) for u, v, label in g.edges])


def _isolated_vertex_is_invisible(g, at):
    # an isolated vertex completes at sum 0, a color of its own: every
    # count moves up by one, and the search tree and witness stay the same
    shift = [w + (w >= at) for w in range(g.n_vertices)]
    more = new_graph([*g.names[:at], "isolated", *g.names[at:]],
                     [(shift[u], shift[v], label) for u, v, label in g.edges])
    a, b = chi_la_exact(g), chi_la_exact(more)
    assert b.status == a.status
    assert b.lower_bound == a.lower_bound + 1
    for x, y in ((a.chi_la, b.chi_la), (a.upper_bound, b.upper_bound)):
        assert y == (None if x is None else x + 1)
    assert b.stats[:-1] == a.stats[:-1]  # nodes and every rule's prunes
    assert (b.witness and b.witness.labels()) == (a.witness and a.witness.labels())


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graphs(), symmetric_graphs(), bipartite_graphs(), dense_graphs()),
       st.integers(0, 20))
def test_an_isolated_vertex_is_invisible_to_the_search(g, at):
    g = without_isolated_vertices(g)
    _isolated_vertex_is_invisible(g, at % (g.n_vertices + 1))


@pytest.mark.parametrize("tag", [tag for tag, (_, grid) in FAMILIES.items()
                                 if grid[0] == {"k": 1}])
def test_an_isolated_vertex_is_invisible_on_the_k1_families(tag):
    g = build_family(tag, k=1).graph
    _isolated_vertex_is_invisible(g, g.n_vertices // 2)


class ReadClock:
    """A fake ``time`` module whose clock reads 0.0 for the first ``fast``
    reads and then advances one second per read."""

    def __init__(self, fast: int = 0) -> None:
        self.fast = fast
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return max(0.0, float(self.reads - self.fast))


def setup_reads(monkeypatch, g) -> int:
    """Clock reads a budgeted search of g makes before its first node: one
    per edge-order pick, block pair of the transversal, call of the
    clique search and schedule position."""
    clock = ReadClock()
    monkeypatch.setattr(search, "time", clock)
    result = chi_la_exact(g, budget=1e9)
    assert result.status == STATUS_VALUE
    return clock.reads - 2 - result.stats.nodes  # less the start and the elapsed time


def test_timeout_reports_the_largest_refuted_target(monkeypatch):
    g = bull()  # lower_bound 3, chi_la 4, and the dive finds 5 colors
    nodes = chi_la_exact(g).stats.nodes  # the last node completes the 4-coloring
    setup = setup_reads(monkeypatch, g)
    seen = []
    for budget in range(1, nodes):
        # the start reads 0, the setup 1..setup and node j reads setup + j
        monkeypatch.setattr(search, "time", ReadClock(fast=1))
        result = chi_la_exact(g, budget=float(setup + budget))
        assert result.status == STATUS_TIMEOUT and result.chi_la is None
        assert result.stats.nodes == budget + 1
        if result.witness is not None:  # the dive's labeling
            rep = induced_coloring(result.witness)
            assert rep.local_antimagic and rep.color_count == result.upper_bound == 5
        else:
            assert result.upper_bound is None and result.lower_bound == 3
        seen.append((result.lower_bound, result.upper_bound))
    assert seen == sorted(seen, key=lambda b: (b[0], b[1] or 0))
    # timing out in the dive, in the round for 3 colors and, once 3 is
    # refuted, in the round for 4
    assert {b for b, _ in seen} == {3, 4}
    assert seen[-1] == (4, 5)
    assert _document(result)["lower_bound"] == 4


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf"), True, "5"])
def test_budget_must_be_positive_and_finite(budget):
    # a bool is an int subclass but no number of seconds, and a string
    # must not escape as a TypeError from the comparison
    with pytest.raises(ValueError, match="positive finite"):
        chi_la_exact(path(3), budget=budget)


def test_disconnected_searched_whole():
    # labels span both components of 2P3: leaf sums pin four distinct labels
    g = by_name(["a", "b", "c", "d", "e", "f"],
                [("a", "b", 1), ("b", "c", 2), ("d", "e", 3), ("e", "f", 4)])
    naive = naive_chi_la(g)
    result = chi_la_exact(g)
    assert result.chi_la == naive == 5
    # a lone extra edge component forces equal adjacent sums everywhere
    bad = by_name(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)])
    assert naive_chi_la(bad) is None
    assert chi_la_exact(bad).status == STATUS_NO_LABELING


def test_result_independent_of_vertex_order():
    g1 = fb1_graph()
    g2 = by_name(["x", "w", "v", "u"],
                 [("x", "v", 1), ("x", "u", 2), ("x", "w", 3), ("u", "w", 4), ("v", "w", 5)])
    r1, r2 = chi_la_exact(g1), chi_la_exact(g2)
    assert r1.chi_la == r2.chi_la == 3


def test_witness_reverifies():
    result = chi_la_exact(cycle(6))
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == result.chi_la


def test_too_large_rejected():
    with pytest.raises(GraphTooLarge):
        chi_la_exact(path(20))
    assert chi_la_exact(path(13), max_edges=12).chi_la == 3


def test_a_star_at_the_depth_ceiling_is_proven():
    # the search recurses once per edge: one edge past the ceiling is
    # refused before any work, the star at it is proven in m nodes
    ceiling = sys.getrecursionlimit() - search.FRAME_MARGIN
    with pytest.raises(GraphTooLarge, match=f"at most {ceiling} edges"):
        chi_la_exact(star(ceiling + 1), max_edges=ceiling + 1)
    result = chi_la_exact(star(ceiling), max_edges=ceiling, budget=SEARCH_BUDGET_S)
    assert result.status == STATUS_VALUE and result.chi_la == ceiling + 1
    assert result.stats.nodes == ceiling


def test_budget_timeout():
    g = spoilt(build_family("FB", k=1).graph)  # 10 edges, no labeling to fall back on
    result = chi_la_exact(g, budget=1e-9)
    assert result.status == STATUS_TIMEOUT
    assert result.chi_la is None
    # the clock is read at the first pick of the edge order, before any node
    assert result.stats.nodes == 0
    assert result.lower_bound == 3
    assert result.upper_bound is None and result.witness is None
    doc = _document(result)
    assert doc["lower_bound"] == 3 and doc["upper_bound"] is None
    assert doc["witness"] is None


def test_timeout_keeps_the_best_labeling(monkeypatch):
    g = spoilt(k4_path())  # chi_la 4; the dive's first labeling has more colors
    nodes = chi_la_exact(g).stats.nodes  # the last node completes the 4-coloring
    setup = setup_reads(monkeypatch, g)
    # the clock passes the deadline at the last node's read
    monkeypatch.setattr(search, "time", ReadClock(fast=setup + nodes))
    result = chi_la_exact(g, budget=0.5)
    assert result.status == STATUS_TIMEOUT and result.chi_la is None
    assert result.stats.nodes == nodes
    assert result.lower_bound == lower_bound(g) <= 4
    rep = induced_coloring(result.witness)
    assert rep.local_antimagic and rep.color_count == result.upper_bound >= 4
    doc = _document(result)
    assert doc["upper_bound"] == result.upper_bound
    assert len(doc["witness"]) == g.size


def test_timeout_during_setup(monkeypatch):
    g = spoilt(build_family("FB", k=2).graph)  # 36 pairs of blocks in the transversal
    # the start and the edge order's picks read 0, the first pair past the deadline
    clock = ReadClock(fast=1 + g.size)
    monkeypatch.setattr(search, "time", clock)
    result = chi_la_exact(g, max_edges=g.size, budget=0.5)
    assert result.status == STATUS_TIMEOUT and result.chi_la is None
    assert result.stats.nodes == 0
    assert result.lower_bound == lower_bound(g) == 3
    assert result.upper_bound is None and result.witness is None
    assert clock.reads == 1 + g.size + 2  # and the elapsed time


def test_timeout_in_the_edge_order(monkeypatch):
    g = spoilt(k4_path())  # fewer than 16 pairs of blocks in the transversal
    clock = ReadClock(fast=1)  # the first pick reads past the deadline
    monkeypatch.setattr(search, "time", clock)
    result = chi_la_exact(g, budget=0.5)
    assert result.status == STATUS_TIMEOUT and result.chi_la is None
    assert result.stats.nodes == 0
    assert result.lower_bound == lower_bound(g)
    assert result.upper_bound is None and result.witness is None
    assert clock.reads == 3  # the start, the first pick and the elapsed time


def test_timeout_at_each_setup_read(monkeypatch):
    # K4 plus a path has a clique, so the reads run through the edge
    # order, the transversal, the clique search and the schedule
    g = spoilt(k4_path())
    setup = setup_reads(monkeypatch, g)
    for fast in range(1, setup + 1):
        # the start and setup reads 1..fast-1 read 0, setup read fast past the deadline
        monkeypatch.setattr(search, "time", ReadClock(fast=fast))
        result = chi_la_exact(g, budget=0.5)
        assert result.status == STATUS_TIMEOUT and result.stats.nodes == 0
        assert result.lower_bound == lower_bound(g)
        assert result.witness is None and result.upper_bound is None


def test_every_counter_is_zero_when_no_node_runs():
    # an edgeless search runs no node, and a setup timeout counts nothing
    for result in (chi_la_exact(new_graph(["a", "b"])),
                   chi_la_exact(build_family("FB", k=1).graph, budget=1e-9)):
        assert result.stats.nodes == result.stats.prunes == 0
        assert [getattr(result.stats, rule) for rule in search.RULES] == [0] * len(search.RULES)


def test_a_setup_timeout_falls_back_on_the_graphs_own_labeling():
    g = build_family("FB", k=1).graph  # the builder's 3-coloring
    result = chi_la_exact(g, budget=1e-9)
    assert result.status == STATUS_TIMEOUT and result.chi_la is None
    assert result.stats.nodes == 0
    assert result.witness == g and result.upper_bound == 3 == result.lower_bound
    # with labels 1 and 4 swapped, w_2 and its neighbors u_2, v_2 all sum to 11
    bad = swapped(g, 0, 7)
    assert not induced_coloring(bad).local_antimagic
    result = chi_la_exact(bad, budget=1e-9)
    assert result.status == STATUS_TIMEOUT and result.stats.nodes == 0
    assert result.witness is None and result.upper_bound is None


def test_a_timeout_keeps_the_graphs_own_labeling_only_with_fewer_colors(monkeypatch):
    # out of time at bull's last node, the search holds the dive's
    # 5-coloring and has refuted 3 colors
    nodes = chi_la_exact(bull()).stats.nodes
    setup = setup_reads(monkeypatch, bull())
    own = chi_la_exact(bull()).witness  # a 4-coloring
    five = by_name(["a", "b", "c", "x", "y"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 5),
                                               ("a", "x", 4), ("b", "y", 3)])
    assert induced_coloring(five).local_antimagic and induced_coloring(five).color_count == 5
    found = {}
    for name, g in (("spoilt", bull()), ("own", own), ("five", five)):
        monkeypatch.setattr(search, "time", ReadClock(fast=1))
        result = chi_la_exact(g, budget=float(setup + nodes - 1))
        assert result.status == STATUS_TIMEOUT and result.lower_bound == 4
        found[name] = result.witness, result.upper_bound
    assert found["spoilt"][1] == 5 and found["spoilt"][0] != five
    assert found["own"] == (own, 4)
    assert found["five"] == found["spoilt"]  # as many colors: the search's labeling stays


@pytest.mark.parametrize("stop", [1, 2, 5000])
def test_search_stops_at_the_node_that_reads_past_the_deadline(monkeypatch, stop):
    g = graph_of(HARD_GRAPHS["K33_path2"][0])  # 11,087 nodes to proof
    setup = setup_reads(monkeypatch, g)
    # nodes 1..stop-1 read 0, node stop reads past the deadline
    monkeypatch.setattr(search, "time", ReadClock(fast=setup + stop))
    result = chi_la_exact(g, budget=0.5)
    assert result.status == STATUS_TIMEOUT
    assert result.stats.nodes == stop


def test_empty_graph():
    assert chi_la_exact(new_graph([])).chi_la == 0
    assert chi_la_exact(new_graph(["a"])).chi_la == 1
    # the whole written document: no vertex takes no color, and any
    # number of isolated vertices one (sum 0); a budget, however short,
    # cannot run out, since an edgeless search checks no deadline
    for n, colors in ((0, 0), (1, 1), (3, 1)):
        for budget in (None, 1e-9):
            result = chi_la_exact(new_graph([f"i{j}" for j in range(n)]), budget=budget)
            assert _document(result) == {
                "budget": budget, "chi_la": colors, "lower_bound": colors,
                "stats": {"nodes": 0, "prunes": 0, "prunes_by_rule": dict.fromkeys(
                    ["clique", "color_bound", "conflict", "reach", "sum_total",
                     "symmetry"], 0)},
                "status": STATUS_VALUE, "upper_bound": colors, "witness": []}


def test_env_var_budget(tmp_path, monkeypatch, capsys):
    # only the search command reads the variable
    doc = tmp_path / "fb2.json"
    doc.write_text(dumps(graph_to_document(build_family("FB", k=1).graph)), encoding="utf-8")
    monkeypatch.setenv("ANTIMAGIC_SEARCH_BUDGET", "1e-9")
    assert main(["search", str(doc)]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == STATUS_TIMEOUT and result["budget"] == 1e-9
    # in the library budget=None is unlimited, whatever the environment says
    result = chi_la_exact(path(3))
    assert result.status == STATUS_VALUE and result.budget is None
