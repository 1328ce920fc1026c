"""JSON documents, DOT export, and CSV emission."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.document import (
    FORMAT,
    DocumentError,
    built_to_document,
    document_to_graph,
    dumps,
    graph_to_document,
    matrix_json,
    report_to_document,
    rows_csv,
    search_to_document,
    to_dot,
)
from antimagic.families import build_family
from antimagic.graph import LabeledEdge, LabeledGraph
from antimagic.matrices import matrix_5x2k, matrix_6x4n, matrix_kx10, sequences_6x4n
from antimagic.search import STATUS_TIMEOUT, STATUS_VALUE, chi_la_exact
from antimagic.verify import check_expected, induced_coloring
from helpers import by_name, spoilt
from test_search import k4_path


def test_document_round_trip_lossless():
    built = build_family("rDF", r=3, s=2)
    doc = built_to_document(built)
    g, expected = document_to_graph(json.loads(dumps(doc)))
    assert g.names == built.graph.names
    assert g.edges == built.graph.edges
    assert expected == built.expected


def test_round_trip_verification_matches_in_memory():
    built = build_family("FB", k=2)
    in_memory = report_to_document(induced_coloring(built.graph))
    doc = json.loads(dumps(built_to_document(built)))
    g, expected = document_to_graph(doc)
    loaded = report_to_document(induced_coloring(g))
    assert dumps(in_memory) == dumps(loaded)
    assert check_expected(expected, induced_coloring(g)) == ()


def test_dumps_is_deterministic():
    built = build_family("nC482", n=2)
    a = dumps(built_to_document(built))
    b = dumps(built_to_document(build_family("nC482", n=2)))
    assert a == b


def test_document_validation_errors():
    doc = json.loads(dumps(built_to_document(build_family("FB", k=1))))
    # 7 vertices, vertex 0 is 'u_1' of degree 2, the first edge is {u: 0, v: 2, label: 1}

    def spoiled(change):
        bad = json.loads(json.dumps(doc))
        change(bad)
        return bad

    cases = [
        (spoiled(lambda d: d["edges"][0].update(v=0)), "edge (0, 0, 1) is a loop"),
        (spoiled(lambda d: d["edges"][0].update(label=0)),
         "edge (0, 2, 0) has label 0; labels must be >= 1"),
        (spoiled(lambda d: d["edges"][0].update(u=99)),
         "edge (2, 99, 1) needs ids 0 <= u < v < 7"),
        (spoiled(lambda d: d["edges"].append({"u": 0, "v": 2, "label": 99})),
         "edge (0, 2, 99) repeats the pair (0, 2)"),
        (spoiled(lambda d: d["edges"].append({"u": 2, "v": 0, "label": 99})),
         "edge (0, 2, 99) repeats the pair (0, 2)"),
        (spoiled(lambda d: d["vertices"][2].update(name="u_1")), "duplicate vertex name 'u_1'"),
        (spoiled(lambda d: d["vertices"][0].update(degree=3)),
         "stored degree of 'u_1' is 3, edges give 2"),
        (spoiled(lambda d: d["vertices"][3].update(name="x\ud800")),
         "vertex 3 has a name UTF-8 cannot encode: 'x\\ud800'"),
        ({"format": "other"}, "unsupported document format 'other'"),
    ]
    for bad, message in cases:
        with pytest.raises(DocumentError) as info:
            document_to_graph(bad)
        assert type(info.value) is DocumentError and str(info.value) == message

    for field in ("claimed_colors", "size"):
        bad = json.loads(dumps(doc))
        block = bad["expected_colors"]
        (block if field == "claimed_colors" else block["classes"][0])[field] = -1
        with pytest.raises(DocumentError, match="must not be negative"):
            document_to_graph(bad)


def test_a_claim_of_size_zero_is_read():
    # only a negative size or count is malformed: a class of size 0 and a
    # claimed count of 0 are read as written, and the check then reports them
    doc = json.loads(dumps(built_to_document(build_family("FB", k=1))))
    doc["expected_colors"]["claimed_colors"] = 0
    doc["expected_colors"]["classes"][0]["size"] = 0
    g, expected = document_to_graph(doc)
    assert expected.claimed_colors == 0 and expected.classes[0].size == 0
    assert check_expected(expected, induced_coloring(g)) == (
        "color 11: expected 0 vertices, found 4", "color count 3 != claimed 0")


def test_dot_export_snapshot():
    g = by_name(["a", "b", "c"], [("a", "b", 2), ("b", "c", 1)])
    expected = (
        "graph G {\n"
        '  v0 [label="a\\n2"];\n'
        '  v1 [label="b\\n3"];\n'
        '  v2 [label="c\\n1"];\n'
        '  v0 -- v1 [label="2"];\n'
        '  v1 -- v2 [label="1"];\n'
        "}\n"
    )
    assert to_dot(g) == expected
    assert to_dot(g) == to_dot(g)


def test_dot_export_escapes_quotes_and_backslashes():
    # unescaped, 'a"b' would end the label early and 'c\' would swallow the \n
    g = by_name(['a"b', "c\\"], [('a"b', "c\\", 1)])
    assert to_dot(g) == (
        "graph G {\n"
        '  v0 [label="a\\"b\\n1"];\n'
        '  v1 [label="c\\\\\\n1"];\n'
        '  v0 -- v1 [label="1"];\n'
        "}\n"
    )


def test_matrix_csv():
    text = rows_csv(matrix_5x2k(1).grid)
    assert text == "1,2\n6,8\n7,4\n10,9\n5,3\n"
    seq_text = rows_csv(sequences_6x4n(1))
    assert seq_text.splitlines()[0] == "1,17,13,8,18,6,15,3,14,7,4,20"


def test_graph_to_document_plain():
    g = by_name(["a", "b"], [("a", "b", 1)])
    doc = json.loads(dumps(graph_to_document(g)))
    assert doc["vertices"] == [
        {"id": 0, "name": "a", "degree": 1},
        {"id": 1, "name": "b", "degree": 1},
    ]
    assert "family" not in doc and "expected_colors" not in doc


# Names with quotes, backslashes, control characters, non-ASCII text
# (surrogates included), the empty string and % directives, which a row
# template must not read as its own.
NAMES = st.one_of(st.sampled_from(["", '"', "\\", "a\"b\\c", "\n\t\x00\x1f\x7f",
                                   "x_5^1", "é", "∑ w_2", "\U0001f600", "\ud800",
                                   "%d", "100%", "%(x)s"]),
                  st.text(max_size=6))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), NAMES)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(NAMES, inner, max_size=4),
                            st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=12)


@st.composite
def _row(draw, fields: dict) -> dict:
    """A row of exactly these fields, or one with up to two fields retyped
    (to a bool, float, None, string or other integer), dropped, or added."""
    row = draw(st.fixed_dictionaries(fields))
    for how in draw(st.lists(st.sampled_from(("retype", "drop", "extra")), max_size=2)):
        if how == "extra" or not row:
            row[draw(NAMES)] = draw(JSON_VALUES)
            continue
        key = draw(st.sampled_from(sorted(row)))
        if how == "retype":
            row[key] = draw(SCALARS)
        else:
            del row[key]
    return row


VERTEX_ROWS = _row({"degree": st.integers(), "id": st.integers(0), "name": NAMES})
EDGE_ROWS = _row({"label": st.integers(1), "u": st.integers(0), "v": st.integers(0)})
REPORTS = st.fixed_dictionaries({
    "sums": st.dictionaries(NAMES, st.one_of(st.integers(), SCALARS), max_size=6),
    "classes": st.dictionaries(st.integers().map(str), st.lists(NAMES, max_size=4),
                               max_size=3),
    "conflicts": st.lists(_row({"u": NAMES, "v": NAMES, "sum": st.integers()}),
                          max_size=2),
    "part_sizes": st.one_of(st.none(), st.lists(st.integers(), max_size=2)),
    "local_antimagic": st.booleans(),
})
SEARCH_RESULTS = st.fixed_dictionaries({
    "status": st.sampled_from(["value", "timeout", "no_labeling"]),
    "chi_la": st.one_of(st.none(), st.integers(0, 12)),
    "witness": st.one_of(st.none(), st.lists(EDGE_ROWS, max_size=4)),
    "stats": st.fixed_dictionaries({"nodes": st.integers(0), "prunes": st.integers(0)}),
    "budget": st.one_of(st.none(), st.floats()),  # NaN and infinities included
})
DOCUMENTS = st.fixed_dictionaries(
    {"format": st.just(FORMAT),
     "vertices": st.lists(VERTEX_ROWS, max_size=8),
     "edges": st.lists(EDGE_ROWS, max_size=8)},
    optional={"family": JSON_VALUES, "expected_colors": JSON_VALUES,
              "verification": REPORTS, "notes": st.lists(NAMES, max_size=3)})


@settings(max_examples=400, deadline=None)
@given(doc=st.one_of(DOCUMENTS, REPORTS, SEARCH_RESULTS, JSON_VALUES))
def test_dumps_writes_what_indented_json_dumps_writes(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# What dumps writes as one table, and its near misses: bools, negative ints
# and ints wider than 64 bits among the ints.
TABLE_INTS = st.one_of(st.integers(), st.integers(-2**100, 2**100), st.booleans())
TABLES = st.one_of(
    st.lists(NAMES, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, TABLE_INTS)),
                              min_size=1, max_size=6)),
    st.dictionaries(NAMES, TABLE_INTS, max_size=6),
    st.lists(NAMES, max_size=6))


@settings(max_examples=300, deadline=None)
@given(table=TABLES)
def test_dumps_writes_tables_as_json_dumps(table):
    for doc in (table, {"nested": [table]}):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    [{"a%d": 1}, {"a%d": 2}],  # a key read as a directive takes an argument
    [{"100%": 3}],  # a key that ends a template in a lone %
    [{"x": True}, {"x": False}],  # bools are not ints
    {"n": -10**30},
])
def test_dumps_keeps_keys_and_bools_out_of_the_directives(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_document_to_graph_ignores_other_keys():
    # only a missing key is refused: an extra key in a vertex row, an edge
    # row or the document is ignored
    g = by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    doc = json.loads(dumps(graph_to_document(g)))
    doc["vertices"][1]["colour"] = "red"
    doc["edges"][0]["weight"] = [7]
    doc["comment"] = None
    got, expected = document_to_graph(doc)
    assert (got.names, got.edges, expected) == (g.names, g.edges, None)


@pytest.mark.parametrize("sequences", [False, True])
@pytest.mark.parametrize("generate", [matrix_5x2k, matrix_kx10, matrix_6x4n])
def test_dumps_writes_matrices_as_json_dumps(generate, sequences):
    for param in (1, 2, 7):
        doc = matrix_json(generate(param), include_sequences=sequences)
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _plain_rows(g: LabeledGraph) -> tuple[list, list]:
    """``g``'s vertex and edge rows as dicts, each degree counted from the
    edges."""
    degree = [0] * len(g.names)
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    return ([{"id": i, "name": name, "degree": degree[i]} for i, name in enumerate(g.names)],
            [{"u": u, "v": v, "label": label} for u, v, label in g.edges])


def _indented(plain) -> str:
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


def _plain_classes(expected) -> list:
    return [{"value": c.value, "size": c.size, "degree": c.degree} for c in expected.classes]


def test_dumps_writes_family_documents_as_json_dumps():
    built = build_family("DF2", r=2, s=2)
    report = induced_coloring(built.graph)
    vertices, edges = _plain_rows(built.graph)
    expected = built.expected
    plain = {
        "format": FORMAT, "vertices": vertices, "edges": edges,
        "family": {"tag": "DF2", "params": {"r": 2, "s": 2}},
        "expected_colors": {"classes": _plain_classes(expected),
                            "claimed_colors": expected.claimed_colors, "exact": expected.exact},
        "verification": report_to_document(report),
    }
    assert not built.warnings and not built.notes
    assert dumps(built_to_document(built, report)) == _indented(plain)


def test_dumps_writes_a_failing_report_as_json_dumps():
    # a triangle with a pendant edge: label 2 repeats and 3 is missing, so
    # b and c both sum to 3, and the odd cycle leaves no bipartition
    g = by_name(["a", "b", "c", "d"],
                [("a", "b", 1), ("a", "c", 2), ("b", "c", 2), ("c", "d", 4)])
    report = induced_coloring(g)
    plain = {
        "sums": {"a": 3, "b": 3, "c": 8, "d": 4},
        "classes": {"3": ["a", "b"], "8": ["c"], "4": ["d"]},
        "color_count": 3,
        "labels_bijective": False,
        "label_problems": ["label 2 used more than once", "label 3 missing"],
        "conflicts": [{"u": "a", "v": "b", "sum": 3}],
        "local_antimagic": False,
        "bipartite": False,
        "part_sizes": None,
        "balanced_bipartition": None,
        "total": 18,
    }
    assert dumps(report_to_document(report)) == _indented(plain)


def _search_plain(result, witness) -> dict:
    """The plain ``search`` output of ``result``, with ``witness`` given."""
    stats = result.stats
    by_rule = {"conflict": stats.conflict, "color_bound": stats.color_bound,
               "symmetry": stats.symmetry, "reach": stats.reach,
               "sum_total": stats.sum_total, "clique": stats.clique}
    return {"status": result.status, "chi_la": result.chi_la,
            "lower_bound": result.lower_bound, "upper_bound": result.upper_bound,
            "witness": witness,
            "stats": {"nodes": stats.nodes, "prunes": sum(by_rule.values()),
                      "prunes_by_rule": by_rule},
            "budget": result.budget}


def test_dumps_writes_search_documents_as_json_dumps():
    value = chi_la_exact(k4_path())  # K4 plus a path: chi_la 4
    assert value.status == STATUS_VALUE and value.chi_la == 4
    _, rows = _plain_rows(value.witness)
    assert dumps(search_to_document(value)) == _indented(_search_plain(value, rows))
    # the witness rows are the edge rows of the witness's graph document
    assert (json.loads(dumps(search_to_document(value)))["witness"]
            == json.loads(dumps(graph_to_document(value.witness)))["edges"])

    # out of time in the setup, with no labeling of the graph's own to fall back on
    timeout = chi_la_exact(spoilt(FB1.graph), budget=1e-9)
    assert timeout.status == STATUS_TIMEOUT and timeout.witness is None
    assert dumps(search_to_document(timeout)) == _indented(_search_plain(timeout, None))

    edgeless = chi_la_exact(by_name(["a", "b"], []))
    assert edgeless.chi_la == 1 and edgeless.witness.edges == ()
    assert dumps(search_to_document(edgeless)) == _indented(_search_plain(edgeless, []))


@st.composite
def _graphs(draw) -> LabeledGraph:
    """Up to 7 distinct names (the empty graph and isolated vertices
    included) and up to 10 edges u < v, as plain triples or LabeledEdges."""
    names = draw(st.lists(NAMES, unique=True, max_size=7))
    pairs = [(u, v) for v in range(len(names)) for u in range(v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    edges = [(u, v, draw(st.integers(1))) for u, v in chosen]
    if draw(st.booleans()):
        edges = [LabeledEdge(*e) for e in edges]
    return LabeledGraph(tuple(names), tuple(edges))


FB1 = build_family("FB", k=1)


@settings(max_examples=300, deadline=None)
@given(g=_graphs(), verified=st.booleans())
def test_dumps_writes_graph_rows_as_json_dumps_of_plain_rows(g, verified):
    vertices, edges = _plain_rows(g)
    assert dumps(graph_to_document(g)) == _indented(
        {"format": FORMAT, "vertices": vertices, "edges": edges})
    # the other keys of a built document, but for the claim's classes, are plain
    doc = built_to_document(FB1._replace(graph=g),
                            induced_coloring(g) if verified else None)
    claim = {**doc["expected_colors"], "classes": _plain_classes(FB1.expected)}
    assert dumps(doc) == _indented(
        {**doc, "vertices": vertices, "edges": edges, "expected_colors": claim})


def test_json_dumps_refuses_a_row_view():
    doc = graph_to_document(by_name(["a", "b"], [("a", "b", 1)]))
    for value in (doc, doc["vertices"], doc["edges"]):
        with pytest.raises(TypeError):
            json.dumps(value)
