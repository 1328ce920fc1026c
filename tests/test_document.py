"""JSON documents, DOT export, and CSV emission."""

from __future__ import annotations

import json

import pytest

from antimagic.document import (
    DocumentError,
    built_to_document,
    document_to_graph,
    dumps,
    graph_to_document,
    rows_csv,
    to_dot,
)
from antimagic.families import build_family
from antimagic.graph import new_graph
from antimagic.matrices import matrix_5x2k, sequences_6x4n
from antimagic.verify import check_expected, induced_coloring


def test_document_round_trip_lossless():
    built = build_family("rDF", r=3, s=2)
    doc = built_to_document(built)
    g, expected = document_to_graph(json.loads(dumps(doc)))
    assert g.names == built.graph.names
    assert g.edges == built.graph.edges
    assert expected == built.expected


def test_round_trip_verification_matches_in_memory():
    built = build_family("FB", k=2)
    in_memory = induced_coloring(built.graph).to_json_dict()
    doc = json.loads(dumps(built_to_document(built)))
    g, expected = document_to_graph(doc)
    loaded = induced_coloring(g).to_json_dict()
    assert dumps(in_memory) == dumps(loaded)
    assert check_expected(g, expected, induced_coloring(g)).passed


def test_dumps_is_deterministic():
    built = build_family("nC482", n=2)
    a = dumps(built_to_document(built))
    b = dumps(built_to_document(build_family("nC482", n=2)))
    assert a == b


def test_document_validation_errors():
    built = build_family("FB", k=1)
    doc = built_to_document(built)

    bad = json.loads(dumps(doc))
    bad["edges"][0]["label"] = 0
    with pytest.raises(DocumentError):
        document_to_graph(bad)

    bad = json.loads(dumps(doc))
    bad["edges"][0]["u"] = 99
    with pytest.raises(DocumentError):
        document_to_graph(bad)

    bad = json.loads(dumps(doc))
    bad["vertices"][0]["degree"] += 1
    with pytest.raises(DocumentError):
        document_to_graph(bad)

    with pytest.raises(DocumentError):
        document_to_graph({"format": "other"})


def test_dot_export_snapshot():
    g = new_graph(["a", "b", "c"]).with_edges([("a", "b", 2), ("b", "c", 1)])
    sums = induced_coloring(g).sums
    expected = (
        "graph G {\n"
        '  v0 [label="a\\n2"];\n'
        '  v1 [label="b\\n3"];\n'
        '  v2 [label="c\\n1"];\n'
        '  v0 -- v1 [label="2"];\n'
        '  v1 -- v2 [label="1"];\n'
        "}\n"
    )
    assert to_dot(g, sums) == expected
    assert to_dot(g, sums) == to_dot(g, sums)


def test_matrix_csv():
    text = rows_csv(matrix_5x2k(1).grid)
    assert text == "1,2\n6,8\n7,4\n10,9\n5,3\n"
    seq_text = rows_csv(sequences_6x4n(1))
    assert seq_text.splitlines()[0] == "1,17,13,8,18,6,15,3,14,7,4,20"


def test_graph_to_document_plain():
    g = new_graph(["a", "b"]).with_edges([("a", "b", 1)])
    doc = graph_to_document(g)
    assert doc["vertices"] == [
        {"id": 0, "name": "a", "degree": 1},
        {"id": 1, "name": "b", "degree": 1},
    ]
    assert "family" not in doc and "expected_colors" not in doc
