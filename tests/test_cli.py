"""CLI surface: commands, exit codes, deterministic output."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic.cli as cli
import antimagic.families as families
from antimagic.cli import main
from antimagic.document import (
    DocumentError,
    built_to_document,
    document_to_graph,
    dumps,
    graph_to_document,
    rows_csv,
)
from antimagic.graph import LabeledGraph, new_graph
from antimagic.matrices import matrix_6x4n, sequences_6x4n, validate
from antimagic.verify import induced_coloring
from golden import GRID_5X2K_K6, SEQUENCES_N6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_5x2k_csv_golden(capsys):
    code, out, _ = run(capsys, "matrix", "5x2k", "--k", "6", "--validate")
    assert code == 0
    want = "\n".join(",".join(str(x) for x in row) for row in GRID_5X2K_K6) + "\n"
    assert out == want


def test_matrix_sequences_golden(capsys):
    code, out, _ = run(capsys, "matrix", "6x4n", "--n", "6", "--sequences")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == ",".join(str(x) for x in SEQUENCES_N6[0])
    assert lines[11] == ",".join(str(x) for x in SEQUENCES_N6[11])


def test_matrix_bad_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "matrix", "kx10", "--k", "0")
    assert code == 2 and "k must be" in err
    code, _, _ = run(capsys, "matrix", "kx10")
    assert code == 2


def test_matrix_json_format(capsys):
    code, out, _ = run(capsys, "matrix", "kx10", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"] == [[1, 6, 5, 3, 8, 2, 9, 10, 7, 4]]
    code, out, _ = run(capsys, "matrix", "6x4n", "--n", "3", "--format", "json",
                       "--sequences")
    assert code == 0
    doc = json.loads(out)
    assert doc["sequences"] == [list(t) for t in sequences_6x4n(3)]
    assert doc["grid"] == [list(row) for row in matrix_6x4n(3).grid]


@pytest.mark.parametrize("kind, flag, generator", [
    ("5x2k", "--k", "matrix_5x2k"), ("6x4n", "--n", "matrix_6x4n"), ("kx10", "--k", "matrix_kx10"),
])
def test_matrix_validate_prints_each_failed_check(monkeypatch, capsys, kind, flag, generator):
    m = getattr(cli, generator)(3)
    if m.sequences:  # the 6x4n validator reads the sequences
        seqs = [list(t) for t in m.sequences]
        seqs[0][0], seqs[0][1] = seqs[0][1], seqs[0][0]
        tampered = dataclasses.replace(m, sequences=tuple(map(tuple, seqs)))
    else:
        rows = [list(r) for r in m.grid]
        rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
        tampered = dataclasses.replace(m, grid=tuple(map(tuple, rows)))
    monkeypatch.setattr(cli, generator, lambda param: tampered)
    code, out, err = run(capsys, "matrix", kind, flag, "3", "--validate")
    failed = [c.name for c in validate(tampered).failures]
    assert code == 1 and failed and out == rows_csv(tampered.grid)
    lines = err.splitlines()
    assert len(lines) == len(failed)
    assert all(line.startswith(f"FAIL {name}: ") for line, name in zip(lines, failed))


def test_build_fb_verify(capsys):
    code, out, _ = run(capsys, "build", "FB", "--k", "6", "--verify")
    assert code == 0
    doc = json.loads(out)
    values = sorted(c["value"] for c in doc["expected_colors"]["classes"])
    assert values == [61, 79, 1248]
    assert doc["verification"]["local_antimagic"] is True


def test_build_rg82_two_components(capsys):
    code, out, _ = run(capsys, "build", "rG82", "--r", "2", "--s", "2", "--verify")
    assert code == 0
    doc = json.loads(out)
    names = {v["name"] for v in doc["vertices"]}
    assert {"p_1", "q_1", "p_2", "q_2"} <= names


def test_build_usage_errors(capsys):
    code, _, err = run(capsys, "build", "rFB", "--r", "2", "--s", "3")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "build", "unknown_family", "--k", "1")
    assert code == 2


def test_verify_round_trip_and_tampering(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "rDF", "--r", "1", "--s", "2")
    doc = json.loads(out)
    good = tmp_path / "good.json"
    good.write_text(dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(good))
    assert code == 0

    # swap two labels by hand: exit 1 and the offending edge is named
    doc["edges"][0]["label"], doc["edges"][5]["label"] = (
        doc["edges"][5]["label"], doc["edges"][0]["label"])
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "conflict" in err or "mismatch" in err


def test_search_fb1_document(tmp_path, capsys):
    g = new_graph(["u", "v", "w", "x"]).with_edges(
        [("u", "w", 1), ("v", "w", 2), ("x", "w", 3), ("x", "u", 4), ("x", "v", 5)])
    path = tmp_path / "fb1.json"
    path.write_text(dumps(graph_to_document(g)), encoding="utf-8")
    code, out, err = run(capsys, "search", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "value" and result["chi_la"] == 3
    assert result["lower_bound"] == result["upper_bound"] == 3


def test_search_too_large_is_usage_error(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "FB", "--k", "2")
    path = tmp_path / "fb4.json"
    path.write_text(out, encoding="utf-8")
    code, _, err = run(capsys, "search", str(path), "--max-edges", "5")
    assert code == 2 and "exceeds" in err


def test_export_dot_stable(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "FB", "--k", "1")
    path = tmp_path / "fb2.json"
    path.write_text(out, encoding="utf-8")
    code, dot1, _ = run(capsys, "export", str(path))
    assert code == 0
    code, dot2, _ = run(capsys, "export", str(path))
    assert dot1 == dot2
    assert dot1.startswith("graph G {")
    assert " -- " in dot1 and 'label="x\\n38"' in dot1  # hub sum appears


def test_build_writes_file(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    code, out, _ = run(capsys, "build", "H1", "--n", "1", "--out", str(out_file))
    assert code == 0 and out == ""
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["family"]["tag"] == "H1"


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--max-param", "3")
    assert code == 0
    assert "selftest: 0 failure(s)" in out
    code, out, _ = run(capsys, "selftest", "--max-param", "0")  # families only
    assert code == 0 and "ok   matrix 5x2k k=1..0\n" in out


P3_DOC = graph_to_document(
    new_graph(["a", "b", "c"]).with_edges([("a", "b", 1), ("b", "c", 2)]))


def _spoiled(change, base: dict = P3_DOC) -> dict:
    doc = json.loads(dumps(base))
    change(doc)
    return doc


BAD_DOCUMENTS = {
    "top_level_list.json": [P3_DOC],
    "vertex_without_degree.json": _spoiled(lambda d: d["vertices"][0].pop("degree")),
    "string_endpoint.json": _spoiled(lambda d: d["edges"][0].update(u="0")),
    "class_without_degree.json": _spoiled(lambda d: d.update(expected_colors={
        "classes": [{"value": 1, "size": 1}], "claimed_colors": 3})),
    "list_name.json": _spoiled(lambda d: d["vertices"][0].update(name=["a"])),
    "true_label.json": _spoiled(lambda d: d["edges"][0].update(label=True)),
    "repeated_name.json": _spoiled(lambda d: d["vertices"][2].update(name="a")),
    "loop_edge.json": _spoiled(lambda d: d["edges"][0].update(v=0)),
}
FB_DOC = built_to_document(families.build_family("FB", k=1))
NEGATIVE_CLAIMS = {
    "negative_claimed_colors.json":
        _spoiled(lambda d: d["expected_colors"].update(claimed_colors=-1), FB_DOC),
    "negative_size.json":
        _spoiled(lambda d: d["expected_colors"]["classes"][0].update(size=-4), FB_DOC),
}


@pytest.mark.parametrize("argv, env", [
    (["build", "FB", "--k", "1", "--out", "missing/g.json"], {}),
    (["build", "FB", "--k", "1", "--r", "2"], {}),
    (["search", "fb.json"], {"ANTIMAGIC_SEARCH_BUDGET": "abc"}),
    *[([cmd, path], {}) for cmd in ("verify", "search", "export")
      for path in ("missing.json", "notjson.json", *BAD_DOCUMENTS)],
    (["matrix", "5x2k"], {}),
    (["matrix", "5x2k", "--k", "2", "--sequences"], {}),
    *[(["verify", path], {}) for path in NEGATIVE_CLAIMS],
    *[(["search", "fb.json", "--budget", value], {}) for value in ("-1", "0", "nan", "inf")],
    *[(["search", "fb.json"], {"ANTIMAGIC_SEARCH_BUDGET": value}) for value in ("-1", "nan")],
    (["selftest", "--max-param", "-3"], {}),
    *[([cmd, "deep.json"], {}) for cmd in ("verify", "search", "export")],
    (["matrix", "5x2k", "--k", "1", "--n", "9"], {}),
    (["matrix", "6x4n", "--n", "1", "--k", "7"], {}),
])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, argv, env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notjson.json").write_text("not json {", encoding="utf-8")
    depth = 200_000  # far past the interpreter's recursion limit
    (tmp_path / "deep.json").write_text("[" * depth + "]" * depth, encoding="utf-8")
    for name, doc in {**BAD_DOCUMENTS, **NEGATIVE_CLAIMS}.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    g = new_graph(["a", "b"]).with_edges([("a", "b", 1)])
    (tmp_path / "fb.json").write_text(dumps(graph_to_document(g)), encoding="utf-8")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "search", "export"])
def test_document_above_the_size_cap_is_refused(tmp_path, monkeypatch, capsys, command):
    # the cap is lowered to the document's length, so that no test needs
    # a huge file
    text = dumps(P3_DOC)
    path = tmp_path / "p3.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", len(text) - 1)
    for source in (str(path), "-"):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out, err = run(capsys, command, source)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"more than {len(text) - 1} characters" in err
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", len(text))
    for source in (str(path), "-"):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out, _ = run(capsys, command, source)
        assert code == 0 and out


@pytest.mark.parametrize("tag", sorted(families.ACCEPTANCE_GRID))
def test_build_refuses_a_family_above_the_edge_cap(monkeypatch, capsys, tag):
    # the cap is lowered to each grid point's size, so that no test needs
    # a huge parameter, which a broken cap would really build
    def unreachable(*args):
        raise AssertionError("a matrix was generated for a family above the cap")

    for params in families.ACCEPTANCE_GRID[tag]:
        edges = families.build_family(tag, **params).graph.size
        argv = ["build", tag, *(x for p, v in params.items() for x in (f"--{p}", str(v)))]
        with monkeypatch.context() as patch:
            patch.setattr(families, "MAX_BUILD_EDGES", edges - 1)
            for name in ("matrix_5x2k", "matrix_kx10", "sequences_6x4n"):
                patch.setattr(families, name, unreachable)
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (params, edges)
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{edges} edges" in err
        with monkeypatch.context() as patch:
            patch.setattr(families, "MAX_BUILD_EDGES", edges)
            assert families.build_family(tag, **params).graph.size == edges


def test_selftest_reports_a_failing_grid_point(tmp_path, monkeypatch, capsys):
    real_build = cli.build_family

    def build_with_two_labels_swapped(tag, **params):
        built = real_build(tag, **params)
        if (tag, params) != ("FB", {"k": 1}):
            return built
        e0, e1, *rest = built.graph.edges
        edges = (e0._replace(label=e1.label), e1._replace(label=e0.label), *rest)
        return dataclasses.replace(built, graph=LabeledGraph(built.graph.names, edges))

    monkeypatch.setattr(cli, "build_family", build_with_two_labels_swapped)
    code, out, _ = run(capsys, "selftest", "--max-param", "1")
    assert code == 1
    assert "FAIL family FB {'k': 1}: " in out
    assert "FAIL family FB (10 points)" in out
    assert "ok   family FB_units (10 points)" in out
    assert out.endswith("selftest: 2 failure(s)\n")
    # the detail is the problem lines verify prints for the same document
    _, doc, _ = run(capsys, "build", "FB", "--k", "1")
    path = tmp_path / "swapped.json"
    path.write_text(doc, encoding="utf-8")
    _, _, verify_err = run(capsys, "verify", str(path))
    detail = next(line for line in out.splitlines()
                  if line.startswith("FAIL family FB {'k': 1}: "))
    assert detail == "FAIL family FB {'k': 1}: " + "; ".join(verify_err.splitlines())


def _build_with_a_label_repeated(tag, **params):
    built = families.build_family(tag, **params)
    e0, e1, *rest = built.graph.edges
    edges = (e0._replace(label=e1.label), e1, *rest)
    return dataclasses.replace(built, graph=LabeledGraph(built.graph.names, edges))


def test_failing_build_verify_prints_what_verify_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_family", _build_with_a_label_repeated)
    code, out, build_err = run(capsys, "build", "FB", "--k", "1", "--verify")
    assert code == 1
    assert build_err.startswith("labels: label 6 used more than once\nlabels: label 1 missing\n")
    assert "expected-colors mismatch: " in build_err
    path = tmp_path / "repeated.json"
    path.write_text(out, encoding="utf-8")
    code, _, verify_err = run(capsys, "verify", str(path))
    assert code == 1 and verify_err == build_err


def test_failed_check_with_an_unwritable_out_is_one_error_line(tmp_path, monkeypatch, capsys):
    # the output is written before the problem lines, so a failed write
    # is a usage error with nothing else on stderr
    g = new_graph(["a", "b"]).with_edges([("a", "b", 1)])  # both ends sum to 1
    path = tmp_path / "edge.json"
    path.write_text(dumps(graph_to_document(g)), encoding="utf-8")
    unwritable = str(tmp_path / "missing" / "r.json")
    monkeypatch.setattr(cli, "build_family", _build_with_a_label_repeated)
    for argv in (["verify", str(path)], ["build", "FB", "--k", "1", "--verify"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out and err.count("\n") >= 1
        code, out, err = run(capsys, *argv, "--out", unwritable)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv


@pytest.mark.parametrize("kind, flag, labels_per_param",
                         [("5x2k", "--k", 10), ("kx10", "--k", 10), ("6x4n", "--n", 20)])
def test_matrix_refuses_a_matrix_above_the_label_cap(monkeypatch, capsys, kind, flag,
                                                     labels_per_param):
    # as for build, the cap is lowered rather than a huge matrix requested
    def unreachable(*args):
        raise AssertionError("a matrix was generated above the cap")

    labels = 3 * labels_per_param
    with monkeypatch.context() as patch:
        patch.setattr(families, "MAX_BUILD_EDGES", labels - 1)
        for name in ("matrix_5x2k", "matrix_kx10", "matrix_6x4n"):
            patch.setattr(cli, name, unreachable)
        code, out, err = run(capsys, "matrix", kind, flag, "3", "--format", "json")
    assert code == 2 and out == ""
    assert err == (f"error: matrix {kind} would have {labels} labels, "
                   f"above the cap of {labels - 1}\n")
    monkeypatch.setattr(families, "MAX_BUILD_EDGES", labels)
    code, out, _ = run(capsys, "matrix", kind, flag, "3", "--format", "json")
    assert code == 0 and json.loads(out)["param"] == 3


def _fan_document() -> dict:
    """The 5-edge fan with its claimed coloring, so every key kind occurs."""
    g = new_graph(["u", "v", "w", "x"]).with_edges(
        [("u", "w", 1), ("v", "w", 2), ("x", "w", 3), ("x", "u", 4), ("x", "v", 5)])
    doc = graph_to_document(g)
    doc["expected_colors"] = {
        "classes": [{"value": 5, "size": 1, "degree": 2}, {"value": 7, "size": 1, "degree": 2},
                    {"value": 6, "size": 1, "degree": 3}, {"value": 12, "size": 1, "degree": 3}],
        "claimed_colors": 4, "exact": True}
    doc["verification"] = induced_coloring(g).to_json_dict()
    return json.loads(dumps(doc))


FUZZ_BASES = (_fan_document(), json.loads(dumps(P3_DOC)))
ODD_VALUES = st.one_of(st.booleans(), st.text(max_size=3), st.none(),
                       st.integers(-3, 0), st.lists(st.integers(0, 2), max_size=2))


def _paths(node):
    """Every (container, key) pair inside a document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _paths(value)


def _claims(doc) -> list:
    """The (container, key) pairs of the claimed color count and the class
    sizes in the document's expected_colors block."""
    block = doc.get("expected_colors")
    if not isinstance(block, dict):
        return []
    classes = block.get("classes")
    sized = [c for c in classes if isinstance(c, dict)] if isinstance(classes, list) else []
    return [(block, "claimed_colors"), *((c, "size") for c in sized)]


@st.composite
def mutated_documents(draw) -> dict:
    """A valid document with one or two keys dropped or retyped, an edge
    row duplicated, two edge labels swapped (still well formed), or a
    claimed class size or color count made negative."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(
            ("drop", "retype", "duplicate_edge", "swap_labels", "negative_claim")))
        edges = doc.get("edges")
        rows = [e for e in edges if isinstance(e, dict)] if isinstance(edges, list) else []
        claims = _claims(doc)
        targets = list(_paths(doc))
        if op == "duplicate_edge" and rows:
            edges.append(dict(draw(st.sampled_from(rows))))
        elif op == "swap_labels" and len(rows) >= 2:
            a, b = draw(st.permutations(rows))[:2]
            a["label"], b["label"] = b.get("label"), a.get("label")
        elif op == "negative_claim" and claims:
            node, key = draw(st.sampled_from(claims))
            node[key] = draw(st.integers(-5, -1))
        elif op in ("drop", "retype") and targets:
            node, key = draw(st.sampled_from(targets))
            if op == "drop":
                del node[key]
            else:
                node[key] = draw(ODD_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=mutated_documents(), command=st.sampled_from(("verify", "search", "export")))
def test_mutated_documents_never_crash(doc, command):
    try:
        document_to_graph(copy.deepcopy(doc))
        accepted = True
    except DocumentError:
        accepted = False
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-"])  # any exception but a handled one fails here
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or accepted
    assert accepted or (code == 2 and err.getvalue().startswith("error: "))
    negative = any(type(node.get(key)) is int and node[key] < 0 for node, key in _claims(doc))
    assert not (accepted and negative)
