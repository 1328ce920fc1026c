"""CLI surface: commands, exit codes, deterministic output."""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import io
import json
import re
import resource
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic.cli as cli
import antimagic.document as doc_mod
import antimagic.families as families
import antimagic.matrices as matrices
from antimagic.cli import main
from antimagic.document import (
    DocumentError,
    built_to_document,
    document_to_graph,
    dumps,
    graph_to_document,
    report_to_document,
    rows_csv,
)
from antimagic.graph import LabeledGraph
from antimagic.matrices import matrix_6x4n, sequences_6x4n, validate
from antimagic.search import FRAME_MARGIN
from antimagic.verify import induced_coloring
from golden import GRID_5X2K_K6, SEQUENCES_N6
from helpers import by_name, run_python


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
        tampered = m._replace(sequences=tuple(map(tuple, seqs)))
    else:
        rows = [list(r) for r in m.grid]
        rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
        tampered = m._replace(grid=tuple(map(tuple, rows)))
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
    g = by_name(["u", "v", "w", "x"],
                [("u", "w", 1), ("v", "w", 2), ("x", "w", 3), ("x", "u", 4), ("x", "v", 5)])
    path = tmp_path / "fb1.json"
    path.write_text(dumps(graph_to_document(g)), encoding="utf-8")
    code, out, err = run(capsys, "search", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "value" and result["chi_la"] == 3
    assert result["lower_bound"] == result["upper_bound"] == 3


def test_search_prints_the_same_bytes_each_run(tmp_path, capsys):
    path = tmp_path / "fb.json"
    path.write_text(dumps(built_to_document(families.build_family("FB", k=1))),
                    encoding="utf-8")
    first = run(capsys, "search", str(path))
    assert first[0] == 0 and json.loads(first[1])["chi_la"] == 3
    assert run(capsys, "search", str(path)) == first


def test_search_too_large_is_usage_error(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "FB", "--k", "2")
    path = tmp_path / "fb4.json"
    path.write_text(out, encoding="utf-8")
    code, _, err = run(capsys, "search", str(path), "--max-edges", "5")
    assert code == 2
    assert err == "error: 20 edges exceeds the search's edge cap of 5 (--max-edges)\n"
    # a negative cap is refused before the document is read
    code, _, err = run(capsys, "search", str(tmp_path / "missing.json"), "--max-edges", "-1")
    assert code == 2 and err == "error: --max-edges must be at least 0, not -1\n"


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


def test_a_failed_write_leaves_out_as_it_was(tmp_path):
    # a text UTF-8 cannot encode (a lone surrogate) fails before --out is opened
    old = tmp_path / "old.dot"
    old.write_bytes(b"graph G {\n}\n")
    with pytest.raises(UnicodeEncodeError):
        cli._emit("graph G {\n  v0 [label=\"\ud800\"];\n}\n", str(old))
    assert old.read_bytes() == b"graph G {\n}\n"


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--max-param", "3")
    assert code == 0
    assert "selftest: 0 failure(s)" in out
    code, out, _ = run(capsys, "selftest", "--max-param", "0")  # families only
    assert code == 0 and "ok   matrix 5x2k k=1..0\n" in out


def test_selftest_refuses_a_max_param_above_a_cap_before_any_output(monkeypatch, capsys):
    # under a cap of 100 labels 5x2k and kx10 take k = 6, 6x4n refuses n = 6
    monkeypatch.setattr(matrices, "MAX_LABELS", 100)
    code, out, err = run(capsys, "selftest", "--max-param", "6")
    assert code == 2 and out == ""
    assert err == ("error: matrix 6x4n with n = 6 would have 120 labels, "
                   "above the cap of 100\n")


def test_selftest_reports_a_matrix_that_breaks_an_identity(monkeypatch, capsys):
    def swapped_at_2(k):
        m = matrices.matrix_5x2k(k)
        if k != 2:
            return m
        (a, b, *rest), *rows = m.grid  # two columns' sums of rows 1-3 change
        return m._replace(grid=((b, a, *rest), *rows))

    monkeypatch.setattr(cli, "matrix_5x2k", swapped_at_2)
    code, out, _ = run(capsys, "selftest", "--max-param", "3")
    assert code == 1
    # each failed check as name: detail, joined as a failing family point's are
    assert ("FAIL matrix 5x2k k=2: column_sum_rows_1_3: [1, 2] do not sum to 27; "
            "column_sum_rows_1_4: [1, 2] do not sum to 21\n") in out
    assert "FAIL matrix 5x2k k=1..3: " in out
    assert "FAIL matrix 5x2k k=1:" not in out and "FAIL matrix 5x2k k=3:" not in out
    assert "ok   sequences 6x4n n=1..3\n" in out
    assert out.endswith("selftest: 2 failure(s)\n")


P3_DOC = json.loads(dumps(graph_to_document(
    by_name(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)]))))


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
# a lone surrogate is a JSON string, but no UTF-8 text
SURROGATE_NAME = {"surrogate_name.json":
                  _spoiled(lambda d: d["vertices"][1].update(name="\ud800"))}
FB_DOC = built_to_document(families.build_family("FB", k=1))
NEGATIVE_CLAIMS = {
    "negative_claimed_colors.json":
        _spoiled(lambda d: d["expected_colors"].update(claimed_colors=-1), FB_DOC),
    "negative_size.json":
        _spoiled(lambda d: d["expected_colors"]["classes"][0].update(size=-4), FB_DOC),
}


# documents that are not UTF-8 JSON: malformed, empty, not UTF-8, nested
# too deeply, or holding an int with more digits than the interpreter reads
UNREADABLE = ("notjson.json", "empty.json", "latin1.json", "deep.json", "bignum.json")


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
    (["search", "fb.json", "--max-edges", "-1"], {}),
    (["search", "fb.json", "--max-edges", "0"], {}),
    *[([cmd, path], {}) for cmd in ("verify", "search", "export")
      for path in ("empty.json", "latin1.json")],
    *[(["search", path, "--max-edges", "2000"], {}) for path in ("star.json", "forest.json")],
    *[([cmd, "bignum.json"], {}) for cmd in ("verify", "search", "export")],
    (["matrix", "5x2k", "--k", "1", "--out", ""], {}),
    (["build", "FB", "--k", "1", "--out", ""], {}),
    *[([cmd, *SURROGATE_NAME], {}) for cmd in ("verify", "search", "export")],
])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, argv, env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notjson.json").write_text("not json {", encoding="utf-8")
    (tmp_path / "empty.json").write_text("", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes('{"name": "\xff"}'.encode("latin-1"))
    depth = 200_000  # far past the interpreter's recursion limit
    (tmp_path / "deep.json").write_text("[" * depth + "]" * depth, encoding="utf-8")
    (tmp_path / "bignum.json").write_text(
        dumps(P3_DOC).replace('"label": 1', '"label": 1' + "0" * 4999), encoding="utf-8")
    for name, doc in {**BAD_DOCUMENTS, **NEGATIVE_CLAIMS, **SURROGATE_NAME}.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    g = by_name(["a", "b"], [("a", "b", 1)])
    (tmp_path / "fb.json").write_text(dumps(graph_to_document(g)), encoding="utf-8")
    # too deep to search: a star with one edge more than the depth
    # ceiling, and paths of 3 edges, no more edges than it but more vertices
    ceiling = sys.getrecursionlimit() - FRAME_MARGIN
    leaves = [f"l{i}" for i in range(ceiling + 1)]
    star = by_name(["hub", *leaves], [("hub", x, i) for i, x in enumerate(leaves, 1)])
    count = ceiling // 3
    forest = by_name([f"p{j}_{i}" for j in range(count) for i in range(4)],
                     [(f"p{j}_{i}", f"p{j}_{i + 1}", 3 * j + i + 1)
                      for j in range(count) for i in range(3)])
    for name, deep in (("star.json", star), ("forest.json", forest)):
        (tmp_path / name).write_text(dumps(graph_to_document(deep)), encoding="utf-8")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if argv[-1] in UNREADABLE:  # a document that is not JSON names its file
        assert err.startswith(f"error: {argv[-1]}: ")
    if env:  # an error in the environment names its variable
        assert err.startswith(f"error: {cli.BUDGET_ENV_VAR}: ")


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


def test_a_small_document_is_read_in_little_memory(tmp_path):
    # reading up to the cap in one call allocated a buffer of the cap's
    # size, ~190 MB, for every document, however short
    path = tmp_path / "p3.json"
    path.write_text(dumps(P3_DOC), encoding="utf-8")
    tracemalloc.start()
    try:
        assert cli._load_document(str(path)) == json.loads(dumps(P3_DOC))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_document_longer_than_one_chunk_is_read_whole(tmp_path, monkeypatch, capsys):
    # a chunk of 7 characters splits the document many times over, and
    # the cap still counts the characters of all chunks together
    text = dumps(P3_DOC)
    path = tmp_path / "p3.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "READ_CHUNK_CHARS", 7)
    for source in (str(path), "-"):
        with mock.patch("sys.stdin", io.StringIO(text)):
            assert cli._load_document(source) == json.loads(text)
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", len(text) - 1)
    for source in (str(path), "-"):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out, err = run(capsys, "export", source)
        assert code == 2 and out == ""
        assert f"more than {len(text) - 1} characters" in err


def _unreachable(*args):
    raise AssertionError("a matrix or graph was made above the cap")


@pytest.mark.parametrize("tag", sorted(families.FAMILIES))
def test_build_refuses_a_family_above_the_edge_cap(monkeypatch, capsys, tag):
    # the cap is lowered to each grid point's size, so that no test needs
    # a huge parameter, which a broken cap would really build; each family
    # has as many edges as its one matrix has labels
    for params in families.FAMILIES[tag][1]:
        edges = families.build_family(tag, **params).graph.size
        argv = ["build", tag, *(x for p, v in params.items() for x in (f"--{p}", str(v)))]
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "MAX_LABELS", edges - 1)
            patch.setattr(matrices, "LabelMatrix", _unreachable)
            patch.setattr(families, "new_graph", _unreachable)
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (params, edges)
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f" would have {edges} labels, above the cap of {edges - 1}\n" in err
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "MAX_LABELS", edges)
            assert families.build_family(tag, **params).graph.size == edges


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


RS_TAGS = sorted(tag for tag, (_, grid) in families.FAMILIES.items()
                 if {"r", "s"} <= set(grid[0]))


@pytest.mark.parametrize("tag", [*RS_TAGS, "FB", "nC482", "kD82"])
def test_build_refuses_huge_parameters_before_any_group_list(tag):
    # r, k or n = 10^9 with the real cap: a builder that made an O(k) list
    # of names or groups before the size check would run out of 1 GiB or
    # of time
    if tag in RS_TAGS:
        r, s = (999_999_999, 3) if tag == "OddKH" else (10**9, 2)  # OddKH: rs odd
        argv = ["build", tag, "--r", str(r), "--s", str(s)]
        if tag == "Hm_rs":
            argv += ["--m", "1"]
    else:
        argv = ["build", tag, "--n" if tag == "nC482" else "--k", str(10**9)]
    proc = run_python("-m", "antimagic.cli", *argv, timeout=5,
                      preexec_fn=_limit_address_space)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert re.fullmatch(r"error: matrix (5x2k|kx10|6x4n) with [kn] = \d+ would have \d+ "
                        r"labels, above the cap of 1000000\n", proc.stderr), proc.stderr


def test_selftest_reports_a_failing_grid_point(tmp_path, monkeypatch, capsys):
    real_build = cli.build_family

    def build_with_two_labels_swapped(tag, **params):
        built = real_build(tag, **params)
        if (tag, params) != ("FB", {"k": 1}):
            return built
        (u0, v0, label0), (u1, v1, label1), *rest = built.graph.edges
        edges = ((u0, v0, label1), (u1, v1, label0), *rest)
        return built._replace(graph=LabeledGraph(built.graph.names, edges))

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
    (u0, v0, _), e1, *rest = built.graph.edges
    edges = ((u0, v0, e1[2]), e1, *rest)
    return built._replace(graph=LabeledGraph(built.graph.names, edges))


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
    g = by_name(["a", "b"], [("a", "b", 1)])  # both ends sum to 1
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


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys, enabled):
    g = by_name(["a", "b"], [("a", "b", 1)])  # both ends sum to 1
    path = tmp_path / "edge.json"
    path.write_text(dumps(graph_to_document(g)), encoding="utf-8")
    during = []

    def raising(args):
        during.append(gc.isenabled())
        raise RuntimeError("a command that fails")

    monkeypatch.setattr(cli, "cmd_export", raising)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, want in ((["matrix", "5x2k", "--k", "1"], 0), (["verify", str(path)], 1),
                           (["matrix", "5x2k"], 2)):
            assert main(argv) == want
            assert gc.isenabled() is enabled, argv
        with pytest.raises(SystemExit):  # a usage error from the parser
            main(["matrix", "9x9"])
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError):
            main(["export", str(path)])
        assert gc.isenabled() is enabled and during == [False]
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(parser, **kwargs):  # called once per parser built
        built.append(parser)
        return add_subparsers(parser, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    try:
        for argv in (["matrix", "5x2k", "--k", "1"], ["matrix", "kx10", "--k", "1"],
                     ["selftest", "--max-param", "-3"]):
            main(argv)
        with pytest.raises(SystemExit):
            main(["matrix", "9x9"])
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def _outcome(capsys, argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_a_reused_parser_gives_what_a_fresh_one_gives(tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(dumps(P3_DOC), encoding="utf-8")
    doc = str(path)
    argvs = [["matrix", "6x4n", "--n", "2", "--sequences"],
             ["matrix", "5x2k", "--k", "2", "--format", "json", "--validate"],
             ["build", "FB", "--k", "1", "--verify"], ["build", "rDF", "--r", "2", "--s", "2"],
             ["verify", doc], ["search", doc], ["search", doc, "--budget", "60"],
             ["export", doc, "--format", "dot"], ["selftest", "--max-param", "1"],
             ["matrix", "9x9"], ["selftest", "--max-param", "-3"]]
    fresh = {}
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh[tuple(argv)] = _outcome(capsys, argv)
    assert fresh[("matrix", "9x9")][0] == 2 and fresh[("selftest", "--max-param", "-3")][0] == 2
    cli.build_parser.cache_clear()
    for argv in [*argvs, *reversed(argvs)]:
        assert _outcome(capsys, argv) == fresh[tuple(argv)], argv


def test_a_command_replaced_after_the_first_call_runs(monkeypatch, capsys):
    assert main(["matrix", "5x2k", "--k", "1"]) == 0  # the parser is built by now
    ran = []
    monkeypatch.setattr(cli, "cmd_matrix", lambda args: ran.append(args.kind) or 7)
    assert main(["matrix", "kx10", "--k", "1"]) == 7 and ran == ["kx10"]
    capsys.readouterr()


def test_build_out_writes_the_text_dumps_returned(tmp_path, monkeypatch, capsys):
    # the benchmark's tracer times these two module attributes as the
    # document.todoc and document.dump spans
    made, dumped = [], []
    to_document, to_text = doc_mod.built_to_document, doc_mod.dumps

    def built_to_document(*args):
        made.append(to_document(*args))
        return made[-1]

    def dumps_spy(doc):
        dumped.append((doc, to_text(doc)))
        return dumped[-1][1]

    monkeypatch.setattr(doc_mod, "built_to_document", built_to_document)
    monkeypatch.setattr(doc_mod, "dumps", dumps_spy)
    out = tmp_path / "fb.json"
    code, stdout, _ = run(capsys, "build", "FB", "--k", "2", "--verify", "--out", str(out))
    assert code == 0 and stdout == ""
    assert len(made) == 1 and len(dumped) == 1 and dumped[0][0] is made[0]
    assert out.read_text(encoding="utf-8") == dumped[0][1]


@pytest.mark.parametrize("kind, flag, labels_per_param",
                         [("5x2k", "--k", 10), ("kx10", "--k", 10), ("6x4n", "--n", 20)])
def test_matrix_refuses_a_matrix_above_the_label_cap(monkeypatch, capsys, kind, flag,
                                                     labels_per_param):
    # as for build, the cap is lowered rather than a huge matrix requested
    labels = 3 * labels_per_param
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "MAX_LABELS", labels - 1)
        patch.setattr(matrices, "LabelMatrix", _unreachable)
        code, out, err = run(capsys, "matrix", kind, flag, "3", "--format", "json")
    assert code == 2 and out == ""
    assert err == (f"error: matrix {kind} with {flag[2:]} = 3 would have {labels} labels, "
                   f"above the cap of {labels - 1}\n")
    monkeypatch.setattr(matrices, "MAX_LABELS", labels)
    code, out, _ = run(capsys, "matrix", kind, flag, "3", "--format", "json")
    assert code == 0 and json.loads(out)["param"] == 3


def _fan_document() -> dict:
    """The 5-edge fan with its claimed coloring, so every key kind occurs."""
    g = by_name(["u", "v", "w", "x"],
                [("u", "w", 1), ("v", "w", 2), ("x", "w", 3), ("x", "u", 4), ("x", "v", 5)])
    doc = graph_to_document(g)
    doc["expected_colors"] = {
        "classes": [{"value": 5, "size": 1, "degree": 2}, {"value": 7, "size": 1, "degree": 2},
                    {"value": 6, "size": 1, "degree": 3}, {"value": 12, "size": 1, "degree": 3}],
        "claimed_colors": 4, "exact": True}
    doc["verification"] = report_to_document(induced_coloring(g))
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
