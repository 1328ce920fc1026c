"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import fnmatch
import json
import random
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from antimagic.cli import main  # noqa: E402


@pytest.fixture
def workdir(monkeypatch):
    """A work directory of the tests' own, so a benchmark run in the same
    checkout keeps its inputs."""
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(wl, "WORK", run.RUN_DIR / "test-work")
    wl.WORK.mkdir(parents=True, exist_ok=True)
    return wl.WORK


def _swap_two_labels(path: Path) -> None:
    doc = json.loads(path.read_text())
    edges = doc["edges"]
    edges[0]["label"], edges[1]["label"] = edges[1]["label"], edges[0]["label"]
    path.write_text(json.dumps(doc))


def test_swapped_labels_count_as_failure(workdir):
    build, verify, export = wl.roundtrip_ops("FB", {"k": 3}, 30)
    digests = {}
    for op in (build, verify, export):
        rc, _, stdout, _ = run.run_op(main, list(op.argv))
        assert rc == 0
        digests[op.key] = wl.sha256(wl.op_output(op, stdout))
    for op in (verify, export):
        rc, _, stdout, stderr = run.run_op(main, list(op.argv))
        assert wl.check_op(op, rc, stdout, stderr, digests) is None

    _swap_two_labels(Path(build.out))
    outcome = run.run_pass([verify, export], main, digests, wl.check_op)
    assert len(outcome.failures) == 2 and outcome.timeouts == 0


def _search(op):
    rc, _, stdout, stderr = run.run_op(main, list(op.argv))
    return rc, stdout, stderr


def test_search_witness_is_rechecked(workdir):
    def build_doc(tag):
        return json.loads(_search(wl.Op(("build", tag, "--k", "1"), "", 0))[1])

    op = next(o for o in wl.make_ops("search", random.Random(3), build_doc)
              if o.key == "kC82_k1")
    rc, stdout, stderr = _search(op)
    assert wl.check_op(op, rc, stdout, stderr, {}) is None

    result = json.loads(stdout)
    witness = result["witness"]
    witness[0]["label"], witness[1]["label"] = witness[1]["label"], witness[0]["label"]
    assert wl.check_op(op, rc, json.dumps(result), stderr, {}) is not None
    result["chi_la"] = 4
    assert wl.check_op(op, rc, json.dumps(result), stderr, {}) is not None


def test_only_the_budgeted_search_may_time_out():
    stdout = json.dumps({"status": "timeout", "chi_la": None, "witness": None})
    allowed = wl.Op(("search", "x", "--budget", "1"), wl.TIMEOUT_GRAPH, 11)
    other = wl.Op(("search", "x"), "K1_9", 9)
    assert wl.check_op(allowed, 1, stdout, "", {}) == "timeout"
    assert wl.check_op(other, 1, stdout, "", {}) not in (None, "timeout")


def test_a_raising_op_fails(workdir):
    op = wl.Op(("verify", str(wl.WORK / "missing.json")), "verify missing", 0)

    def boom(argv):
        raise RuntimeError("boom")

    rc, _, stdout, stderr = run.run_op(boom, list(op.argv))
    assert rc is None and "boom" in wl.check_op(op, rc, stdout, stderr, {})


def test_seed_fixes_the_op_list():
    def ops(seed):
        return [o.argv for w in ("split_build", "roundtrip")
                for o in wl.make_ops(w, random.Random(seed), None)]

    assert ops(5) == ops(5)
    assert ops(5) != ops(6)


def test_every_choosable_output_has_a_digest():
    keys = {op.key for op in wl.every_digest_op()}
    assert keys == set(wl.load_digests())


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    reported = set(tracing.pass_metrics([], 0, Counter(), 1, 0)) | {"trace.overhead_s"}
    reported |= {f"families.us_per_edge.{t}" for t in wl.PROBE}
    reported |= {f"families.growth_exp.{t}" for t in wl.GROWTH_FAMILIES}
    assert sorted(layer_names) == sorted(reported)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    patterns = [p for group in layer_map["groups"] for p in group["layer_metrics"]]
    for name in layer_names:
        assert any(fnmatch.fnmatchcase(name, p) for p in patterns), name
    for group in layer_map["groups"]:
        for workload, metrics in group["moves"].items():
            assert workload in run.WORKLOADS and set(metrics) <= set(run.END_TO_END_UNITS)


def test_scale_uses_the_nearest_kernel_times():
    ref = hostspeed.KERNEL_REF_S
    assert hostspeed.scale([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    slow = hostspeed.scale([1.0, 1.0, 1.0, 1.0], [2 * ref] * 5)
    assert all(abs(t - 0.5) < 1e-12 for t in slow)
    # op 0 sees kernels 0..2, op 3 sees kernels 2..4
    scaled = hostspeed.scale([1.0] * 4, [ref, ref, ref, 2 * ref, 2 * ref])
    assert scaled[0] == 1.0 and abs(scaled[3] - 0.6) < 1e-12
