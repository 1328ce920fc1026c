"""Same bytes out: CLI output against the benchmark's recorded digests.

Runs, in-process, every `build TAG ... --verify` point of the benchmark's
split_build workload, `selftest`, and the build, verify and export triple
of the first roundtrip point of every roundtrip family, and compares the
sha256 of each output with bench/digests.json.  The ops come from bench/workloads.py, so the argv
and digest keys are the benchmark's own; roundtrip files go to a
temporary directory, and nothing is written under bench/.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from antimagic.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))["digests"]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
SPLIT_OPS = [op for tag, (edges, points, _) in workloads.SPLIT_BUILD.items()
             for p in points for op in workloads.split_ops(tag, p, edges)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("op", [workloads.Op(("selftest",), "selftest", 0), *SPLIT_OPS],
                         ids=lambda op: op.key)
def test_stdout_matches_the_recorded_digest(capsys, op):
    assert main(list(op.argv)) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == DIGESTS[op.key]


def test_roundtrip_files_match_the_recorded_digests(tmp_path, capsys):
    ops = [op for tag, (edges, points, _) in workloads.ROUNDTRIP.items()
           for op in workloads.roundtrip_ops(tag, points[0], edges)]
    assert len(ops) >= 24  # a build, verify and export per family
    for op in ops:
        # the benchmark's paths point under bench/; keep only the file names
        argv = [str(tmp_path / Path(a).name) if Path(a).parent == workloads.WORK else a
                for a in op.argv]
        assert main(argv) == 0, op.key
        assert capsys.readouterr().out == ""
        assert _sha256((tmp_path / Path(op.out).name).read_bytes()) == DIGESTS[op.key], op.key
