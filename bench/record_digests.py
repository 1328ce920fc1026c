#!/usr/bin/env python3
"""Record the sha256 of every build, verify, export and selftest output the
benchmark can ask for, into bench/digests.json.

    python3 bench/record_digests.py

Run it only at a commit whose outputs are known good: the benchmark
counts every later mismatch as a failed op.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, git_commit, run_op

sys.path.insert(0, str(ROOT / "src"))

import antimagic.cli  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    shutil.rmtree(wl.WORK, ignore_errors=True)
    wl.WORK.mkdir(parents=True)
    digests = {}
    for op in wl.every_digest_op():
        rc, seconds, stdout, stderr = run_op(antimagic.cli.main, list(op.argv))
        if rc != 0 or "Traceback" in stderr:
            print(f"error: {' '.join(op.argv)} exited {rc}: {stderr}", file=sys.stderr)
            return 1
        output = wl.op_output(op, stdout)
        if op.command == "build" and len(json.loads(output)["edges"]) != op.edges:
            print(f"error: {op.key} does not have {op.edges} edges", file=sys.stderr)
            return 1
        digests[op.key] = wl.sha256(output)
        print(f"{seconds:7.3f} s  {op.key}")
    shutil.rmtree(wl.WORK, ignore_errors=True)
    record = {"commit": git_commit(), "digests": digests}
    wl.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {wl.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
