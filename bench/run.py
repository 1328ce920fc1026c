#!/usr/bin/env python3
"""Benchmark of the antimagic CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds it and imports the
package from its ``src``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see bench/README.md).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = Path("bench/.run")

# Time of one pass at the commit that defined the benchmark (2-vCPU Intel
# Xeon VM at 2.1 GHz, CPython 3.11.7).  It turns --seconds into a pass
# count, so both sides of a comparison run the same ops and their
# op_tail_s is the same percentile of the same number of samples.
NOMINAL_PASS_S = {"selftest": 0.73, "split_build": 3.65, "roundtrip": 5.0, "search": 7.0}
MIN_TAIL_SAMPLES = 11   # op_tail_s needs ten samples beyond it
MAX_MEASURE_S = 120     # start no pass after this, so a run ends within 180 s
SETUP_LAUNCHES = 15
SETUP_CODE = "from antimagic.cli import build_parser; build_parser()"

WORKLOADS = ("selftest", "split_build", "roundtrip", "search")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


def run_op(main, argv: list[str]) -> tuple[int | None, float, str, str]:
    """One CLI command in-process: exit code (None if it raised), seconds,
    stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    rc: int | None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises counts as failed, the run goes on
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


class Pass:
    def __init__(self) -> None:
        self.raw: list[float] = []        # op latencies as measured
        self.latencies: list[float] = []  # the same, scaled when calibrated
        self.failures: list[str] = []
        self.timeouts = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, main, digests, check_op, tracer=None, calibrate=False) -> Pass:
    """Every op once, in order.  With calibrate, the kernel runs before the
    first op and after each one, and the latencies are scaled by
    hostspeed.scale.  wall_s counts only the commands: the kernel, the
    collections and the output checks are outside it."""
    result = Pass()
    kernels = [hostspeed.kernel_seconds()] if calibrate else []
    for op in ops:
        gc.collect()
        if tracer is not None:
            tracer.op, tracer.op_key = tracer.op + 1, op.key
            tracer.install()
        try:
            rc, seconds, stdout, stderr = run_op(main, list(op.argv))
        finally:
            if tracer is not None:
                tracer.remove()
        result.raw.append(seconds)
        if calibrate:
            gc.collect()
            kernels.append(hostspeed.kernel_seconds())
        verdict = check_op(op, rc, stdout, stderr, digests)
        if verdict == "timeout":
            result.timeouts += 1
        elif verdict is not None:
            result.failures.append(f"{' '.join(op.argv)}: {verdict}")
    result.latencies = hostspeed.scale(result.raw, kernels) if calibrate else result.raw
    return result


def setup_seconds() -> tuple[list[float], list[float]]:
    """Fresh interpreters that import antimagic.cli and build its parser:
    their times scaled like op latencies, and as measured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    raw = []
    kernels = [hostspeed.kernel_seconds()]
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        raw.append(time.perf_counter() - start)
        kernels.append(hostspeed.kernel_seconds())
    # the first launch writes bytecode caches and is not counted
    return hostspeed.scale(raw, kernels)[1:], raw[1:]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_SAMPLES], 100.0 * (n - 10) / n


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def probe_growth(build_family, points: dict, growth_tags) -> dict[str, float]:
    """Per family: build time per edge at the larger size m2, and the growth
    exponent log(t2/t1) / log(m2/m1).  The two sizes alternate three times,
    so a drift in host speed hits both; each value is a median of three."""
    metrics = {}
    for tag, sizes in points.items():
        times: list[list[float]] = [[], []]
        edges = [0, 0]
        for _ in range(3):
            for i, params in enumerate(sizes):
                gc.collect()
                start = time.perf_counter()
                built = build_family(tag, **params)
                times[i].append(time.perf_counter() - start)
                edges[i] = built.graph.size
        m1, m2 = edges
        metrics[f"families.us_per_edge.{tag}"] = statistics.median(times[1]) / m2 * 1e6
        if tag in growth_tags:
            ratio = statistics.median(t2 / t1 for t1, t2 in zip(*times))
            metrics[f"families.growth_exp.{tag}"] = math.log(ratio) / math.log(m2 / m1)
    return metrics


def pass_count(workload: str, seconds: float, ops_per_pass: int) -> int:
    return max(math.ceil(MIN_TAIL_SAMPLES / ops_per_pass),
               round(seconds / NOMINAL_PASS_S[workload]))


def measure_end_to_end(ops, passes: int, main, digests, check_op) -> tuple:
    """Times are scaled to the reference host (see hostspeed.py); the
    detail line gives them as measured too."""
    setup, setup_raw = setup_seconds()
    untraced = []
    start = time.perf_counter()
    for _ in range(passes):
        if time.perf_counter() - start > MAX_MEASURE_S:
            break
        untraced.append(run_pass(ops, main, digests, check_op, calibrate=True))
    latencies = [t for p in untraced for t in p.latencies]
    raw = [t for p in untraced for t in p.raw]
    op_tail, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in untraced),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": op_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(untraced), "op_samples": len(latencies),
              "op_tail_percentile": tail_pct,
              "measured": {"setup_s": statistics.median(setup_raw),
                           "wall_s": statistics.median(sum(p.raw) for p in untraced),
                           "op_p50_s": statistics.median(raw), "op_tail_s": tail(raw)[0]},
              "host_speed": statistics.median(s / r for s, r in zip(latencies, raw))}
    return untraced, metrics, END_TO_END_UNITS, detail


def measure_per_layer(ops, passes: int, main, digests, check_op, spans_file: Path) -> tuple:
    """Untraced and traced passes alternate, half the pass count each; the
    per-layer values are medians over the traced passes."""
    import tracing
    import workloads as wl
    from antimagic.families import build_family

    tracer = tracing.Tracer()
    traced_main = tracer.root(main)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    for _ in range(math.ceil(passes / 2)):
        if time.perf_counter() - start > MAX_MEASURE_S:
            break
        untraced.append(run_pass(ops, main, digests, check_op))
        first = len(tracer.spans)
        tracer.counts.clear()
        p = run_pass(ops, traced_main, digests, check_op, tracer)
        traced.append(p)
        layers.append(tracing.pass_metrics(tracer.spans, first, tracer.counts,
                                           len(ops), p.timeouts))
    tracer.write(spans_file)
    untraced_wall = statistics.median(p.wall for p in untraced)
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - untraced_wall
    metrics.update(probe_growth(build_family, wl.PROBE, wl.GROWTH_FAMILIES))
    detail = {"passes": len(untraced), "traced_passes": len(traced),
              "untraced_wall_s": untraced_wall, "spans_file": str(spans_file)}
    return untraced + traced, metrics, layer_units(metrics), detail


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import antimagic.cli
    except ImportError as exc:
        print(f"error: cannot import antimagic from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    os.chdir(ROOT)
    os.environ.pop("ANTIMAGIC_SEARCH_BUDGET", None)  # budgets come from the op list
    shutil.rmtree(wl.WORK, ignore_errors=True)
    wl.WORK.mkdir(parents=True)
    main = antimagic.cli.main
    digests = wl.load_digests()

    def build_doc(tag: str) -> dict:
        rc, _, stdout, stderr = run_op(main, ["build", tag, "--k", "1"])
        if rc != 0:
            raise RuntimeError(f"build {tag} --k 1 failed: {stderr}")
        return json.loads(stdout)

    ops = wl.make_ops(args.workload, random.Random(args.seed), build_doc)
    passes = pass_count(args.workload, args.seconds, len(ops))
    run_pass(wl.make_ops(args.workload, None, build_doc), main, digests,
             lambda *_: None, calibrate=True)  # warm-up at small sizes, unchecked
    if args.trace:
        spans_file = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        measured, metrics, units, detail = measure_per_layer(
            ops, passes, main, digests, wl.check_op, spans_file)
    else:
        measured, metrics, units, detail = measure_end_to_end(
            ops, passes, main, digests, wl.check_op)
    shutil.rmtree(wl.WORK, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in measured)
    failures = [f for p in measured for f in p.failures]
    timeouts = sum(p.timeouts for p in measured)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(),
        "search_budget_s": wl.SEARCH_BUDGET,
        "ops": [{"argv": " ".join(op.argv), "edges": op.edges} for op in ops],
    }
    print(json.dumps({"provenance": provenance, **detail}))
    print(f"{args.workload}: fail_ratio {len(failures)}/{attempted}"
          f" = {len(failures) / attempted:g}, timeout_ratio {timeouts}/{attempted}"
          f" = {timeouts / attempted:g}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  op_tail_s is p{detail['op_tail_percentile']:.0f}"
              f" of {detail['op_samples']} op latencies")
    for failure in failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_units(metrics: dict) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: units[name] for name in metrics}


def run_all(args) -> int:
    """Each workload in its own process, so no peak leaks into another's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[1:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
