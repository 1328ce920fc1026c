"""Host-speed calibration for the end-to-end timings.

On a shared host the CPU speed seen by one process drifts by up to
about 20 % over tens of seconds, while the work done stays fixed. The
benchmark times this fixed pure-Python kernel between consecutive ops
and set-up launches. It then scales each latency by ``KERNEL_REF_S``
over the mean of the four kernel times nearest it, two before and two
after, so every end-to-end time is in seconds of a host on which the
kernel takes ``KERNEL_REF_S``. The kernel uses
no antimagic code, so a change to the program cannot move it. Its mix
is graph surgery with string-keyed dicts, summing, JSON output and a
small backtracking search, like the program's. Over ten 20-second runs
per workload, the interquartile range of the scaled ``wall_s`` was 3-5 %
of its median, against 15-25 % for the times as measured.
"""

from __future__ import annotations

import json
import time

# About the median kernel time on the host that defined the benchmark
# (2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11.7).
KERNEL_REF_S = 0.040


def _graph_work() -> int:
    n = 1500
    names = [f"u_{i}_{i % 8}" for i in range(n)]
    ids = {nm: i for i, nm in enumerate(names)}
    edges = [(ids[names[i]], ids[names[(i * 7 + 3) % n]], i + 1) for i in range(n)]
    merged = [(min(u // 2, v // 2), max(u // 2, v // 2), label) for u, v, label in edges]
    sums = [0] * n
    for u, v, label in merged:
        sums[u] += label
        sums[v] += label
    classes: dict[int, list[str]] = {}
    for vid, s in enumerate(sums):
        classes.setdefault(s, []).append(names[vid])
    doc = {"edges": [{"u": u, "v": v, "label": label} for u, v, label in merged],
           "classes": {str(k): sorted(v) for k, v in classes.items()}}
    return len(json.dumps(doc, sort_keys=True))


def _search_work(m: int = 7) -> int:
    """Every arrangement of m labels, by backtracking over free labels."""
    used = [False] * (m + 1)
    sums = [0] * 8
    nodes = 0

    def place(depth: int) -> None:
        nonlocal nodes
        for label in range(1, m + 1):
            if used[label]:
                continue
            nodes += 1
            used[label] = True
            sums[depth % 8] += label
            if depth + 1 < m:
                place(depth + 1)
            used[label] = False
            sums[depth % 8] -= label

    place(0)
    return nodes


def kernel_seconds() -> float:
    """Time of one run of the calibration kernel."""
    start = time.perf_counter()
    for _ in range(5):
        _graph_work()
    _search_work()
    return time.perf_counter() - start


def scale(latencies: list[float], kernels: list[float]) -> list[float]:
    """Latencies in reference-host seconds.  ``kernels[i]`` ran just before
    latency i and ``kernels[i + 1]`` just after it; each latency is scaled by
    the mean of the kernel times kernels[i - 1 : i + 3], fewer at the ends."""
    scaled = []
    for i, seconds in enumerate(latencies):
        near = kernels[max(0, i - 1):i + 3]
        scaled.append(seconds * KERNEL_REF_S * len(near) / sum(near))
    return scaled
