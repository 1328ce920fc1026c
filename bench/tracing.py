"""Spans around the calls into each antimagic layer, recorded from outside.

The tracer swaps module attributes for timing wrappers under the names
their callers look them up by (``antimagic.families.split_vertex``,
``antimagic.cli.induced_coloring`` ...), so the package is unchanged and
untraced runs pay nothing.  Each span records its op, parent span, name,
start and end; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from functools import cached_property
from pathlib import Path
from time import perf_counter_ns

import antimagic.cli as cli
import antimagic.document as document
import antimagic.families as families
import antimagic.graph as graph
import antimagic.search as search
import antimagic.verify as verify

from workloads import SEARCH_CHI


def _cells(tracer: "Tracer", args, result) -> None:
    rows = result.grid if hasattr(result, "grid") else result
    tracer.counts["matrices.cells"] += sum(len(r) for r in rows)


def _rewritten(tracer: "Tracer", args, result) -> None:
    tracer.counts["graph.edges_rewritten"] += args[0].size


def _dumped(tracer: "Tracer", args, result) -> None:
    tracer.counts["document.dump_bytes"] += len(result.encode("utf-8"))


def _searched(tracer: "Tracer", args, result) -> None:
    tracer.counts["search.nodes"] += result.stats.nodes
    tracer.counts["search.prunes"] += result.stats.prunes
    if result.status == search.STATUS_VALUE:
        tracer.counts["search.nodes_to_proof." + tracer.op_key] += result.stats.nodes


# (owner, attribute, span name, counter hook).  A function imported into
# several modules is wrapped under each name its callers use.
_GEN = ("matrix_5x2k", "matrix_kx10", "sequences_6x4n")
TARGETS = [
    (cli, "_load_document", "cli.load", None),
    (cli, "build_family", "families.build", None),
    (cli, "induced_coloring", "verify.coloring", None),
    (cli, "check_expected", "verify.check", None),
    (cli, "chi_la_exact", "search.run", _searched),
    (cli, "validate", "matrices.validate", None),
    (cli, "validate_6x4n", "matrices.validate", None),
    *[(cli, name, "matrices.gen", _cells) for name in _GEN],
    *[(families, name, "matrices.gen", _cells) for name in _GEN],
    (families, "split_vertex", "graph.split", _rewritten),
    (families, "apply_merge", "graph.merge", _rewritten),
    (graph.LabeledGraph, "with_edges", "graph.with_edges", None),
    (graph, "is_bipartite", "graph.bipartite", None),
    (verify, "is_bipartite", "graph.bipartite", None),
    (verify, "induced_coloring", "verify.coloring", None),
    (search, "lower_bound", "verify.lower_bound", None),
    (document, "dumps", "document.dump", _dumped),
    (document, "document_to_graph", "document.parse", None),
    (document, "to_dot", "document.dot", None),
    (document, "built_to_document", "document.todoc", None),
]

# per-layer metric -> span name; every "_s" metric is self time per pass:
# the span's duration minus the time its child spans cover.
SELF_TIMES = {
    "cli.self_s": "cli.main", "cli.load_s": "cli.load",
    "matrices.gen_s": "matrices.gen", "matrices.validate_s": "matrices.validate",
    "families.build_self_s": "families.build",
    "graph.split_s": "graph.split", "graph.merge_s": "graph.merge",
    "graph.with_edges_s": "graph.with_edges", "graph.adjacency_s": "graph.adjacency",
    "graph.bipartite_s": "graph.bipartite",
    "verify.coloring_s": "verify.coloring", "verify.check_self_s": "verify.check",
    "verify.lower_bound_s": "verify.lower_bound",
    "document.dump_s": "document.dump", "document.parse_s": "document.parse",
    "document.dot_s": "document.dot", "document.todoc_s": "document.todoc",
}
CALLS = {
    "matrices.gen_calls": "matrices.gen", "graph.split_calls": "graph.split",
    "graph.merge_calls": "graph.merge", "graph.adjacency_builds": "graph.adjacency",
    "verify.coloring_calls": "verify.coloring",
}
COUNTERS = ("matrices.cells", "graph.edges_rewritten", "document.dump_bytes",
            "search.nodes", "search.prunes",
            *[f"search.nodes_to_proof.{g}" for g in SEARCH_CHI])


class Tracer:
    """Records spans while installed; ``op`` and ``op_key`` name the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, parent index or -1, name, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.op = -1
        self.op_key = ""
        self._stack: list[int] = []
        self._swaps = [(owner, attr, getattr(owner, attr),
                        self._wrap(getattr(owner, attr), name, hook))
                       for owner, attr, name, hook in TARGETS]
        original = graph.LabeledGraph.__dict__["adjacency"]
        traced = cached_property(self._wrap(original.func, "graph.adjacency", None))
        traced.__set_name__(graph.LabeledGraph, "adjacency")
        self._swaps.append((graph.LabeledGraph, "adjacency", original, traced))

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [self.op, self._stack[-1] if self._stack else -1, name,
                    perf_counter_ns(), 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def root(self, fn):
        """``fn`` (the CLI's main) wrapped as the op's root span."""
        return self._wrap(fn, "cli.main", None)

    def install(self) -> None:
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)

    def remove(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for i, (op, parent, name, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "op": op, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")


def pass_metrics(spans: list[list], first: int, counts: Counter, op_count: int,
                 timeouts: int) -> dict[str, float]:
    """Per-layer values of one traced pass: spans[first:] and its counters."""
    child_ns: Counter = Counter()
    for span in spans[first:]:
        if span[1] >= 0:
            child_ns[span[1]] += span[4] - span[3]
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for i in range(first, len(spans)):
        _, _, name, start, end = spans[i]
        self_ns[name] += end - start - child_ns[i]
        calls[name] += 1
    out = {metric: self_ns[name] / 1e9 for metric, name in SELF_TIMES.items()}
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    out.update({name: counts[name] for name in COUNTERS})
    nodes = counts["search.nodes"]
    out["search.prune_ratio"] = counts["search.prunes"] / nodes if nodes else 0.0
    search_s = self_ns["search.run"] / 1e9
    out["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
    out["search.timeout_ratio"] = timeouts / op_count
    out["trace.spans"] = len(spans) - first
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
