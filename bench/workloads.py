"""The benchmark's four workloads: op lists made from a seed, and output checks.

An op is one CLI command, run in-process through ``antimagic.cli.main``.
The seed only picks among parameter points of equal edge count, orders
the ops and relabels search graphs; the program sees nothing but the
resulting argv and documents.  Build, verify, export and selftest
outputs must match the sha256 digests in ``digests.json`` (recorded with
``record_digests.py``); search answers are re-verified instead, because a
sound pruning rule may legitimately find another witness.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from antimagic.graph import LabeledEdge, LabeledGraph
from antimagic.verify import induced_coloring

BENCH = Path(__file__).resolve().parent
WORK = Path("bench/.run/work")  # relative to the checkout root, the run's cwd
DIGESTS = BENCH / "digests.json"

# tag -> (edge count shared by every point, points the seed picks from, warm-up point).
# Sized so that each `build --verify` takes ~0.5 s at the commit that defined
# the benchmark; every point meets its family's hypotheses, so no op warns.
SPLIT_BUILD = {
    "rDF": (2100, [{"r": 105, "s": 2}, {"r": 35, "s": 6}, {"r": 21, "s": 10},
                   {"r": 15, "s": 14}], {"r": 2, "s": 2}),
    "DFr": (2100, [{"r": 52, "s": 4}, {"r": 17, "s": 12}, {"r": 10, "s": 20}],
            {"r": 1, "s": 2}),
    "DF1": (2100, [{"r": 105, "s": 2}, {"r": 35, "s": 6}, {"r": 21, "s": 10},
                   {"r": 15, "s": 14}], {"r": 3, "s": 2}),
    "DF2": (2100, [{"r": 105, "s": 2}, {"r": 35, "s": 6}, {"r": 21, "s": 10},
                   {"r": 15, "s": 14}], {"r": 2, "s": 2}),
    "DF3": (2100, [{"r": 105, "s": 2}, {"r": 35, "s": 6}, {"r": 21, "s": 10},
                   {"r": 15, "s": 14}], {"r": 2, "s": 2}),
    "DF4": (2100, [{"r": 70, "s": 3}, {"r": 30, "s": 7}, {"r": 14, "s": 15},
                   {"r": 10, "s": 21}], {"r": 2, "s": 2}),
    "FB_units": (4200, [{"k": 420}], {"k": 2}),
}

# Linear builders at 16k edges: the JSON document (2-3 MB) and the verifier
# dominate.  s >= 4 keeps the seed's choices within a few percent of each
# other in time.
ROUNDTRIP = {
    "FB": (16000, [{"k": 1600}], {"k": 2}),
    "kD82": (16000, [{"k": 1600}], {"k": 2}),
    "nC482": (16000, [{"n": 800}], {"n": 2}),
    "Hm_rs": (16000, [{"m": m, "r": r, "s": s} for m in (1, 2, 3)
                      for r, s in ((200, 4), (100, 8), (50, 16))],
              {"m": 1, "r": 1, "s": 2}),
    "rG82": (16000, [{"r": 400, "s": 4}, {"r": 200, "s": 8}, {"r": 100, "s": 16}],
             {"r": 1, "s": 2}),
    "G1": (16000, [{"r": 200, "s": 4}, {"r": 100, "s": 8}, {"r": 50, "s": 16}],
           {"r": 1, "s": 2}),
    "H3": (16000, [{"n": 800}], {"n": 2}),
    "OddKH": (15990, [{"r": 533, "s": 3}, {"r": 123, "s": 13}, {"r": 41, "s": 39}],
              {"r": 1, "s": 3}),
}

# Linear-in-m probe (traced runs): each builder at two sizes m1 < m2 ~ 2 m1.
PROBE = {
    "rDF": ({"r": 50, "s": 2}, {"r": 100, "s": 2}),
    "DFr": ({"r": 25, "s": 4}, {"r": 50, "s": 4}),
    "DF1": ({"r": 51, "s": 2}, {"r": 101, "s": 2}),
    "DF2": ({"r": 25, "s": 4}, {"r": 50, "s": 4}),
    "DF3": ({"r": 50, "s": 2}, {"r": 100, "s": 2}),
    "DF4": ({"r": 50, "s": 2}, {"r": 100, "s": 2}),
    "FB_units": ({"k": 200}, {"k": 400}),
    "FB": ({"k": 400}, {"k": 800}),
    "kD82": ({"k": 400}, {"k": 800}),
    "nC482": ({"n": 200}, {"n": 400}),
    "Hm_rs": ({"m": 2, "r": 25, "s": 8}, {"m": 2, "r": 50, "s": 8}),
    "rG82": ({"r": 50, "s": 8}, {"r": 100, "s": 8}),
    "G1": ({"r": 25, "s": 8}, {"r": 50, "s": 8}),
    "H3": ({"n": 200}, {"n": 400}),
    "OddKH": ({"r": 133, "s": 3}, {"r": 267, "s": 3}),
}
GROWTH_FAMILIES = tuple(SPLIT_BUILD)

# The only search op allowed to time out, and its fixed budget in seconds.
TIMEOUT_GRAPH = "K1_11"
SEARCH_BUDGET = 1.0


def _star(n: int) -> tuple[list[str], list[tuple[int, int]]]:
    return ["c"] + [f"l{i}" for i in range(1, n + 1)], [(0, i) for i in range(1, n + 1)]


def _k4_path() -> tuple[list[str], list[tuple[int, int]]]:
    """K4 with a 4-edge path hanging off one of its vertices."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    return [f"v{i}" for i in range(8)], pairs


# name -> known chi_la.  The k = 1 family cases are those of
# scripts/explore_small_chi_la.py; their graphs come from `build TAG --k 1`.
SEARCH_CHI = {
    "K4_path": 4, "K1_9": 10, "C8_units_k1": 3, "Bk_k1": 3, "kC82_k1": 3,
    "kD82_k1": 3, "FB_k1": 3, TIMEOUT_GRAPH: 12,
}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    key: str            # digest key; for search ops, the graph name
    edges: int
    out: str | None = None  # file the op writes with --out; None: stdout

    @property
    def command(self) -> str:
        return self.argv[0]


def _point_key(tag: str, params: dict) -> str:
    return tag + " " + " ".join(f"{p}={v}" for p, v in params.items())


def _flags(params: dict) -> list[str]:
    return [x for p, v in params.items() for x in (f"--{p}", str(v))]


def split_ops(tag: str, params: dict, edges: int) -> list[Op]:
    return [Op(("build", tag, *_flags(params), "--verify"),
               "build " + _point_key(tag, params), edges)]


def roundtrip_ops(tag: str, params: dict, edges: int) -> list[Op]:
    key = _point_key(tag, params)
    doc, report, dot = (str(WORK / f"{tag}{ext}") for ext in (".json", ".verify.json", ".dot"))
    return [
        Op(("build", tag, *_flags(params), "--verify", "--out", doc), "build " + key, edges, doc),
        Op(("verify", doc, "--out", report), "verify " + key, edges, report),
        Op(("export", doc, "--format", "dot", "--out", dot), "export " + key, edges, dot),
    ]


def _family_ops(table: dict, rng: random.Random | None, make) -> list[Op]:
    """One op group per family, at a seed-chosen point, in seed-chosen order.
    With no rng, the warm-up point of each family in table order."""
    tags = list(table)
    if rng is not None:
        rng.shuffle(tags)
    ops: list[Op] = []
    for tag in tags:
        edges, points, warm = table[tag]
        ops += make(tag, warm, 0) if rng is None else make(tag, rng.choice(points), edges)
    return ops


def every_digest_op() -> list[Op]:
    """Every build, verify, export and selftest op any seed can choose,
    roundtrip triples kept in order."""
    ops = [Op(("selftest",), "selftest", 0)]
    for tag, (edges, points, _) in SPLIT_BUILD.items():
        for p in points:
            ops += split_ops(tag, p, edges)
    for tag, (edges, points, _) in ROUNDTRIP.items():
        for p in points:
            ops += roundtrip_ops(tag, p, edges)
    return ops


# ---------------------------------------------------------------------------
# search inputs


def _search_structure(name: str, build_doc) -> tuple[list[str], list[tuple[int, int]]]:
    if name == "K4_path":
        return _k4_path()
    if name.startswith("K1_"):
        return _star(int(name[3:]))
    doc = build_doc(name.removesuffix("_k1"))
    return ([v["name"] for v in doc["vertices"]],
            [(e["u"], e["v"]) for e in doc["edges"]])


def write_search_doc(path: Path, names: list[str], pairs: list[tuple[int, int]],
                     rng: random.Random) -> None:
    """Write the graph with its vertex ids permuted by the seed.

    The edge list keeps its order: the search's static edge order breaks
    ties by edge index, so permuting edges would change the work done
    (kC82 k=1 ranges from 17k to 235k nodes), not just its presentation.
    Relabeling vertex ids leaves the search tree isomorphic.
    """
    perm = list(range(len(names)))
    rng.shuffle(perm)  # old id -> new id
    new_names = [""] * len(names)
    for old, new in enumerate(perm):
        new_names[new] = names[old]
    degree = [0] * len(names)
    edges = []
    for label, (u, v) in enumerate(pairs, start=1):
        a, b = perm[u], perm[v]
        degree[a] += 1
        degree[b] += 1
        edges.append({"u": a, "v": b, "label": label})
    doc = {
        "format": "antimagic.graph/1",
        "vertices": [{"id": i, "name": nm, "degree": degree[i]}
                     for i, nm in enumerate(new_names)],
        "edges": edges,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def search_ops(rng: random.Random | None, build_doc) -> list[Op]:
    """Write the search documents and return one op per graph.

    ``build_doc(tag)`` returns the document of `build TAG --k 1`.  With no
    rng (warm-up), only the smallest case, relabeled with seed 0.
    """
    names = ["kC82_k1"] if rng is None else list(SEARCH_CHI)
    local = rng or random.Random(0)
    ops = []
    for name in names:
        verts, pairs = _search_structure(name, build_doc)
        path = WORK / f"search_{name}.json"
        write_search_doc(path, verts, pairs, local)
        argv = ["search", str(path)]
        if name == TIMEOUT_GRAPH:
            argv += ["--budget", str(SEARCH_BUDGET)]
        ops.append(Op(tuple(argv), name, len(pairs)))
    if rng is not None:
        rng.shuffle(ops)
    return ops


def make_ops(workload: str, rng: random.Random | None, build_doc) -> list[Op]:
    """The op list of one pass; with rng None, the small warm-up pass."""
    if workload == "selftest":
        return [Op(("selftest",), "selftest", 0)]
    if workload == "split_build":
        return _family_ops(SPLIT_BUILD, rng, split_ops)
    if workload == "roundtrip":
        return _family_ops(ROUNDTRIP, rng, roundtrip_ops)
    if workload == "search":
        return search_ops(rng, build_doc)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_output(op: Op, stdout: str) -> bytes:
    return Path(op.out).read_bytes() if op.out else stdout.encode("utf-8")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]


def check_search(op: Op, rc: int, stdout: str) -> str | None:
    """None when chi is right and the witness is a local antimagic labeling
    of the input graph with chi colors; "timeout" for an allowed timeout;
    otherwise the reason the op failed."""
    result = json.loads(stdout)
    if result["status"] == "timeout":
        return "timeout" if op.key == TIMEOUT_GRAPH and rc == 1 else "unexpected timeout"
    if rc != 0 or result["status"] != "value":
        return f"status {result['status']!r} with exit code {rc}"
    chi = SEARCH_CHI[op.key]
    if result["chi_la"] != chi:
        return f"chi_la {result['chi_la']} != {chi}"
    doc = json.loads(Path(op.argv[1]).read_text(encoding="utf-8"))
    names = tuple(v["name"] for v in doc["vertices"])
    given = {(min(e["u"], e["v"]), max(e["u"], e["v"])) for e in doc["edges"]}
    edges = tuple(LabeledEdge(min(e["u"], e["v"]), max(e["u"], e["v"]), e["label"])
                  for e in result["witness"])
    if {(e.u, e.v) for e in edges} != given or len(edges) != len(given):
        return "witness edges differ from the input graph"
    report = induced_coloring(LabeledGraph(names, edges))
    if not report.local_antimagic:
        return "witness is not local antimagic"
    if report.color_count != chi:
        return f"witness has {report.color_count} colors, not {chi}"
    return None


def check_op(op: Op, rc: int | None, stdout: str, stderr: str,
             digests: dict[str, str]) -> str | None:
    """None if the op's output is correct, "timeout" for the budgeted search
    timing out, else why it failed."""
    if rc is None or "Traceback" in stderr:
        return "raised: " + stderr.strip().splitlines()[-1] if stderr.strip() else "raised"
    if op.command == "search":
        try:
            return check_search(op, rc, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable search output: {exc!r}"
    if rc != 0:
        return f"exit code {rc}"
    want = digests.get(op.key)
    if want is None:
        return "no recorded digest"
    try:
        got = sha256(op_output(op, stdout))
    except OSError as exc:
        return f"output missing: {exc}"
    return None if got == want else "output digest differs"
