"""Same search tree: for every graph of ``test_search.NODES_TO_PROOF``,
``test_search.HARD_GRAPHS`` and ``FAMILY_GRAPHS``, the value, bounds,
node count, prunes per rule and witness edges of ``chi_la_exact``
against the record in search_fingerprints.json.  A change that only
makes nodes cheaper keeps every field; a change to the pruning or the
search order moves them and must re-record the file.

Re-record (only at a commit whose search results are known good):

    PYTHONPATH=src python tests/test_search_fingerprints.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import antimagic.search as search
from antimagic.families import build_family
from antimagic.search import STATUS_VALUE, chi_la_exact
from test_search import HARD_GRAPHS, NODES_TO_PROOF, SEARCH_BUDGET_S, _benchmark_graph, graph_of

FINGERPRINTS = Path(__file__).with_name("search_fingerprints.json")
# 20-edge family graphs, past the default edge cap: tag and k
FAMILY_GRAPHS = {"Bk_k2": ("Bk", 2), "C8_units_k2": ("C8_units", 2)}
NAMES = [*NODES_TO_PROOF, *HARD_GRAPHS, *FAMILY_GRAPHS]


def _graph(name: str):
    if name in HARD_GRAPHS:
        return graph_of(HARD_GRAPHS[name][0])
    if name in FAMILY_GRAPHS:
        tag, k = FAMILY_GRAPHS[name]
        return build_family(tag, k=k).graph
    return _benchmark_graph(name)


def _fingerprint(name: str) -> dict:
    g = _graph(name)
    result = chi_la_exact(g, max_edges=g.size, budget=SEARCH_BUDGET_S)
    assert result.status == STATUS_VALUE
    stats = result.stats
    return {
        "chi_la": result.chi_la,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "nodes": stats.nodes,
        "prunes_by_rule": {rule: getattr(stats, rule) for rule in search.RULES},
        "witness": [list(e) for e in result.witness.edges],
    }


# a room of one byte empties the sum-set cache on every miss
@pytest.mark.parametrize("name, room", [
    pytest.param(name, room, id=name + suffix)
    for suffix, room in (("", search.SUM_SETS_ROOM), ("-room1", 1)) for name in NAMES])
def test_search_matches_the_recorded_fingerprint(name, room, monkeypatch):
    monkeypatch.setattr(search, "SUM_SETS_ROOM", room)
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    assert _fingerprint(name) == recorded[name]


if __name__ == "__main__":
    prints = {name: _fingerprint(name) for name in NAMES}
    rows = ",\n".join(f" {json.dumps(name)}: {json.dumps(fp)}" for name, fp in prints.items())
    FINGERPRINTS.write_text("{\n" + rows + "\n}\n", encoding="utf-8")
    print(f"{len(prints)} fingerprints written to {FINGERPRINTS}")
    sys.exit(0)
