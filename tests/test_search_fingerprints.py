"""Same search tree: for every graph of ``test_search.NODES_TO_PROOF`` and
``test_search.HARD_GRAPHS``, the value, bounds, node count, prunes per
rule and witness edges of ``chi_la_exact`` against the record in
search_fingerprints.json.  A change that only makes nodes cheaper keeps
every field; a change to the pruning or the search order moves them and
must re-record the file.

Re-record (only at a commit whose search results are known good):

    PYTHONPATH=src python tests/test_search_fingerprints.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from antimagic.search import STATUS_VALUE, chi_la_exact
from test_search import HARD_GRAPHS, NODES_TO_PROOF, SEARCH_BUDGET_S, _benchmark_graph, graph_of

FINGERPRINTS = Path(__file__).with_name("search_fingerprints.json")
NAMES = [*NODES_TO_PROOF, *HARD_GRAPHS]


def _fingerprint(name: str) -> dict:
    g = graph_of(HARD_GRAPHS[name][0]) if name in HARD_GRAPHS else _benchmark_graph(name)
    result = chi_la_exact(g, budget=SEARCH_BUDGET_S)
    assert result.status == STATUS_VALUE
    doc = result.to_json_dict()
    return {
        "chi_la": doc["chi_la"],
        "lower_bound": doc["lower_bound"],
        "upper_bound": doc["upper_bound"],
        "nodes": doc["stats"]["nodes"],
        "prunes_by_rule": doc["stats"]["prunes_by_rule"],
        "witness": [[e["u"], e["v"], e["label"]] for e in doc["witness"]],
    }


@pytest.mark.parametrize("name", NAMES)
def test_search_matches_the_recorded_fingerprint(name):
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    assert _fingerprint(name) == recorded[name]


if __name__ == "__main__":
    prints = {name: _fingerprint(name) for name in NAMES}
    rows = ",\n".join(f" {json.dumps(name)}: {json.dumps(fp)}" for name, fp in prints.items())
    FINGERPRINTS.write_text("{\n" + rows + "\n}\n", encoding="utf-8")
    print(f"{len(prints)} fingerprints written to {FINGERPRINTS}")
    sys.exit(0)
