"""Certificates of the chi_la values that the exact search settles for
the paper's families.  Each case of chi_la_certificates.json gives the
family tag, its parameters, chi_la and a witness: the labels of
``build_family(tag, **params).graph`` in ``g.edges`` order.  A case is
proven in milliseconds:

* at most chi_la colors: the witness is a local antimagic labeling with
  chi_la colors (``induced_coloring``);
* at least chi_la colors: ``lower_bound`` of the graph is chi_la, or
  chi_la is 2 on a graph with an edge, since adjacent sums differ and
  one color never suffices, or, for a value above ``lower_bound``, the
  case's ``refuted`` target is chi_la - 1 and a replay of the search's
  round for it, ``attempt(refuted)`` of ``search._searcher(g,
  search._edge_order(g), None)``, finds no labeling within the case's
  ``node_limit`` nodes.  That replay is only as sound as the search's
  pruning rules: it proves nothing the search itself does not.

Re-record with ``chi_la_exact`` (about two minutes; each search's nodes
and time are printed):

    PYTHONPATH=src python tests/test_chi_la_certificates.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import antimagic.search as search
from antimagic.families import build_family
from antimagic.graph import LabeledGraph
from antimagic.search import STATUS_VALUE, chi_la_exact
from antimagic.verify import induced_coloring, lower_bound

CERTIFICATES = Path(__file__).with_name("chi_la_certificates.json")
# tag and k; B_k at k = 1 has lower_bound 3, at k = 2, 5, 8 only 2
CASES = (("C8_units", 1), ("Bk", 1), ("kC82", 1), ("kD82", 1), ("FB", 1),
         ("Bk", 2), ("Bk", 5), ("Bk", 8), ("C8_units", 2), ("C8_units", 3), ("kC82", 2),
         ("FB_units", 1))


def _labeled(case: dict) -> LabeledGraph:
    g = build_family(case["tag"], **case["params"]).graph
    assert len(case["labels"]) == g.size
    return LabeledGraph(g.names, tuple(
        (u, v, label) for (u, v, _), label in zip(g.edges, case["labels"])))


def problems(case: dict) -> list[str]:
    """What keeps ``case`` from proving its chi_la; empty when it does."""
    g = _labeled(case)
    chi_la = case["chi_la"]
    report = induced_coloring(g)
    found = []
    if not report.local_antimagic or report.color_count != chi_la:
        found.append(f"the witness is not a local antimagic labeling with {chi_la} colors")
    if "refuted" not in case:
        bound = lower_bound(g)
        if bound != chi_la and not (chi_la == 2 and g.size):
            found.append(f"lower_bound {bound} is below chi_la {chi_la}")
        return found
    refuted, limit = case["refuted"], case["node_limit"]
    if refuted != chi_la - 1:
        found.append(f"refuting {refuted} colors does not bound chi_la {chi_la} from below")
    attempt, counts = search._searcher(g, search._edge_order(g), None)
    if attempt(refuted) is not None:
        found.append(f"the search finds a labeling with at most {refuted} colors")
    elif counts()[0] > limit:
        found.append(f"refuting {refuted} colors took {counts()[0]} nodes, above {limit}")
    return found


def _recorded() -> list[dict]:
    return json.loads(CERTIFICATES.read_text(encoding="utf-8"))


def test_the_file_holds_every_case_in_order():
    assert [(c["tag"], c["params"]) for c in _recorded()] == [(t, {"k": k}) for t, k in CASES]


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{tag}_k{k}" for tag, k in CASES])
def test_the_certificate_proves_chi_la(index):
    assert problems(_recorded()[index]) == []


def test_a_witness_with_two_labels_swapped_proves_nothing():
    # not edges 0 and 1: in FB_units they are u_1 w_1 and v_1 w_1, and u_1
    # and v_1 are twins, so that swap can give another valid labeling
    for case in _recorded():
        labels = case["labels"][:]
        labels[0], labels[2] = labels[2], labels[0]
        assert problems({**case, "labels": labels}), (case["tag"], case["params"])


def test_a_value_above_its_lower_bound_proves_nothing():
    # the builder's own labeling of B_2 has 3 colors, but lower_bound is
    # 2 there, so it proves chi_la <= 3 and no more
    g = build_family("Bk", k=2).graph
    case = {"tag": "Bk", "params": {"k": 2}, "chi_la": 3,
            "labels": [label for _, _, label in g.edges]}
    assert induced_coloring(g).color_count == 3 and lower_bound(g) == 2
    assert problems(case) == ["lower_bound 2 is below chi_la 3"]


def test_a_refutation_holds_only_below_chi_la_and_within_its_node_limit():
    # FB_units at k = 1: lower_bound 3, chi_la 4; this labeling has 5 colors
    five = [8, 9, 6, 4, 1, 10, 7, 3, 2, 5]
    row = _recorded()[CASES.index(("FB_units", 1))]
    assert row["refuted"] == 3 and problems(row) == []
    assert problems({**row, "chi_la": 5, "refuted": 4, "labels": five}) == [
        "the search finds a labeling with at most 4 colors"]
    limit = row["node_limit"]
    assert problems({**row, "node_limit": limit - 1}) == [
        f"refuting 3 colors took {limit} nodes, above {limit - 1}"]
    assert problems({**row, "refuted": 2}) == [
        "refuting 2 colors does not bound chi_la 4 from below"]


if __name__ == "__main__":
    rows = []
    for tag, k in CASES:
        g = build_family(tag, k=k).graph
        result = chi_la_exact(g, max_edges=g.size)
        assert result.status == STATUS_VALUE
        case = {"tag": tag, "params": {"k": k}, "chi_la": result.chi_la}
        if lower_bound(g) != result.chi_la and not (result.chi_la == 2 and g.size):
            attempt, counts = search._searcher(g, search._edge_order(g), None)
            assert attempt(result.chi_la - 1) is None
            case.update(refuted=result.chi_la - 1, node_limit=counts()[0])
        case["labels"] = [label for _, _, label in result.witness.edges]
        assert problems(case) == [], (tag, k)
        print(f"{tag} k={k}: m={g.size} chi_la={result.chi_la} "
              f"nodes={result.stats.nodes} elapsed={result.stats.elapsed:.2f}s", flush=True)
        rows.append(json.dumps(case))
    CERTIFICATES.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
    print(f"{len(rows)} certificates written to {CERTIFICATES}")
    sys.exit(0)
