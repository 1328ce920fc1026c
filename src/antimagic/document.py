"""Graph documents (versioned JSON), DOT export, and matrix CSV emission.

The JSON document is the interchange format: it round-trips losslessly,
and identical inputs always produce identical bytes (sorted keys, fixed
indentation, trailing newline).  DOT is export-only with vertices in
sorted order so snapshots are stable.
"""

from __future__ import annotations

import json

from .families import BuiltFamily
from .graph import LabeledEdge, LabeledGraph
from .matrices import LabelMatrix
from .verify import ColorClass, ColorReport, ExpectedColors

FORMAT = "antimagic.graph/1"


class DocumentError(ValueError):
    pass


def graph_to_document(
    g: LabeledGraph,
    *,
    family: str | None = None,
    params: dict | None = None,
    expected: ExpectedColors | None = None,
    verification: ColorReport | None = None,
) -> dict:
    degrees = g.degrees()
    doc: dict = {
        "format": FORMAT,
        "vertices": [
            {"id": i, "name": nm, "degree": degrees[nm]}
            for i, nm in enumerate(g.names)
        ],
        "edges": [{"u": e.u, "v": e.v, "label": e.label} for e in g.edges],
    }
    if family is not None:
        doc["family"] = {"tag": family, "params": dict(params or {})}
    if expected is not None:
        doc["expected_colors"] = {
            "classes": [
                {"value": c.value, "size": c.size, "degree": c.degree}
                for c in expected.classes
            ],
            "claimed_colors": expected.claimed_colors,
            "exact": expected.exact,
        }
    if verification is not None:
        doc["verification"] = verification.to_json_dict()
    return doc


def built_to_document(built: BuiltFamily,
                      verification: ColorReport | None = None) -> dict:
    doc = graph_to_document(
        built.graph,
        family=built.tag,
        params=built.params,
        expected=built.expected,
        verification=verification,
    )
    if built.warnings:
        doc["warnings"] = list(built.warnings)
    if built.notes:
        doc["notes"] = list(built.notes)
    return doc


def document_to_graph(doc: dict) -> tuple[LabeledGraph, ExpectedColors | None]:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise DocumentError(f"unsupported document format {doc.get('format')!r}")
    try:
        vertices = doc["vertices"]
        edge_rows = doc["edges"]
    except KeyError as exc:
        raise DocumentError(f"document missing {exc}") from None
    ids = [v["id"] for v in vertices]
    if ids != list(range(len(vertices))):
        raise DocumentError("vertex ids must be 0..n-1 in order")
    names = tuple(v["name"] for v in vertices)
    if len(set(names)) != len(names):
        raise DocumentError("vertex names are not unique")
    edges = []
    for row in edge_rows:
        u, v, label = row["u"], row["v"], row["label"]
        if not (0 <= u < len(names) and 0 <= v < len(names)):
            raise DocumentError(f"edge {row} references a missing vertex id")
        if u == v:
            raise DocumentError(f"edge {row} is a loop")
        if not isinstance(label, int) or label < 1:
            raise DocumentError(f"edge {row} needs a positive integer label")
        edges.append(LabeledEdge(min(u, v), max(u, v), label))
    if len({(e.u, e.v) for e in edges}) != len(edges):
        raise DocumentError("document contains parallel edges")
    g = LabeledGraph(names, tuple(edges))
    for v in vertices:
        if v["degree"] != g.degree(v["name"]):
            raise DocumentError(
                f"stored degree of {v['name']!r} is {v['degree']}, edges give "
                f"{g.degree(v['name'])}")

    expected = None
    if "expected_colors" in doc:
        block = doc["expected_colors"]
        expected = ExpectedColors(
            tuple(ColorClass(c["value"], c["size"], c["degree"])
                  for c in block["classes"]),
            block["claimed_colors"],
            block.get("exact", True),
        )
    return g, expected


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_dot(g: LabeledGraph, sums: dict[str, int] | None = None) -> str:
    """Undirected DOT; vertex labels carry induced sums when provided."""
    lines = ["graph G {"]
    for i, name in enumerate(g.names):
        if sums is not None:
            lines.append(f'  v{i} [label="{name}\\n{sums[name]}"];')
        else:
            lines.append(f'  v{i} [label="{name}"];')
    for e in sorted(g.edges, key=lambda e: (e.u, e.v)):
        lines.append(f'  v{e.u} -- v{e.v} [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_csv(m: LabelMatrix) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in m.grid) + "\n"


def sequences_csv(sequences: tuple[tuple[int, ...], ...]) -> str:
    return "\n".join(",".join(str(x) for x in t) for t in sequences) + "\n"


def matrix_json(m: LabelMatrix, include_sequences: bool = False) -> dict:
    doc: dict = {
        "kind": m.kind,
        "param": m.param,
        "grid": [list(row) for row in m.grid],
    }
    if include_sequences and m.sequences is not None:
        doc["sequences"] = [list(t) for t in m.sequences]
    return doc
