"""Graph documents (versioned JSON), DOT export, and matrix CSV emission.

The JSON document is the interchange format: it round-trips losslessly,
and identical inputs always produce identical bytes (sorted keys, fixed
indentation, trailing newline).  DOT is export-only with vertices in
sorted order so snapshots are stable.
"""

from __future__ import annotations

import json
from typing import Iterable

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
    """The graph and claimed coloring a document holds.

    Raises ``DocumentError`` for any malformed document: the wrong shape
    or key set, a non-integer id, endpoint, label, degree or class field
    (JSON ``true`` is a bool, not the label 1), a non-string name, or a
    stored degree that the edges contradict.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"a graph document is a JSON object, not {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise DocumentError(f"unsupported document format {doc.get('format')!r}")
    try:
        vertices = doc["vertices"]
        edge_rows = doc["edges"]
    except KeyError as exc:
        raise DocumentError(f"document missing {exc}") from None
    if not (isinstance(vertices, list) and isinstance(edge_rows, list)):
        raise DocumentError("document vertices and edges must be lists")

    names = []
    stored = []
    for i, row in enumerate(vertices):
        try:
            vid, name, degree = row["id"], row["name"], row["degree"]
        except (KeyError, TypeError):
            raise DocumentError(f"vertex {row!r} needs id, name and degree") from None
        if type(vid) is not int or vid != i:
            raise DocumentError("vertex ids must be 0..n-1 in order")
        if type(name) is not str or type(degree) is not int:
            raise DocumentError(f"vertex {row!r} needs a string name and an integer degree")
        names.append(name)
        stored.append(degree)
    n = len(names)
    if len(set(names)) != n:
        raise DocumentError("vertex names are not unique")

    edges = []
    counted = [0] * n
    for row in edge_rows:
        try:
            u, v, label = row["u"], row["v"], row["label"]
        except (KeyError, TypeError):
            raise DocumentError(f"edge {row!r} needs u, v and label") from None
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            raise DocumentError(f"edge {row} references a missing vertex id")
        if u == v:
            raise DocumentError(f"edge {row} is a loop")
        if type(label) is not int or label < 1:
            raise DocumentError(f"edge {row} needs a positive integer label")
        edges.append(LabeledEdge(min(u, v), max(u, v), label))
        counted[u] += 1
        counted[v] += 1
    if len({(e.u, e.v) for e in edges}) != len(edges):
        raise DocumentError("document contains parallel edges")
    if counted != stored:
        i = next(i for i in range(n) if counted[i] != stored[i])
        raise DocumentError(
            f"stored degree of {names[i]!r} is {stored[i]}, edges give {counted[i]}")
    g = LabeledGraph(tuple(names), tuple(edges))

    expected = None
    if "expected_colors" in doc:
        expected = _expected_colors(doc["expected_colors"])
    return g, expected


def _expected_colors(block: dict) -> ExpectedColors:
    try:
        classes = tuple(ColorClass(c["value"], c["size"], c["degree"])
                        for c in block["classes"])
        claimed, exact = block["claimed_colors"], block.get("exact", True)
    except (AttributeError, KeyError, TypeError):
        raise DocumentError("expected_colors needs classes of value, size and "
                            "degree, and claimed_colors") from None
    fields = [claimed, *(x for c in classes for x in (c.value, c.size, c.degree))]
    if any(type(x) is not int for x in fields) or type(exact) is not bool:
        raise DocumentError("expected_colors fields must be integers, and exact a bool")
    return ExpectedColors(classes, claimed, exact)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_dot(g: LabeledGraph, sums: dict[str, int]) -> str:
    """Undirected DOT; each vertex label carries the vertex's induced sum."""
    lines = ["graph G {"]
    for i, name in enumerate(g.names):
        lines.append(f'  v{i} [label="{name}\\n{sums[name]}"];')
    for e in sorted(g.edges, key=lambda e: (e.u, e.v)):
        lines.append(f'  v{e.u} -- v{e.v} [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def rows_csv(rows: Iterable[Iterable[int]]) -> str:
    """One CSV line per row: a matrix grid or the 6x4n sequences."""
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def matrix_json(m: LabelMatrix, include_sequences: bool = False) -> dict:
    doc: dict = {
        "kind": m.kind,
        "param": m.param,
        "grid": [list(row) for row in m.grid],
    }
    if include_sequences and m.sequences is not None:
        doc["sequences"] = [list(t) for t in m.sequences]
    return doc
