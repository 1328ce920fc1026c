"""Graph documents (versioned JSON), DOT export, and matrix CSV emission.

The JSON document is the interchange format: it round-trips losslessly,
and identical inputs always produce identical bytes (sorted keys, fixed
indentation, trailing newline).  ``dumps(doc)`` is byte for byte
``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, for any value that
``json.dumps`` accepts.  It writes objects and lists itself, int and str
items inline and the vertex and edge rows from fixed templates, because
with an indent CPython runs ``json.dumps`` through its pure-Python
encoder; whatever else it meets goes through ``json.dumps``.  DOT is
export-only with vertices in sorted order so snapshots are stable.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from .families import BuiltFamily
from .graph import LabeledGraph
from .matrices import LabelMatrix
from .verify import ColorClass, ColorReport, ExpectedColors, vertex_sums

FORMAT = "antimagic.graph/1"


class DocumentError(ValueError):
    pass


def graph_to_document(g: LabeledGraph) -> dict:
    degrees = g.degrees()
    return {
        "format": FORMAT,
        "vertices": [
            {"id": i, "name": nm, "degree": degrees[nm]}
            for i, nm in enumerate(g.names)
        ],
        "edges": [{"u": u, "v": v, "label": label} for u, v, label in g.edges],
    }


def built_to_document(built: BuiltFamily,
                      verification: ColorReport | None = None) -> dict:
    """The built graph's document with its family, its claimed coloring
    and, when given, the coloring that verification found."""
    doc = graph_to_document(built.graph)
    doc["family"] = {"tag": built.tag, "params": dict(built.params)}
    doc["expected_colors"] = {
        "classes": [
            {"value": c.value, "size": c.size, "degree": c.degree}
            for c in built.expected.classes
        ],
        "claimed_colors": built.expected.claimed_colors,
        "exact": built.expected.exact,
    }
    if verification is not None:
        doc["verification"] = verification.to_json_dict()
    if built.warnings:
        doc["warnings"] = list(built.warnings)
    if built.notes:
        doc["notes"] = list(built.notes)
    return doc


def document_to_graph(doc: dict) -> tuple[LabeledGraph, ExpectedColors | None]:
    """The graph and claimed coloring a document holds.

    Raises ``DocumentError`` for any malformed document: the wrong shape
    or key set, a non-integer id, endpoint, label, degree or class field
    (JSON ``true`` is a bool, not the label 1), a negative class size or
    claimed color count, a non-string name, or a stored degree that the
    edges contradict.
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
    pairs = set()
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
        if u > v:
            u, v = v, u
        pairs.add(u * n + v)  # one int per vertex pair
        edges.append((u, v, label))
        counted[u] += 1
        counted[v] += 1
    if len(pairs) != len(edges):
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
    if claimed < 0 or any(c.size < 0 for c in classes):
        raise DocumentError("expected_colors sizes and claimed_colors must not be negative")
    return ExpectedColors(classes, claimed, exact)


# A vertex and an edge row as json.dumps(indent=2, sort_keys=True) writes
# them; _encode puts a list's indentation after each newline.
_VERTEX_ROW = '{\n  "degree": %d,\n  "id": %d,\n  "name": %s\n}'
_EDGE_ROW = '{\n  "label": %d,\n  "u": %d,\n  "v": %d\n}'


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _encode(doc, "") + "\n"


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    with ``pad`` after each newline, i.e. nested at that indentation."""
    kind = type(value)
    inner = pad + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        body = [f"{inner}{_quote(k)}: {x if type(x) is int else _encode(x, inner)}"
                for k, x in sorted(value.items())]
        return "{\n" + ",\n".join(body) + "\n" + pad + "}"
    if kind is list and value:
        newline = "\n" + inner
        vertex, edge = (row.replace("\n", newline) for row in (_VERTEX_ROW, _EDGE_ROW))
        rows = [repr(x) if type(x) is int else _quote(x) if type(x) is str
                else _row(x, inner, vertex, edge) for x in value]
        return "[" + newline + ("," + newline).join(rows) + "\n" + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _row(x, pad: str, vertex: str, edge: str) -> str:
    """A list item: from a row template when it is exactly a vertex row
    (int ``degree`` and ``id``, str ``name``) or an edge row (int ``label``,
    ``u`` and ``v``), else through ``_encode``."""
    if type(x) is dict and len(x) == 3:
        if "label" in x:
            label, u, v = x["label"], x.get("u"), x.get("v")
            if type(label) is int and type(u) is int and type(v) is int:
                return edge % (label, u, v)
        elif "name" in x:
            degree, vid, name = x.get("degree"), x.get("id"), x["name"]
            if type(degree) is int and type(vid) is int and type(name) is str:
                return vertex % (degree, vid, _quote(name))
    return _encode(x, pad)


def to_dot(g: LabeledGraph) -> str:
    """Undirected DOT; each vertex label carries the vertex's induced sum.
    A backslash or double quote in a name is escaped."""
    lines = ["graph G {"]
    for i, (name, total) in enumerate(zip(g.names, vertex_sums(g))):
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{i} [label="{name}\\n{total}"];')
    for u, v, label in sorted(g.edges):  # each pair once: the label breaks no tie
        lines.append(f'  v{u} -- v{v} [label="{label}"];')
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
