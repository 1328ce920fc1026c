"""Every JSON shape the CLI writes, DOT export, and matrix CSV emission.

This module alone decides how a result is written: ``graph_to_document``,
``built_to_document``, ``report_to_document``, ``search_to_document`` and
``matrix_json`` turn the records that the other modules compute into
documents.  The graph document is the interchange format: it round-trips
losslessly, and identical inputs always produce identical bytes (sorted
keys, fixed indentation, trailing newline).  Each homogeneous table that
a document holds, a graph's vertex rows and edge rows, a claim's classes
and a search witness (a graph's edge rows again), is a ``Table``: a row
template, a row count and its columns.  A ``Table`` is a slotted class,
not a tuple, so ``json.dumps`` refuses it; ``json.loads(dumps(doc))`` is
the plain form, and ``dumps(doc)`` writes exactly ``json.dumps(plain,
indent=2, sort_keys=True) + "\n"``.  As CPython runs an indented
``json.dumps`` through its pure-Python encoder, ``dumps`` writes JSON
itself.  It writes a ``Table`` with one ``%`` over its row template
repeated once per row, and a str-keyed object whose values are all
exactly ``int`` (a bool is not) the same way, each key entering the
template as an argument.  A list of strings is joined from the quoted
strings.  Every other object and list keeps the per-item path, with ints
and strings written inline, and anything else goes through
``json.dumps``.  DOT is export-only with vertices in sorted order so
snapshots are stable.

A record holds only its facts, and the writer derives what else a
document shows: ``report_to_document`` writes a report's sums and
classes by name and derives its ``labels_bijective``, ``total``,
``part_sizes`` and ``balanced_bipartition``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from . import graph
from .families import BuiltFamily
from .graph import GraphError, LabeledGraph, new_graph
from .matrices import LabelMatrix
from .search import RULES, SearchResult
from .verify import ColorClass, ColorReport, ExpectedColors, vertex_sums

FORMAT = "antimagic.graph/1"


class DocumentError(ValueError):
    pass


class Table:
    """``count`` rows of one JSON shape, which ``dumps`` writes with one
    ``%``: each row is the template ``row``, and its i-th field comes from
    ``columns[i]``.  Not a tuple, so ``json.dumps`` refuses it."""

    __slots__ = ("row", "count", "columns")

    def __init__(self, row: str, count: int, columns) -> None:
        self.row, self.count, self.columns = row, count, columns


# A vertex, an edge and a class row as json.dumps(indent=2, sort_keys=True)
# writes them at no indentation: the templates of the tables, which _table
# repeats once per row and indents.
_VERTEX_ROW = '{\n  "degree": %d,\n  "id": %d,\n  "name": %s\n}'
_EDGE_ROW = '{\n  "label": %d,\n  "u": %d,\n  "v": %d\n}'
_CLASS_ROW = '{\n  "degree": %d,\n  "size": %d,\n  "value": %d\n}'


def _edge_table(edges) -> Table:
    """The edge rows of a graph document and of a search witness."""
    us, vs, labels = tuple(zip(*edges)) or ((), (), ())
    return Table(_EDGE_ROW, len(us), (labels, us, vs))


def graph_to_document(g: LabeledGraph) -> dict:
    n = len(g.names)
    return {"format": FORMAT,
            "vertices": Table(_VERTEX_ROW, n, (
                g.degree, range(n), list(map(_quote, g.names)))),
            "edges": _edge_table(g.edges)}


def built_to_document(built: BuiltFamily,
                      verification: ColorReport | None = None) -> dict:
    """The built graph's document with its family, its claimed coloring
    and, when given, the coloring that verification found.  The claim's
    classes are a ``Table`` of its ``ColorClass`` records."""
    doc = graph_to_document(built.graph)
    doc["family"] = {"tag": built.tag, "params": dict(built.params)}
    claim = built.expected
    values, sizes, degrees = tuple(zip(*claim.classes)) or ((), (), ())
    doc["expected_colors"] = {
        "classes": Table(_CLASS_ROW, len(values), (degrees, sizes, values)),
        "claimed_colors": claim.claimed_colors, "exact": claim.exact}
    if verification is not None:
        doc["verification"] = report_to_document(verification)
    if built.warnings:
        doc["warnings"] = list(built.warnings)
    if built.notes:
        doc["notes"] = list(built.notes)
    return doc


def report_to_document(report: ColorReport) -> dict:
    """The verification report of ``verify`` and ``build --verify``.  Its
    sums and classes are keyed by the graph's names, and its three
    bipartition keys read the graph's one ``Bipartition``: ``part_sizes``
    adds up the side sizes of its components, and ``balanced_bipartition``
    says every component has equal sides (so every 2-coloring does too).
    ``labels_bijective`` is that there is no label problem, and ``total``
    the sum of the induced sums: m(m+1) for a bijective labeling."""
    names = report.graph.names
    classes: dict[int, list[str]] = {}
    for name, value in zip(names, report.id_sums):
        classes.setdefault(value, []).append(name)
    bip = graph.is_bipartite(report.graph)  # via the module: bench/'s tracer wraps it there
    parts = () if bip is None else bip.component_parts
    return {
        "sums": dict(zip(names, report.id_sums)),
        "classes": {str(v): sorted(ns) for v, ns in classes.items()},
        "color_count": report.color_count,
        "labels_bijective": not report.label_problems,
        "label_problems": list(report.label_problems),
        "conflicts": [{"u": u, "v": v, "sum": s} for u, v, s in report.conflicts],
        "local_antimagic": report.local_antimagic,
        "bipartite": bip is not None,
        "part_sizes": None if bip is None else [sum(a for a, _ in parts),
                                                 sum(b for _, b in parts)],
        "balanced_bipartition": None if bip is None else all(a == b for a, b in parts),
        "total": sum(report.id_sums),
    }


def search_to_document(result: SearchResult) -> dict:
    """The ``search`` output: the witness's rows are a graph's edge rows.
    It holds no time, so equal searches write equal bytes."""
    stats = result.stats
    return {
        "status": result.status,
        "chi_la": result.chi_la,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "witness": None if result.witness is None else _edge_table(result.witness.edges),
        "stats": {"nodes": stats.nodes, "prunes": stats.prunes,
                  "prunes_by_rule": {rule: getattr(stats, rule) for rule in RULES}},
        "budget": result.budget,
    }


def document_to_graph(doc: dict) -> tuple[LabeledGraph, ExpectedColors | None]:
    """The graph and claimed coloring a document holds.

    Raises ``DocumentError`` for any malformed document: the wrong shape,
    a missing key, a non-integer id, endpoint, label, degree or class
    field (JSON ``true`` is a bool, not the label 1), a negative class
    size or claimed color count, a non-string name or one that UTF-8
    cannot encode (a lone surrogate), or a stored degree that the edges
    contradict.  Other keys, in a vertex row, an edge row or the
    document itself, are ignored.  The ordered edges go to ``new_graph``,
    whose message it carries for a repeated name, a loop, an endpoint
    out of range, a label below 1 or a repeated pair.
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
    try:
        "".join(names).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate is a JSON string, but no UTF-8 text
        i = next(i for i, nm in enumerate(names) if any("\ud800" <= c <= "\udfff" for c in nm))
        raise DocumentError(f"vertex {i} has a name UTF-8 cannot encode: {names[i]!r}") from None

    edges = []
    for row in edge_rows:
        try:
            u, v, label = row["u"], row["v"], row["label"]
        except (KeyError, TypeError):
            raise DocumentError(f"edge {row!r} needs u, v and label") from None
        if type(u) is not int or type(v) is not int or type(label) is not int:
            raise DocumentError(f"edge {row} needs integer u, v and label")
        edges.append((u, v, label) if u < v else (v, u, label))
    try:
        g = new_graph(names, edges)
    except GraphError as exc:
        raise DocumentError(str(exc)) from None
    # g's degree count is read from its edges, not from g.adjacency: building
    # that while the parsed document is alive raised the roundtrip
    # benchmark's peak RSS by ~4 MB of 40
    counted = g.degree
    if list(counted) != stored:
        i = next(i for i in range(len(names)) if counted[i] != stored[i])
        raise DocumentError(
            f"stored degree of {names[i]!r} is {stored[i]}, edges give {counted[i]}")

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


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _encode(doc, "") + "\n"


def _table(brackets: str, row: str, count: int, columns, pad: str) -> str:
    """``count`` items inside ``brackets``, one per line and nested at
    ``pad``, each the template ``row``, all filled by one ``%``: the i-th
    field of every row comes from ``columns[i]``."""
    if not count:
        return brackets
    args = [None] * (count * len(columns))
    for i, column in enumerate(columns):
        args[i::len(columns)] = column
    newline = "\n" + pad + "  "
    rows = ("," + newline).join([row.replace("\n", newline)] * count)
    return (brackets[0] + newline + rows + "\n" + pad + brackets[1]) % tuple(args)


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    with ``pad`` after each newline, i.e. nested at that indentation."""
    kind = type(value)
    if kind is Table:
        return _table("[]", value.row, value.count, value.columns, pad)
    if (kind is dict and set(map(type, value)) <= {str}
            and set(map(type, value.values())) <= {int}):
        keys = sorted(value)
        return _table("{}", "%s: %d", len(keys),
                      (map(_quote, keys), map(value.__getitem__, keys)), pad)
    inner = pad + "  "
    newline = "\n" + inner
    if kind is dict and set(map(type, value)) == {str}:
        body = [f"{_quote(k)}: {x if type(x) is int else _encode(x, inner)}"
                for k, x in sorted(value.items())]
        return "{" + newline + ("," + newline).join(body) + "\n" + pad + "}"
    if kind is list and value:
        rows = map(_quote, value) if set(map(type, value)) == {str} else [
            repr(x) if type(x) is int else _quote(x) if type(x) is str
            else _encode(x, inner) for x in value]
        return "[" + newline + ("," + newline).join(rows) + "\n" + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


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
