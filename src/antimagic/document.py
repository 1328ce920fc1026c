"""Graph documents (versioned JSON), DOT export, and matrix CSV emission.

The JSON document is the interchange format: it round-trips losslessly,
and identical inputs always produce identical bytes (sorted keys, fixed
indentation, trailing newline).  A graph's vertex and edge rows are
``Rows`` views of it, a slotted class that is not a tuple, so
``json.dumps`` refuses it; ``json.loads(dumps(doc))`` is the plain form, and
``dumps(doc)`` writes exactly ``json.dumps(plain, indent=2,
sort_keys=True) + "\n"``.  As CPython runs an indented ``json.dumps``
through its pure-Python encoder, ``dumps`` writes JSON itself.  It writes
these homogeneous containers as one table each, one ``%`` over a row
template repeated once per item: a view's rows, straight from the
graph's tuples; a str-keyed object whose values are all exactly ``int``
(a bool is not); and a non-empty list of objects that share one set of
str keys and hold only exactly-``int`` values.  A key enters a template
as an argument or with its ``%`` doubled.  A list of strings is joined
from the quoted strings.  Every other object and list keeps the per-item
path, with ints and strings written inline, and anything else goes
through ``json.dumps``.  DOT is export-only with vertices in sorted order
so snapshots are stable.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from .families import BuiltFamily
from .graph import GraphError, LabeledGraph, new_graph
from .matrices import LabelMatrix
from .verify import ColorClass, ColorReport, ExpectedColors, vertex_sums

FORMAT = "antimagic.graph/1"


class DocumentError(ValueError):
    pass


class Rows:
    """The vertex or the edge rows of ``graph``'s document, which ``dumps``
    writes straight from the graph's tuples.  Not a tuple, so ``json.dumps``
    refuses it."""

    __slots__ = ("graph", "edges")

    def __init__(self, graph: LabeledGraph, edges: bool) -> None:
        self.graph, self.edges = graph, edges  # edges False: the vertex rows


def graph_to_document(g: LabeledGraph) -> dict:
    return {"format": FORMAT, "vertices": Rows(g, False), "edges": Rows(g, True)}


def built_to_document(built: BuiltFamily,
                      verification: ColorReport | None = None) -> dict:
    """The built graph's document with its family, its claimed coloring
    and, when given, the coloring that verification found.  The claim's
    classes are a list of plain dicts, which ``dumps`` writes itself."""
    doc = graph_to_document(built.graph)
    doc["family"] = {"tag": built.tag, "params": dict(built.params)}
    claim = built.expected
    doc["expected_colors"] = {
        "classes": [{"value": c.value, "size": c.size, "degree": c.degree}
                    for c in claim.classes],
        "claimed_colors": claim.claimed_colors, "exact": claim.exact}
    if verification is not None:
        doc["verification"] = verification.to_json_dict()
    if built.warnings:
        doc["warnings"] = list(built.warnings)
    if built.notes:
        doc["notes"] = list(built.notes)
    return doc


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
    # counted here, not read off g.adjacency: building that while the parsed
    # document is alive raised the roundtrip benchmark's peak RSS by ~4 MB of 40
    counted = [0] * len(names)
    for u, v, _ in edges:
        counted[u] += 1
        counted[v] += 1
    if counted != stored:
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


# A vertex and an edge row as json.dumps(indent=2, sort_keys=True) writes
# them at no indentation: the row templates of a view's two tables, which
# _table repeats once per row and indents.
_VERTEX_ROW = '{\n  "degree": %d,\n  "id": %d,\n  "name": %s\n}'
_EDGE_ROW = '{\n  "label": %d,\n  "u": %d,\n  "v": %d\n}'


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
    if kind is Rows and value.edges:
        us, vs, labels = tuple(zip(*value.graph.edges)) or ((), (), ())
        return _table("[]", _EDGE_ROW, len(us), (labels, us, vs), pad)
    if kind is Rows:
        g = value.graph
        return _table("[]", _VERTEX_ROW, len(g.names), (
            map(len, g.adjacency), range(len(g.names)), map(_quote, g.names)), pad)
    if (kind is dict and set(map(type, value)) <= {str}
            and set(map(type, value.values())) <= {int}):
        keys = sorted(value)
        return _table("{}", "%s: %d", len(keys),
                      (map(_quote, keys), map(value.__getitem__, keys)), pad)
    keys = value[0].keys() if kind is list and value and type(value[0]) is dict else ()
    if (set(map(type, keys)) == {str} and set(map(type, value)) == {dict}
            and all(x.keys() == keys for x in value)
            and all(type(n) is int for x in value for n in x.values())):
        row = ",\n".join(f"  {_quote(k).replace('%', '%%')}: %d" for k in sorted(keys))
        return _table("[]", "{\n" + row + "\n}", len(value),
                      [[x[k] for x in value] for k in sorted(keys)], pad)
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
