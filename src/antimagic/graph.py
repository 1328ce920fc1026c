"""Immutable simple graphs with labeled edges and vertex surgery.

A vertex is an integer id, its position in ``names``; the display name
(``u_3``, ``x_5^1``, ``w_2_4``) is what documents and reports show.  An
edge is a plain int triple ``(u, v, label)`` with ``u < v`` and
``label >= 1``.  ``new_graph(names, edges)`` with int edges checks every
graph made from names and ids: it decides whether they form a simple
graph, for the family builders, which lay out their ids by arithmetic,
and for the document reader.  ``apply_merge`` builds its result from a
graph that was checked already, so it checks only what fusing can break
(the proof is in its docstring); the search's witness is a graph's own
names and pairs with new labels, copied by ``_replace``.  Nothing looks
a vertex up by name, and a graph keeps no name -> id index.
``LabeledEdge`` and the ``None`` stub in ``LabeledGraph`` stay only
because the benchmark's workloads and tracer (``bench/``) name them;
they go once it no longer does.  ``LabeledGraph`` subclasses the
``NamedTuple`` of ``names`` and ``edges`` without ``__slots__``, so each
graph's ``__dict__`` caches ``adjacency``, its one degree count
``degree`` (per id, counted from the edges, so reading it builds no
adjacency) and the ``Bipartition`` (or None) that ``is_bipartite``
finds; like ``Bipartition`` it is immutable, copied with ``_replace``
and equal to the plain tuple of its fields.  It gives the views the
other modules read (``adjacency``, ``degree``, ``labels()``).  The one
surgery is ``apply_merge``, which fuses groups of vertex ids and which
every merged family uses; the tests keep a ``split_vertex`` oracle.
``is_bipartite`` runs its BFS once per graph: the written report's
bipartition fields, the verifier's lower bound and 2-coloring gate, and
the search's ``sum_total`` cut all read the one answer the graph keeps;
checking a graph never asks for it, and only writing its report does.
Each input a caller passes has one refusal class: ``GraphError`` for
an edge, ``DuplicateName`` for the names, ``InvalidPlan`` for a merge
plan and ``GraphTooLarge`` for a graph too large to search; the other
three subclass ``GraphError``, so one ``except`` catches every refusal.
Every operation is pure: it validates its inputs and returns a new graph.
Edge labels stay attached to their edges through merges, so a bijective
labeling survives any sequence of them.  Values are safe to share across
threads.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, NamedTuple, NoReturn, Sequence


class GraphError(ValueError):
    """A refused edge; the base of the refusals of the other inputs."""


class DuplicateName(GraphError):
    pass


class InvalidPlan(GraphError):
    pass


class GraphTooLarge(GraphError):
    pass


class LabeledEdge(NamedTuple):
    """Named form of the ``(u, v, label)`` edge triple, u < v, label >= 1."""

    u: int
    v: int
    label: int


class Bipartition(NamedTuple):
    component_parts: tuple[tuple[int, int], ...]  # (|side0|, |side1|) per component
    side: tuple[int, ...]  # 0 or 1 per vertex: every edge joins the two sides


class _GraphFields(NamedTuple):
    names: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]


class LabeledGraph(_GraphFields):
    # no __slots__: the instance __dict__ holds the cached adjacency, degree
    # count and bipartition

    # ---- views ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        """Edge count m."""
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.names]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def degree(self) -> tuple[int, ...]:
        """Edge count per vertex id, counted from the edges, not the adjacency."""
        count = [0] * len(self.names)
        for u, v, _ in self.edges:
            count[u] += 1
            count[v] += 1
        return tuple(count)

    def labels(self) -> tuple[int, ...]:
        return tuple(label for _, _, label in self.edges)

    @cached_property
    def _bipartition(self) -> Bipartition | None:
        """``is_bipartite(self)``, by BFS."""
        adj = self.adjacency
        side = [-1] * len(adj)
        parts: list[tuple[int, int]] = []
        for start in range(len(adj)):
            if side[start] != -1:
                continue
            side[start] = 0
            count = [1, 0]
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if side[w] == -1:
                        side[w] = 1 - side[v]
                        count[side[w]] += 1
                        queue.append(w)
                    elif side[w] == side[v]:
                        return None
            parts.append((count[0], count[1]))
        return Bipartition(tuple(parts), tuple(side))

    # Nothing calls it: graphs are built with ``new_graph``, ``apply_merge``
    # and ``_replace``.  But bench/tracing.py looks up ``with_edges`` here
    # with no default and fails without the name.  Benchmark v2 (ROADMAP
    # item 2) drops it from the tracer, and then this line goes.
    with_edges = None


# ---- module-level operations ------------------------------------------------


def new_graph(names: list[str] | tuple[str, ...],
              edges: Iterable[tuple[int, int, int]] = ()) -> LabeledGraph:
    """A graph on distinct ``names`` with ``edges`` given as normalized int
    triples ``(u, v, label)``: 0 <= u < v < n, label >= 1, no pair twice.

    One set per argument checks it, so a builder that lays out its ids by
    arithmetic formats no name per edge; only a refused input is scanned
    again, for its first bad name or edge.  DuplicateName names the
    repeated name; GraphError names the edge: a loop (u == v), a label
    below 1, ids out of order or range, or a repeated pair.
    """
    names = tuple(names)
    n = len(names)
    if len(set(names)) != n:
        seen = set()
        for nm in names:
            if nm in seen:
                raise DuplicateName(f"duplicate vertex name {nm!r}")
            seen.add(nm)
    edges = tuple(edges)
    if len({u * n + v for u, v, label in edges if 0 <= u < v < n and label >= 1}) != len(edges):
        _refuse_edge(edges, n)
    return LabeledGraph(names, edges)


def _refuse_edge(edges: tuple[tuple[int, int, int], ...], n: int) -> NoReturn:
    """Raise for the first of ``edges`` that ``new_graph`` refuses."""
    pairs = set()
    for e in edges:
        u, v, label = e
        if u == v:
            raise GraphError(f"edge {e} is a loop")
        if label < 1:
            raise GraphError(f"edge {e} has label {label}; labels must be >= 1")
        if not 0 <= u < v < n:
            raise GraphError(f"edge {e} needs ids 0 <= u < v < {n}")
        if u * n + v in pairs:
            raise GraphError(f"edge {e} repeats the pair ({u}, {v})")
        pairs.add(u * n + v)


def apply_merge(g: LabeledGraph,
                groups: Iterable[tuple[Sequence[int], str]]) -> LabeledGraph:
    """Fuse each ``(member ids, fused_name)`` group into one vertex, keeping
    all edges and labels; the fused vertex takes its lowest member's position.

    Errors: InvalidPlan for every refusal: a malformed group (a member id
    outside 0 <= id < n included), a group that contains adjacent
    vertices, or a fused graph that would carry two edges between the
    same pair.

    Only the edges with a fused endpoint are checked, in edge order.  The
    remap is strictly increasing and injective on the unfused vertices,
    and no group lands on an unfused vertex's new id.  So an edge with no
    fused endpoint keeps u < v, and an edge with the same new pair would
    have the same two old ends, which the simple input graph rules out.
    """
    n_old = len(g.names)
    group_of: dict[int, int] = {}  # vertex id -> group index
    lowest: list[int] = []  # group index -> smallest member id
    fused_names: list[str] = []
    for gi, (members, name) in enumerate(groups):
        if len(members) < 2:
            raise InvalidPlan(f"group {name!r} has fewer than 2 members")
        if len(set(members)) != len(members):
            raise InvalidPlan(f"group {name!r} repeats a member")
        for vid in members:
            if not 0 <= vid < n_old:  # a negative id would alias through indexing
                raise InvalidPlan(
                    f"member {vid} of group {name!r} needs 0 <= id < {n_old}")
            if vid in group_of:
                raise InvalidPlan(f"vertex {g.names[vid]!r} appears in two merge groups")
            group_of[vid] = gi
        lowest.append(min(members))
        fused_names.append(name)

    # a group's lowest member comes first, so its new id is known when the
    # other members reach it
    new_names: list[str] = []
    remap: list[int] = []
    for vid, nm in enumerate(g.names):
        gi = group_of.get(vid)
        if gi is not None and lowest[gi] < vid:
            remap.append(remap[lowest[gi]])
        else:
            remap.append(len(new_names))
            new_names.append(nm if gi is None else fused_names[gi])

    n = len(new_names)
    if len(set(new_names)) != n:  # the surviving names are distinct already
        if len(set(fused_names)) != len(fused_names):
            raise InvalidPlan("fused vertex names are not distinct")
        survivors = {nm for vid, nm in enumerate(g.names) if vid not in group_of}
        nm = next(nm for nm in fused_names if nm in survivors)
        raise InvalidPlan(f"fused name {nm!r} collides with a surviving vertex")
    fused = [False] * n_old
    for vid in group_of:
        fused[vid] = True
    new_edges: list[tuple[int, int, int]] = []
    seen: dict[int, int] = {}  # u * n + v -> label, for edges at a fused vertex
    for u, v, label in g.edges:
        nu, nv = remap[u], remap[v]
        if fused[u] or fused[v]:
            if nu == nv:
                raise InvalidPlan(
                    f"merging adjacent vertices {g.names[u]!r} and {g.names[v]!r}"
                )
            if nu > nv:
                nu, nv = nv, nu
            key = nu * n + nv
            if key in seen:
                raise InvalidPlan(
                    f"edges labeled {seen[key]} and {label} would join "
                    f"{new_names[nu]!r} and {new_names[nv]!r} twice"
                )
            seen[key] = label
        new_edges.append((nu, nv, label))
    return LabeledGraph(tuple(new_names), tuple(new_edges))


def is_bipartite(g: LabeledGraph) -> Bipartition | None:
    """The sides and per-component side sizes of ``g``'s 2-coloring, or
    None when ``g`` has an odd cycle.  One BFS finds it, the first time
    any caller asks; ``g`` keeps it, as it keeps its ``adjacency``."""
    return g._bipartition
