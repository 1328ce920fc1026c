"""Immutable simple graphs with labeled edges and vertex surgery.

Vertices are addressed by display name (``u_3``, ``x_5^1``, ``w_2_4``) so
constructions and tests can refer to them directly; integer ids are
positional handles.  An edge is a named triple ``LabeledEdge(u, v,
label)`` of two vertex ids with ``u < v`` and a positive label; it
unpacks as ``u, v, label``.  A ``LabeledGraph`` gives the views the
other modules read (``adjacency``, ``degrees()``, ``labels()``,
``id_of``) and ``with_edges``.  The one surgery is ``apply_merge``,
which every family builder uses; the tests keep a ``split_vertex``
oracle.  ``is_bipartite`` and ``chromatic_number_small`` feed the
verifier's lower bound.  Every operation is pure: it validates its
inputs and returns a new graph.  Edge labels stay attached to their
edges through merges, so a bijective labeling survives any sequence of
them.  Values are safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


CHI_EXACT_MAX_VERTICES = 20  # chromatic_number_small's backtracking budget


class GraphError(ValueError):
    """Invalid graph construction or surgery."""


class DuplicateName(GraphError):
    pass


class Loop(GraphError):
    pass


class ParallelEdge(GraphError):
    pass


class InvalidPlan(GraphError):
    pass


class LoopCreated(GraphError):
    pass


class ParallelEdgeCreated(GraphError):
    pass


class GraphTooLarge(GraphError):
    pass


def _no_vertex(name: str) -> GraphError:
    return GraphError(f"no vertex named {name!r}")


class LabeledEdge(NamedTuple):
    """Undirected edge, endpoints stored with u < v, carrying a positive label."""

    u: int
    v: int
    label: int


@dataclass(frozen=True)
class Bipartition:
    component_parts: tuple[tuple[int, int], ...]  # (|side0|, |side1|) per component

    @property
    def part_sizes(self) -> tuple[int, int]:
        return (
            sum(a for a, _ in self.component_parts),
            sum(b for _, b in self.component_parts),
        )

    @property
    def balanced(self) -> bool:
        """True when every component has equal sides (so every 2-coloring does too)."""
        return all(a == b for a, b in self.component_parts)


@dataclass(frozen=True)
class LabeledGraph:
    names: tuple[str, ...]
    edges: tuple[LabeledEdge, ...]

    # ---- views ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        """Edge count m."""
        return len(self.edges)

    @cached_property
    def _id_of(self) -> dict[str, int]:
        return {nm: i for i, nm in enumerate(self.names)}

    def id_of(self, name: str) -> int:
        try:
            return self._id_of[name]
        except KeyError:
            raise _no_vertex(name) from None

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.names]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    def degrees(self) -> dict[str, int]:
        return {nm: len(adj) for nm, adj in zip(self.names, self.adjacency)}

    def labels(self) -> tuple[int, ...]:
        return tuple(label for _, _, label in self.edges)

    # ---- pure construction ----------------------------------------------

    def with_edges(self, triples: list[tuple[str, str, int]]) -> LabeledGraph:
        """Append edges given as (name_a, name_b, label); validates simplicity."""
        ids, n = self._id_of, len(self.names)
        new = list(self.edges)
        seen = {u * n + v for u, v, _ in self.edges}  # one int per vertex pair
        for a, b, label in triples:
            try:
                ia, ib = ids[a], ids[b]
            except KeyError as exc:
                raise _no_vertex(exc.args[0]) from None
            if ia == ib:
                raise Loop(f"loop at vertex {a!r}")
            if ia > ib:
                ia, ib = ib, ia
            key = ia * n + ib
            if key in seen:
                raise ParallelEdge(f"edge {a!r}--{b!r} already present")
            if label < 1:
                raise GraphError(f"edge label must be a positive integer, got {label}")
            seen.add(key)
            new.append(LabeledEdge(ia, ib, label))
        return LabeledGraph(self.names, tuple(new))


# ---- module-level operations ------------------------------------------------


def new_graph(names: list[str] | tuple[str, ...]) -> LabeledGraph:
    seen = set()
    for nm in names:
        if nm in seen:
            raise DuplicateName(f"duplicate vertex name {nm!r}")
        seen.add(nm)
    return LabeledGraph(tuple(names), ())


def apply_merge(g: LabeledGraph,
                groups: Iterable[tuple[Sequence[str], str]]) -> LabeledGraph:
    """Fuse each ``(members, fused_name)`` group into one vertex, keeping all
    edges and labels; the fused vertex takes its lowest member's position.

    Errors: InvalidPlan for malformed groups, LoopCreated when a group
    contains adjacent vertices, ParallelEdgeCreated when the fused graph
    would carry two edges between the same pair.
    """
    group_of: dict[int, int] = {}  # vertex id -> group index
    lowest: list[int] = []  # group index -> smallest member id
    fused_names: list[str] = []
    for gi, (members, name) in enumerate(groups):
        if len(members) < 2:
            raise InvalidPlan(f"group {name!r} has fewer than 2 members")
        if len(set(members)) != len(members):
            raise InvalidPlan(f"group {name!r} repeats a member")
        low = len(g.names)
        for nm in members:
            vid = g.id_of(nm)
            if vid in group_of:
                raise InvalidPlan(f"vertex {nm!r} appears in two merge groups")
            group_of[vid] = gi
            if vid < low:
                low = vid
        lowest.append(low)
        fused_names.append(name)

    if len(set(fused_names)) != len(fused_names):
        raise InvalidPlan("fused vertex names are not distinct")
    for nm in fused_names:
        vid = g._id_of.get(nm)
        if vid is not None and vid not in group_of:  # a vertex that survives
            raise InvalidPlan(f"fused name {nm!r} collides with a surviving vertex")

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
    new_edges: list[LabeledEdge] = []
    seen: dict[int, int] = {}  # u * n + v -> label of the edge joining u < v
    for u, v, label in g.edges:
        nu, nv = remap[u], remap[v]
        if nu == nv:
            raise LoopCreated(
                f"merging adjacent vertices {g.names[u]!r} and {g.names[v]!r}"
            )
        if nu > nv:
            nu, nv = nv, nu
        key = nu * n + nv
        if key in seen:
            raise ParallelEdgeCreated(
                f"edges labeled {seen[key]} and {label} would join "
                f"{new_names[nu]!r} and {new_names[nv]!r} twice"
            )
        seen[key] = label
        new_edges.append(LabeledEdge(nu, nv, label))
    return LabeledGraph(tuple(new_names), tuple(new_edges))


def is_bipartite(g: LabeledGraph) -> Bipartition | None:
    side = [-1] * g.n_vertices
    parts: list[tuple[int, int]] = []
    for start in range(g.n_vertices):
        if side[start] != -1:
            continue
        side[start] = 0
        count = [1, 0]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    count[side[w]] += 1
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
        parts.append((count[0], count[1]))
    return Bipartition(tuple(parts))


def chromatic_number_small(g: LabeledGraph) -> int:
    """Exact chromatic number by backtracking; refuses graphs with more than
    ``CHI_EXACT_MAX_VERTICES`` vertices."""
    n = g.n_vertices
    if n > CHI_EXACT_MAX_VERTICES:
        raise GraphTooLarge(
            f"{n} vertices exceeds the exact-coloring budget {CHI_EXACT_MAX_VERTICES}")
    if n == 0:
        return 0
    if g.size == 0:
        return 1
    if is_bipartite(g) is not None:
        return 2

    order = sorted(range(n), key=lambda v: -len(g.adjacency[v]))
    adj = g.adjacency

    def colorable(c: int) -> bool:
        colors = [0] * n  # 0 = unassigned

        def place(idx: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            used_here = {colors[w] for w in adj[v] if colors[w]}
            # first-use symmetry break: never skip past the lowest fresh color
            max_new = min(c, max((colors[order[i]] for i in range(idx)), default=0) + 1)
            for col in range(1, max_new + 1):
                if col in used_here:
                    continue
                colors[v] = col
                if place(idx + 1):
                    return True
                colors[v] = 0
            return False

        return place(0)

    return next(c for c in range(3, n + 1) if colorable(c))  # c = n always succeeds
