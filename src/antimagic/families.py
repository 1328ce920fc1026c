"""Graph families with their bijective edge labelings and claimed colorings.

``build_family(tag, **params)`` is the one entry point: it returns a
:class:`BuiltFamily` holding the tag, the parameters, the labeled graph
and the exact coloring it is supposed to induce (color values, class
sizes and degrees), so tests and the CLI can check claims without
re-deriving any formula.  The verifier recomputes everything from the
edge list and never trusts these expectations.

Every family starts from disjoint units labeled from one matrix; most
then fuse vertex groups in one ``apply_merge`` call, each fusion pattern
coming from one generator (``_block``, ``_diamond_hubs``,
``_across_fans``, ``_across_components``, ``_rg_groups`` and the corner
pairs of ``_h_family``).  FB_units, nC482, C8_units and OddKH with s = 1
are the units alone.  Two construction pipelines:

* fan-blade units labeled by ``matrix_5x2k`` feed FB, rFB, FB1/FB2, the
  diamond-fan families rDF / DFr / DF1-DF4 (from units whose hubs all come
  already split into x_i^1 and x_i^2, merged into the diamond hubs, and
  for DFr the middle block's halves back into the fan's hub);
* 8-cycle units labeled by ``matrix_kx10`` feed the C8 units, Bk, kC(8,2),
  kD(8,2), rG(8,2) and the experimental odd-k construction, while the
  ``sequences_6x4n`` trace labels nC4(8,2) and its merge families G1/G2,
  H1-H3 and Hm(r,s).

The unit generators (``_fan_units``, ``_nc_units``, ``_prism_units``)
lay out vertex ids by arithmetic and hand ``new_graph`` int edges; one
helper per layout (``_fan``, ``_nc``, ``_prism``) gives a unit vertex's
id, x_i^2 included, and every merge group names its members by those
ids.  Names are formatted only for the units' vertices and the fused
ones.  Their values are never mutated (graphs and matrices are
immutable), so within a ``shared_units()`` block each generator builds
a parameter point once and every family on that point shares the units.
Only ``selftest`` opens the block, since it builds many families on one
grid; outside it nothing is kept, and a single build never asks twice.

``FAMILIES`` is the one registry: one row per tag, holding its private
builder and its acceptance grid, the parameter points the tests and
``selftest`` verify.  A builder returns the graph and its claim, then
its warnings and notes where it has any; ``build_family`` checks the
parameter names against the first point of the tag's grid and stamps
the tag and the parameters.  Families that share a construction and
differ only in data share one builder, registered per tag through
``partial``: ``_build_rfb`` (rFB, FB1, FB2), ``_build_rdf`` (rDF,
DF1-DF4), ``_build_g`` (G1, G2), ``_build_h`` (H1-H3) and ``_build_c8``
(C8_units, Bk, kC82, kD82, each row binding its fusion and claim);
families built alike share one grid.  H_m(n) is H_m(rs) at s = 1, so
``_build_h`` and ``_build_hm_rs`` keep their own parameters and share
one body, ``_h_family``; only H_m(rs) checks m, which the user types.
Each claimed color count is the number of claimed classes.

Two helpers write the claimed classes that the unit matrices give many
families, each in a fixed place, since the output keeps the class order.
``_fan_classes(k, *own)`` gives the 4k degree-2 vertices at 10k+1
and the 2k degree-3 vertices at 13k+1 (the 5 x 2k and k x 10 pair and
triple sums) and then the builder's own classes: every fan family and
rG(8,2); FB1, FB2, DF1 and DF2 then replace the class their fusion
merges.  ``_prism_classes(n, first)`` gives the builder's first class and
then the 4n degree-3 vertices at each of 30n+1 and 30n+2 (the 6 x 4n
triple sums): nC4(8,2), G1 and the H families.  Three claims keep their
own lists: G2 writes 30n+2 before its fused 30n+1 class, OddKH has
4k+r degree-2 vertices at 10k+1, and the C8 registry rows hold their
classes as data in one form that ``_build_c8`` scales by k; three of
the four do not start with the fan pair (C8_units and Bk have 5k
degree-2 vertices at 10k+1, kC82 writes its 6k+2 class second).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial, wraps
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import LabeledGraph, apply_merge, new_graph
from .matrices import LabelMatrix, matrix_5x2k, matrix_kx10, sequences_6x4n
from .verify import ColorClass, ExpectedColors, vertex_sums

# No builder splits a vertex (``_fan_units`` makes the split hubs directly),
# but bench/tracing.py looks up ``split_vertex`` here with no default and
# fails without the name.
split_vertex = None


class ParameterError(ValueError):
    """Family parameters outside the construction's hypotheses."""


class BuiltFamily(NamedTuple):
    tag: str
    params: dict
    graph: LabeledGraph
    expected: ExpectedColors
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _expected(classes: list[tuple[int, int, int]], exact: bool = True) -> ExpectedColors:
    """The claim that the coloring has exactly these (value, size, degree)
    classes; ``exact`` False claims their count only as an upper bound."""
    return ExpectedColors(tuple(ColorClass(*c) for c in classes), len(classes), exact)


def _fan_classes(k: int, *own: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The 4k degree-2 vertices at 10k+1 and the 2k degree-3 vertices at
    13k+1 that the 5 x 2k and k x 10 pair and triple sums give every fan
    family and rG(8,2), then the builder's ``own`` classes."""
    return [(10 * k + 1, 4 * k, 2), (13 * k + 1, 2 * k, 3), *own]


def _prism_classes(n: int, first: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The builder's ``first`` class, then the 4n degree-3 vertices at each
    of 30n+1 and 30n+2 that the 6 x 4n triple sums give nC4(8,2), G1 and
    the H families."""
    return [first, (30 * n + 1, 4 * n, 3), (30 * n + 2, 4 * n, 3)]


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _block(j: int, s: int) -> range:
    """Indices of block j of s consecutive copies (or units), 1-based."""
    return range((j - 1) * s + 1, j * s + 1)


# the open shared_units() block's memo, (generator, *args) -> value
_SHARED: ContextVar[dict | None] = ContextVar("shared_units", default=None)


@contextmanager
def shared_units() -> Iterator[None]:
    """Within the block each unit generator builds a parameter point once,
    and later calls return that value; on exit the memo is dropped."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(generate: Callable) -> Callable:
    """``generate`` keeping its values per argument tuple while a
    ``shared_units()`` block is open.  Its arguments are ints and bools,
    hashed and compared by value in O(1)."""
    @wraps(generate)
    def shared(*args):
        memo = _SHARED.get()
        if memo is None:
            return generate(*args)
        key = (generate, *args)
        if key not in memo:
            memo[key] = generate(*args)
        return memo[key]
    return shared


# ---------------------------------------------------------------------------
# fan-blade units (5 x 2k matrix)


def _fan(i: int, role: str, k: int = 0) -> int:
    """Id of fan unit i's vertex role_i, role one of u, v, w, x (x_i^1 when
    the hubs come split), or of x_i^2 for role x2 among 2k split units."""
    if role == "x2":
        return 8 * k + i - 1
    return 4 * i - 4 + "uvwx".index(role)


@_shared
def _fan_units(k: int, split: bool = False) -> tuple[LabeledGraph, LabelMatrix]:
    """2k disjoint 4-vertex fans; column i labels unit i's five edges.

    With ``split`` every hub x_i comes split as the tests' ``split_vertex``
    oracle leaves it, hub by hub in order: x_i^1 takes x_i's place and the
    w_i edge, and x_i^2, appended after all units, takes the u_i, v_i
    edges.  Also returns the matrix.  The values are shared
    (``shared_units``) and never mutated.
    """
    m = matrix_5x2k(k)
    names: list[str] = []
    for i in range(1, 2 * k + 1):
        names += [f"u_{i}", f"v_{i}", f"w_{i}", f"x_{i}^1" if split else f"x_{i}"]
    if split:
        names += [f"x_{i}^2" for i in range(1, 2 * k + 1)]
    edges = []
    for i, (a, b, c, d, e) in enumerate(zip(*m.grid), start=1):
        u, x2 = _fan(i, "u"), _fan(i, "x2" if split else "x", k)
        edges += [(u, u + 2, a), (u + 1, u + 2, b), (u + 2, u + 3, c),
                  (u, x2, d), (u + 1, x2, e)]
    return new_graph(names, edges), m


def _build_fb_units(k: int) -> tuple:
    """2k disjoint fan units; hub sums vary per column, u/v/w are constant."""
    g, m = _fan_units(k)
    return g, _expected(_fan_classes(k, *((sum(col[2:]), 1, 3) for col in zip(*m.grid))))


def _build_fb(k: int) -> tuple:
    """Fan with 2k blades: all unit hubs fused into one vertex x."""
    g, _ = _fan_units(k)
    g = apply_merge(g, [([_fan(i, "x") for i in range(1, 2 * k + 1)], "x")])
    return g, _expected(_fan_classes(k, (k * (34 * k + 4), 1, 6 * k)))


def _rfb_component_units(r: int, s: int) -> list[list[int]]:
    """Fan units of each rFB(s) component: block j of s/2 and its mirror."""
    halves = (_block(j, s // 2) for j in range(1, r + 1))
    return [sorted([*half, *(r * s + 1 - i for i in half)]) for half in halves]


def _across_components(r: int, s: int, roles: str) -> Iterator[tuple[list[int], str]]:
    """Unit j of every rFB(s) component, fused per role into role_j."""
    for j, units in enumerate(zip(*_rfb_component_units(r, s)), start=1):
        for role in roles:
            yield [_fan(i, role) for i in units], f"{role}_{j}"


def _build_rfb(v: int, r: int, s: int) -> tuple:
    """r disjoint fans with s blades each; hubs fuse mirrored column pairs.

    Variant 0 is rFB(s); FB1 also fuses the degree-2 tips across
    components, FB2 the degree-3 centers.
    """
    _check(r >= 2, "r must be >= 2")
    _check(s >= 2 and s % 2 == 0, "s must be even and >= 2")
    _check(r * s >= 4, "rs must be >= 4")
    k = r * s // 2
    g, _ = _fan_units(k)
    groups = [([_fan(i, "x") for i in units], f"x_{j}")
              for j, units in enumerate(_rfb_component_units(r, s), start=1)]
    classes = _fan_classes(k, (s * (17 * k + 2), r, 3 * s))
    warnings: tuple[str, ...] = ()
    if v == 1:
        groups += _across_components(r, s, "uv")
        classes[0] = (r * (10 * k + 1), 2 * s, 2 * r)
        if r % 4 == 0:
            warnings = (f"r = {r} is divisible by 4: distinctness of "
                        f"{r}*(10k+1) and s*(17k+2) is not guaranteed",)
    elif v == 2:
        groups += _across_components(r, s, "w")
        classes[1] = (r * (13 * k + 1), s, 3 * r)
        if (r * s) % 4 == 0:
            warnings = (f"rs = {r * s} is divisible by 4: distinctness of "
                        f"{r}*(13k+1) and s*(17k+2) is not guaranteed",)
    return apply_merge(g, groups), _expected(classes), warnings


def _diamond_hubs(r: int, s: int, mirror: int, k: int,
                  fused: Callable[[str, int], str] = "{}_{}".format,
                  ) -> list[tuple[list[int], str]]:
    """Diamond fan j's hubs among 2k split fan units: y_j fuses the x^1
    halves of unit block j with the x^2 halves of block mirror+1-j, and z_j
    the other halves.  Hub h_j goes into the vertex ``fused(h, j)``; hubs
    given one name fuse."""
    hubs: dict[str, list[int]] = {}
    for j in range(1, r + 1):
        front, back = _block(j, s), _block(mirror + 1 - j, s)
        for h, (ones, twos) in (("y", (front, back)), ("z", (back, front))):
            hubs.setdefault(fused(h, j), []).extend(
                [_fan(i, "x") for i in ones] + [_fan(i, "x2", k) for i in twos])
    return [(members, name) for name, members in hubs.items()]


def _across_fans(r: int, s: int, roles: str,
                 name: str) -> Iterator[tuple[list[int], str]]:
    """Per unit position a and role, one group across the front blocks
    1..r and one across their mirror blocks 2r+1-j; the groups are named
    name_t_a, with t counting the (role, side) pairs."""
    sides = ([_block(j, s) for j in range(1, r + 1)],
             [_block(2 * r + 1 - j, s) for j in range(1, r + 1)])
    for a in range(s):
        for t, (role, blocks) in enumerate(product(roles, sides), start=1):
            yield [_fan(b[a], role) for b in blocks], f"{name}_{t}_{a + 1}"


def _build_rdf(v: int, r: int, s: int) -> tuple:
    """r diamond fans of size 10s built from 2rs fan units by hub splitting.

    Variant 0 is rDF(s); DF1 also fuses the centers across fans, DF2 the
    tips, DF3 all y hubs into y and all z hubs into z, DF4 each y_j with
    z_(j+1) into yz_j.
    """
    if v:
        _check(r >= 2, "r must be >= 2")
        _check(s >= 1, "s must be >= 1")
        _check(v != 4 or r % 2 == 0, "variant 4 needs even r")
    _check(r >= 1 and s >= 1, "r and s must be >= 1")
    _check(r * s >= 2, "rs must be >= 2")
    k = r * s
    g, _ = _fan_units(k, True)
    hub = s * (17 * k + 2)
    classes = _fan_classes(k, (hub, 2 * r, 3 * s))
    fused = "{}_{}".format
    across: Iterable[tuple[list[int], str]] = ()
    warnings: tuple[str, ...] = ()
    if v == 1:
        across = _across_fans(r, s, "w", "alpha")
        classes[1] = (r * (13 * k + 1), 2 * s, 3 * r)
        if s % 2 or (r * s) % 4 == 0:
            warnings = ("distinctness of r*(13k+1) and s*(17k+2) is only "
                        "guaranteed for even s with rs not divisible by 4",)
    elif v == 2:
        across = _across_fans(r, s, "uv", "beta")
        classes[0] = (r * (10 * k + 1), 4 * s, 2 * r)
        if s % 2 or r % 4 == 0:
            warnings = ("distinctness of r*(10k+1) and s*(17k+2) is only "
                        "guaranteed for even s with r not divisible by 4",)
    elif v == 3:
        fused = lambda h, j: h
        classes[2] = (r * hub, 2, 3 * r * s)
    elif v == 4:
        fused = lambda h, j: f"yz_{j if h == 'y' else (j - 2) % r + 1}"
        classes[2] = (2 * hub, r, 6 * s)
    g = apply_merge(g, [*_diamond_hubs(r, s, 2 * r, k, fused), *across])
    return g, _expected(classes), warnings


def _build_dfr(r: int, s: int) -> tuple:
    """r diamond fans plus one s-blade fan; the middle unit block's hub
    halves fuse back into the fan's hub x."""
    _check(r >= 1, "r must be >= 1")
    _check(s >= 2 and s % 2 == 0, "s must be even and >= 2")
    k = (2 * r + 1) * s // 2
    middle = _block(r + 1, s)
    g, _ = _fan_units(k, True)
    g = apply_merge(g, [([_fan(i, x, k) for i in middle for x in ("x", "x2")], "x"),
                        *_diamond_hubs(r, s, 2 * r + 1, k)])
    return g, _expected(_fan_classes(k, (s * (17 * k + 2), 2 * r + 1, 3 * s)))


# ---------------------------------------------------------------------------
# prism families (6 x 4n sequences)


def _nc(a: int, role: str, i: int) -> int:
    """Id of nC4(8,2) copy a's vertex role_a_i: role u on the outer cycle,
    v on the inner one, i = 1..8 around it."""
    return 16 * a - 16 + 8 * "uv".index(role) + i - 1


@_shared
def _nc_units(n: int) -> LabeledGraph:
    """n copies of the 8-prism with alternating rungs removed.

    Copy a's outer 8-cycle takes sequence a's terms at positions
    1,3,4,6,7,9,10,12; the inner cycle takes sequence n+a likewise; the four
    surviving rungs take positions 2,5,8,11 (shared by both sequences).
    The value is shared (``shared_units``) and never mutated.
    """
    seqs = sequences_6x4n(n)
    names = [f"{x}_{a}_{i}" for a in range(1, n + 1) for x in "uv" for i in range(1, 9)]
    cycle_pos = (0, 2, 3, 5, 6, 8, 9, 11)
    rung_pos = (1, 4, 7, 10)
    edges = []
    for a in range(1, n + 1):
        outer, inner = seqs[a - 1], seqs[n + a - 1]
        u, v = _nc(a, "u", 1), _nc(a, "v", 1)
        for i in range(7):
            edges += [(u + i, u + i + 1, outer[cycle_pos[i]]),
                      (v + i, v + i + 1, inner[cycle_pos[i]])]
        edges += [(u, u + 7, outer[cycle_pos[7]]), (v, v + 7, inner[cycle_pos[7]])]
        edges += [(u + i, v + i, outer[p]) for i, p in zip((1, 3, 5, 7), rung_pos)]
    return new_graph(names, edges)


def _build_nc482(n: int) -> tuple:
    """nC4(8,2): the units alone."""
    return _nc_units(n), _expected(_prism_classes(n, (20 * n + 1, 8 * n, 2)))


# G variant -> (role, corner, fused index) per copy: role_c_corner of every
# copy c of block b fuses into ROLE_b_index
_G_CORNERS = {
    1: [(role, 2 * j - 1, j) for j in range(1, 5) for role in "uv"],
    2: [("u", 2, 1), ("u", 8, 4), ("v", 4, 2), ("v", 6, 3)],
}


def _build_g(v: int, r: int, s: int) -> tuple:
    """nC4(8,2) with corners fused across each block of s copies: 1 fuses
    the degree-2 cycle corners, 2 the 30n+1 degree-3 vertices."""
    _check(r >= 1, "r must be >= 1")
    _check(s >= 2, "s must be >= 2")
    n = r * s
    g = apply_merge(_nc_units(n), (
        ([_nc(c, role, p) for c in _block(b, s)], f"{role.upper()}_{b}_{j}")
        for b in range(1, r + 1) for role, p, j in _G_CORNERS[v]))
    if v == 1:
        classes = _prism_classes(n, (s * (20 * n + 1), 8 * r, 2 * s))
    else:
        classes = [(20 * n + 1, 8 * n, 2), (30 * n + 2, 4 * n, 3),
                   (s * (30 * n + 1), 4 * r, 3 * s)]
    return g, _expected(classes)


_H_MERGES = {
    1: ((("u", 1), ("u", 5)), (("u", 3), ("u", 7)),
        (("v", 1), ("v", 5)), (("v", 3), ("v", 7))),
    2: ((("u", 1), ("v", 7)), (("u", 5), ("v", 3)),
        (("u", 3), ("v", 5)), (("u", 7), ("v", 1))),
    3: ((("u", 1), ("v", 1)), (("u", 5), ("v", 5)),
        (("u", 3), ("v", 3)), (("u", 7), ("v", 7))),
}


def _h_family(m: int, r: int, s: int, names: str) -> tuple:
    """nC4(8,2) on n = rs copies with the four corner pairs of variant m
    in every copy of block b (of s copies) fused across the block into
    x_b_1, x_b_2, y_b_1, y_b_2, with x and y the two letters of ``names``."""
    n = r * s
    g = apply_merge(_nc_units(n), (
        ([_nc(c, role, p) for c in _block(b, s) for role, p in pair], f"{x}_{b}_{j}")
        for b in range(1, r + 1)
        for pair, (x, j) in zip(_H_MERGES[m], product(names, (1, 2)))))
    return g, _expected(_prism_classes(n, (s * (40 * n + 2), 4 * r, 4 * s)))


def _build_h(m: int, n: int) -> tuple:
    """nC4(8,2) with two corner pairs per cycle fused into degree-4 vertices:
    H_m(rs) at r = n, s = 1, with lower-case fused names.

    Variant 1 folds each cycle onto itself, variant 2 fuses opposite
    corners across the two cycles, variant 3 fuses aligned corners (each
    component becomes a triangular bracelet).
    """
    return _h_family(m, n, 1, "xy")


def _build_hm_rs(m: int, r: int, s: int) -> tuple:
    """H_m(rs) with the degree-4 vertices fused across each block of s
    copies; H_m(n) is its s = 1 case."""
    _check(m in (1, 2, 3), "m must be 1, 2 or 3")
    _check(r >= 1, "r must be >= 1")
    _check(s >= 2, "s must be >= 2")
    return _h_family(m, r, s, "XY")


# ---------------------------------------------------------------------------
# 8-cycle-with-chord families (k x 10 matrix)


def _prism(i: int, j: int) -> int:
    """Id of prism unit i's vertex u_i_j for j = 1..8 around the cycle, and
    of its spoke vertex x_i for j = 9."""
    return 9 * i - 9 + j - 1


@_shared
def _prism_units(k: int) -> LabeledGraph:
    """k disjoint 8-cycles, each with a spoke vertex x_i joined to u_2 and u_6.

    Row i labels unit i: columns 1-8 go around the cycle, columns 9 and 10
    go on the two spokes.  The value is shared (``shared_units``) and
    never mutated.
    """
    m = matrix_kx10(k)
    names = [f"u_{i}_{j}" if j < 9 else f"x_{i}"
             for i in range(1, k + 1) for j in range(1, 10)]
    edges = []
    for i, row in enumerate(m.grid, start=1):
        u, x = _prism(i, 1), _prism(i, 9)
        edges += [(u + j, u + j + 1, row[j]) for j in range(7)]
        edges += [(u, u + 7, row[7]), (u + 1, x, row[8]), (u + 5, x, row[9])]
    return new_graph(names, edges)


_DEGREE3_NOTE = ("degree-3 color verified as 13k+1 (column triple sums); "
                 "the alternative stated value 13k+2 fails verification")
_FUSED_D82_NOTE = ("degree-6 fused color is (10k+1)+(6k+2)+(18k+1) = 34k+4; "
                   "the alternative stated value 34k+2 fails verification")


def _build_c8(fuse: tuple[int, ...], name: str, exact: bool,
              classes: tuple[tuple[int, int, int, int], ...], notes: tuple[str, ...],
              k: int) -> tuple:
    """k 8-cycles, each with a 2-spoke vertex, and per unit i the vertices
    at positions ``fuse`` (j in ``_prism(i, j)``) fused into one, name_i:
    none (C8 units), u_4 and u_8 (Bk, color 24k+3), x and u_8 (kC(8,2),
    color 28k+2), or x, u_4 and u_8 (kD(8,2), degree 6, color 34k+4).
    The claim has ``classes`` as (a, b, c, degree) for value a*k + b on
    c*k vertices, exactly or (``exact`` False) as an upper bound."""
    g = _prism_units(k)
    if fuse:
        g = apply_merge(g, [([_prism(i, j) for j in fuse], f"{name}_{i}")
                            for i in range(1, k + 1)])
    return g, _expected([(a * k + b, c * k, d) for a, b, c, d in classes], exact), (), notes


def _rg_groups(r: int, s: int) -> Iterator[tuple[list[int], str]]:
    """Per block a of s units, p_a fuses the z vertices (x with u_8) of the
    first s//2 units with the u_4 corners of the last s//2, and q_a the
    other way round; for odd s the middle unit gives its u_8 to p_a and
    its u_4 to q_a."""
    half = s // 2
    for a in range(1, r + 1):
        block = _block(a, s)
        first, mid, last = block[:half], block[half:s - half], block[s - half:]
        yield ([_prism(c, j) for c in first for j in (9, 8)]
               + [_prism(c, 8) for c in mid] + [_prism(c, 4) for c in last], f"p_{a}")
        yield ([_prism(c, j) for c in last for j in (9, 8)]
               + [_prism(c, 4) for c in (*first, *mid)], f"q_{a}")


def _build_rg82(r: int, s: int) -> tuple:
    """r components, each fusing s C(8,2) copies at two degree-3s vertices.

    Per block a the z vertices of the first half-block fuse with the u_4
    vertices of the second half-block (and vice versa); each fused vertex
    is one vertex per set, which is the only reading giving degree 3s and
    color s(17k+2).
    """
    _check(r >= 1, "r must be >= 1")
    _check(s >= 2 and s % 2 == 0, "s must be even and >= 2")
    k = r * s
    g = apply_merge(_prism_units(k), _rg_groups(r, s))
    return g, _expected(_fan_classes(k, (s * (17 * k + 2), 2 * r, 3 * s))), (), (_DEGREE3_NOTE,)


def _build_oddk_h(r: int, s: int) -> tuple:
    """Experimental odd-k analog of rG(8,2); k = rs odd.

    The merge-index ranges defining this family are ambiguous (read
    literally they run past the number of copies), so this builder uses a
    balanced per-block reading (``_rg_groups``): in each block of s copies
    the middle copy keeps its spoke vertex x and corner u_8 separate, the
    leading (s-1)/2 copies contribute their z vertices and the trailing
    (s-1)/2 copies their u_4 corners.  That achieves the
    documented color set {10k+1, 13k+1, (s-1)(17k+2)+18k+1,
    (s-1)(17k+2)+6k+2}; the fused vertices have degree 3(s-1)+2.
    The claim is re-verified after construction and any mismatch is
    reported in the notes, never asserted.
    """
    _check(r >= 1 and s >= 1, "r and s must be >= 1")
    k = r * s
    _check(k % 2 == 1 and k >= 3, "k = rs must be odd and >= 3")
    g = _prism_units(k)
    if s > 1:  # s = 1 fuses nothing
        g = apply_merge(g, _rg_groups(r, s))

    hub_deg = 3 * (s - 1) + 2
    claimed = [
        (10 * k + 1, 4 * k + r, 2),
        (13 * k + 1, 2 * k, 3),
        ((s - 1) * (17 * k + 2) + 18 * k + 1, r, hub_deg),
        ((s - 1) * (17 * k + 2) + 6 * k + 2, r, hub_deg),
    ]
    expected = _expected(claimed, exact=False)

    achieved = sorted(set(vertex_sums(g)))
    claimed_values = sorted(c[0] for c in claimed)
    notes = [
        "experimental construction: the defining merge-index ranges are "
        "ambiguous; a balanced per-block reading is used (see docstring)",
    ]
    if achieved == claimed_values:
        notes.append("post-hoc check: achieved colors match the claimed set")
    else:
        notes.append(
            "post-hoc check FAILED: achieved colors "
            f"{achieved} differ from claimed {claimed_values}"
        )
    return g, expected, ("experimental construction; claims verified post hoc",), tuple(notes)


# ---------------------------------------------------------------------------
# registry


def _rs(*points: tuple[int, int]) -> tuple[dict, ...]:
    """A grid of (r, s) points."""
    return tuple({"r": r, "s": s} for r, s in points)


# Acceptance grids, for the verification suite and the selftest command:
# every point satisfies the family's hypotheses, sizes reach ~600 edges.
# Families built alike share one grid.
_FB_GRID = tuple({"k": k} for k in (1, 2, 3, 4, 5, 6, 8, 12, 30, 60))
_NC_GRID = tuple({"n": n} for n in (1, 2, 3, 4, 5, 6, 7, 8, 15, 30))
_G_GRID = _rs((1, 2), (1, 3), (2, 2), (1, 4), (3, 2), (2, 3), (1, 5), (4, 2), (2, 4), (10, 3))
_C8_GRID = tuple({"k": k} for k in (1, 2, 3, 4, 5, 6, 7, 8, 20, 60))

# tag -> (builder, acceptance grid); the grid's first point gives
# build_family the builder's parameter names
FAMILIES: dict[str, tuple[Callable[..., tuple], tuple[dict, ...]]] = {
    "FB_units": (_build_fb_units, _FB_GRID),
    "FB": (_build_fb, _FB_GRID),
    "rFB": (partial(_build_rfb, 0), _rs((2, 2), (3, 2), (4, 2), (5, 2), (2, 4), (3, 4),
                                       (2, 6), (4, 4), (6, 2), (12, 10))),
    "FB1": (partial(_build_rfb, 1), _rs((2, 2), (3, 2), (5, 2), (6, 2), (7, 2), (2, 4),
                                       (3, 4), (6, 4), (5, 6), (10, 12))),
    "FB2": (partial(_build_rfb, 2), _rs((3, 2), (5, 2), (7, 2), (9, 2), (3, 6), (5, 6),
                                       (11, 2), (3, 10), (7, 6), (19, 6))),
    "rDF": (partial(_build_rdf, 0), _rs((1, 2), (2, 1), (2, 2), (3, 2), (1, 4), (4, 1),
                                       (3, 3), (2, 4), (5, 2), (6, 10))),
    "DFr": (_build_dfr, _rs((1, 2), (2, 2), (3, 2), (1, 4), (2, 4), (4, 2),
                           (5, 2), (3, 4), (1, 6), (9, 6))),
    "DF1": (partial(_build_rdf, 1), _rs((3, 2), (5, 2), (7, 2), (9, 2), (3, 6), (5, 6),
                                       (11, 2), (13, 2), (3, 10), (5, 10))),
    "DF2": (partial(_build_rdf, 2), _rs((2, 2), (3, 2), (5, 2), (6, 2), (7, 2), (2, 4),
                                       (3, 4), (6, 4), (5, 6), (10, 6))),
    "DF3": (partial(_build_rdf, 3), _rs((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3),
                                       (5, 2), (4, 3), (6, 2), (10, 6))),
    "DF4": (partial(_build_rdf, 4), _rs((2, 1), (2, 2), (4, 1), (2, 3), (4, 2), (6, 1),
                                       (2, 4), (4, 3), (6, 2), (10, 6))),
    "nC482": (_build_nc482, _NC_GRID),
    **{f"G{v}": (partial(_build_g, v), _G_GRID) for v in (1, 2)},
    **{f"H{m}": (partial(_build_h, m), _NC_GRID) for m in (1, 2, 3)},
    "Hm_rs": (_build_hm_rs, tuple({"m": m, "r": r, "s": s} for m in (1, 2, 3)
                                 for r, s in ((1, 2), (2, 2), (1, 3), (3, 2), (2, 3),
                                              (1, 4), (4, 2), (5, 2), (2, 4), (10, 3)))),
    "C8_units": (partial(_build_c8, (), "", False,
                         ((10, 1, 5, 2), (13, 1, 2, 3), (6, 2, 1, 2), (18, 1, 1, 2)),
                         (_DEGREE3_NOTE,)), _C8_GRID),
    "Bk": (partial(_build_c8, (4, 8), "b", False,
                   ((10, 1, 5, 2), (13, 1, 2, 3), (24, 3, 1, 4)), (_DEGREE3_NOTE,)), _C8_GRID),
    "kC82": (partial(_build_c8, (9, 8), "z", False,
                     ((10, 1, 4, 2), (6, 2, 1, 2), (13, 1, 2, 3), (28, 2, 1, 4)),
                     (_DEGREE3_NOTE,)), _C8_GRID),
    "kD82": (partial(_build_c8, (9, 4, 8), "w", True,
                     ((10, 1, 4, 2), (13, 1, 2, 3), (34, 4, 1, 6)),
                     (_DEGREE3_NOTE, _FUSED_D82_NOTE)), _C8_GRID),
    "rG82": (_build_rg82, _rs((1, 2), (2, 2), (1, 4), (3, 2), (2, 4), (1, 6),
                             (4, 2), (5, 2), (3, 4), (10, 6))),
    "OddKH": (_build_oddk_h, _rs((1, 3), (3, 1), (1, 5), (5, 1), (1, 7), (3, 3),
                                (7, 1), (1, 9), (9, 1), (5, 3))),
}

_TAG_LOOKUP = {tag.lower().replace("-", "_"): tag for tag in FAMILIES}


def build_family(tag: str, **params: int) -> BuiltFamily:
    key = tag.lower().replace("-", "_")
    if key not in _TAG_LOOKUP:
        raise ParameterError(
            f"unknown family {tag!r}; known: {', '.join(sorted(FAMILIES))}")
    tag = _TAG_LOOKUP[key]
    build, grid = FAMILIES[tag]
    names = tuple(grid[0])
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing:
        raise ParameterError(f"{tag} needs parameters {names}; missing {missing}")
    if extra:
        raise ParameterError(f"{tag} takes parameters {names}; got extra {extra}")
    for p, value in params.items():
        if type(value) is not int:  # bool is an int subclass, so compare types
            raise ParameterError(f"{tag} parameter {p} must be an integer, got {value!r}")
    return BuiltFamily(tag, params, *build(**params))
