"""Integer label matrices with exact structural identities.

Three constructions produce the grids that drive every edge labeling in
this package:

* ``matrix_5x2k(k)``   -- 5 x 2k grid, bijective onto [1, 10k]; column sums
  of rows 1-3 are 13k+1, rows 1+4 and 2+5 sum to 10k+1 per column, and the
  bottom three rows pair up across mirrored columns to 34k+4.
* ``sequences_6x4n(n)`` / ``matrix_6x4n(n)`` -- 2n sequences of length 12
  tracing a 6 x 4n grid over [1, 20n] in which every member of
  [2n+1, 4n] and [16n+1, 18n] appears exactly twice.
* ``matrix_kx10(k)``   -- k x 10 grid, bijective onto [1, 10k]; per-row
  column pairs (1,8), (2,3), (4,5), (6,7), (9,10) sum to 10k+1 and the
  triples (1,2,9), (5,6,10) to 13k+1.

A generator refuses a parameter whose matrix would have more than
``MAX_LABELS`` labels before any work; a family has as many edges as its
one matrix has labels, so this caps every family too.

All arithmetic is exact.  Validators return problem lines and never
throw on a matrix of their own kind, as every generator here builds it:
one ``name: detail`` line for each identity the matrix misses, in a fixed
order of names, and none when it holds them all.  Only the ``detail``
text may change.
"""

from __future__ import annotations

from typing import NamedTuple

from .verify import label_problems

KIND_5X2K = "5x2k"
KIND_6X4N = "6x4n"
KIND_KX10 = "kx10"
MAX_LABELS = 10**6  # no generator makes a matrix with more labels than this


class LabelMatrix(NamedTuple):
    kind: str
    param: int  # k for 5x2k and kx10, n for 6x4n
    grid: tuple[tuple[int, ...], ...]  # row-major
    sequences: tuple[tuple[int, ...], ...] | None = None  # 6x4n only

    def flat(self) -> list[int]:
        return [x for row in self.grid for x in row]


def _require_param(kind: str, name: str, value: int, per: int) -> None:
    if type(value) is not int or value < 1:  # bool is an int subclass
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if per * value > MAX_LABELS:  # per: labels for each unit of the parameter
        raise ValueError(f"matrix {kind} with {name} = {value} would have "
                         f"{per * value} labels, above the cap of {MAX_LABELS}")


# ---------------------------------------------------------------------------
# 5 x 2k


def matrix_5x2k(k: int) -> LabelMatrix:
    _require_param(KIND_5X2K, "k", k, 10)
    r1 = [1] + [k + i - 1 for i in range(2, k + 1)] \
        + [i - k + 1 for i in range(k + 1, 2 * k)] + [2 * k]
    r2 = [6 * k + i - 1 for i in range(1, k + 1)] \
        + [6 * k + i for i in range(k + 1, 2 * k + 1)]
    r3 = [7 * k] + [6 * k + 3 - 2 * i for i in range(2, k + 1)] \
        + [8 * k - 2 * i for i in range(k + 1, 2 * k)] + [3 * k + 1]
    r4 = [10 * k] + [9 * k + 2 - i for i in range(2, k + 1)] \
        + [11 * k - i for i in range(k + 1, 2 * k)] + [8 * k + 1]
    r5 = [4 * k + 2 - i for i in range(1, k + 1)] \
        + [4 * k + 1 - i for i in range(k + 1, 2 * k + 1)]
    grid = tuple(tuple(r) for r in (r1, r2, r3, r4, r5))
    return LabelMatrix(KIND_5X2K, k, grid)


def validate_5x2k(m: LabelMatrix) -> tuple[str, ...]:
    k = m.param
    cols = 2 * k
    r1, r2, r3, r4, r5 = m.grid
    tip, center = 10 * k + 1, 13 * k + 1
    bottom = [a + b + c for a, b, c in zip(r3, r4, r5)]
    # each column's bottom sum: 21k+1, two descending runs of step 4, 13k+3
    want = [21 * k + 1, *range(19 * k - 1, 15 * k + 3, -4),
            *range(19 * k - 3, 15 * k + 1, -4), 13 * k + 3]
    total = sum(bottom)
    # for every factorization 2k = r*s (r >= 2): the row-3 sum of block j plus
    # the rows-4/5 sum of the mirror block r+1-j is s(17k+2); for odd r the
    # middle block is its own mirror
    rows45 = [a + b for a, b in zip(r4, r5)]
    blocks = []
    for r in range(2, cols + 1):
        if cols % r == 0:
            s = cols // r
            blocks += [(r, s, j) for j in range(1, (r + 1) // 2 + 1)
                       if sum(r3[(j - 1) * s:j * s]) + sum(rows45[(r - j) * s:(r + 1 - j) * s])
                       != s * (17 * k + 2)]
    return (
        *_bijection_check(m.flat(), 10 * k),
        *_identity("column_sum_rows_1_3",
                   [j for j, (a, b, c) in enumerate(zip(r1, r2, r3), 1) if a + b + c != center],
                   center),
        *_identity("column_sum_rows_1_4",
                   [j for j, (a, b) in enumerate(zip(r1, r4), 1) if a + b != tip], tip),
        *_identity("column_sum_rows_2_5",
                   [j for j, (a, b) in enumerate(zip(r2, r5), 1) if a + b != tip], tip),
        *_identity("mirror_sum_rows_3_5",
                   [("pair", a) for a in range(1, k + 1)
                    if bottom[a - 1] + bottom[-a] != 34 * k + 4]
                   + [("column", j, b) for j, (a, b) in enumerate(zip(bottom, want), 1) if a != b],
                   f"{34 * k + 4} per mirrored pair, or the target listed with the column"),
        *_identity("total_rows_3_5", [total] if total != k * (34 * k + 4) else [],
                   k * (34 * k + 4)),
        *_identity("block_sums", blocks, f"s * {17 * k + 2} for each (r, s, j)"),
        *_identity("rows_2_3_4_mirror",
                   [j for j, (a, b, c) in enumerate(zip(r2, r3, r4[::-1]), 1)
                    if a + b + c != 21 * k + 1], 21 * k + 1),
        *_identity("row_4_mirror",
                   [a for a in range(1, k + 1) if r4[a - 1] + r4[-a] != 18 * k + 1], 18 * k + 1),
        *_identity("row_5_mirror",
                   [a for a in range(1, k + 1) if r5[a - 1] + r5[-a] != 6 * k + 2], 6 * k + 2),
    )


# ---------------------------------------------------------------------------
# 6 x 4n sequences and grid


def sequences_6x4n(n: int) -> tuple[tuple[int, ...], ...]:
    _require_param(KIND_6X4N, "n", n, 20)
    seqs: list[tuple[int, ...]] = []
    for a in range(1, n + 1):
        seqs.append((
            a, 16 * n + a, 14 * n + 1 - 2 * a,
            6 * n + 2 * a, 18 * n + 1 - a, 6 * n + 1 - a,
            14 * n + a, 2 * n + a, 14 * n + 2 - 2 * a,
            6 * n - 1 + 2 * a, 4 * n + 1 - a, 20 * n + 1 - a,
        ))
    for b in range(1, n + 1):
        seqs.append((
            4 * n + b, 16 * n + b, 10 * n + 2 - 2 * b,
            10 * n - 1 + 2 * b, 18 * n + 1 - b, 2 * n + 1 - b,
            18 * n + b, 2 * n + b, 10 * n + 1 - 2 * b,
            10 * n + 2 * b, 4 * n + 1 - b, 16 * n + 1 - b,
        ))
    return tuple(seqs)


def matrix_6x4n(n: int) -> LabelMatrix:
    """Grid reconstructed from the sequences (the sequences are the source
    of truth; the closed-form rows are a consequence the tests check).

    Sequence a <= n reads columns a and 2n+a top-down; sequence n+b reads
    columns 4n+1-b and 2n+1-b bottom-up within each half.
    """
    seqs = sequences_6x4n(n)
    cols: list[list[int] | None] = [None] * (4 * n + 1)
    for a in range(1, n + 1):
        t = seqs[a - 1]
        cols[a] = [t[0], t[1], t[2], t[6], t[7], t[8]]
        cols[2 * n + a] = [t[3], t[4], t[5], t[9], t[10], t[11]]
    for b in range(1, n + 1):
        u = seqs[n + b - 1]
        cols[2 * n + 1 - b] = [u[5], u[4], u[3], u[11], u[10], u[9]]
        cols[4 * n + 1 - b] = [u[2], u[1], u[0], u[8], u[7], u[6]]
    grid = tuple(
        tuple(cols[j][r] for j in range(1, 4 * n + 1)) for r in range(6)
    )
    return LabelMatrix(KIND_6X4N, n, grid, seqs)


def expected_6x4n_multiset(n: int) -> list[int]:
    """The terms of ``sequences_6x4n(n)`` in increasing order: [1, 20n]
    with [2n+1, 4n] and [16n+1, 18n] once more."""
    return sorted([*range(1, 20 * n + 1), *range(2 * n + 1, 4 * n + 1),
                   *range(16 * n + 1, 18 * n + 1)])


def validate_6x4n(sequences: tuple[tuple[int, ...], ...]) -> tuple[str, ...]:
    count = len(sequences)
    if count == 0 or count % 2 or any(len(t) != 12 for t in sequences):
        return ("shape: need an even number of length-12 sequences",)
    n = count // 2
    end = 20 * n + 1
    # (head, tail, middle, middle) triple sums: the first n sequences take
    # 30n+1 at the ends, the last n take it in the middle
    lo, hi = 30 * n + 1, 30 * n + 2
    firsts, lasts = (lo, lo, hi, hi), (hi, hi, lo, lo)

    ok = sorted([t for seq in sequences for t in seq]) == expected_6x4n_multiset(n)
    bad = []
    for a in range(n):
        for p in (1, 4, 7, 10):
            if sequences[a][p] != sequences[n + a][p]:
                bad.append((a + 1, p + 1))
    return (
        *(() if ok else ("term_multiset: terms do not cover [1,20n] with the doubled bands",)),
        *_identity("end_pair_sums", [
            i for i, t in enumerate(sequences, 1)
            if not t[0] + t[11] == t[5] + t[6] == t[8] + t[9] == end], end),
        *_identity("triple_sums", [
            i for i, t in enumerate(sequences, 1)
            if (t[0] + t[1] + t[2], t[9] + t[10] + t[11], t[3] + t[4] + t[5], t[6] + t[7] + t[8])
            != (firsts if i <= n else lasts)], "ends 30n+1, middles 30n+2; the reverse after n"),
        *((f"shared_positions: (sequence, position) mismatches: {bad}",) if bad else ()),
    )


# ---------------------------------------------------------------------------
# k x 10


def matrix_kx10(k: int) -> LabelMatrix:
    _require_param(KIND_KX10, "k", k, 10)
    rows = []
    for i in range(1, k + 1):
        rows.append((
            1 if i == 1 else k + i - 1,
            6 * k + i - 1,
            4 * k + 2 - i,
            2 * k + i,
            8 * k + 1 - i,
            2 * k if i == 1 else k + 2 - i,
            8 * k + 1 if i == 1 else 9 * k + i - 1,
            10 * k if i == 1 else 9 * k + 2 - i,
            7 * k if i == 1 else 6 * k + 3 - 2 * i,
            3 * k + 1 if i == 1 else 4 * k - 2 + 2 * i,
        ))
    return LabelMatrix(KIND_KX10, k, tuple(rows))


# 0-based columns of the kx10 identities; every row meets each of them
_KX10_PAIRS = ((0, 7), (1, 2), (3, 4), (5, 6), (8, 9))  # sum 10k+1
_KX10_TRIPLES = ((0, 1, 8), (4, 5, 9))  # sum 13k+1


def validate_kx10(m: LabelMatrix) -> tuple[str, ...]:
    k = m.param
    tip, center = 10 * k + 1, 13 * k + 1
    return (
        *_bijection_check(m.flat(), 10 * k),
        *_identity("pair_sums", [(i, a + 1, b + 1) for i, row in enumerate(m.grid, 1)
                                 for a, b in _KX10_PAIRS if row[a] + row[b] != tip], tip),
        *_identity("triple_sums", [(i, a + 1, b + 1, c + 1) for i, row in enumerate(m.grid, 1)
                                   for a, b, c in _KX10_TRIPLES
                                   if row[a] + row[b] + row[c] != center], center),
    )


def _identity(name: str, bad: list, target) -> tuple[str, ...]:
    """The problem line of one identity, or none: it holds when nothing in
    ``bad`` (the places that miss it) is left; ``target`` is what they
    should sum to."""
    return (f"{name}: {bad} do not sum to {target}",) if bad else ()


def _bijection_check(values: list[int], top: int) -> tuple[str, ...]:
    problems = label_problems(values, top)
    return (f"bijection: {'; '.join(problems[:5])}",) if problems else ()


def validate(m: LabelMatrix) -> tuple[str, ...]:
    """Dispatch to the validator matching the matrix kind."""
    if m.kind == KIND_6X4N:
        return validate_6x4n(m.sequences)
    return validate_5x2k(m) if m.kind == KIND_5X2K else validate_kx10(m)
