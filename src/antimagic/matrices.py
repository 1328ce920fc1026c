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

All arithmetic is exact.  Validators return a check list and never throw
on a matrix of their own kind, as every generator here builds it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

KIND_5X2K = "5x2k"
KIND_6X4N = "6x4n"
KIND_KX10 = "kx10"


@dataclass(frozen=True)
class LabelMatrix:
    kind: str
    param: int  # k for 5x2k and kx10, n for 6x4n
    grid: tuple[tuple[int, ...], ...]  # row-major
    sequences: tuple[tuple[int, ...], ...] | None = None  # 6x4n only

    def flat(self) -> list[int]:
        return [x for row in self.grid for x in row]

    def column(self, j: int) -> tuple[int, ...]:
        """1-based column access."""
        return tuple(row[j - 1] for row in self.grid)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _require_param(value: int, name: str) -> None:
    if type(value) is not int or value < 1:  # bool is an int subclass
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


# ---------------------------------------------------------------------------
# 5 x 2k


def matrix_5x2k(k: int) -> LabelMatrix:
    _require_param(k, "k")
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


def validate_5x2k(m: LabelMatrix) -> ValidationReport:
    checks: list[Check] = []
    k = m.param
    cols = 2 * k
    r1, r2, r3, r4, r5 = m.grid

    checks.append(_bijection_check(m.flat(), 10 * k))

    bad = [j for j in range(cols) if r1[j] + r2[j] + r3[j] != 13 * k + 1]
    checks.append(Check("column_sum_rows_1_3", not bad,
                        f"columns {bad} do not sum to {13 * k + 1}" if bad else ""))
    bad = [j for j in range(cols) if r1[j] + r4[j] != 10 * k + 1]
    checks.append(Check("column_sum_rows_1_4", not bad,
                        f"columns {bad} do not sum to {10 * k + 1}" if bad else ""))
    bad = [j for j in range(cols) if r2[j] + r5[j] != 10 * k + 1]
    checks.append(Check("column_sum_rows_2_5", not bad,
                        f"columns {bad} do not sum to {10 * k + 1}" if bad else ""))

    bottom = [r3[j] + r4[j] + r5[j] for j in range(cols)]
    mirror_ok = all(bottom[a - 1] + bottom[cols - a] == 34 * k + 4 for a in range(1, k + 1))
    ends_ok = bottom[0] == 21 * k + 1 and bottom[cols - 1] == 13 * k + 3
    left = bottom[1:k]
    right = bottom[k:cols - 1]
    ap_left = left == list(range(19 * k - 1, 15 * k + 3, -4))
    ap_right = right == list(range(19 * k - 3, 15 * k + 1, -4))
    checks.append(Check("mirror_sum_rows_3_5", mirror_ok and ends_ok and ap_left and ap_right,
                        "" if mirror_ok and ends_ok and ap_left and ap_right
                        else f"bottom sums {bottom} break the mirror/endpoint/AP structure"))

    total = sum(bottom)
    checks.append(Check("total_rows_3_5", total == k * (34 * k + 4),
                        "" if total == k * (34 * k + 4)
                        else f"total {total} != {k * (34 * k + 4)}"))

    checks.append(_block_sums_check(m))

    bad = [i for i in range(1, cols + 1)
           if r2[i - 1] + r3[i - 1] + r4[cols - i] != 21 * k + 1]
    checks.append(Check("rows_2_3_4_mirror", not bad,
                        f"positions {bad} do not sum to {21 * k + 1}" if bad else ""))
    bad = [i for i in range(1, k + 1) if r4[i - 1] + r4[cols - i] != 18 * k + 1]
    checks.append(Check("row_4_mirror", not bad,
                        f"positions {bad} do not sum to {18 * k + 1}" if bad else ""))
    bad = [i for i in range(1, k + 1) if r5[i - 1] + r5[cols - i] != 6 * k + 2]
    checks.append(Check("row_5_mirror", not bad,
                        f"positions {bad} do not sum to {6 * k + 2}" if bad else ""))
    return ValidationReport(tuple(checks))


def _block_sums_check(m: LabelMatrix) -> Check:
    """For every factorization 2k = r*s (r >= 2): row-3 sums of block j plus
    row-4/5 sums of the mirror block equal s(17k+2); for odd r the middle
    block's full bottom sum equals the same constant."""
    k = m.param
    cols = 2 * k
    _, _, r3, r4, r5 = m.grid
    failures = []
    for r in range(2, cols + 1):
        if cols % r:
            continue
        s = cols // r
        k3 = s * (17 * k + 2)

        def row3_block(j: int) -> int:
            return sum(r3[(j - 1) * s + a] for a in range(s))

        def rows45_block(j: int) -> int:
            return sum(r4[(j - 1) * s + a] + r5[(j - 1) * s + a] for a in range(s))

        for j in range(1, r // 2 + 1):
            if row3_block(j) + rows45_block(r + 1 - j) != k3:
                failures.append((r, s, j))
        if r % 2:
            mid = (r + 1) // 2
            if row3_block(mid) + rows45_block(mid) != k3:
                failures.append((r, s, "middle"))
    return Check("block_sums", not failures,
                 f"(r, s, j) failures: {failures}" if failures else "")


# ---------------------------------------------------------------------------
# 6 x 4n sequences and grid


def sequences_6x4n(n: int) -> tuple[tuple[int, ...], ...]:
    _require_param(n, "n")
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


def expected_6x4n_multiset(n: int) -> Counter:
    want = Counter(range(1, 20 * n + 1))
    for v in range(2 * n + 1, 4 * n + 1):
        want[v] += 1
    for v in range(16 * n + 1, 18 * n + 1):
        want[v] += 1
    return want


def validate_6x4n(sequences: tuple[tuple[int, ...], ...]) -> ValidationReport:
    checks: list[Check] = []
    count = len(sequences)
    if count == 0 or count % 2 or any(len(t) != 12 for t in sequences):
        return ValidationReport(
            (Check("shape", False, "need an even number of length-12 sequences"),))
    n = count // 2
    checks.append(Check("shape", True))

    have = Counter(t for seq in sequences for t in seq)
    ok = have == expected_6x4n_multiset(n)
    checks.append(Check("term_multiset", ok,
                        "" if ok else "terms do not cover [1,20n] with the doubled bands"))

    bad = []
    for i, t in enumerate(sequences, start=1):
        if not (t[0] + t[11] == t[5] + t[6] == t[8] + t[9] == 20 * n + 1):
            bad.append(i)
    checks.append(Check("end_pair_sums", not bad,
                        f"sequences {bad} break the {20 * n + 1} pair sums" if bad else ""))

    bad = []
    for i, t in enumerate(sequences, start=1):
        head = t[0] + t[1] + t[2]
        tail = t[9] + t[10] + t[11]
        mid1 = t[3] + t[4] + t[5]
        mid2 = t[6] + t[7] + t[8]
        lo, hi = 30 * n + 1, 30 * n + 2
        want = (lo, lo, hi, hi) if i <= n else (hi, hi, lo, lo)
        if (head, tail, mid1, mid2) != want:
            bad.append(i)
    checks.append(Check("triple_sums", not bad,
                        f"sequences {bad} break the 30n+1/30n+2 triples" if bad else ""))

    bad = []
    for a in range(n):
        for p in (1, 4, 7, 10):
            if sequences[a][p] != sequences[n + a][p]:
                bad.append((a + 1, p + 1))
    checks.append(Check("shared_positions", not bad,
                        f"(sequence, position) mismatches: {bad}" if bad else ""))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# k x 10


def matrix_kx10(k: int) -> LabelMatrix:
    _require_param(k, "k")
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


def validate_kx10(m: LabelMatrix) -> ValidationReport:
    checks: list[Check] = []
    k = m.param
    checks.append(_bijection_check(m.flat(), 10 * k))

    pair_cols = ((1, 8), (2, 3), (4, 5), (6, 7), (9, 10))
    bad = []
    for i, row in enumerate(m.grid, start=1):
        for a, b in pair_cols:
            if row[a - 1] + row[b - 1] != 10 * k + 1:
                bad.append((i, (a, b)))
    checks.append(Check("pair_sums", not bad,
                        f"(row, pair) failures: {bad}" if bad else ""))

    bad = []
    for i, row in enumerate(m.grid, start=1):
        if row[0] + row[1] + row[8] != 13 * k + 1:
            bad.append((i, (1, 2, 9)))
        if row[4] + row[5] + row[9] != 13 * k + 1:
            bad.append((i, (5, 6, 10)))
    checks.append(Check("triple_sums", not bad,
                        f"(row, triple) failures: {bad}" if bad else ""))
    return ValidationReport(tuple(checks))


def _bijection_check(values: list[int], top: int) -> Check:
    ok = sorted(values) == list(range(1, top + 1))
    if ok:
        return Check("bijection", True)
    counts = Counter(values)
    dupes = sorted(v for v, c in counts.items() if c > 1)
    missing = sorted(set(range(1, top + 1)) - set(values))
    return Check("bijection", False,
                 f"not a bijection onto [1,{top}]: duplicates {dupes[:5]}, missing {missing[:5]}")


def validate(m: LabelMatrix) -> ValidationReport:
    """Dispatch to the validator matching the matrix kind."""
    if m.kind == KIND_6X4N:
        return validate_6x4n(m.sequences)
    return validate_5x2k(m) if m.kind == KIND_5X2K else validate_kx10(m)
