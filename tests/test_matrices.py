"""Matrix generators: golden tables, structural identities, perturbation
detection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.matrices import (
    LabelMatrix,
    expected_6x4n_multiset,
    matrix_5x2k,
    matrix_6x4n,
    matrix_kx10,
    sequences_6x4n,
    validate_5x2k,
    validate_6x4n,
    validate_kx10,
)
from golden import (
    COLUMNS_5X2K_K1,
    GRID_5X2K_K6,
    GRID_KX10_K4,
    ROW_KX10_K1,
    SEQUENCES_N6,
)
from helpers import row_structure_6x4n
from collections import Counter


def test_matrix_5x2k_golden_k6():
    assert matrix_5x2k(6).grid == GRID_5X2K_K6


def test_matrix_5x2k_k1_columns():
    m = matrix_5x2k(1)
    columns = list(zip(*m.grid))
    assert columns[0] == COLUMNS_5X2K_K1[0]
    assert columns[1] == COLUMNS_5X2K_K1[1]
    assert validate_5x2k(m).ok


def test_matrix_5x2k_rejects_bad_k():
    with pytest.raises(ValueError):
        matrix_5x2k(0)
    with pytest.raises(ValueError, match="must be an integer"):
        matrix_5x2k(True)  # bool is an int subclass, but not a parameter


@pytest.mark.parametrize("k", list(range(1, 51)))
def test_matrix_5x2k_validates(k):
    m = matrix_5x2k(k)
    assert sorted(m.flat()) == list(range(1, 10 * k + 1))
    report = validate_5x2k(m)
    assert report.ok, report.failures


def test_validate_5x2k_constants_at_k6():
    # degree-3 center color 79 = 13k+1 and tip color 61 = 10k+1 come from
    # the column identities this validator checks
    m = matrix_5x2k(6)
    r1, r2, r3, _, _ = m.grid
    assert all(r1[j] + r2[j] + r3[j] == 79 for j in range(12))
    assert validate_5x2k(m).ok


def test_validate_5x2k_total_k1():
    m = matrix_5x2k(1)
    assert sum(m.grid[2]) + sum(m.grid[3]) + sum(m.grid[4]) == 38


def test_sequences_golden_n6():
    assert sequences_6x4n(6) == SEQUENCES_N6


def test_sequences_n1_multiset():
    seqs = sequences_6x4n(1)
    counts = Counter(t for seq in seqs for t in seq)
    assert sorted(counts.elements()) == expected_6x4n_multiset(1)
    assert counts[3] == counts[4] == counts[17] == counts[18] == 2


@pytest.mark.parametrize("n", list(range(1, 51)))
def test_sequences_validate(n):
    report = validate_6x4n(sequences_6x4n(n))
    assert report.ok, report.failures


def test_matrix_6x4n_n1_row1():
    assert matrix_6x4n(1).grid[0] == (1, 2, 8, 10)


@pytest.mark.parametrize("n", list(range(1, 51)))
def test_matrix_6x4n_structure_and_multiset(n):
    m = matrix_6x4n(n)
    assert row_structure_6x4n(m).ok
    assert sorted(m.flat()) == expected_6x4n_multiset(n)
    # flattened grid and flattened sequences agree as multisets
    assert Counter(m.flat()) == Counter(t for seq in m.sequences for t in seq)


def test_matrix_kx10_golden_k4():
    assert matrix_kx10(4).grid == GRID_KX10_K4


def test_matrix_kx10_k1_row():
    m = matrix_kx10(1)
    assert m.grid[0] == ROW_KX10_K1
    assert sorted(m.flat()) == list(range(1, 11))
    assert validate_kx10(m).ok


@pytest.mark.parametrize("k", list(range(1, 51)))
def test_matrix_kx10_validates(k):
    m = matrix_kx10(k)
    assert sorted(m.flat()) == list(range(1, 10 * k + 1))
    report = validate_kx10(m)
    assert report.ok, report.failures


def test_kx10_k4_row1_arithmetic():
    row = matrix_kx10(4).grid[0]
    assert row[0] + row[7] == 41
    assert row[0] + row[1] + row[8] == 53


def _swap(grid, a, b):
    g = [list(r) for r in grid]
    (i1, j1), (i2, j2) = a, b
    g[i1][j1], g[i2][j2] = g[i2][j2], g[i1][j1]
    return tuple(tuple(r) for r in g)


@settings(max_examples=80)
@given(st.integers(1, 10), st.data())
def test_5x2k_detects_any_swap(k, data):
    m = matrix_5x2k(k)
    cells = [(i, j) for i in range(5) for j in range(2 * k)]
    a = data.draw(st.sampled_from(cells))
    b = data.draw(st.sampled_from([c for c in cells if c != a]))
    tampered = LabelMatrix(m.kind, k, _swap(m.grid, a, b))
    assert not validate_5x2k(tampered).ok


@settings(max_examples=80)
@given(st.integers(1, 10), st.data())
def test_kx10_detects_any_swap(k, data):
    m = matrix_kx10(k)
    cells = [(i, j) for i in range(k) for j in range(10)]
    a = data.draw(st.sampled_from(cells))
    b = data.draw(st.sampled_from([c for c in cells if c != a]))
    tampered = LabelMatrix(m.kind, k, _swap(m.grid, a, b))
    assert not validate_kx10(tampered).ok


@settings(max_examples=80)
@given(st.integers(1, 8), st.data())
def test_6x4n_detects_sequence_swap(n, data):
    seqs = [list(t) for t in sequences_6x4n(n)]
    i = data.draw(st.integers(0, 2 * n - 1))
    p = data.draw(st.integers(0, 11))
    q = data.draw(st.integers(0, 11).filter(lambda x: x != p))
    if seqs[i][p] == seqs[i][q]:  # same value swap cannot be observed
        return
    seqs[i][p], seqs[i][q] = seqs[i][q], seqs[i][p]
    assert not validate_6x4n(tuple(tuple(t) for t in seqs)).ok


CHECK_NAMES = {
    "5x2k": ("bijection", "column_sum_rows_1_3", "column_sum_rows_1_4",
             "column_sum_rows_2_5", "mirror_sum_rows_3_5", "total_rows_3_5",
             "block_sums", "rows_2_3_4_mirror", "row_4_mirror", "row_5_mirror"),
    "6x4n": ("shape", "term_multiset", "end_pair_sums", "triple_sums",
             "shared_positions"),
    "kx10": ("bijection", "pair_sums", "triple_sums"),
}


def _repeat_second(rows):
    """The first entry repeats the second."""
    return ((rows[0][1], *rows[0][1:]), *rows[1:])


# the checks that no swap of two entries can break, each with a change
# that breaks it
NOT_BY_SWAPS = {
    "bijection": _repeat_second,
    "term_multiset": _repeat_second,
    "shape": lambda rows: (rows[0][:-1], *rows[1:]),  # the first row loses an entry
}
VALIDATE_AT_3 = {
    "5x2k": (matrix_5x2k(3).grid, lambda rows: validate_5x2k(LabelMatrix("5x2k", 3, rows))),
    "6x4n": (sequences_6x4n(3), validate_6x4n),
    "kx10": (matrix_kx10(3).grid, lambda rows: validate_kx10(LabelMatrix("kx10", 3, rows))),
}


@pytest.mark.parametrize("kind", sorted(CHECK_NAMES))
def test_each_named_check_fails_on_some_change(kind):
    rows, check = VALIDATE_AT_3[kind]
    assert tuple(c.name for c in check(rows).checks) == CHECK_NAMES[kind]
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    broken_by_swaps = set()
    for n, a in enumerate(cells):
        for b in cells[n + 1:]:
            broken_by_swaps |= {c.name for c in check(_swap(rows, a, b)).failures}
    assert broken_by_swaps == set(CHECK_NAMES[kind]) - set(NOT_BY_SWAPS)
    for name in set(CHECK_NAMES[kind]) & set(NOT_BY_SWAPS):
        assert name in {c.name for c in check(NOT_BY_SWAPS[name](rows)).failures}


def test_single_entry_perturbation_detected():
    m = matrix_5x2k(3)
    g = [list(r) for r in m.grid]
    g[0][0] = 10 * 3 + 5  # out of range, breaks the bijection
    assert not validate_5x2k(LabelMatrix(m.kind, 3, tuple(tuple(r) for r in g))).ok

    mk = matrix_kx10(3)
    g = [list(r) for r in mk.grid]
    g[1][1] = 1  # duplicate value
    assert not validate_kx10(LabelMatrix(mk.kind, 3, tuple(tuple(r) for r in g))).ok

    seqs = [list(t) for t in sequences_6x4n(2)]
    seqs[0][0] = 99
    assert not validate_6x4n(tuple(tuple(t) for t in seqs)).ok
