import random

import pytest

from goppacrypt.binmat import BinMatrix, rref, transpose
from testlib import (
    RankDeficiencyError, from_entries, identity, mul_vec_bitloop, null_space,
    permute_cols, systematic_form, transpose_bitloop, vstack,
)


def random_matrix(rng, rows, cols):
    return BinMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def naive_rank(M):
    rows = [M.row(i) for i in range(M.rows)]
    rank = 0
    for col in range(M.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i] >> col & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> col & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def row_space(M):
    space = {0}
    for i in range(M.rows):
        space |= {v ^ M.row(i) for v in space}
    return space


def test_construction_and_access():
    M = BinMatrix(2, 3, [0b101, 0b010])
    assert (M.rows, M.cols) == (2, 3)
    assert M.get(0, 0) == 1 and M.get(0, 1) == 0 and M.get(0, 2) == 1
    assert M.get(1, 1) == 1
    assert M.row(0) == 0b101
    # out-of-width bits are masked off
    assert BinMatrix(1, 2, [0b111]).row(0) == 0b11
    assert identity(3).get(2, 2) == 1
    assert identity(3).get(0, 2) == 0
    E = from_entries([[1, 0], [1, 1]])
    assert E.row(0) == 0b01 and E.row(1) == 0b11


def test_equality_and_hash():
    A = BinMatrix(2, 2, [1, 2])
    B = from_entries([[1, 0], [0, 1]])
    assert A == B and hash(A) == hash(B)
    assert A != BinMatrix(2, 2, [1, 3])
    assert A != BinMatrix(1, 4, [9])


def test_mul_vec_matches_naive():
    # the digit-string parity against the entry loop, from 0 rows (whose
    # product is 0) and 1 row up to a few hundred rows and columns
    rng = random.Random(3)
    shapes = [(0, 0), (0, 7), (1, 1), (1, 9), (5, 0), (3, 70)]
    shapes += [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(40)]
    shapes += [(rng.randrange(9, 300), rng.randrange(9, 300))
               for _ in range(8)]
    for rows, cols in shapes:
        M = random_matrix(rng, rows, cols)
        for x in (0, (1 << cols) - 1, rng.getrandbits(cols),
                  rng.getrandbits(cols + 5)):  # bits past cols are ignored
            assert M.mul_vec(x) == mul_vec_bitloop(M, x)


def test_transpose():
    rng = random.Random(5)
    for _ in range(30):
        M = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 10))
        T = transpose(M)
        assert (T.rows, T.cols) == (M.cols, M.rows)
        for i in range(M.rows):
            for j in range(M.cols):
                assert M.get(i, j) == T.get(j, i)
        assert transpose(T) == M


def test_transpose_matches_bit_loop():
    # empty shapes, single rows and columns, and sparse, dense and wide
    # matrices, against the set-bit loop
    rng = random.Random(6)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 70), (70, 1), (3, 200),
              (130, 64)]
    shapes += [(rng.randrange(1, 40), rng.randrange(1, 40))
               for _ in range(40)]
    for rows, cols in shapes:
        for density in (0, 1, 2):
            bits = [rng.getrandbits(cols) if density == 1 else
                    (1 << cols) - 1 if density == 2 else
                    1 << rng.randrange(cols) if cols else 0
                    for _ in range(rows)]
            M = BinMatrix(rows, cols, bits)
            assert transpose(M) == transpose_bitloop(M)


def test_vstack_and_permute_cols():
    A = from_entries([[1, 0, 1]])
    B = from_entries([[0, 1, 1], [1, 1, 0]])
    V = vstack(A, B)
    assert V.rows == 3 and V.row(0) == A.row(0) and V.row(2) == B.row(1)
    P = permute_cols(V, [2, 0, 1])
    for i in range(3):
        for j, src in enumerate([2, 0, 1]):
            assert P.get(i, j) == V.get(i, src)
    with pytest.raises(ValueError):
        permute_cols(V, [0, 0, 1])


def test_bytes_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        M = random_matrix(rng, rng.randrange(1, 12), rng.randrange(1, 20))
        blob = M.to_bytes()
        assert len(blob) == (M.rows * M.cols + 7) // 8
        assert BinMatrix.from_bytes(M.rows, M.cols, blob) == M
    # bit order inside the blob: row-major, LSB of first byte first
    M = BinMatrix(1, 3, [0b011])
    assert M.to_bytes() == b"\x03"
    M = BinMatrix(2, 5, [0b10001, 0b00110])
    # row 0 bits 1,0,0,0,1 then row 1 bits 0,1,1,0,0 -> 0b0110...
    packed = 0b10001 | (0b00110 << 5)
    assert M.to_bytes() == packed.to_bytes(2, "little")


def test_rref_properties():
    rng = random.Random(11)
    for _ in range(60):
        M = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 10))
        R, rank, pivots = rref(M)
        assert rank == naive_rank(M) == len(pivots)
        assert row_space(R) == row_space(M)
        R2, rank2, pivots2 = rref(R)
        assert (R2, rank2, pivots2) == (R, rank, pivots)
        assert sorted(pivots) == list(pivots)
        for i, p in enumerate(pivots):
            col = [R.get(t, p) for t in range(R.rows)]
            assert col[i] == 1 and sum(col) == 1
        for i in range(rank, R.rows):
            assert R.row(i) == 0


def test_systematic_form_identity_block():
    rng = random.Random(13)
    done = 0
    while done < 30:
        r = rng.randrange(1, 8)
        M = random_matrix(rng, r, r + rng.randrange(0, 6))
        try:
            S, colperm = systematic_form(M)
        except RankDeficiencyError as err:
            assert err.rank == naive_rank(M) < M.rows
            continue
        done += 1
        assert sorted(colperm) == list(range(M.cols))
        for i in range(r):
            for j in range(r):
                assert S.get(i, j) == (1 if i == j else 0)
        assert row_space(S) == row_space(permute_cols(M, colperm))


def test_systematic_form_rank_deficient():
    M = from_entries([[1, 1, 0], [1, 1, 0]])
    with pytest.raises(RankDeficiencyError) as exc:
        systematic_form(M)
    assert exc.value.rank == 1


def test_null_space():
    rng = random.Random(17)
    for _ in range(40):
        M = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 10))
        basis = null_space(M)
        _, rank, _ = rref(M)
        assert basis.rows == M.cols - rank and basis.cols == M.cols
        span = {0}
        for i in range(basis.rows):
            v = basis.row(i)
            assert v != 0
            assert M.mul_vec(v) == 0
            span |= {s ^ v for s in span}
        assert len(span) == 1 << basis.rows  # basis is independent
        # every kernel vector is spanned: count by rank-nullity
        kernel = [x for x in range(1 << M.cols) if M.mul_vec(x) == 0] \
            if M.cols <= 12 else None
        if kernel is not None:
            assert set(kernel) == span
