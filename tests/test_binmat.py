import random

import pytest

from goppacrypt.binmat import BinMatrix, plane_mul, rref, transpose
from goppacrypt.dyadic import gen_signature
from goppacrypt.gf2m import Field, make_field
from goppacrypt.goppa import build_code
from goppacrypt.scheme import keygen
from testlib import (
    RankDeficiencyError, dyadic_support, from_bytes_shiftloop, from_entries,
    identity, mul_vec_bitloop, null_space, permute_cols, rref_gauss_jordan,
    systematic_form, to_bytes_shiftloop, transpose_bitloop, vstack,
)


def random_matrix(rng, rows, cols):
    return BinMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def naive_rank(M):
    rows = list(M.bits)
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
        space |= {v ^ M.bits[i] for v in space}
    return space


def test_construction_and_access():
    M = BinMatrix(2, 3, [0b101, 0b010])
    assert (M.rows, M.cols) == (2, 3)
    assert [M.bits[0] >> j & 1 for j in range(3)] == [1, 0, 1]
    assert M.bits[1] >> 1 & 1 == 1
    assert M.bits[0] == 0b101
    # out-of-width bits are masked off
    assert BinMatrix(1, 2, [0b111]).bits[0] == 0b11
    assert identity(3).bits == (1, 2, 4)
    E = from_entries([[1, 0], [1, 1]])
    assert E.bits[0] == 0b01 and E.bits[1] == 0b11


def test_equality_and_hash():
    A = BinMatrix(2, 2, [1, 2])
    B = from_entries([[1, 0], [0, 1]])
    assert A == B
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
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        bits = [rng.getrandbits(cols) for _ in range(rows)]
        T = transpose(bits, cols)
        assert len(T) == cols
        for i in range(rows):
            for j in range(cols):
                assert bits[i] >> j & 1 == T[j] >> i & 1
        assert transpose(T, rows) == bits


def test_transpose_matches_bit_loop():
    # both packings, two bytes a row up to 16 columns and to_bytes past
    # them, at widths on and off byte boundaries, with 0 and 1 rows and 1
    # column; sparse, random and dense rows against the set-bit loop, and
    # back, which packs by the row count
    rng = random.Random(6)
    shapes = [(0, 0), (0, 5), (0, 20), (5, 0), (1, 1), (1, 13), (1, 16),
              (1, 17), (1, 70), (70, 1), (16, 16), (17, 17), (40, 8),
              (40, 13), (33, 17), (3, 200), (130, 64), (9, 61)]
    shapes += [(rng.randrange(1, 40), rng.randrange(1, 40))
               for _ in range(40)]
    for rows, cols in shapes:
        for density in (0, 1, 2):
            bits = [rng.getrandbits(cols) if density == 1 else
                    (1 << cols) - 1 if density == 2 else
                    1 << rng.randrange(cols) if cols else 0
                    for _ in range(rows)]
            T = transpose(bits, cols)
            assert T == transpose_bitloop(bits, cols)
            assert transpose(T, rows) == bits


def test_transpose_planes_back_to_values():
    # up to 16 rows, the rows' digits go into one byte lane (8 rows or
    # fewer) or two: 1 to 17 planes of 1 to 1025 points, on and off byte
    # boundaries, against the set-bit loop and back
    rng = random.Random(9)
    for rows in range(1, 18):
        for cols in (1, 7, 8, 13, 64, 250, 1025):
            bits = [rng.getrandbits(cols) for _ in range(rows)]
            T = transpose(bits, cols)
            assert T == transpose_bitloop(bits, cols)
            assert transpose(T, rows) == bits
            assert all(0 <= v < 1 << rows for v in T)
    for rows in (1, 8, 9, 16):  # the top bit of each lane, alone
        bits = [0] * (rows - 1) + [(1 << 40) - 1]
        assert transpose(bits, 40) == [1 << rows - 1] * 40


@pytest.mark.parametrize("field", [make_field(m) for m in (2, 3, 8, 9, 13, 16)]
                         + [Field(8, 0x11d), Field(11, 0x805)])
def test_plane_mul_matches_field_mul(field):
    # point by point against Field.mul, zeros and the largest element
    # included, on other moduli than make_field's too
    m, rng = field.m, random.Random(field.modulus)
    for n in (1, 5, 17, 64, 300):
        a = [rng.choice((0, 1, field.order - 1, rng.randrange(field.order)))
             for _ in range(n)]
        b = [rng.randrange(field.order) for _ in range(n)]
        planes = plane_mul(transpose(a, m), transpose(b, m), field.modulus)
        assert len(planes) == m and all(p >> n == 0 for p in planes)
        assert transpose(planes, n) == [field.mul(x, y)
                                        for x, y in zip(a, b)]


def test_vstack_and_permute_cols():
    A = from_entries([[1, 0, 1]])
    B = from_entries([[0, 1, 1], [1, 1, 0]])
    V = vstack(A, B)
    assert V.rows == 3 and V.bits[0] == A.bits[0] and V.bits[2] == B.bits[1]
    P = permute_cols(V, [2, 0, 1])
    for i in range(3):
        for j, src in enumerate([2, 0, 1]):
            assert P.bits[i] >> j & 1 == V.bits[i] >> src & 1
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


def test_bytes_match_shift_loop():
    # the digit-string packing against the per-row shift of one packed int,
    # on empty shapes, widths on and off byte boundaries and a few hundred
    # rows, unpacking data that runs short as well
    rng = random.Random(8)
    shapes = [(0, 0), (0, 9), (4, 0), (1, 1), (3, 8), (2, 64), (7, 13)]
    shapes += [(rng.randrange(1, 40), rng.randrange(1, 40))
               for _ in range(40)]
    shapes += [(rng.randrange(100, 400), rng.choice((16, 61, 256)))
               for _ in range(4)]
    # rows of at most 16 bits go column by column, wider ones row by
    # row: a key's support and G, and a generic A
    shapes += [(rows, cols) for rows in (1, 16, 17, 256, 1024)
               for cols in (1, 8, 10, 11, 16, 17, 80)]
    for rows, cols in shapes:
        M = random_matrix(rng, rows, cols)
        blob = M.to_bytes()
        assert blob == to_bytes_shiftloop(M)
        size = len(blob)
        # random data sets the padding bits and runs three bytes past them
        for data in (blob, blob[:size // 2], rng.randbytes(size + 3)):
            got = BinMatrix.from_bytes(rows, cols, data)
            assert got == from_bytes_shiftloop(rows, cols, data)
        assert BinMatrix.from_bytes(rows, cols, blob) == M


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
            col = [R.bits[t] >> p & 1 for t in range(R.rows)]
            assert col[i] == 1 and sum(col) == 1
        for i in range(rank, R.rows):
            assert R.bits[i] == 0


def test_rref_matches_gauss_jordan():
    # the Four-Russians strips give Gauss-Jordan's R, rank and pivots
    rng = random.Random(29)
    cases = [BinMatrix(0, 9), BinMatrix(9, 0), BinMatrix(0, 0)]
    # row counts on both sides of each change of the strip width (6 to 7
    # at 256 rows, 7 to 8 at 512), tall and wide
    shapes = [(rows, cols) for rows in (1, 63, 64, 255, 256, 511, 512, 1000)
              for cols in (90, rows + 13)]
    for rows, cols in [(1, 1), (3, 50), (6, 6), (12, 7), (40, 9), (13, 13),
                       (25, 90), (90, 25), (7, 13)] + shapes:
        cases.append(random_matrix(rng, rows, cols))
        # rank-deficient: sums of a few base rows, with repeated rows
        base = [rng.getrandbits(cols) for _ in range(max(1, rows // 3))]
        sums = [0]
        for _ in range(rows - 1):
            sums.append(sums[-1] if rng.random() < 0.3 else
                        sums[-1] ^ rng.choice(base))
        cases.append(BinMatrix(rows, cols, sums))
        cases.append(BinMatrix(rows, cols, [  # sparse
            rng.getrandbits(cols) & rng.getrandbits(cols)
            & rng.getrandbits(cols) for _ in range(rows)]))
    # columns with no pivot inside a strip, at each width w the row count
    # picks (6 up to 255 rows, 7 up to 511, then 8): 2 is zero and w + 3
    # is the sum of w + 1 and 4, so neither is a pivot
    for rows, w in ((20, 6), (300, 7), (600, 8)):
        hole = w + 3
        M = random_matrix(rng, rows, 30)
        M = BinMatrix(rows, 30, [v & ~(1 << 2 | 1 << hole)
                                 | ((v >> 4 ^ v >> (w + 1)) & 1) << hole
                                 for v in M.bits])
        assert not {2, hole} & set(rref(M)[2])
        cases.append(M)
    # the parity checks of a generic key and of a dyadic code's rotated
    # support, as signature_to_code eliminates it
    cases.append(keygen("generic", 9, 256, 12, "ud",
                        b"rref/generic").code().parity_bin)
    field = make_field(10)
    sig = gen_signature(field, 512, b"rref/sig")
    gpoly, support = dyadic_support(sig, 256, 16, b"rref/blocks")
    k = 256 - 10 * 16
    cases.append(build_code(field, support[k:] + support[:k],
                            gpoly).parity_bin)
    for M in cases:
        assert rref(M) == rref_gauss_jordan(M)


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
                assert S.bits[i] >> j & 1 == (1 if i == j else 0)
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
            v = basis.bits[i]
            assert v != 0
            assert M.mul_vec(v) == 0
            span |= {s ^ v for s in span}
        assert len(span) == 1 << basis.rows  # basis is independent
        # every kernel vector is spanned: count by rank-nullity
        kernel = [x for x in range(1 << M.cols) if M.mul_vec(x) == 0] \
            if M.cols <= 12 else None
        if kernel is not None:
            assert set(kernel) == span
