import random

import pytest

from goppacrypt import binmat, dyadic
from goppacrypt.gf2m import make_field
from goppacrypt.binmat import BinMatrix, rref
from goppacrypt.goppa import CodeConstructionError, GoppaCode, encode
from goppacrypt.decode import patterson_decode, g2_decode
from goppacrypt.dyadic import (
    DyadicParams, SignatureExhaustionError, gen_signature, dyadic_check,
    xor_permute, signature_to_code, compact_pubkey, expand_pubkey,
)
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import KEYGEN_ATTEMPTS
from testlib import (
    block_invertible, block_mul, block_systemized_generator,
    xor_permute_bitloop,
)


def make_dyadic(m, n, r, N, tag, attempts=64):
    # a draw whose last m*r parity columns are singular has no systematic
    # generator, so scan attempt seeds the same way key generation does
    field = make_field(m)
    params = DyadicParams(m, N, n, n - m * r, r)
    for t in range(attempts):
        sig = gen_signature(field, N, tag + b"/sig/%d" % t)
        try:
            return sig, signature_to_code(sig, params, tag + b"/blk/%d" % t)
        except CodeConstructionError:
            continue
    raise AssertionError("no systemizable draw in %d attempts" % attempts)


def naive_block(bits, r):
    return [[bits >> (i ^ j) & 1 for j in range(r)] for i in range(r)]


def naive_mul(A, B, r):
    return [[sum(A[i][t] * B[t][j] for t in range(r)) & 1
             for j in range(r)] for i in range(r)]


def test_signature_identity_and_distinctness():
    for m, N, seeds in ((7, 64, 10), (10, 128, 4), (16, 256, 4)):
        field = make_field(m)
        for s in range(seeds):
            sig = gen_signature(field, N, b"id/%d/%d" % (m, s))
            assert len(sig.h) == N and all(v for v in sig.h)
            e = [field.inv(v) for v in sig.h]
            assert len(set(e)) == N
            for i in range(N):
                for j in range(N):
                    assert e[i ^ j] == e[i] ^ e[j] ^ e[0]


def test_signature_is_cauchy():
    # h_{i xor j} = 1/(z_i + u_j), with the z and u pools disjoint
    field = make_field(7)
    sig = gen_signature(field, 64, b"cauchy")
    r = 8
    z = sig.roots(r)
    u = sig.points()
    assert not set(z) & set(u)
    for i in range(r):
        for j in range(64):
            assert field.inv(z[i] ^ u[j]) == sig.h[i ^ j]


def test_signature_determinism():
    field = make_field(9)
    a = gen_signature(field, 128, b"det")
    b = gen_signature(field, 128, b"det")
    c = gen_signature(field, 128, b"det2")
    assert a == b
    assert a.h != c.h


def test_gen_signature_domain():
    field = make_field(4)
    gen_signature(field, 8, b"edge")  # 2N = order is the boundary case
    with pytest.raises(ValueError):
        gen_signature(field, 16, b"edge")
    with pytest.raises(ValueError):
        gen_signature(field, 6, b"edge")
    with pytest.raises(ValueError):
        gen_signature(field, 0, b"edge")
    with pytest.raises(ValueError):
        gen_signature(field, 8, b"")


def test_dyadic_check():
    rng = random.Random(31)
    for r in (1, 2, 4, 8):
        bits = rng.randrange(1 << r)
        assert dyadic_check(naive_block(bits, r))
    assert dyadic_check([[1, 0], [0, 1]])  # I_2 has signature 10
    assert not dyadic_check([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        dyadic_check([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(ValueError):
        dyadic_check([[1, 0], [0]])
    with pytest.raises(ValueError):
        dyadic_check([])


def test_xor_permute_matches_bit_loop():
    rng = random.Random(31)
    r = 1
    while r <= 256:
        inputs = [0, (1 << r) - 1] + [rng.getrandbits(r) for _ in range(3)]
        inputs.append(rng.getrandbits(r + 8))  # bits past r are ignored
        for p in range(r):
            for bits in inputs:
                assert xor_permute(bits, p, r) == \
                    xor_permute_bitloop(bits, p, r)
        r *= 2


def test_block_algebra():
    rng = random.Random(32)
    for r in (2, 4, 8):
        for _ in range(20):
            a = rng.randrange(1 << r)
            b = rng.randrange(1 << r)
            prod = naive_mul(naive_block(a, r), naive_block(b, r), r)
            assert dyadic_check(prod)
            got = block_mul(a, b, r)
            assert [got >> j & 1 for j in range(r)] == prod[0]
            assert got == block_mul(b, a, r)


def test_block_invertible_matches_rank():
    # the block ring is local: odd parity <=> invertible, and then the
    # block is its own inverse
    r = 4
    for a in range(1 << r):
        M = BinMatrix(r, r, [sum(naive_block(a, r)[i][j] << j
                                 for j in range(r)) for i in range(r)])
        _, rank, _ = rref(M)
        assert block_invertible(a) == (rank == r)
        if block_invertible(a):
            assert block_mul(a, a, r) == 1


@pytest.mark.parametrize("m, N, n, r", [
    (7, 64, 64, 8), (10, 512, 256, 16), (16, 256, 128, 4)])
def test_generator_matches_block_elimination(monkeypatch, m, N, n, r):
    # every attempt of keygen's schedule for a few seeds: the same accept
    # or reject decision and the same generator as elimination over the
    # ring of dyadic blocks, from exactly one rref per attempt
    rrefs, built = [], []

    def counted_rref(M):
        rrefs.append(M.rows)
        return rref(M)

    def captured_build_code(*args):
        built.append(real_build_code(*args))
        return built[-1]

    real_build_code = dyadic.build_code
    monkeypatch.setattr(binmat, "rref", counted_rref)
    monkeypatch.setattr(dyadic, "rref", counted_rref)
    monkeypatch.setattr(dyadic, "build_code", captured_build_code)
    field = make_field(m)
    params = DyadicParams(m, N, n, n - m * r, r)
    rejected = 0
    for seed in (b"ref-a", b"ref-b", b"ref-c"):
        for t in range(KEYGEN_ATTEMPTS):
            sig = gen_signature(field, N, seed + b"/sig/" + bytes([t]))
            rrefs.clear()
            built.clear()
            try:
                code = signature_to_code(sig, params,
                                         seed + b"/blocks/" + bytes([t]))
            except CodeConstructionError:
                code = None
            assert len(rrefs) == 1 and len(built) == 1
            try:
                want = block_systemized_generator(built[0], sig)
            except CodeConstructionError:
                want = None
            assert (code is None) == (want is None)
            if code is None:
                rejected += 1
                continue
            assert code.gen.bits == want.bits
            ref = GoppaCode(field, code.support, code.gpoly, want, range(n))
            assert compact_pubkey(code, r) == compact_pubkey(ref, r)
            break
    assert rejected


def test_signature_to_code_shape():
    sig, code = make_dyadic(7, 64, 8, 64, b"shape")
    assert (code.n, code.k, code.r) == (64, 8, 8)
    assert code.colperm == tuple(range(64))
    assert code.gpoly.degree == 8
    assert len(set(code.support)) == 64
    for i in range(code.k):
        assert code.parity_bin.mul_vec(code.gen.row(i)) == 0
        assert code.gen.row(i) & ((1 << code.k) - 1) == 1 << i
    # every r x r block of the redundancy part is dyadic
    r = code.r
    for ublk in range(code.k // r):
        for t in range(code.field.m):
            block = [[code.gen.row(ublk * r + i) >> (code.k + t * r + j) & 1
                      for j in range(r)] for i in range(r)]
            assert dyadic_check(block)


def test_signature_to_code_determinism():
    a_sig, a = make_dyadic(7, 64, 8, 64, b"det")
    b_sig, b = make_dyadic(7, 64, 8, 64, b"det")
    assert a_sig == b_sig
    assert a.support == b.support
    assert a.gen.bits == b.gen.bits


def test_signature_to_code_rejects_mismatch():
    field = make_field(7)
    sig = gen_signature(field, 64, b"mm")
    with pytest.raises(ValueError):
        signature_to_code(sig, DyadicParams(7, 128, 64, 8, 8), b"mm")
    with pytest.raises(ValueError):
        signature_to_code(sig, DyadicParams(7, 64, 64, 9, 8), b"mm")
    with pytest.raises(ValueError):
        signature_to_code(sig, DyadicParams(7, 64, 48, -8, 8), b"mm")


def test_dyadic_decode_roundtrip():
    # G splits here, so the syndrome can share a factor with it and
    # Patterson may (rarely) report failure; g2 never does
    _, code = make_dyadic(7, 64, 8, 64, b"pat")
    rng = random.Random(33)
    direct = 0
    for _ in range(25):
        c = encode(code, rng.randrange(1 << code.k))
        y = c
        for p in rng.sample(range(code.n), code.r):
            y ^= 1 << p
        assert g2_decode(code, y).candidates == ((c, code.r),)
        got = patterson_decode(code, y).candidates
        assert got in ((), ((c, code.r),))
        direct += bool(got)
    assert direct >= 20


def test_compact_roundtrip():
    _, code = make_dyadic(7, 64, 8, 64, b"pack")
    blob = compact_pubkey(code, code.r)
    assert blob[:4] == b"QDGK"
    assert len(blob) == 9 + (code.k // code.r) * code.field.m * (code.r // 8)
    m, r, A = expand_pubkey(blob)
    assert (m, r) == (code.field.m, code.r)
    want = BinMatrix(code.k, code.n - code.k,
                     [code.gen.row(i) >> code.k for i in range(code.k)])
    assert A.bits == want.bits


def test_compact_rejects_non_dyadic():
    _, code = make_dyadic(7, 64, 8, 64, b"rej")
    with pytest.raises(ValueError):
        compact_pubkey(code, 4)  # wrong block order
    # flipping a single redundancy bit in one row cannot stay dyadic
    broken = BinMatrix(code.k, code.n,
                       [code.gen.row(i) ^ ((1 << code.k) if i == 1 else 0)
                        for i in range(code.k)])
    bad = GoppaCode(code.field, code.support, code.gpoly, broken, code.colperm)
    with pytest.raises(ValueError):
        compact_pubkey(bad, code.r)
    # and a broken identity part is caught before the block scan
    shifted = BinMatrix(code.k, code.n,
                        [code.gen.row(i) ^ 3 for i in range(code.k)])
    bad2 = GoppaCode(code.field, code.support, code.gpoly, shifted,
                     code.colperm)
    with pytest.raises(ValueError):
        compact_pubkey(bad2, code.r)


def test_expand_rejects_garbage():
    _, code = make_dyadic(7, 64, 8, 64, b"garb")
    blob = compact_pubkey(code, code.r)
    with pytest.raises(ValueError):
        expand_pubkey(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        expand_pubkey(blob[:-1])


def test_large_field_small_blocks():
    # the m = 16 shape: many short blocks rather than a few long ones
    sig, code = make_dyadic(16, 128, 4, 256, b"wide")
    assert (code.n, code.k, code.r) == (128, 64, 4)
    blob = compact_pubkey(code, code.r)
    m, r, A = expand_pubkey(blob)
    assert (m, r, A.rows, A.cols) == (16, 4, 64, 64)
    rng = random.Random(34)
    c = encode(code, rng.randrange(1 << code.k))
    y = c
    for p in rng.sample(range(code.n), code.r):
        y ^= 1 << p
    assert patterson_decode(code, y).candidates == ((c, code.r),)
