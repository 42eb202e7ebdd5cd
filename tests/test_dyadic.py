import random
from collections import Counter

import pytest

from goppacrypt import binmat, dyadic, goppa
from goppacrypt.gf2m import Poly, make_field
from goppacrypt.binmat import BinMatrix, rref
from goppacrypt.goppa import (
    CodeConstructionError, build_code, syndrome_poly, systematic_encode,
)
from goppacrypt.decode import list_decode, _linear_engine
from goppacrypt.dyadic import (
    SignatureExhaustionError, gen_signature, signature_to_code,
    compact_encode, compact_pubkey, expand_pubkey, cauchy_code, _compact_rows,
)
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import (
    KEYGEN_ATTEMPTS, TAG_BITS, KeyPair, _dyadic_code, _wrap, keygen,
)
from testlib import (
    block_invertible, block_mul, block_systemized_generator, dyadic_check,
    dyadic_support, encode, expand_pubkey_rowloop, g2_decode, gen,
    gen_signature_filled, linearized_roots_eval_all, patterson_alternant,
    poly_eval, random_goppa_code, signature_roots, signature_to_code_alternant,
    xor_permute, xor_permute_bitloop,
)
from test_golden import GOLDEN


def make_dyadic(m, n, r, N, tag, attempts=64):
    # a draw whose last m*r parity columns are singular has no systematic
    # generator, so scan attempt seeds the same way key generation does
    field = make_field(m)
    for t in range(attempts):
        sig = gen_signature(field, N, tag + b"/sig/%d" % t)
        try:
            return sig, signature_to_code(sig, n, r, tag + b"/blk/%d" % t)
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
            e = sig.e  # every e_i nonzero, so h_i = 1/e_i exists
            assert len(e) == N and all(e)
            assert len(set(e)) == N
            for i in range(N):
                for j in range(N):
                    assert e[i ^ j] == e[i] ^ e[j] ^ e[0]
            assert not set(signature_roots(sig, N)) & set(sig.points())


def test_gen_signature_matches_entry_fill():
    # doubling under the independence rule refuses the same draws, at the
    # same step, as filling e entry by entry and refusing zeros and
    # repeats, so both read the seeded stream alike; m = 4, N = 8 has
    # 2N equal to the field order
    refusals = Counter()
    for m, N, seeds in ((4, 8, 40), (4, 1, 4), (5, 16, 20), (7, 64, 10),
                        (10, 2, 4), (10, 512, 4), (16, 256, 4)):
        field = make_field(m)
        for s in range(seeds):
            seed = b"fill/%d/%d/%d" % (m, N, s)
            assert gen_signature(field, N, seed) == \
                gen_signature_filled(field, N, seed, refusals)
    assert refusals["h_b = 0"] and refusals["zero or repeat"]


def test_signature_is_cauchy():
    # h_{i xor j} = 1/(z_i + u_j), with the z and u pools disjoint
    field = make_field(7)
    sig = gen_signature(field, 64, b"cauchy")
    r = 8
    z = signature_roots(sig, r)
    u = sig.points()
    assert not set(z) & set(u)
    h = [field.inv(v) for v in sig.e]
    for i in range(r):
        for j in range(64):
            assert field.inv(z[i] ^ u[j]) == h[i ^ j]


def test_signature_determinism():
    field = make_field(9)
    a = gen_signature(field, 128, b"det")
    b = gen_signature(field, 128, b"det")
    c = gen_signature(field, 128, b"det2")
    assert a == b
    assert a.e != c.e


def test_goppa_poly_matches_the_product_over_its_roots():
    # G = L_V(x) + L_V(z_0), by the subspace recursion over the offsets,
    # is prod (x + z_i) over the r roots, at every r up to N, m = 4..16
    for m in range(4, 17):
        field = make_field(m)
        N = min(1 << (m - 1), 256)
        sig = gen_signature(field, N, b"lin/%d" % m)
        for r in (1 << j for j in range(N.bit_length())):
            assert sig.goppa_poly(r) == Poly.from_roots(
                field, signature_roots(sig, r)), (m, r)


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


@pytest.fixture
def counted(monkeypatch):
    # the rref and cauchy_code calls that signature_to_code makes
    calls = []
    real_cauchy_code = dyadic.cauchy_code

    def counted_rref(M):
        calls.append("rref")
        return rref(M)

    def counted_cauchy_code(*args):
        calls.append("cauchy_code")
        return real_cauchy_code(*args)

    monkeypatch.setattr(binmat, "rref", counted_rref)
    monkeypatch.setattr(goppa, "rref", counted_rref)
    monkeypatch.setattr(dyadic, "cauchy_code", counted_cauchy_code)
    return calls


@pytest.mark.parametrize("m, N, n, r", [
    (7, 64, 64, 8), (10, 512, 256, 16), (16, 256, 128, 4)])
def test_generator_matches_block_elimination(counted, m, N, n, r):
    # every attempt of keygen's schedule for a few seeds: the same accept
    # or reject decision and the same generator as elimination over the
    # ring of dyadic blocks; an accepted attempt makes one rref and one
    # cauchy_code, and a refused one neither, since the signature sums
    # refuse it first
    field = make_field(m)
    rejected = 0
    for seed in (b"ref-a", b"ref-b", b"ref-c"):
        for t in range(KEYGEN_ATTEMPTS):
            sig = gen_signature(field, N, seed + b"/sig/" + bytes([t]))
            blk_seed = seed + b"/blocks/" + bytes([t])
            counted.clear()
            try:
                code = signature_to_code(sig, n, r, blk_seed)
            except CodeConstructionError:
                code = None
            assert counted == ([] if code is None else ["cauchy_code", "rref"])
            gpoly, support = dyadic_support(sig, n, r, blk_seed)
            try:
                want = block_systemized_generator(
                    build_code(field, support, gpoly), sig)
            except CodeConstructionError:
                want = None
            assert (code is None) == (want is None)
            if code is None:
                rejected += 1
                continue
            assert code.support == tuple(support) and code.gpoly == gpoly
            assert gen(code).bits == want.bits
            colperm, A = code.systematic
            ref = BinMatrix(want.rows, n - want.rows,
                            [v >> want.rows for v in want.bits])
            assert colperm == tuple(range(n)) and A == ref
            assert compact_pubkey(m, r, A) == compact_pubkey(m, r, ref)
            break
    assert rejected


@pytest.mark.parametrize("m, N, n, r, attempts", [
    (8, 128, 128, 1, 16), (8, 64, 64, 2, 16), (10, 512, 256, 16, 12),
    (16, 512, 512, 2, 6), (16, 1024, 1024, 8, 6)])
def test_signature_sums_decide_like_rref(counted, m, N, n, r, attempts):
    # a seeded grid of attempts, fewer where the block reference is slow
    # (it costs m^2 n/r block products): the sums decision of
    # signature_to_code, the pivots of one elimination of the rotated
    # parity check and elimination over the ring of dyadic blocks all
    # agree, and once the sums pass, the pivot check after rref never
    # refuses
    field = make_field(m)
    mr, k = m * r, n - m * r
    verdicts = []
    for t in range(attempts):
        sig = gen_signature(field, N, b"grid/sig/%d" % t)
        blk_seed = b"grid/blocks/%d" % t
        counted.clear()
        try:
            signature_to_code(sig, n, r, blk_seed)
            by_sums = True
        except CodeConstructionError:
            by_sums = False
        assert counted == (["cauchy_code", "rref"] if by_sums else [])
        gpoly, support = dyadic_support(sig, n, r, blk_seed)
        code = build_code(field, support, gpoly)
        _, _, pivots = rref(BinMatrix(mr, n, [
            v >> k | (v & (1 << k) - 1) << mr for v in code.parity_bin.bits]))
        by_rref = pivots == list(range(mr))
        try:
            block_systemized_generator(code, sig)
            by_blocks = True
        except CodeConstructionError:
            by_blocks = False
        assert by_sums == by_rref == by_blocks
        verdicts.append(by_sums)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("m, N, n, r, attempts", [
    (8, 128, 128, 1, 12), (8, 64, 64, 2, 12), (7, 64, 64, 8, 12),
    (10, 512, 256, 16, 12), (12, 2048, 1024, 64, 8)])
def test_cauchy_elimination_matches_alternant_construction(m, N, n, r,
                                                           attempts):
    # a seeded grid of attempts: one elimination of the Cauchy table on
    # the rotated support accepts and refuses exactly where the first
    # construction, the alternant table of G with no signature sums,
    # does, with the same A, and its rotated-back table is the Cauchy
    # table of the key's own support order
    field = make_field(m)
    verdicts = []
    for t in range(attempts):
        sig = gen_signature(field, N, b"alt/sig/%d" % t)
        blk_seed = b"alt/blocks/%d" % t
        try:
            code = signature_to_code(sig, n, r, blk_seed)
        except CodeConstructionError:
            code = None
        try:
            want = signature_to_code_alternant(sig, n, r, blk_seed)
        except CodeConstructionError:
            want = None
        assert (code is None) == (want is None)
        verdicts.append(code is not None)
        if code is not None:
            assert code.systematic == (tuple(range(n)), want)
            plain = cauchy_code(field, code.support, code.gpoly)
            assert code.roots == plain.roots
            assert code.parity_bin == plain.parity_bin
    assert any(verdicts) and not all(verdicts)


def test_signature_to_code_shape():
    sig, code = make_dyadic(7, 64, 8, 64, b"shape")
    assert (code.n, code.k, code.r) == (64, 8, 8)
    assert code.systematic[0] == tuple(range(64))
    assert code.gpoly.degree == 8
    assert len(set(code.support)) == 64
    G = gen(code)
    for i in range(code.k):
        assert code.parity_bin.mul_vec(G.bits[i]) == 0
        assert G.bits[i] & ((1 << code.k) - 1) == 1 << i
    # every r x r block of the redundancy part is dyadic
    r = code.r
    for ublk in range(code.k // r):
        for t in range(code.field.m):
            block = [[G.bits[ublk * r + i] >> (code.k + t * r + j) & 1
                      for j in range(r)] for i in range(r)]
            assert dyadic_check(block)


def test_signature_to_code_determinism():
    a_sig, a = make_dyadic(7, 64, 8, 64, b"det")
    b_sig, b = make_dyadic(7, 64, 8, 64, b"det")
    assert a_sig == b_sig
    assert a.support == b.support
    assert gen(a).bits == gen(b).bits


def test_signature_to_code_rejects_mismatch():
    field = make_field(7)
    sig = gen_signature(field, 64, b"mm")
    # k = -8, r not a power of two, r not dividing n, n past N = 64: all
    # refused by the one check, before any draw
    for n, r in ((48, 8), (63, 3), (62, 4), (128, 8)):
        with pytest.raises(ValueError, match="power-of-two r"):
            signature_to_code(sig, n, r, b"mm")


def test_dyadic_decode_roundtrip():
    # G splits here, so the syndrome can share a factor with it; Patterson
    # and the list engine at tau = r decode either way
    _, code = make_dyadic(7, 64, 8, 64, b"pat")
    rng = random.Random(33)
    for _ in range(25):
        c = encode(code, rng.randrange(1 << code.k))
        y = c
        for p in rng.sample(range(code.n), code.r):
            y ^= 1 << p
        assert _linear_engine(code, y, code.r).candidates == ((c, code.r),)
        assert list_decode(code, y, code.r).candidates == ((c, code.r),)
        assert list_decode(code, y, code.r).candidates == ((c, code.r),)


def test_compact_roundtrip():
    _, code = make_dyadic(7, 64, 8, 64, b"pack")
    blob = compact_pubkey(code.field.m, code.r, code.systematic[1])
    assert blob[:4] == b"QDGK"
    assert len(blob) == 9 + (code.k // code.r) * code.field.m * (code.r // 8)
    m, r, A = expand_pubkey(blob)
    assert (m, r) == (code.field.m, code.r)
    want = BinMatrix(code.k, code.n - code.k,
                     [v >> code.k for v in gen(code).bits])
    assert A.bits == want.bits


def test_compact_rejects_non_dyadic():
    # compact_pubkey refuses every A that expand_pubkey would not rebuild:
    # a flipped bit in the signature row or in a row rebuilt from it, and
    # every shape that is not k x mr with r a power of two dividing k
    rng = random.Random(35)
    for m, N, n, r in ((7, 64, 64, 8), (16, 256, 128, 4)):
        _, code = make_dyadic(m, n, r, N, b"rej")
        A = code.systematic[1]
        assert expand_pubkey(compact_pubkey(m, r, A)) == (m, r, A)
        for ublk in range(A.rows // r):
            for row in (ublk * r, ublk * r + 1):
                bit = 1 << rng.randrange(A.cols)
                bad = BinMatrix(A.rows, A.cols, [v ^ bit if i == row else v
                                                 for i, v in enumerate(A.bits)])
                with pytest.raises(ValueError, match="non-dyadic"):
                    compact_pubkey(m, r, bad)
        for args in ((m, r // 2, A),                             # block order
                     (m + 1, r, A),                              # cols != m*r
                     (m, r, BinMatrix(A.rows - 1, A.cols, A.bits[1:])),
                     (m, 3, BinMatrix(6, 3 * m)),                # r = 3
                     (m, 0, BinMatrix(0, 0))):                   # r = 0
            with pytest.raises(ValueError, match="shape"):
                compact_pubkey(*args)


@pytest.mark.parametrize("name", ["dyadic-ld", "dyadic-m16", "dyadic-ud"])
def test_compact_inverts_expand_on_golden_keys(name):
    args = GOLDEN[name][0]
    kp = keygen(*args, seed=b"golden/" + name.encode())
    m, n, r = kp.m, kp.n, kp.r
    blob = kp.to_bytes()
    tail = blob[28 + (n * m + 7) // 8 + ((r + 1) * m + 7) // 8:]
    assert tail[:4] == b"QDGK"
    assert compact_pubkey(*expand_pubkey(tail)) == tail
    assert expand_pubkey(tail) == (m, r, kp.public)


def test_encode_matches_generator_rows():
    rng = random.Random(36)
    codes = [random_goppa_code(6, 50, 3, rng),
             make_dyadic(7, 64, 8, 64, b"enc")[1],
             make_dyadic(16, 128, 4, 256, b"enc")[1]]
    for code in codes:
        G = gen(code)
        for _ in range(10):
            msg = rng.getrandbits(code.k)
            want = 0
            for i, row in enumerate(G.bits):
                if msg >> i & 1:
                    want ^= row
            assert encode(code, msg) == want


def test_expand_rejects_garbage():
    _, code = make_dyadic(7, 64, 8, 64, b"garb")
    blob = compact_pubkey(code.field.m, code.r, code.systematic[1])
    with pytest.raises(ValueError):
        expand_pubkey(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        expand_pubkey(blob[:-1])
    for cut in range(9):  # shorter than the header
        with pytest.raises(ValueError):
            expand_pubkey(blob[:cut])


def test_large_field_small_blocks():
    # the m = 16 shape: many short blocks rather than a few long ones
    sig, code = make_dyadic(16, 128, 4, 256, b"wide")
    assert (code.n, code.k, code.r) == (128, 64, 4)
    blob = compact_pubkey(code.field.m, code.r, code.systematic[1])
    m, r, A = expand_pubkey(blob)
    assert (m, r, A.rows, A.cols) == (16, 4, 64, 64)
    rng = random.Random(34)
    c = encode(code, rng.randrange(1 << code.k))
    y = c
    for p in rng.sample(range(code.n), code.r):
        y ^= 1 << p
    assert list_decode(code, y, code.r).candidates == ((c, code.r),)


def _random_blob(rng, m, r, kblocks):
    sigs = [rng.getrandbits(r) for _ in range(kblocks * m)]
    sigs[:2] = [0, (1 << r) - 1][:len(sigs)]
    span = (r + 7) // 8
    return (b"QDGK\x01" + bytes((m, r.bit_length() - 1))
            + kblocks.to_bytes(2, "big")
            + b"".join(v.to_bytes(span, "little") for v in sigs))


def test_expand_matches_row_loop():
    # doubling from row 0 rebuilds every block as the row-by-row loop does,
    # and compact_pubkey inverts it
    rng = random.Random(37)
    for r in (1, 2, 4, 8, 16, 32, 64):
        for m in (2, 7, 16):
            for kblocks in (0, 1, 3):
                blob = _random_blob(rng, m, r, kblocks)
                got = expand_pubkey(blob)
                assert got == expand_pubkey_rowloop(blob)
                assert got[2].rows == kblocks * r
                assert compact_pubkey(*got) == blob


@pytest.mark.parametrize("m, n, r", [
    (16, 96, 2), (16, 128, 4), (16, 256, 1), (16, 256, 8), (10, 256, 16),
    (11, 1024, 32), (12, 1024, 64)])
def test_compact_encode_matches_the_expanded_key(m, n, r):
    # encrypt's product with the stored signatures gives the codeword of
    # the expanded A: on seeded words, 0, all ones and wrapped messages of
    # the capacity's length; r < 8 stores one byte per signature
    rng = random.Random(n * r + m)
    k = n - m * r
    blob = _random_blob(rng, m, r, k // r)
    A, rows = expand_pubkey(blob)[2], _compact_rows(blob)[2]
    capacity = (k - TAG_BITS - 1) // 8
    words = [0, (1 << k) - 1] + [rng.getrandbits(k) for _ in range(20)] + [
        _wrap(rng.randbytes(capacity), k) for _ in range(5)]
    for w in words:
        assert compact_encode(m, r, rows, w) == systematic_encode(A, w)


def test_expand_refuses_padding_bits():
    rng = random.Random(38)
    for r in (1, 2, 4):
        for bit in range(r, 8):
            blob = bytearray(_random_blob(rng, 3, r, 2))
            blob[9 + rng.randrange(6)] |= 1 << bit
            with pytest.raises(ValueError, match="signature bits beyond r"):
                expand_pubkey(bytes(blob))


@pytest.mark.parametrize("m, logr", [(2, 255), (2, 40), (0, 4)])
def test_expand_refuses_header_dimensions(m, logr):
    # m outside 2..16 or m*r >= 2^16, before anything is allocated
    with pytest.raises(ValueError, match="out of range"):
        expand_pubkey(b"QDGK\x01" + bytes((m, logr)) + b"\0\0")


GOLDEN_DYADIC = sorted(name for name in GOLDEN if name.startswith("dyadic"))


def golden_key(name):
    args = GOLDEN[name][0]
    return KeyPair.from_bytes(
        keygen(*args, seed=b"golden/" + name.encode()).to_bytes())


@pytest.mark.parametrize("name", GOLDEN_DYADIC + ["big"])
def test_cauchy_table_is_the_cauchy_matrix(name):
    # G's roots come from the support and G alone, and row i*m + beta
    # holds bit beta of 1/(z_i + L_j), one field inversion per entry
    kp = keygen("dyadic", 12, 1024, 64, "ud", b"cauchy/big") \
        if name == "big" else golden_key(name)
    code = cauchy_code(kp.field, kp.support, kp.gpoly)
    field, m, r = kp.field, kp.m, kp.r
    assert len(set(code.roots)) == r
    assert all(poly_eval(kp.gpoly, z) == 0 for z in code.roots)
    rng = random.Random(r)
    bits = code.parity_bin.bits
    assert len(bits) == m * r
    for _ in range(200):
        i, j = rng.randrange(r), rng.randrange(kp.n)
        v = field.inv(code.roots[i] ^ kp.support[j])
        assert [bits[i * m + beta] >> j & 1 for beta in range(m)] == \
            [v >> beta & 1 for beta in range(m)]


@pytest.mark.parametrize("name", GOLDEN_DYADIC)
def test_patterson_at_roots_matches_alternant_table(name):
    # the key's code decodes pointwise at G's roots on its Cauchy table;
    # Patterson on the alternant table of G is the oracle, on words of
    # every weight 0..r and on random words: the same candidates, and
    # Cauchy syndromes that are s(z_i)
    kp = golden_key(name)
    code = kp.code()
    plain = build_code(kp.field, kp.support, kp.gpoly)
    assert code.roots is not None and plain.roots is None
    m, r, mask = kp.m, kp.r, (1 << kp.m) - 1
    rng = random.Random(len(name))
    words = [systematic_encode(kp.public, rng.randrange(1 << kp.k))
             ^ sum(1 << p for p in rng.sample(range(kp.n), w))
             for w in range(r + 1) for _ in range(3)]
    words += [rng.randrange(1 << kp.n) for _ in range(40)]
    misses = 0
    for y in words:
        par = code.parity_bin.mul_vec(y)
        assert [par >> i * m & mask for i in range(r)] == \
            syndrome_poly(plain, y).eval_all(code.roots)
        got = list_decode(code, y, code.r)
        assert got == patterson_alternant(plain, y)
        assert got == list_decode(plain, y, plain.r)
        misses += not got.candidates
    assert misses >= 40  # every random word is beyond r of the code
    # errors whose syndrome vanishes at some root but not at all: s is
    # not invertible mod G, R stays pointwise with g the product of those
    # x + z_i, and Patterson decodes on both tables as the degree-2r EEA
    # does
    hits = 0
    while m <= 10 and hits < 3:
        e = sum(1 << p for p in rng.sample(range(kp.n),
                                           rng.randrange(1, r + 1)))
        par = code.parity_bin.mul_vec(e)
        if par and any(par >> i * m & mask == 0 for i in range(r)):
            hits += 1
            want = g2_decode(plain, e)
            assert want.candidates == ((0, e.bit_count()),)
            assert list_decode(code, e, r) == want == list_decode(plain, e, r)
    if kp.decoder == "ld":
        for y in words[::7]:
            assert list_decode(code, y, kp.w_enc) == \
                list_decode(plain, y, kp.w_enc)


@pytest.mark.parametrize("name", GOLDEN_DYADIC)
def test_keygen_code_is_the_decrypt_code(name):
    # one path per dyadic code: the code keygen eliminates is the one a
    # reloaded key decodes with, the same roots and the same Cauchy table
    _, m, n, r, _ = GOLDEN[name][0]
    kp = golden_key(name)
    issued = _dyadic_code(make_field(m), n, r, b"golden/" + name.encode())
    code = kp.code()
    assert issued.support == code.support == kp.support
    assert issued.roots == code.roots
    assert issued.parity_bin == code.parity_bin
    assert issued.systematic == (tuple(range(n)), kp.public)
    rng, tau = random.Random(name), kp.w_enc
    for w in (0, r // 2, r, tau):
        y = systematic_encode(kp.public, rng.randrange(1 << kp.k)) ^ sum(
            1 << p for p in rng.sample(range(n), w))
        assert list_decode(issued, y, tau) == list_decode(code, y, tau)


def test_cauchy_code_takes_any_coset_and_refuses_the_rest():
    kp = golden_key("dyadic-ud")
    field, support = kp.field, list(kp.support)
    with pytest.raises(CodeConstructionError, match="not distinct"):
        cauchy_code(field, support[:-1] + support[:1], kp.gpoly)
    # G + t is L_V(x) + c for another c: its roots are another coset of
    # V, which is a code of its own unless it meets the support
    outcomes = Counter()
    for t in range(1, 40):
        g = kp.gpoly + Poly(field, [t])
        try:
            code = cauchy_code(field, support, g)
        except CodeConstructionError as exc:
            outcomes[str(exc)] += 1
            continue
        outcomes["code"] += 1
        assert all(poly_eval(g, z) == 0 for z in code.roots)
        assert code.roots[0] ^ code.roots[1] == support[0] ^ support[1]
    assert outcomes["code"] and outcomes["support element is a root of G"]
    assert set(outcomes) <= {"code", "support element is a root of G",
                             "G is not L_V(x) + c on r roots"}
    # dropping G's x term makes G' = 0: G is a square, with r/2 roots
    c = list(kp.gpoly.c)
    c[1] = 0
    with pytest.raises(CodeConstructionError, match="L_V"):
        cauchy_code(field, support, Poly(field, c))


def test_cauchy_root_solve_matches_eval_all():
    # cauchy_code sums G + G(0) at alpha^k from G's terms at x^(2^j); the
    # oracle evaluates G at the m + 1 points by eval_all.  On G = L_V(x + z)
    # for random V and z, on those G plus a constant, and on G with one
    # more term, both agree on the roots or on the refusal
    rng = random.Random(36)
    for m in (2, 3, 5, 8, 10, 13, 16):
        field = make_field(m)
        for s in range(min(m - 1, 4) + 1):
            basis, V = [], [0]
            while len(V) < 1 << s:
                v = rng.randrange(1, field.order)
                if dyadic._independent(basis, v):
                    V += [u ^ v for u in V]
            z = rng.randrange(field.order)
            lin = Poly.from_roots(field, [z ^ v for v in V])
            for g in (lin, lin + Poly(field, [rng.randrange(field.order)]),
                      lin + Poly(field, [0] * 3 + [rng.randrange(1, 4)])):
                want = linearized_roots_eval_all(field, g)
                # a support of up to two whole cosets of V with no root of g
                cosets = {min(a ^ v for v in V) for a in (
                    rng.randrange(field.order) for _ in range(40))
                    if all(poly_eval(g, a ^ v) for v in V)}
                support = [c ^ v for c in sorted(cosets)[:2] for v in V]
                if want is None:
                    with pytest.raises(CodeConstructionError, match="L_V"):
                        cauchy_code(field, support or [0], g)
                    continue
                z0, kernel = want
                if not support:
                    continue
                code = cauchy_code(field, support, g)
                assert sorted(code.roots) == sorted(z0 ^ v for v in kernel)
                assert all(poly_eval(g, r) == 0 for r in code.roots)
