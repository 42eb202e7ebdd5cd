import hashlib
import random

import pytest

from goppacrypt import binmat, goppa
from goppacrypt.dyadic import cauchy_code
from goppacrypt.gf2m import Poly, make_field, is_squarefree, random_monic_irreducible
from goppacrypt.goppa import (
    CodeConstructionError, CapacityError, build_code, syndrome_poly,
)
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import keygen
from testlib import (
    alternant_table, encode, field_div, field_pow, gen,
    min_distance_exhaustive, parity_bin_loop, poly_eval, random_goppa_code,
    syndrome_poly_bitloop, verify_prop1,
)

# (m, n, r): one byte lane (m <= 8), two lanes (m > 8) and m = 16
KERNEL_SHAPES = ((4, 12, 2), (5, 26, 3), (8, 200, 6), (11, 300, 5),
                 (16, 64, 4))


def full_support(field):
    return tuple(range(field.order))


def random_squarefree_avoiding(field, r, support, rng):
    while True:
        g = Poly(field, [rng.randrange(field.order) for _ in range(r)] + [1])
        if is_squarefree(g) and all(g.eval_all(support)):
            return g


def test_full_rank_dimensions():
    field = make_field(4)
    g = random_monic_irreducible(field, 2, SeededStream(b"dim"))
    code = build_code(field, full_support(field), g)
    assert (code.n, code.r, code.k) == (16, 2, 8)  # k = n - mr
    assert code.parity_bin.rows == 8 and gen(code).rows == 8
    assert sorted(code.systematic[0]) == list(range(16))


def test_parity_entries_are_alternant():
    field = make_field(5)
    rng = random.Random(1)
    support = tuple(rng.sample(range(32), 20))
    g = random_squarefree_avoiding(field, 3, support, rng)
    code = build_code(field, support, g)
    for i in range(code.r):
        for j in range(code.n):
            want = field_div(field, field_pow(field, support[j], i),
                             poly_eval(g, support[j]))
            # binary expansion: alpha^0 coefficient first
            for beta in range(5):
                assert (code.parity_bin.bits[i * 5 + beta] >> j & 1
                        == want >> beta & 1)


def test_generator_is_one_elimination_on_first_read(monkeypatch):
    field = make_field(5)
    rng = random.Random(7)
    support = tuple(rng.sample(range(32), 28))
    g = random_squarefree_avoiding(field, 3, support, rng)
    calls = []
    real_rref = binmat.rref
    monkeypatch.setattr(goppa, "rref",
                        lambda M: calls.append(M) or real_rref(M))
    code = build_code(field, support, g)
    assert calls == []  # validation only
    G = gen(code)
    assert len(calls) == 1
    colperm = code.systematic[0]
    assert code.k == G.rows and sorted(colperm) == list(range(28))
    assert gen(code) == G and len(calls) == 1
    # the column order is the free columns, then the pivots, of that RREF
    _, _, pivots = real_rref(code.parity_bin)
    free = [j for j in range(code.n) if j not in pivots]
    assert colperm == tuple(free) + tuple(pivots)


def test_k_and_colperm_read_the_systematic_form(monkeypatch):
    # k and encode come from (colperm, A); only gen assembles [I_k | A]
    rng = random.Random(8)
    code = random_goppa_code(6, 60, 4, rng)
    with monkeypatch.context() as patch:
        patch.setattr(goppa.GoppaCode, "gen", property(
            lambda code: pytest.fail("generator built")), raising=False)
        colperm, A = code.systematic
        assert code.k == A.rows and sorted(colperm) == list(range(code.n))
        assert A.cols == code.n - code.k
        word = encode(code, 1)
    assert word == gen(code).bits[0]


def test_g_evaluated_once_per_support_point(monkeypatch):
    # the root-of-G check in build_code and row 0 of the alternant table
    # of G share one evaluation of G at the whole support: one Horner pass
    # of plane products, deg G + 1 of them, then one per further row
    field = make_field(8)
    g = random_monic_irreducible(field, 12, SeededStream(b"evals"))
    products = []
    real_plane_mul = goppa.plane_mul
    monkeypatch.setattr(goppa, "plane_mul", lambda a, b, modulus:
                        products.append(b) or real_plane_mul(a, b, modulus))
    monkeypatch.setattr(Poly, "eval_all", lambda self, points: pytest.fail(
        "build_code evaluated G point by point"))
    code = build_code(field, full_support(field), g)
    assert code.parity_bin.rows == 8 * 12
    support_planes = binmat.transpose(full_support(field), 8)
    assert products == [support_planes] * (13 + 11)
    # a root of G, last in the support, is still refused by build_code
    split = Poly.from_roots(field, [7, 200])
    support = [a for a in range(256) if a not in (7, 200)] + [200]
    with pytest.raises(CodeConstructionError,
                       match="support element is a root of G"):
        build_code(field, support, split)


def test_generator_orthogonal_to_parity():
    rng = random.Random(2)
    for m in (4, 5, 6):
        field = make_field(m)
        support = tuple(rng.sample(range(field.order), field.order - 3))
        g = random_squarefree_avoiding(field, 2, support, rng)
        code = build_code(field, support, g)
        assert code.k >= code.n - m * code.r
        for row in gen(code).bits:
            assert code.parity_bin.mul_vec(row) == 0


def test_construction_errors():
    field = make_field(4)
    g = random_monic_irreducible(field, 2, SeededStream(b"err"))
    with pytest.raises(CodeConstructionError):
        build_code(field, (1, 2, 2, 3), g)  # repeated support element
    split = Poly.from_roots(field, [5, 9])
    with pytest.raises(CodeConstructionError):
        build_code(field, (1, 2, 5, 7), split)  # support hits a root
    square = Poly.from_roots(field, [3]).square()
    with pytest.raises(CodeConstructionError):
        build_code(field, (1, 2, 4, 7), square)  # not square-free
    with pytest.raises(CodeConstructionError):
        build_code(field, (1, 2, 17), g)  # outside the field
    with pytest.raises(CodeConstructionError):
        build_code(field, (1, 2, 4), Poly.one(field))  # degree zero


def test_support_size_out_of_range():
    field = make_field(4)
    g = random_monic_irreducible(field, 2, SeededStream(b"size"))
    for support in ((), range(field.order + 1)):
        with pytest.raises(CodeConstructionError, match="support size"):
            build_code(field, support, g)


def test_encode_basics():
    field = make_field(4)
    g = random_monic_irreducible(field, 2, SeededStream(b"enc"))
    code = build_code(field, full_support(field), g)
    assert encode(code, 0) == 0
    for i, row in enumerate(gen(code).bits):
        assert encode(code, 1 << i) == row
    rng = random.Random(3)
    for _ in range(50):
        word = encode(code, rng.randrange(1 << code.k))
        assert code.parity_bin.mul_vec(word) == 0
        assert syndrome_poly(code, word) == Poly(field)
    with pytest.raises(ValueError):
        encode(code, 1 << code.k)


def test_goppa_membership_definition():
    # every codeword satisfies sum c_j/(x - L_j) = 0 mod G, and the
    # syndrome of a single error multiplies back to 1
    field = make_field(4)
    rng = random.Random(4)
    g = random_monic_irreducible(field, 2, SeededStream(b"mem"))
    code = build_code(field, full_support(field), g)
    for _ in range(20):
        word = encode(code, rng.randrange(1 << code.k))
        j = rng.randrange(code.n)
        s = syndrome_poly(code, word ^ (1 << j))
        lin = Poly(field, (code.support[j], 1))
        assert (s * lin) % g == Poly.one(field)
    assert syndrome_poly(code, 0) == Poly(field)


def test_prop1_random_instances(monkeypatch):
    # equal dimension decides it: no generator is read
    def refuse(self):
        raise AssertionError("generator read")
    monkeypatch.setattr(goppa.GoppaCode, "gen", property(refuse),
                        raising=False)
    rng = random.Random(5)
    for m in (4, 5, 6):
        field = make_field(m)
        for _ in range(12):
            n = field.order - rng.randrange(1, 5)
            support = tuple(rng.sample(range(field.order), n))
            g = random_squarefree_avoiding(field, rng.choice((2, 3)), support, rng)
            assert verify_prop1(field, support, g)
    with pytest.raises(CodeConstructionError):
        field = make_field(4)
        verify_prop1(field, (1, 2, 3), Poly.from_roots(field, [5]).square())


def test_min_distance_designed_bound():
    field = make_field(4)
    rng = random.Random(6)
    for r in (1, 2):
        for _ in range(8):
            support = tuple(rng.sample(range(16), 16 - rng.randrange(1, 4)))
            g = random_squarefree_avoiding(field, r, support, rng)
            code = build_code(field, support, g)
            if code.k == 0:
                continue
            assert min_distance_exhaustive(code) >= 2 * r + 1


def test_min_distance_capacity_guard():
    field = make_field(5)
    g = Poly.from_roots(field, [7])
    support = tuple(a for a in range(32) if a != 7)
    code = build_code(field, support, g)
    assert code.k > 20
    with pytest.raises(CapacityError):
        min_distance_exhaustive(code)


@pytest.mark.parametrize("m,n,r", KERNEL_SHAPES)
def test_parity_bin_matches_loop(m, n, r):
    rng = random.Random(m * 1000 + n)
    for monic in (True, False):
        code = random_goppa_code(m, n, r, rng, monic)
        assert 0 in code.support
        assert code.parity_bin == parity_bin_loop(code)


def test_random_goppa_code_ends_when_g_has_roots():
    # at (3, 8, 2) the support needs all 8 points: a G with a root there
    # raises at once, one with none gives the full field
    outcomes = set()
    for seed in range(20):
        try:
            code = random_goppa_code(3, 8, 2, random.Random(seed))
        except ValueError as exc:
            assert "fewer than n = 8 points" in str(exc)
            outcomes.add("refused")
            continue
        assert sorted(code.support) == list(range(8))
        assert all(poly_eval(code.gpoly, a) for a in code.support)
        outcomes.add("code")
    assert outcomes == {"refused", "code"}


@pytest.mark.parametrize("m,n,r", ((3, 8, 2), (5, 32, 4), (8, 256, 12),
                                   (9, 200, 12), (11, 2048, 6),
                                   (13, 700, 20), (16, 500, 8)))
def test_plane_table_matches_alternant_oracle(m, n, r):
    # build_code's plane products against the row loop, bit for bit:
    # square-free G, monic or not, on supports that hold 0, and an
    # irreducible G on a full support n = 2^m where the shape has one
    rng = random.Random(m * 1000 + n)
    field = make_field(m)
    codes = [random_goppa_code(m, min(n // 2, 300), r, rng, monic)
             for monic in (True, False)]
    g = random_monic_irreducible(field, r, SeededStream(b"alt%d" % m))
    support = [0] + rng.sample(range(1, field.order), n - 1)
    rng.shuffle(support)
    for lead in (1, rng.randrange(2, field.order)):
        codes.append(build_code(field, support, g.scale(lead)))
    for code in codes:
        assert 0 in code.support
        assert code.parity_bin == alternant_table(field, code.support,
                                                  code.gpoly)
    assert codes[-1].n == n


@pytest.mark.parametrize("m,n,r", KERNEL_SHAPES)
def test_syndrome_poly_matches_bit_loop(m, n, r):
    # monic and non-monic G, words of every density
    rng = random.Random(m * 1000 + n + 1)
    for monic in (True, False):
        code = random_goppa_code(m, n, r, rng, monic)
        g = code.gpoly
        words = [0, (1 << n) - 1, 1 << code.support.index(0)]
        words += [rng.getrandbits(n) for _ in range(4)]
        words += [sum(1 << j for j in rng.sample(range(n), w))
                  for w in (1, r, 2 * r)]
        for y in words:
            assert syndrome_poly(code, y) == syndrome_poly_bitloop(code, y, g)


# SHA-256 of (table rows, colperm, A rows) of a fresh code on a seeded
# key's support and G, as the transposes and rref before the one
# transpose built them: m = 8 and 16 fill one and two byte lanes
TABLE_DIGESTS = {
    ("generic", 8, 144, 8, "ld"):
        "35347f2a303434d84094f957e82c9336afb2146fa6dbbc5187ad0388aba12d6c",
    ("generic", 9, 256, 12, "ud"):
        "2c91e6ca5a121d0ead9b81f3db881c44f0168d015e5f0a3c257c064e6b1b8bdb",
    ("generic", 11, 1024, 50, "ud"):
        "8a4315e3f4f887623dd610330f1df498c6f7eed3aa5f278a30211e1042942647",
    ("dyadic", 10, 256, 16, "ud"):
        "a11c4a18335bfece3b11dd73e55b2f610a2b23cc869b792ca9f46c6c22791aee",
    ("dyadic", 11, 1024, 32, "ud"):
        "c2a44bc8be467d99b116c155f22cd029c22ac43dda8025d1e62ff7b251cac024",
    ("dyadic", 16, 256, 4, "ud"):
        "8da0f401f5ac3a3eae406c99a180dc567b9482a7a5a13d6118198e06961beca3",
}


@pytest.mark.parametrize("args", sorted(TABLE_DIGESTS),
                         ids=lambda args: "%s-%d-%d-%d" % args[:4])
def test_tables_and_systematic_forms_keep_their_bits(args):
    variant, m, n, r, _ = args
    kp = keygen(*args, seed=b"grid/%d/%d/%d" % (m, n, r))
    make = build_code if variant == "generic" else cauchy_code
    code = make(kp.field, kp.support, kp.gpoly)
    colperm, A = code.systematic
    blob = repr((code.parity_bin.bits, colperm, A.bits)).encode()
    assert hashlib.sha256(blob).hexdigest() == TABLE_DIGESTS[args]
