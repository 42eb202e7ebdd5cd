import itertools
import random
from collections import Counter

import pytest

import testlib
from goppacrypt import decode, goppa
from goppacrypt.binmat import BinMatrix
from goppacrypt.gf2m import (
    Poly, _sqrt_x_mod, make_field, poly_invmod, random_monic_irreducible,
)
from goppacrypt.goppa import CapacityError, build_code, syndrome_poly
from goppacrypt.decode import (
    RadiusError, list_decode, _linear_engine,
    _locator_roots, _table_planes,
)
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import keygen
from goppacrypt.security import radii
from testlib import (
    bit_tuple_key, encode, flip_engine, g2_decode, locator_roots_horner,
    random_goppa_code, sphere_oracle,
)
from test_dyadic import make_dyadic
from test_golden import GOLDEN, decode_grid_codes
from test_scheme import count_calls


def make_code(m, n, r, tag, split=False):
    field = make_field(m)
    stream = SeededStream(tag)
    if split:
        roots = stream.sample_distinct(field.order, r)
        g = Poly.from_roots(field, roots)
        pool = [a for a, v in enumerate(g.eval_all(range(field.order))) if v]
        support = tuple(pool[i] for i in stream.sample_distinct(len(pool), n))
    else:
        g = random_monic_irreducible(field, r, stream)
        support = tuple(stream.sample_distinct(field.order, n))
    return build_code(field, support, g)


def corrupt(rng, word, n, w):
    out = word
    for p in rng.sample(range(n), w):
        out ^= 1 << p
    return out


def test_patterson_roundtrip_weight_r():
    code = make_code(6, 64, 6, b"pat")
    rng = random.Random(10)
    for _ in range(100):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, code.r)
        res = list_decode(code, y, code.r)
        assert res.candidates == ((c, code.r),)


def test_patterson_all_weights_and_no_errors():
    code = make_code(6, 64, 6, b"pat2")
    rng = random.Random(11)
    for w in range(code.r + 1):
        for _ in range(10):
            c = encode(code, rng.randrange(1 << code.k))
            y = corrupt(rng, c, code.n, w)
            res = list_decode(code, y, code.r)
            assert res.candidates == ((c, w),)  # locator degree equals wt(e)


def test_patterson_failure_beyond_radius():
    # received words with no codeword within r must come back empty;
    # the sphere oracle is the arbiter
    code = make_code(4, 16, 2, b"pat3")
    rng = random.Random(12)
    checked = 0
    while checked < 10:
        y = rng.randrange(1 << code.n)
        if sphere_oracle(code, y, code.r).candidates:
            continue
        checked += 1
        assert list_decode(code, y, code.r).candidates == ()


def test_patterson_single_error_at_support_point_zero():
    # one error at the support point 0 has syndrome 1/x, so T = x,
    # sqrt(T + x) = 0 and the key equation gives sigma = x
    rng = random.Random(16)
    for m, n, r in ((6, 48, 5), (8, 160, 8), (10, 300, 12)):
        for t in range(6):
            code = make_code(m, n, r, b"zero/%d/%d" % (m, t), split=t == 5)
            support = [a for a in code.support if a][:n - 1] + [0]
            rng.shuffle(support)
            code = build_code(code.field, support, code.gpoly)
            c = encode(code, rng.randrange(1 << code.k))
            y = c ^ 1 << support.index(0)
            s = syndrome_poly(code, y)
            assert poly_invmod(s, code.gpoly) == Poly.x(code.field)
            assert list_decode(code, y, code.r).candidates == ((c, 1),)


def test_key_equation_kernel_mod_g_spans_the_kernel_mod_g2():
    # a binary word's syndrome S has S' = S^2, so sigma*s = sigma' (mod G)
    # already holds mod G^2: the kernel on s mod G spans the kernel on the
    # bit-loop syndrome mod G^2, on generic codes (G irreducible and split)
    # and on dyadic keys' codes (Cauchy table) with the same key on G's
    # alternant table
    rng = random.Random(48)
    codes = [make_code(5, 30, 3, b"g2s/a"), make_code(8, 144, 8, b"g2s/b"),
             make_code(6, 60, 4, b"g2s/c", split=True)]
    for args in (("dyadic", 10, 256, 16, "ud"), ("dyadic", 16, 128, 4, "ld")):
        kp = keygen(*args, seed=b"g2s")
        assert kp.code().roots
        codes += [kp.code(), build_code(kp.field, kp.support, kp.gpoly)]
    for code in codes:
        n, r, G = code.n, code.r, code.gpoly
        g2 = G.square()
        words = [sum(1 << p for p in rng.sample(range(n), w))
                 for w in (0, 1, r, r + 1, r + 2) for _ in range(2)]
        words += [rng.randrange(1 << n) for _ in range(4)]
        for y in words:
            s2 = testlib.syndrome_poly_bitloop(code, y, g2)
            for tau in (0, 1, r, r + 1, r + 2):
                assert testlib.span_echelon(
                    decode._key_equation_kernel(code, y, tau)) == \
                    testlib.span_echelon(
                        testlib.key_equation_kernel_poly(s2, g2, tau))


def test_g2_matches_patterson_on_irreducible():
    # Patterson, the key equation at tau = r through the list engine and
    # the degree-2r oracle agree on every word within r
    code = make_code(5, 30, 3, b"g2a")
    rng = random.Random(13)
    for _ in range(60):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, rng.randrange(code.r + 1))
        want = list_decode(code, y, code.r)
        assert g2_decode(code, y) == want == _linear_engine(code, y, code.r)


def test_g2_handles_split_goppa_polynomial():
    code = make_code(6, 40, 4, b"g2b", split=True)
    rng = random.Random(14)
    for _ in range(60):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, rng.randrange(code.r + 1))
        res = _linear_engine(code, y, code.r)
        assert res == g2_decode(code, y)
        assert res.candidates and res.candidates[0][0] == c


def test_non_invertible_syndromes_match_the_g2_oracle():
    # where s is not invertible mod G (a split G, or some s(z_i) = 0 on a
    # dyadic key's Cauchy table), Patterson decodes as the degree-2r EEA
    # does, through list_decode and the list engine at tau = r alike; so
    # it does on random words
    rng = random.Random(49)
    for code in (make_code(6, 40, 4, b"fall/a", split=True),
                 make_code(8, 200, 10, b"fall/b", split=True),
                 keygen("dyadic", 10, 256, 16, "ud", seed=b"fall").code()):
        n, r = code.n, code.r
        errors = (sum(1 << p for p in rng.sample(range(n),
                                                 rng.randrange(1, r + 1)))
                  for _ in range(5000))
        hits = list(itertools.islice(
            (e for e in errors
             if poly_invmod(syndrome_poly(code, e), code.gpoly) is None), 6))
        assert len(hits) == 6
        for e in hits:
            assert list_decode(code, e, r) == _linear_engine(code, e, r) \
                == g2_decode(code, e)
            assert g2_decode(code, e).candidates == ((0, e.bit_count()),)
        for _ in range(6):
            y = rng.randrange(1 << n)
            assert list_decode(code, y, r) == _linear_engine(code, y, r) \
                == g2_decode(code, y)


def test_patterson_decodes_every_error_within_r():
    # every error of weight <= r around the zero codeword decodes, also
    # where gcd(s, G) != 1: all of a (4, 16, 3) code's and of a split
    # (5, 24, 3) code's, and seeded errors with some s(z_i) = 0 on a
    # dyadic key's Cauchy table
    shared = 0
    for code in (make_code(4, 16, 3, b"every/a"),
                 make_code(5, 24, 3, b"every/b", split=True)):
        for w in range(code.r + 1):
            for ps in itertools.combinations(range(code.n), w):
                e = sum(1 << p for p in ps)
                assert list_decode(code, e, code.r).candidates == ((0, w),)
                shared += poly_invmod(syndrome_poly(code, e),
                                      code.gpoly) is None
    assert shared > 100
    code = keygen("dyadic", 10, 256, 16, "ud", seed=b"every").code()
    rng = random.Random(51)
    hits = 0
    while hits < 12:
        e = sum(1 << p for p in rng.sample(range(code.n),
                                           rng.randrange(1, code.r + 1)))
        if 0 in goppa._syndromes(code, e):
            hits += 1
            assert list_decode(code, e, code.r).candidates == \
                ((0, e.bit_count()),)


def test_key_equation_kernel_dimension():
    # past r the kernel has dimension tau - r + 1, unless its first
    # member has degree <= 2r - tau: then only its multiples x^(2j) reach
    # tau, as the other basis member has degree >= tau + 1
    rng = random.Random(52)
    seen = Counter()
    for m, n, r, split in ((5, 32, 3, False), (6, 60, 4, True),
                           (8, 144, 8, False)):
        code = make_code(m, n, r, b"dim/%d/%d" % (n, r), split)
        for i in range(30):
            c = encode(code, rng.randrange(1 << code.k))
            y = rng.randrange(1 << n) if i % 3 == 0 else \
                corrupt(rng, c, n, rng.randrange(r + 3))
            for tau in (r + 1, r + 2):
                basis = decode._key_equation_kernel(code, y, tau)
                d0 = basis[0].degree
                assert [p.degree for p in basis] == \
                    sorted({p.degree for p in basis})
                if d0 <= 2 * r - tau:
                    assert len(basis) == (tau - d0) // 2 + 1
                    seen["low"] += 1
                else:
                    assert len(basis) == tau - r + 1
                    seen["full"] += 1
    assert seen["low"] and seen["full"], seen


def test_list_decode_radius_zero_and_errors():
    code = make_code(5, 32, 4, b"ld0")
    rng = random.Random(15)
    c = encode(code, rng.randrange(1 << code.k))
    assert list_decode(code, c, 0).candidates == ((c, 0),)
    limit = 5  # ceil(tau2(32, 4)) - 1
    with pytest.raises(RadiusError):
        list_decode(code, c, limit + 1)
    with pytest.raises(RadiusError):
        list_decode(code, c, -1)


def test_list_decode_matches_oracle_and_is_monotone():
    code = make_code(5, 32, 4, b"ldo")
    rng = random.Random(16)
    tau = 5
    for trial in range(30):
        if trial % 3 == 0:
            y = rng.randrange(1 << code.n)
        else:
            c = encode(code, rng.randrange(1 << code.k))
            y = corrupt(rng, c, code.n, rng.randrange(tau + 2))
        got = list_decode(code, y, tau)
        want = sphere_oracle(code, y, tau)
        assert got == want
        inner = list_decode(code, y, code.r)
        assert set(inner.candidates) <= set(got.candidates)


def test_list_decode_contains_patterson_answer(monkeypatch):
    # unique decoding is list_decode at r, one _linear_engine call as at
    # every radius: below r the result is the weight <= tau part of the
    # one at r, and past r it holds that one
    code = make_code(5, 32, 4, b"ldp")
    rng = random.Random(17)
    for _ in range(20):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, code.r)
        pat = list_decode(code, y, code.r)
        lst = list_decode(code, y, code.r + 1)
        assert set(pat.candidates) <= set(lst.candidates)
    code = dict(decode_grid_codes())["generic"]  # (7, 128, 14)
    r, tau, stream = code.r, code.r // 2, SeededStream(b"one-engine")
    calls = count_calls(monkeypatch, ((decode, "_linear_engine"),))
    sides = set()
    for w in range(r + 3):
        y = encode(code, stream.randbelow(1 << code.k))
        for p in stream.sample_distinct(code.n, w):
            y ^= 1 << p
        got = {}
        for t in (0, tau, r, r + 1, r + 2):
            calls.clear()
            got[t] = list_decode(code, y, t).candidates
            assert calls == {"_linear_engine": 1}
        for t in (0, tau):
            assert got[t] == tuple(p for p in got[r] if p[1] <= t)
        assert set(got[r]) <= set(got[r + 1]) <= set(got[r + 2])
        sides.update(p[1] <= tau for p in got[r])
    assert sides == {True, False}  # candidates on both sides of tau


def test_list_decode_tiny_code_past_r():
    code = make_code(4, 12, 2, b"gs1")
    rng = random.Random(18)
    for trial in range(4):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, 3)
        got = list_decode(code, y, 3)
        assert got == sphere_oracle(code, y, 3)
        assert any(cand == c for cand, _ in got.candidates)


def test_list_decode_short_code_at_r():
    code = make_code(4, 16, 2, b"gs2")
    rng = random.Random(19)
    for trial in range(6):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, 2)
        got = list_decode(code, y, 2)
        assert got == sphere_oracle(code, y, 2)


def test_flip_engine_explicit():
    code = make_code(5, 32, 4, b"flip")
    rng = random.Random(20)
    c = encode(code, rng.randrange(1 << code.k))
    y = corrupt(rng, c, code.n, 5)
    got = flip_engine(code, y, 5)
    assert any(cand == c for cand, _ in got.candidates)
    assert list_decode(code, y, 5) == got


def test_list_decode_refuses_past_r_plus_2_before_any_work(monkeypatch):
    code = make_code(8, 256, 24, b"ld/r+3")
    tau = code.r + 3
    assert tau <= radii(code.n, code.r).ld_errors

    def refuse(*args):
        raise AssertionError("syndrome computed")
    monkeypatch.setattr(decode, "syndrome_poly", refuse)
    with pytest.raises(CapacityError, match="r \\+ 3"):
        list_decode(code, 0, tau)


def linear_decode(code, y, tau):
    # list_decode refuses radii past the Johnson limit; its engine does not
    if tau <= radii(code.n, code.r).ld_errors:
        return list_decode(code, y, tau)
    return decode._linear_engine(code, y, tau)


# (m, n, r, words at tau = r+1, words at tau = r+2); the flip oracle costs
# C(n, 2) decodes per word at r+2
LINEAR_GRID = ((5, 32, 3, 24, 12), (5, 32, 5, 24, 12), (6, 64, 6, 12, 3),
               (7, 100, 6, 12, 2), (8, 144, 8, 12, 1))


def test_key_equation_kernel_matches_poly_form():
    # the kernel from the EEA spans the kernel of the dense Poly
    # elimination, on zero syndromes, errors within r + 2 (G irreducible
    # and split) and random words
    rng = random.Random(47)
    for m, n, r, split in ((5, 32, 3, False), (6, 60, 4, True),
                           (8, 144, 8, False), (8, 120, 6, True)):
        code = make_code(m, n, r, b"kernel/%d/%d" % (n, r), split)
        words = [0] + [corrupt(rng, 0, n, w) for w in (1, r, r + 1, r + 2)]
        words += [rng.randrange(1 << n) for _ in range(4)]
        for y in words:
            s = syndrome_poly(code, y)
            for tau in (0, 1, r, r + 1, r + 2):
                assert testlib.span_echelon(
                    decode._key_equation_kernel(code, y, tau)) == \
                    testlib.span_echelon(
                        testlib.key_equation_kernel_poly(s, code.gpoly, tau))


def test_linear_engine_matches_flip_oracle(monkeypatch):
    kernel = decode._key_equation_kernel
    kernels = []  # the calls made while decoding the current word

    def counted(*args):
        kernels.append(args)
        return kernel(*args)
    monkeypatch.setattr(decode, "_key_equation_kernel", counted)
    seen = {"several": 0, "only_r+1": 0, "shortcut": 0}
    for m, n, r, count1, count2 in LINEAR_GRID:
        code = make_code(m, n, r, b"linear/%d/%d" % (n, r))
        rng = random.Random(n + r)
        for tau, count in ((r + 1, count1), (r + 2, count2)):
            for i in range(count):
                if i % 6 == 5:
                    y = rng.randrange(1 << n)
                else:  # distances r+2, r+1, r, r-1, r-2
                    c = encode(code, rng.randrange(1 << code.k))
                    y = corrupt(rng, c, n, r + 2 - i % 6)
                del kernels[:]
                got = linear_decode(code, y, tau)
                assert got == flip_engine(code, y, tau)
                assert [args[2] for args in kernels] == [tau]
                dists = [d for _, d in got.candidates]
                seen["several"] += len(dists) > 1
                seen["only_r+1"] += tau == r + 2 and dists == [r + 1]
                if dists and dists[0] <= 2 * r - tau:
                    assert dists == dists[:1]
                    seen["shortcut"] += 1
    assert all(seen.values()), seen


def test_r_plus_2_matches_the_sphere_oracle_on_full_supports():
    # a seeded subset of the weight-4 and weight-5 words around the zero
    # codeword, decoded at tau = 5 = r + 2 on (4, 16, 3) codes; a full
    # support needs G irreducible
    rng = random.Random(50)
    words = [sum(1 << p for p in ps) for w in (4, 5)
             for ps in itertools.combinations(range(16), w)]
    sizes = Counter()
    for i in range(6):
        code = make_code(4, 16, 3, b"r+2/%d" % i)
        for y in rng.sample(words, 400):
            got = list_decode(code, y, 5)
            assert got == sphere_oracle(code, y, 5)
            sizes[len(got.candidates)] += 1
    assert sizes[1] and sizes[3], sizes


def test_linear_engine_anchors_reach_the_last_points():
    # r + 1 roots always meet the first n - r points; planted on the last
    # r + 1 points they meet only the last anchor
    for m, n, r, _, _ in LINEAR_GRID:
        code = make_code(m, n, r, b"linear/%d/%d" % (n, r))
        rng = random.Random(n - r)
        for w in (r + 1, r + 2):
            c = encode(code, rng.randrange(1 << code.k))
            y = c ^ ((1 << w) - 1) << (n - w)
            assert (c, w) in linear_decode(code, y, r + 2).candidates


def test_linear_engine_builds_no_syndrome_inverses(monkeypatch):
    def refuse(modulus, a):
        raise AssertionError("syndrome inverse built")
    monkeypatch.setattr(testlib, "inv_x_minus", refuse)
    code = make_code(5, 32, 5, b"linear/noinv")
    rng = random.Random(22)
    for tau in (6, 7):
        for w in (tau - 1, tau):
            c = encode(code, rng.randrange(1 << code.k))
            got = list_decode(code, corrupt(rng, c, code.n, w), tau)
            assert (c, w) in got.candidates


def test_linear_engine_refuses_an_unexpected_kernel(monkeypatch):
    code = make_code(5, 32, 4, b"linear/dim")
    rng = random.Random(23)
    y = corrupt(rng, encode(code, rng.randrange(1 << code.k)), code.n, 5)
    kernel = decode._key_equation_kernel
    monkeypatch.setattr(decode, "_key_equation_kernel",
                        lambda *args: kernel(*args)[:1])
    with pytest.raises(CapacityError, match="dimension 1"):
        list_decode(code, y, 5)


def test_sphere_oracle_basics():
    code = make_code(4, 16, 2, b"sph")
    rng = random.Random(21)
    c = encode(code, rng.randrange(1 << code.k))
    assert sphere_oracle(code, c, 0).candidates == ((c, 0),)
    assert sphere_oracle(code, c ^ 1, 0).candidates == ()
    everything = sphere_oracle(code, 0, code.n)
    assert len(everything.candidates) == 1 << code.k
    ordered = [w for _, w in everything.candidates]
    assert ordered == sorted(ordered)


def test_sorted_result_matches_bit_tuple_order():
    # the integer key orders words as the bit tuple from bit 0 up does,
    # ties in weight and repeated words included, at short and long n
    rng = random.Random(29)
    for n in (1, 3, 8, 64, 1024):
        for _ in range(20):
            words = [rng.choice((0, 1 << rng.randrange(n),
                                 rng.randrange(1 << n)))
                     for _ in range(rng.randrange(40))]
            pairs = [(c, rng.randrange(3)) for c in words]
            assert decode._sorted_result(n, pairs).candidates == \
                tuple(sorted(pairs, key=bit_tuple_key(n)))


def test_sphere_oracle_capacity_guard():
    field = make_field(5)
    g = Poly.from_roots(field, [7])
    support = tuple(a for a in range(32) if a != 7)
    code = build_code(field, support, g)
    assert code.k > 20
    with pytest.raises(CapacityError):
        sphere_oracle(code, 0, 8)


@pytest.mark.parametrize("m,n,r", ((4, 12, 2), (6, 50, 4), (8, 200, 5),
                                   (11, 300, 4), (16, 64, 3)))
def test_locator_roots_match_horner_scan(m, n, r):
    # every degree 0..r on G's table, with a planted share of support
    # roots; the support holds 0
    rng = random.Random(m * 100 + r)
    code = random_goppa_code(m, n, r, rng)
    field = code.field

    def roots(sigma):
        return _locator_roots(n, *_table_planes(code, sigma))
    assert roots(Poly(field)) == (1 << n) - 1
    for d in range(r + 1):
        for _ in range(6):
            planted = rng.sample(code.support, rng.randrange(d + 1))
            rest = Poly(field, [rng.randrange(field.order)
                                for _ in range(d - len(planted))]
                        + [rng.randrange(1, field.order)])
            sigma = Poly.from_roots(field, planted) * rest
            assert sigma.degree == d
            assert roots(sigma) == locator_roots_horner(code, sigma)
    with pytest.raises(ValueError):
        roots(code.gpoly * Poly.x(field))


def test_one_table_planes_call_per_kernel_member(monkeypatch):
    # basis[0]'s planes give both its roots and its values: an r + 1
    # word of the dyadic-ld key past the shortcut builds the planes of
    # its two kernel members once each, and a UD word those of one
    kp = keygen(*GOLDEN["dyadic-ld"][0], seed=b"golden/dyadic-ld")
    code, stream = kp.code(), SeededStream(b"planes")
    calls = count_calls(monkeypatch, ((decode, "_table_planes"),))
    for w in (code.r + 1, code.r):
        c = encode(code, stream.randbelow(1 << code.k))
        y = c
        for p in stream.sample_distinct(code.n, w):
            y ^= 1 << p
        calls.clear()
        assert list_decode(code, y, w).candidates == ((c, w),)
        assert calls == {"_table_planes": 1 + (w > code.r)}


def test_unique_decoding_builds_no_syndrome_inverses(monkeypatch):
    # Patterson and the list engine at tau = r work from the alternant
    # table of G
    def refuse(modulus, a):
        raise AssertionError("syndrome inverse built")
    monkeypatch.setattr(testlib, "inv_x_minus", refuse)
    rng = random.Random(12)
    for split in (False, True):
        code = make_code(7, 100, 5, b"noinv", split=split)
        for w in range(code.r + 1):
            c = encode(code, rng.randrange(1 << code.k))
            y = corrupt(rng, c, code.n, w)
            assert _linear_engine(code, y, code.r).candidates == ((c, w),)
            assert list_decode(code, y, code.r).candidates == ((c, w),)


def shared_factor_words(code, rng, count):
    """count seeded words, 1..r+2 errors from a codeword, whose nonzero
    syndrome s shares a factor with G: on the Cauchy table, those with
    some s(z_i) = 0."""
    words = []
    while len(words) < count:
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, rng.randrange(1, code.r + 3))
        s = syndrome_poly(code, y)
        if s != Poly(code.field) and poly_invmod(s, code.gpoly) is None:
            words.append(y)
    return words


def test_every_candidate_is_a_codeword_within_tau():
    # the key equation proves each candidate a codeword, so the decoder
    # checks no parity: check it here, on both tables, at r, r+1 and r+2,
    # on words of weight 0..r+2 from a codeword, random words and words
    # whose syndrome shares a factor with G
    codes = [make_code(4, 16, 3, b"inv/irreducible"),
             make_code(6, 40, 4, b"inv/split", split=True),
             make_dyadic(5, 16, 2, 16, b"inv/cauchy2")[1],
             make_dyadic(7, 64, 8, 64, b"inv/cauchy8")[1]]
    found = Counter()
    for i, code in enumerate(codes):
        rng = random.Random(60 + i)
        n, r = code.n, code.r
        words = [corrupt(rng, encode(code, rng.randrange(1 << code.k)), n, w)
                 for w in range(r + 3) for _ in range(4)]
        words += [rng.randrange(1 << n) for _ in range(20)]
        if i:  # an irreducible G shares no factor with s != 0
            words += shared_factor_words(code, rng, 20)
        for y in words:
            for tau in (r, r + 1, r + 2):
                got = linear_decode(code, y, tau).candidates
                for c, w in got:
                    assert code.parity_bin.mul_vec(c) == 0
                    assert (c ^ y).bit_count() == w <= tau
                found[tau - r] += len(got)
    assert found[0] and found[1] and found[2], found


def test_list_decode_input_guards():
    # past r, a code with n < 4r + 2 has no real list radius; a word
    # wider than n is refused on both tables, at r and past it
    short = make_code(4, 12, 3, b"guard/short")
    assert short.n < 4 * short.r + 2
    with pytest.raises(RadiusError, match="too short"):
        list_decode(short, 0, short.r + 1)
    assert list_decode(short, 0, short.r).candidates == ((0, 0),)
    for code in (make_code(5, 32, 4, b"guard/wide"),
                 make_dyadic(6, 32, 4, 32, b"guard/wide")[1]):
        for y in (1 << code.n, -1):
            for tau in (code.r, code.r + 1):
                with pytest.raises(ValueError, match="does not fit"):
                    list_decode(code, y, tau)


def test_cauchy_words_with_a_zero_match_the_sphere_oracle():
    # R pointwise with 0 where s(z_i) = 0, g the product of x + z_i over
    # those roots and M over the rest: brute force is the oracle
    _, code = make_dyadic(5, 16, 2, 16, b"zero/oracle")
    assert code.roots
    rng = random.Random(70)
    words = shared_factor_words(code, rng, 120)
    assert all(0 in goppa._syndromes(code, y) for y in words)
    for y in words:
        for tau in (code.r, code.r + 1, code.r + 2):
            assert linear_decode(code, y, tau) == sphere_oracle(code, y, tau)


def test_square_roots_are_taken_mod_g_alone():
    # the square root of x is memoized for G only: one entry for an
    # alternant code, whatever factor s shares with G, and none for the
    # Cauchy table, whose square roots are pointwise
    code = make_code(6, 40, 4, b"memo/split", split=True)
    rng = random.Random(80)
    words = [rng.randrange(1 << code.n) for _ in range(400)]
    shared = sum(poly_invmod(syndrome_poly(code, y), code.gpoly) is None
                 for y in words)
    _sqrt_x_mod.cache_clear()
    for y in words:
        list_decode(code, y, code.r)
    assert shared >= 10 and _sqrt_x_mod.cache_info().currsize == 1
    _, dyadic = make_dyadic(6, 32, 4, 32, b"memo/cauchy")
    words = shared_factor_words(dyadic, rng, 40)
    _sqrt_x_mod.cache_clear()
    for y in words:
        list_decode(dyadic, y, dyadic.r)
    assert _sqrt_x_mod.cache_info().currsize == 0


def test_m_is_g_divided_by_the_vanishing_roots(monkeypatch):
    # seeded words with 1..3 zeros s(z_i) = 0 on the Cauchy table, each
    # drawn from the null space of those roots' table rows: M = G/g by
    # exact division is the product of x + z_i over the other roots
    _, code = make_dyadic(6, 32, 4, 32, b"zero/divide")
    field, G, m = code.field, code.gpoly, code.field.m
    rng = random.Random(71)
    seen = []

    def spy(p, d, real=decode._divmod):
        out = real(p, d)
        if p == G:
            seen.append((d, out))
        return out
    monkeypatch.setattr(decode, "_divmod", spy)
    for size in (1, 2, 3):
        for _ in range(4):
            zero_at = sorted(rng.sample(range(code.r), size))
            rows = [v for i in zero_at
                    for v in code.parity_bin.bits[i * m:(i + 1) * m]]
            basis = testlib.null_space(BinMatrix(len(rows), code.n, rows))
            y = 0
            while [i for i, v in enumerate(goppa._syndromes(code, y))
                   if not v] != zero_at:
                y = 0
                for v in basis.bits:
                    y ^= v if rng.getrandbits(1) else 0
            seen.clear()
            for tau in (code.r, code.r + 1):
                list_decode(code, y, tau)
            zeros = {code.roots[i] for i in zero_at}
            assert len(seen) == 2
            for g, (M, rest) in seen:
                assert g == Poly.from_roots(field, zeros) and rest == []
                assert M == Poly.from_roots(field, set(code.roots) - zeros)


def test_ld_evaluates_only_the_quotient_on_the_support(monkeypatch):
    # the basis values come off the code's table: on either table, the
    # only polynomials evaluated at the support are the quotients Q of
    # p = Q*G + rho, of degree <= tau - r, one per basis member
    codes = [make_code(6, 64, 3, b"quot/alternant"),
             make_dyadic(7, 64, 8, 64, b"quot/cauchy")[1]]
    degrees = Counter()

    def eval_all(poly, points, real=Poly.eval_all):
        if len(points) == len(code.support):
            degrees[poly.degree] += 1
        return real(poly, points)
    monkeypatch.setattr(Poly, "eval_all", eval_all)
    for code in codes:
        rng = random.Random(code.n + code.r)
        for w in (code.r + 1, code.r + 2):
            c = encode(code, rng.randrange(1 << code.k))
            y = corrupt(rng, c, code.n, w)
            for tau in (code.r + 1, code.r + 2):
                degrees.clear()
                got = _linear_engine(code, y, tau).candidates
                assert ((c, w) in got) == (w <= tau)
                assert sum(degrees.values()) == tau - code.r + 1
                assert max(degrees) <= tau - code.r
