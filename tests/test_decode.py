import itertools
import random
from collections import Counter

import pytest

import testlib
from goppacrypt import decode
from goppacrypt.gf2m import (
    Poly, make_field, poly_invmod, random_monic_irreducible,
)
from goppacrypt.goppa import CapacityError, build_code, syndrome_poly
from goppacrypt.decode import (
    RadiusError, patterson_decode, list_decode, _linear_engine,
    _locator_roots,
)
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import keygen
from goppacrypt.security import radii
from testlib import (
    bit_tuple_key, encode, flip_engine, g2_decode, locator_roots_horner,
    random_goppa_code, sphere_oracle,
)


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
        res = patterson_decode(code, y)
        assert res.candidates == ((c, code.r),)


def test_patterson_all_weights_and_no_errors():
    code = make_code(6, 64, 6, b"pat2")
    rng = random.Random(11)
    for w in range(code.r + 1):
        for _ in range(10):
            c = encode(code, rng.randrange(1 << code.k))
            y = corrupt(rng, c, code.n, w)
            res = patterson_decode(code, y)
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
        assert patterson_decode(code, y).candidates == ()


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
            assert patterson_decode(code, y).candidates == ((c, 1),)


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
            s = syndrome_poly(code, y)
            s2 = testlib.syndrome_poly_bitloop(code, y, g2)
            for tau in (0, 1, r, r + 1, r + 2):
                assert testlib.span_echelon(
                    decode._key_equation_kernel(s, G, tau)) == \
                    testlib.span_echelon(
                        testlib.key_equation_kernel_poly(s2, g2, tau))


def test_g2_matches_patterson_on_irreducible():
    # Patterson, its fallback (the key equation at tau = r) and the
    # degree-2r oracle agree on every word within r
    code = make_code(5, 30, 3, b"g2a")
    rng = random.Random(13)
    for _ in range(60):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, rng.randrange(code.r + 1))
        want = patterson_decode(code, y)
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


def test_fallback_matches_the_g2_oracle():
    # where Patterson gives up on a word within r (s not invertible mod a
    # split G, or some s(z_i) = 0 on a dyadic key's Cauchy table), the key
    # equation at tau = r decodes it as the degree-2r EEA does; so it does
    # on random words
    rng = random.Random(49)
    for code in (make_code(6, 40, 4, b"fall/a", split=True),
                 make_code(8, 200, 10, b"fall/b", split=True),
                 keygen("dyadic", 10, 256, 16, "ud", seed=b"fall").code()):
        n, r = code.n, code.r
        errors = (sum(1 << p for p in rng.sample(range(n),
                                                 rng.randrange(1, r + 1)))
                  for _ in range(5000))
        hits = list(itertools.islice(
            (e for e in errors if not patterson_decode(code, e).candidates),
            6))
        assert len(hits) == 6
        for e in hits:
            assert list_decode(code, e, r) == _linear_engine(code, e, r) \
                == g2_decode(code, e)
            assert g2_decode(code, e).candidates == ((0, e.bit_count()),)
        for _ in range(6):
            y = rng.randrange(1 << n)
            assert _linear_engine(code, y, r) == g2_decode(code, y)


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


def test_list_decode_contains_patterson_answer():
    code = make_code(5, 32, 4, b"ldp")
    rng = random.Random(17)
    for _ in range(20):
        c = encode(code, rng.randrange(1 << code.k))
        y = corrupt(rng, c, code.n, code.r)
        pat = patterson_decode(code, y)
        lst = list_decode(code, y, code.r)
        assert set(pat.candidates) <= set(lst.candidates)


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
    # the list kernel with log-term pivots against its Poly form, on
    # real syndromes mod G (G irreducible and split) and on zero and
    # random right-hand sides; at r + 2 the odd columns reduce x^(t-1)
    rng = random.Random(47)
    for m, n, r, split in ((5, 32, 3, False), (6, 60, 4, True),
                           (8, 144, 8, False), (8, 120, 6, True)):
        code = make_code(m, n, r, b"kernel/%d/%d" % (n, r), split)
        field, G = code.field, code.gpoly
        rhs = [Poly(field), Poly(field, [rng.randrange(field.order)
                                         for _ in range(r)])]
        rhs += [syndrome_poly(code, rng.randrange(1 << n)) for _ in range(4)]
        for s in rhs:
            for tau in (0, 1, r, r + 1, r + 2):
                assert decode._key_equation_kernel(s, G, tau) == \
                    testlib.key_equation_kernel_poly(s, G, tau)


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
    zero = Poly(field)
    assert _locator_roots(code, zero) == (1 << n) - 1
    for d in range(r + 1):
        for _ in range(6):
            roots = rng.sample(code.support, rng.randrange(d + 1))
            rest = Poly(field, [rng.randrange(field.order)
                                for _ in range(d - len(roots))]
                        + [rng.randrange(1, field.order)])
            sigma = Poly.from_roots(field, roots) * rest
            assert sigma.degree == d
            assert _locator_roots(code, sigma) == \
                locator_roots_horner(code, sigma)
    with pytest.raises(ValueError):
        _locator_roots(code, code.gpoly * Poly.x(field))


def test_unique_decoding_builds_no_syndrome_inverses(monkeypatch):
    # Patterson and its fallback, the key equation at tau = r, work from
    # the alternant table of G
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
            if not split:
                assert patterson_decode(code, y).candidates == ((c, w),)
