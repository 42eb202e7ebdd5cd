import random

import pytest

import itertools

from goppacrypt import gf2m
from goppacrypt.gf2m import (
    NEG_INF, Field, Poly, make_field, is_squarefree, poly_invmod,
    eea_stop, poly_sqrt_mod, is_irreducible,
    random_monic_irreducible, _gcd, _gf2_mod, _reduce, _sqrt_x_mod, _squarer,
)
from goppacrypt.prng import SeededStream
from testlib import (
    divmod_poly, eea_stop_poly, field_pow, poly_eval, poly_gcd_poly,
    poly_powmod, rabin_irreducible, sqrt_x_mod_solve,
)


# ---------------------------------------------------------------- oracles

def gf2_factor_free(p, test_mod):
    """Independent trial-division irreducibility check over GF(2)."""
    d = p.bit_length() - 1
    return d >= 1 and all(test_mod(p, q) != 0
                          for q in range(2, 1 << (d // 2 + 1)) if q >= 2)


def sa_mul(field, a, b):
    """Shift-and-add product modulo the field's modulus: the reference."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> field.m:
            a ^= field.modulus
    return r


def sa_pow(field, a, e):
    r = 1
    while e:
        if e & 1:
            r = sa_mul(field, r, a)
        a = sa_mul(field, a, a)
        e >>= 1
    return r


def sa_inv(field, a):
    return sa_pow(field, a, field.order - 2)


def sa_sqrt(field, a):
    return sa_pow(field, a, field.order // 2)  # a^(2^(m-1))


def sa_order(field, a):
    """Multiplicative order of a nonzero element, by walking its powers."""
    v, k = a, 1
    while v != 1:
        v = sa_mul(field, v, a)
        k += 1
    return k


def naive_poly_mul(f, g):
    field = f.field
    out = [0] * (len(f.c) + len(g.c))
    for i, a in enumerate(f.c):
        for j, b in enumerate(g.c):
            out[i + j] ^= sa_mul(field, a, b)
    return Poly(field, out)


def naive_divmod(f, g):
    """Schoolbook long division with the reference arithmetic."""
    field = f.field
    inv_lead = sa_inv(field, g.c[-1])
    rem = list(f.c)
    db = len(g.c) - 1
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        q = sa_mul(field, rem[i], inv_lead)
        quo[i - db] = q
        for j, b in enumerate(g.c):
            rem[i - db + j] ^= sa_mul(field, q, b)
    return Poly(field, quo), Poly(field, rem)


def naive_eval(f, x0):
    r = 0
    for a in reversed(f.c):
        r = sa_mul(f.field, r, x0) ^ a
    return r


def reduce_divmod(f, g):
    """(quotient, remainder) as Polys, from _reduce's quotient terms."""
    field = f.field
    terms = []
    rem = _reduce(list(f.c), g.c, field.exp, field.log, terms)
    quo = [0] * max(len(f.c) - len(g.c) + 1, 0)
    for i, lq in terms:
        quo[i] = field.exp[lq]
    return Poly(field, quo), Poly(field, rem)


def list_gcd(f, g):
    """_gcd of the coefficient lists of f and g, made monic."""
    field = f.field
    return Poly(field, _gcd(list(f.c), list(g.c), field.exp,
                            field.log)).monic()


# ---------------------------------------------------------------- fields

def test_make_field_smallest_modulus():
    assert make_field(4).modulus == 0b10011
    assert make_field(11).order == 2048
    for m in (1, 0, 17, -3):
        with pytest.raises(ValueError):
            make_field(m)


def test_modulus_is_minimal_irreducible_for_all_m():
    for m in range(2, 17):
        mod = make_field(m).modulus
        assert mod >> m == 1  # degree exactly m
        assert gf2_factor_free(mod, _gf2_mod)
        for p in range(1 << m, mod):
            assert not gf2_factor_free(p, _gf2_mod)


def test_generator_is_smallest_primitive_element():
    for m in range(2, 17):
        field = make_field(m)
        g = field.generator
        assert sa_order(field, g) == field.order - 1
        assert all(sa_order(field, h) < field.order - 1 for h in range(2, g))
    # the smallest degree-8 modulus 0x11b is not primitive: x has order 51
    field = make_field(8)
    assert field.modulus == 0x11b and sa_order(field, 2) == 51
    assert field.generator == 3


def test_mul_against_log_tables():
    # the field's tables against ones built here by the reference, for
    # every m, including those (m = 8) whose modulus is not primitive
    for m in range(2, 17):
        field = make_field(m)
        order = field.order - 1
        exp = [1]
        for _ in range(order - 1):
            exp.append(sa_mul(field, exp[-1], field.generator))
        log = {v: i for i, v in enumerate(exp)}
        assert list(field.exp) == exp + exp
        assert all(field.log[v] == i for v, i in log.items())
        rng = random.Random(m)
        for _ in range(300):
            a = rng.randrange(1, 1 << m)
            b = rng.randrange(1, 1 << m)
            assert field.mul(a, b) == exp[(log[a] + log[b]) % order]
            assert field.inv(a) == exp[-log[a] % order]
        assert field.mul(0, a) == 0 and field.mul(a, 0) == 0


def test_field_against_shift_and_add():
    rng = random.Random(5)
    for m in range(2, 17):
        field = make_field(m)
        if m <= 6:
            elems = range(field.order)
            pairs = [(a, b) for a in elems for b in elems]
        else:
            elems = [0, 1, field.order - 1] + [rng.randrange(field.order)
                                               for _ in range(150)]
            pairs = [(rng.randrange(field.order), rng.randrange(field.order))
                     for _ in range(300)] + [(0, 5), (5, 0), (1, 1)]
        for a, b in pairs:
            assert field.mul(a, b) == sa_mul(field, a, b)
        for a in elems:
            assert field.sqrt(a) == sa_sqrt(field, a)
            if a:
                assert field.inv(a) == sa_inv(field, a)


def test_field_tables_built_once_per_modulus():
    field = make_field(11)
    again = Field(11, field.modulus)
    assert again == field and again.exp is field.exp and again.log is field.log


def test_field_rejects_bad_degree_and_modulus():
    for m, modulus in ((1, 0b11), (0, 1), (17, (1 << 17) | 0b1001),
                       (20, (1 << 20) | 0b1001)):
        with pytest.raises(ValueError):
            Field(m, modulus)
    with pytest.raises(ValueError):
        Field(4, 0b10101)  # (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        Field(4, 0b1011)  # degree 3


def test_poly_ops_against_reference():
    rng = random.Random(37)
    for m in (3, 8, 11):
        field = make_field(m)

        def rand_poly(max_len):
            return Poly(field, [rng.choice((0, rng.randrange(field.order)))
                                for _ in range(rng.randrange(max_len))])
        for _ in range(40):
            f, g = rand_poly(12), rand_poly(8)
            assert f * g == naive_poly_mul(f, g)
            assert f.square() == naive_poly_mul(f, f)
            x0 = rng.choice((0, 1, rng.randrange(field.order)))
            assert f.eval_all([x0]) == [naive_eval(f, x0)]
            k = rng.choice((0, 1, rng.randrange(field.order)))
            assert f.scale(k) == Poly(field, [sa_mul(field, k, a) for a in f.c])
            if not g.is_zero():
                assert reduce_divmod(f, g) == naive_divmod(f, g)


def test_known_product_gf16():
    field = make_field(4)
    assert field.mul(0x8, 0x2) == 0x3  # x^3 * x = x^4 = x + 1 mod x^4+x+1


def test_field_axioms_random():
    rng = random.Random(42)
    for m in range(2, 17):
        field = make_field(m)
        for _ in range(60):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            c = rng.randrange(1 << m)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
            s = field.mul(a ^ b, a ^ b)
            assert s == field.mul(a, a) ^ field.mul(b, b)
            assert field.sqrt(s) == a ^ b
            if a:
                assert field.mul(a, field.inv(a)) == 1
                assert field_pow(field, a, field.order - 1) == 1
        assert field.inv(1) == 1
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


def test_pow_matches_repeated_mul():
    field = make_field(6)
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1, 64)
        e = rng.randrange(0, 40)
        acc = 1
        for _ in range(e):
            acc = field.mul(acc, a)
        assert field_pow(field, a, e) == acc
    assert field_pow(field, 0, 0) == 1


# ---------------------------------------------------------------- polynomials

def test_poly_basics():
    field = make_field(4)
    z = Poly(field)
    assert z.degree is NEG_INF and z.is_zero()
    p = Poly(field, (1, 0, 3, 0, 0))
    assert p.degree == 2 and p.c == (1, 0, 3)
    assert Poly(field, (0, 0)).degree is NEG_INF
    assert (p + p).is_zero()
    assert p[0] == 1 and p[1] == 0 and p[5] == 0


def test_divmod_reconstruction():
    field = make_field(5)
    rng = random.Random(11)
    for _ in range(200):
        f = Poly(field, [rng.randrange(32) for _ in range(rng.randrange(1, 9))])
        g = Poly(field, [rng.randrange(32) for _ in range(rng.randrange(1, 6))])
        if g.is_zero():
            continue
        q, r = reduce_divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree or r.is_zero()
    with pytest.raises(ZeroDivisionError):
        reduce_divmod(f, Poly(field))
    with pytest.raises(ZeroDivisionError):
        f % Poly(field)


def test_gcd_over_gf2():
    field = make_field(2)
    # over GF(2): x^2 + 1 = (x + 1)^2
    a = Poly(field, (1, 0, 1))
    b = Poly(field, (1, 1))
    assert list_gcd(a, b) == b
    assert not is_squarefree(a)
    assert not is_squarefree(Poly(field, (0, 0, 1)))  # x^2
    assert is_squarefree(Poly(field, (1, 1)))


def test_gcd_divides_and_is_monic():
    field = make_field(4)
    rng = random.Random(13)
    for _ in range(100):
        f = Poly(field, [rng.randrange(16) for _ in range(rng.randrange(1, 7))])
        g = Poly(field, [rng.randrange(16) for _ in range(rng.randrange(1, 7))])
        if f.is_zero() and g.is_zero():
            continue
        d = list_gcd(f, g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert d.c[-1] == 1


def test_euclid_matches_poly_forms():
    # the list Euclid against the Poly forms it replaced: division, gcd,
    # square-freeness and the early-stopped EEA, on zero, constant and
    # non-monic operands, G irreducible and split, dstop 0 and deg G - 1
    rng = random.Random(41)
    for m in (2, 4, 8, 11):
        field = make_field(m)

        def rand_poly(length, monic=False):
            c = [rng.choice((0, rng.randrange(field.order)))
                 for _ in range(length)]
            return Poly(field, c + [1 if monic else
                                    rng.randrange(1, field.order)])
        for r in (1, 2, 5, 8):
            irred = random_monic_irreducible(
                field, r, SeededStream(b"euclid/%d/%d" % (m, r)))
            roots = rng.sample(range(field.order), min(r, field.order))
            split = Poly.from_roots(field, roots)
            # a factor of the split G, times a non-monic linear factor
            shared = Poly.from_roots(field, roots[:2]) * rand_poly(1)
            for G in (irred, split, irred.scale(rng.randrange(2, field.order))):
                Ts = [Poly(field), Poly.one(field),
                      Poly(field, (rng.randrange(1, field.order),)),
                      rand_poly(r - 1), rand_poly(r - 1, monic=True),
                      rand_poly(r + 2), shared]
                for T in Ts:
                    if not T.is_zero():
                        assert reduce_divmod(G, T) == divmod_poly(G, T)
                        assert G % T == divmod_poly(G, T)[1]
                    assert reduce_divmod(T, G) == divmod_poly(T, G)
                    assert list_gcd(G, T) == poly_gcd_poly(G, T)
                    assert list_gcd(T, G) == poly_gcd_poly(T, G)
                    if not T.is_zero():
                        assert is_squarefree(T) == (
                            T.degree == 0
                            or poly_gcd_poly(T, T.deriv()).degree == 0)
                    for dstop in sorted({0, G.degree - 1,
                                         rng.randrange(G.degree)}):
                        assert eea_stop(G, T, dstop) == \
                            eea_stop_poly(G, T, dstop)
    zero = Poly(make_field(4))
    assert list_gcd(zero, zero) == poly_gcd_poly(zero, zero) == zero


def test_eval_all_matches_eval():
    rng = random.Random(43)
    for m in (2, 5, 9, 16):
        field = make_field(m)
        points = [0, 1, 0] + [rng.randrange(field.order) for _ in range(40)]
        for length in (0, 1, 2, 3, 9):
            f = Poly(field, [rng.randrange(field.order)
                             for _ in range(length)])
            for g in (f, Poly(field, [0] * length + [1])):  # x^length
                assert g.eval_all(points) == [poly_eval(g, a) for a in points]
                assert g.eval_all([]) == []


def test_eval_and_deriv():
    field = make_field(4)
    x0 = 0x9
    f = Poly(field, (3, 5, 7, 1))
    direct = 3 ^ field.mul(5, x0) ^ field.mul(7, field.mul(x0, x0)) \
        ^ field.mul(x0, field.mul(x0, x0))
    assert f.eval_all([x0]) == [direct]
    assert f.deriv() == Poly(field, (5, 0, 1))
    g = Poly.from_roots(field, [2, 7])
    roots_at = g.eval_all([2, 7, 1])
    assert roots_at[:2] == [0, 0] and roots_at[2] != 0
    assert Poly(field, (4,)).deriv().is_zero()


def test_square_matches_self_multiplication():
    field = make_field(6)
    rng = random.Random(17)
    for _ in range(60):
        f = Poly(field, [rng.randrange(64) for _ in range(rng.randrange(6))])
        assert f.square() == naive_poly_mul(f, f)


def test_poly_invmod():
    field = make_field(4)
    rng = random.Random(19)
    G = random_monic_irreducible(field, 4, SeededStream(b"invmod"))
    for _ in range(80):
        f = Poly(field, [rng.randrange(16) for _ in range(rng.randrange(1, 4))])
        if f.is_zero():
            continue
        inv = poly_invmod(f, G)
        assert inv is not None
        assert (f * inv) % G == Poly.one(field)
    # shared factor means no inverse
    shared = Poly.from_roots(field, [3, 5])
    assert poly_invmod(Poly.from_roots(field, [3]), shared) is None


# ---------------------------------------------------------------- eea_stop

def test_eea_stop_trivial_cases():
    field = make_field(4)
    G = Poly(field, (3, 1, 0, 0, 1))
    T = Poly(field, (5, 7, 1))
    a, b = eea_stop(G, Poly(field), 1)
    assert a.is_zero() and b == Poly.one(field)
    a, b = eea_stop(G, T, G.degree - 1)
    assert a == T and b == Poly.one(field)


def test_eea_stop_contract_and_minimality():
    field = make_field(4)
    rng = random.Random(23)
    for trial in range(25):
        G = Poly(field, [rng.randrange(16) for _ in range(4)] + [1])
        T = Poly(field, [rng.randrange(16) for _ in range(rng.randrange(1, 5))])
        for dstop in range(G.degree):
            a, b = eea_stop(G, T, dstop)
            assert a.degree <= dstop
            assert b.degree <= G.degree - 1 - dstop
            assert (b * T) % G == a % G
            assert not b.is_zero()
            # minimality oracle: no solution with a smaller multiplier degree
            bdeg = b.degree if not b.is_zero() else -1
            if bdeg > 0 and trial < 6:
                found_smaller = False
                for bits in range(16 ** bdeg):
                    coeffs = []
                    v = bits
                    for _ in range(bdeg):
                        coeffs.append(v % 16)
                        v //= 16
                    bp = Poly(field, coeffs)
                    if bp.is_zero():
                        continue
                    if ((bp * T) % G).degree <= dstop:
                        found_smaller = True
                        break
                assert not found_smaller


# ---------------------------------------------------------------- sqrt mod G

def square_free_products(field, rng, r):
    roots = rng.sample(range(field.order), r)
    return Poly.from_roots(field, roots)


def test_poly_sqrt_mod_roundtrip():
    rng = random.Random(29)
    for m, r in ((4, 4), (5, 6), (6, 5)):
        field = make_field(m)
        stream = SeededStream(b"sqrt-%d" % m)
        for case in range(12):
            if case % 2 == 0:
                G = random_monic_irreducible(field, r, stream)
            else:
                G = square_free_products(field, rng, r)  # split square-free
            S = Poly(field, [rng.randrange(field.order) for _ in range(r)])
            t = S.square() % G
            R = poly_sqrt_mod(t, G)
            assert R == S % G
            assert R.square() % G == t
        assert poly_sqrt_mod(Poly.one(field), G) == Poly.one(field)
        rx = poly_sqrt_mod(Poly.x(field), G)
        assert rx.square() % G == Poly.x(field) % G


# ---------------------------------------------------------------- irreducibility

def brute_force_irreducible(G):
    """Trial division by all monic polynomials of degree <= deg(G)//2."""
    field = G.field
    r = G.degree
    if r < 1:
        return False
    for d in range(1, r // 2 + 1):
        for bits in range(field.order ** d):
            coeffs = []
            v = bits
            for _ in range(d):
                coeffs.append(v % field.order)
                v //= field.order
            q = Poly(field, coeffs + [1])
            if (G % q).is_zero():
                return False
    return True


def test_is_irreducible_against_brute_force():
    field = make_field(4)
    rng = random.Random(31)
    for _ in range(120):
        G = Poly(field, [rng.randrange(16) for _ in range(rng.randrange(2, 5))] + [1])
        assert is_irreducible(G) == brute_force_irreducible(G)


def test_irreducible_count_degree2():
    # number of monic irreducible quadratics over GF(q) is (q^2 - q) / 2
    field = make_field(4)
    count = sum(is_irreducible(Poly(field, (c0, c1, 1)))
                for c0 in range(16) for c1 in range(16))
    assert count == (256 - 16) // 2


def test_random_monic_irreducible_is_deterministic():
    field = make_field(6)
    g1 = random_monic_irreducible(field, 6, SeededStream(b"g"))
    g2 = random_monic_irreducible(field, 6, SeededStream(b"g"))
    assert g1 == g2 and g1.degree == 6 and g1.c[-1] == 1 and is_irreducible(g1)


def test_ben_or_equals_rabin_exhaustively():
    # every monic polynomial over GF(4) of degree <= 5, GF(8) of degree <= 4
    count = 0
    for m, top in ((2, 5), (3, 4)):
        field = make_field(m)
        for d in range(top + 1):
            for coeffs in itertools.product(range(field.order), repeat=d):
                G = Poly(field, coeffs + (1,))
                assert is_irreducible(G) == rabin_irreducible(G), G
                count += 1
    assert count == 1365 + 4681


def test_ben_or_equals_rabin_on_seeded_candidates():
    rng = random.Random(41)
    seen = set()
    for m in range(6, 12):
        field = make_field(m)
        for _ in range(6):
            r = rng.randrange(1, 41)
            G = Poly(field, [rng.randrange(field.order) for _ in range(r)]
                     + [rng.randrange(1, field.order)])
            want = rabin_irreducible(G)
            assert is_irreducible(G) == want, (m, r)
            seen.add(want)
        G = random_monic_irreducible(field, rng.randrange(2, 41),
                                     SeededStream(b"bo%d" % m))
        assert is_irreducible(G) and rabin_irreducible(G)
    assert seen == {False, True}


def test_ben_or_on_crafted_reducibles(monkeypatch):
    # one Euclid per Ben-Or step, counted at the list kernel
    gcds = []
    real_gcd = gf2m._gcd
    monkeypatch.setattr(gf2m, "_gcd", lambda a, b, exp, log:
                        gcds.append(a) or real_gcd(a, b, exp, log))

    def check(G, want, steps=None):
        gcds.clear()
        assert is_irreducible(G) is want
        if steps is not None:
            assert len(gcds) == steps
        assert rabin_irreducible(G) is want  # its gcds are not counted
    for m, half in ((4, 3), (6, 4), (9, 5), (11, 8)):
        field = make_field(m)
        a = random_monic_irreducible(field, half, SeededStream(b"a%d" % m))
        b = random_monic_irreducible(field, half, SeededStream(b"b%d" % m))
        assert a != b
        check(a * b, False, half)  # only the last step sees a factor
        check(a * a, False, half)
        # distinct linear factors: t - x = 0 at the first step
        check(Poly.from_roots(field, range(1, 2 * half + 1)), False, 1)
        check(Poly(field, (field.order - 1, 1)), True, 0)  # r = 1
        c = random_monic_irreducible(field, 2, SeededStream(b"c%d" % m))
        check(c, True, 1)  # r = 2
        check(Poly.from_roots(field, (2, 3)), False, 1)
        for p in (5, 7, 13):  # prime r: irreducible and split at r/2
            g = random_monic_irreducible(field, p, SeededStream(b"p%d" % p))
            check(g, True, p // 2)
            h = random_monic_irreducible(field, p - p // 2,
                                         SeededStream(b"q%d" % p))
            check(random_monic_irreducible(
                field, p // 2, SeededStream(b"s%d" % p)) * h, False)


@pytest.mark.parametrize("m", (2, 5, 9, 11, 16))
def test_squaring_table_matches_square_mod(m):
    field = make_field(m)
    rng = random.Random(m)
    for r in (2, 3, 4, 7, 12, 25):
        G = Poly(field, [rng.randrange(field.order) for _ in range(r)] + [1])
        square = _squarer(G)
        for _ in range(10):
            t = [rng.randrange(field.order) for _ in range(r)]
            if rng.randrange(3) == 0:  # sparse residues, zeros on top too
                t = [v if rng.randrange(3) == 0 else 0 for v in t]
            want = (Poly(field, t).square() % G).c
            assert square(t) == list(want) + [0] * (r - len(want))


def test_irreducible_draw_equals_rabin_draw(monkeypatch):
    fast = [random_monic_irreducible(make_field(m), r, SeededStream(seed))
            for m, r, seed in ((6, 6, b"g"), (8, 12, b"d1"), (9, 12, b"d2"),
                               (10, 17, b"d3"), (11, 20, b"d4"))]
    monkeypatch.setattr(gf2m, "is_irreducible", rabin_irreducible)
    slow = [random_monic_irreducible(make_field(m), r, SeededStream(seed))
            for m, r, seed in ((6, 6, b"g"), (8, 12, b"d1"), (9, 12, b"d2"),
                               (10, 17, b"d3"), (11, 20, b"d4"))]
    assert fast == slow


def test_poly_powmod():
    field = make_field(5)
    G = random_monic_irreducible(field, 4, SeededStream(b"pm"))
    f = Poly(field, (3, 1, 4))
    acc = Poly.one(field)
    for _ in range(13):
        acc = (acc * f) % G
    assert poly_powmod(f, 13, G) == acc


def test_sqrt_x_mod_refuses_non_squarefree():
    # squaring is singular modulo (x + 3)^2, and x has no square root there
    with pytest.raises(ArithmeticError):
        _sqrt_x_mod(Poly.from_roots(make_field(4), [3, 3]))


@pytest.mark.parametrize("m", (2, 4, 8, 11, 16))
def test_sqrt_x_mod_matches_linear_solve(m):
    # random square-free G, reducible ones included, against the GF(2)
    # solve of the squaring map
    field = make_field(m)
    rng = random.Random(m)
    seen_reducible = False
    tried = 0
    while tried < 12:
        r = rng.randrange(2, 7)  # the solve needs x reduced mod G to be x
        g = Poly(field, [rng.randrange(field.order) for _ in range(r)]
                 + [rng.randrange(1, field.order)])
        if not is_squarefree(g):
            continue
        tried += 1
        seen_reducible |= not is_irreducible(g)
        R = _sqrt_x_mod(g)
        assert R == sqrt_x_mod_solve(g)
        assert (R * R) % g == Poly.x(field) % g
    assert seen_reducible
