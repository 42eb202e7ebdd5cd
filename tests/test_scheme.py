import itertools
import random
import time
from collections import Counter

import pytest

from goppacrypt import decode, dyadic, gf2m, goppa, scheme
from goppacrypt.binmat import BinMatrix, rref
from goppacrypt.gf2m import Poly, make_field, random_monic_irreducible
from goppacrypt.goppa import CodeConstructionError, build_code
from goppacrypt.decode import list_decode
from goppacrypt.prng import SeededStream
from goppacrypt.security import encryption_weight
from goppacrypt.scheme import (
    AmbiguityError, Cryptogram, KeyPair, NoCandidateError,
    _unwrap, _wrap, decrypt, encrypt, keygen, validate_params,
)
from testlib import null_space, public_offset, stored_public
from test_golden import GOLDEN


def count_calls(monkeypatch, targets):
    """A Counter of the calls to each (owner, name) of targets, by name."""
    calls = Counter()
    for owner, name in targets:
        def wrapper(*args, fn=getattr(owner, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def roundtrip(kp, trials, tag):
    rng = random.Random(tag)
    cap = kp.capacity()
    for t in range(trials):
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(cap + 1)))
        ct = encrypt(kp, msg, b"e%d" % t + tag.encode())
        assert ct.weight == kp.w_enc
        assert decrypt(kp, ct) == msg


def test_validate_params():
    assert validate_params("generic", 6, 64, 2) == (52, 2)
    assert validate_params("generic", 6, 64, 2, "ld") == (52, 2)
    assert validate_params("generic", 8, 144, 8, "ld") == (80, 9)
    # accepted full-size dyadic row: k = 3584, countermeasure r(r+1) > n
    assert validate_params("dyadic", 15, 11264, 512, "ud") == (3584, 512)
    assert validate_params("dyadic", 16, 5120, 256, "ud")[0] == 1024
    with pytest.raises(CodeConstructionError) as exc:
        validate_params("dyadic", 11, 1792, 64, "ud")  # n > 2^(m-1)
    assert str(exc.value) == \
        "support needs 1792 points but the pool holds 1024"
    with pytest.raises(ValueError) as exc:
        validate_params("generic", 8, 256, 24, "ld")  # tau = r + 3
    assert str(exc.value) == "decoders reach r + 2; tau - r = 3"
    with pytest.raises(ValueError):
        validate_params("dyadic", 8, 128, 8)  # r(r+1) <= n and m < 16
    with pytest.raises(ValueError):
        validate_params("dyadic", 11, 1792, 48)  # r not a power of two
    with pytest.raises(ValueError):
        validate_params("dyadic", 11, 1800, 64)  # r does not divide n
    with pytest.raises(ValueError):
        validate_params("niederreiter", 6, 64, 2)
    with pytest.raises(ValueError):
        validate_params("generic", 6, 64, 2, "md")
    with pytest.raises(ValueError):
        validate_params("generic", 6, 64, 11)  # no dimension left
    with pytest.raises(ValueError):
        validate_params("generic", 6, 128, 2)  # n > 2^m
    # G = x + c has its root in a full support, on every seed
    with pytest.raises(ValueError, match="degree-1 generic G"):
        validate_params("generic", 6, 64, 1)
    assert validate_params("generic", 6, 63, 1) == (57, 1)
    with pytest.raises(ValueError):
        validate_params("generic", 17, 1 << 17, 2)
    with pytest.raises(ValueError):
        validate_params("generic", 3, 8, 2, "ld")  # 4r+2 > n has no tau2


def test_keygen_refuses_ld_past_r_plus_2_before_any_work(monkeypatch):
    # the decoders stop at r + 2, so keygen issues no key past it; the
    # parameter gate still reports the published shape and radius
    class Drawn(Exception):
        pass

    def draw(*args):
        raise Drawn
    monkeypatch.setattr(scheme, "random_monic_irreducible", draw)
    monkeypatch.setattr(scheme, "gen_signature", draw)
    for variant, m, n, r, excess in (("generic", 8, 256, 24, 3),
                                     ("dyadic", 12, 1024, 64, 5)):
        assert encryption_weight(n, r, "ld") == r + excess
        for refuse, seed in ((validate_params, ()), (keygen, (b"cafe",))):
            with pytest.raises(ValueError) as exc:
                refuse(variant, m, n, r, "ld", *seed)
            assert "tau - r = %d" % excess in str(exc.value)
            assert "r + 2" in str(exc.value)
        with pytest.raises(Drawn):  # the same shape decoded up to r
            keygen(variant, m, n, r, "ud", b"cafe")
    with pytest.raises(Drawn):  # Table 1 row 8, at tau = r + 2
        keygen("generic", 13, 5269, 96, "ld", b"cafe")


def test_keygen_refuses_before_any_draw_iff_validate_params_does(
        monkeypatch):
    # one reach rule: keygen refuses a shape, before anything is drawn,
    # exactly when validate_params does, with the same error
    class Drawn(Exception):
        pass

    def draw(*args):
        raise Drawn
    monkeypatch.setattr(scheme, "random_monic_irreducible", draw)
    monkeypatch.setattr(scheme, "gen_signature", draw)
    seen = Counter()
    for args in itertools.product(
            ("generic", "dyadic"), (6, 8, 10), (32, 64, 144, 256, 512),
            (1, 2, 4, 8, 16, 24), ("ud", "ld")):
        try:
            validate_params(*args)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                keygen(*args, b"cafe")
            assert (type(got.value), str(got.value)) == \
                (type(exc), str(exc))
            seen[type(exc).__name__, str(exc).split(" ")[0]] += 1
        else:
            with pytest.raises(Drawn):
                keygen(*args, b"cafe")
            seen["drawn", args[0]] += 1
    # the grid reaches each refusal and both variants' draws
    assert {("ValueError", "decoders"), ("CodeConstructionError", "support"),
            ("ValueError", "degree-1"), ("drawn", "generic"),
            ("drawn", "dyadic")} <= set(seen)


def test_wrap_unwrap():
    for k in (45, 52, 104):
        cap = (k - 37) // 8
        rng = random.Random(k)
        for nbytes in range(cap + 1):
            msg = bytes(rng.randrange(256) for _ in range(nbytes))
            block = _wrap(msg, k)
            assert block < 1 << k
            assert _unwrap(block, k) == msg
    assert _unwrap(0, 52) is None                      # no terminator
    assert _unwrap(_wrap(b"a", 52) ^ 1, 52) is None    # CRC breaks
    assert _unwrap(_wrap(b"a", 52) ^ 1 << 16, 52) is None  # descriptor breaks
    assert _unwrap(1 << 3, 52) is None                 # misaligned terminator


def test_roundtrip_generic_ud():
    kp = keygen("generic", 6, 64, 2, "ud", b"gud6")
    assert (kp.n, kp.k, kp.r, kp.w_enc) == (64, 52, 2, 2)
    assert kp.capacity() == 1
    roundtrip(kp, 60, "gud6")
    kp = keygen("generic", 8, 200, 12, "ud", b"gud8")
    assert kp.capacity() == 8
    roundtrip(kp, 40, "gud8")


def test_roundtrip_generic_ld():
    kp = keygen("generic", 6, 64, 2, "ld", b"gld6")
    assert kp.w_enc == 2
    roundtrip(kp, 40, "gld6")
    kp = keygen("generic", 8, 144, 8, "ld", b"gld8")
    assert kp.w_enc == 9  # one past the unique radius
    roundtrip(kp, 10, "gld8")


def test_roundtrip_dyadic_ud():
    kp = keygen("dyadic", 10, 256, 16, "ud", b"dud10")
    assert (kp.n, kp.k, kp.r, kp.w_enc) == (256, 96, 16, 16)
    assert kp.capacity() == 7
    roundtrip(kp, 20, "dud10")


def test_roundtrip_dyadic_ld():
    kp = keygen("dyadic", 16, 128, 4, "ld", b"dld16")
    assert (kp.k, kp.w_enc) == (64, 4)
    roundtrip(kp, 15, "dld16")
    kp = keygen("dyadic", 10, 256, 16, "ld", b"dld10")
    assert kp.w_enc == 17
    roundtrip(kp, 3, "dld10")


def test_table1_row2_roundtrip_at_full_size():
    # Table 1's second row, the first list-decoding one: tau = r + 1
    kp = keygen("generic", 11, 1876, 40, "ld", b"table1/row2")
    assert (kp.n, kp.k, kp.r, kp.w_enc) == (1876, 1436, 40, 41)
    ct = encrypt(kp, b"table one, row two", b"table1/row2")
    assert decrypt(kp, ct) == b"table one, row two"


@pytest.mark.parametrize("m,n,r", ((6, 64, 4), (8, 200, 12), (9, 256, 12)))
def test_generic_public_matrix_matches_null_space(m, n, r, monkeypatch):
    # the transposed elimination against the null-space basis it replaced,
    # brought to systematic form on the key's support order; keygen
    # builds no generator on the way
    def refuse(code):
        raise AssertionError("generator built")
    with monkeypatch.context() as patch:
        patch.setattr(goppa.GoppaCode, "gen", property(refuse),
                      raising=False)
        kp = keygen("generic", m, n, r, "ud", b"ns%d" % m)
    basis = null_space(kp.code().parity_bin)
    assert basis.rows == kp.k
    R, _, pivots = rref(basis)
    assert pivots == list(range(kp.k))
    assert R.bits == tuple(1 << i | v << kp.k
                           for i, v in enumerate(kp.public.bits))


@pytest.mark.parametrize("m,n,r", ((6, 64, 4), (8, 144, 8), (9, 256, 12)))
def test_generic_key_support_is_in_elimination_order(m, n, r):
    # re-derived from the documented schedule, "goppa" then "support":
    # the key holds the drawn code's G and A, and its support permuted
    # by the elimination's column order
    field = make_field(m)
    for s in range(3):
        seed = b"order/%d" % s
        stream = SeededStream(seed)
        g = random_monic_irreducible(field, r, stream.child(b"goppa"))
        support = stream.child(b"support").sample_distinct(field.order, n)
        colperm, A = build_code(field, support, g).systematic
        kp = keygen("generic", m, n, r, "ud", seed)
        assert kp.gpoly == g and kp.public == A
        assert kp.support == tuple(support[c] for c in colperm)
        assert colperm != tuple(range(n))  # the order did move


@pytest.mark.parametrize("args", [("generic", 8, 200, 12, "ud"),
                                  ("generic", 8, 144, 8, "ld"),
                                  ("dyadic", 10, 256, 16, "ud"),
                                  ("dyadic", 16, 128, 4, "ld")])
def test_systematic_rows_are_codewords_on_identity_order(args):
    # [I_k | A] generates the key's code on its own support order, for
    # both variants, so decrypt's plaintext is the low k bits
    kp = KeyPair.from_bytes(keygen(*args, seed=b"rows").to_bytes())
    parity = kp.code().parity_bin
    for i, v in enumerate(kp.public.bits):
        assert parity.mul_vec(1 << i | v << kp.k) == 0


@pytest.mark.parametrize("args", [("dyadic", 10, 256, 16, "ud"),
                                  ("dyadic", 11, 1024, 32, "ud")])
def test_cold_dyadic_decrypt_reads_only_the_cauchy_table(args, monkeypatch):
    # loading a dyadic key does no structure work; a fresh decrypt derives
    # G's roots and reads their Cauchy table, and builds no alternant
    # table, evaluates nothing at the support and inverts nothing, not
    # even x, mod G: one EEA, on (M, R), per word
    kp = keygen(*args, seed=b"count")
    blob = kp.to_bytes()
    msgs = [b"%d" % i for i in range(6)]
    cts = [encrypt(kp, msg, b"count/%d" % i) for i, msg in enumerate(msgs)]
    # a ciphertext whose syndrome vanishes at some root z_i, where s is
    # not invertible mod G
    shared = next(ct for ct in (encrypt(kp, b"fall", b"fall/%d" % i)
                                for i in range(2000))
                  if 0 in goppa._syndromes(kp.code(), ct.vector))
    calls = count_calls(monkeypatch, (
        (scheme, "build_code"), (goppa, "transpose"),
        (gf2m, "poly_invmod"), (gf2m, "_sqrt_x_mod"),
        (gf2m, "eea_stop"), (decode, "eea_stop"), (decode, "syndrome_poly"),
        (decode, "poly_sqrt_mod"),
        (decode, "_key_equation_kernel"), (scheme, "cauchy_code")))

    def eval_all(poly, points, real=Poly.eval_all):
        calls["eval_all on the support" if len(points) == kp.n
              else "eval_all"] += 1
        return real(poly, points)
    monkeypatch.setattr(Poly, "eval_all", eval_all)
    loaded = [KeyPair.from_bytes(blob) for _ in cts]
    assert not calls
    for key, ct, msg in zip(loaded, cts, msgs):
        assert decrypt(key, ct) == msg
    # one root solve per key; one key equation and one locator evaluation
    # at the roots per word
    assert calls == {"cauchy_code": len(cts), "_key_equation_kernel":
                     len(cts), "eea_stop": len(cts), "eval_all": 2 * len(cts)}
    # the shared-factor ciphertext takes R pointwise from the same Cauchy
    # table, g and M = G/g from the roots of G: no s mod G, no square
    # root mod G or M, and no inverse; one EEA, on (M, R)
    calls.clear()
    assert decrypt(KeyPair.from_bytes(blob), shared) == b"fall"
    assert calls == {"cauchy_code": 1, "_key_equation_kernel": 1,
                     "eea_stop": 1, "eval_all": 2}


@pytest.mark.parametrize("args", [("dyadic", 10, 256, 16, "ld"),
                                  ("generic", 8, 144, 8, "ld")])
def test_ld_decrypt_evaluates_only_quotients_on_the_support(args,
                                                            monkeypatch):
    # an LD decrypt reads its basis values off the code's table: past the
    # code's construction, the only polynomials it evaluates at the
    # support are the quotients by G of the basis members, of degree
    # <= w_enc - r, one per member
    kp = keygen(*args, seed=b"quotients")
    assert kp.w_enc == kp.r + 1
    cts = [encrypt(kp, b"%d" % i, b"quotients/%d" % i) for i in range(4)]
    loaded = KeyPair.from_bytes(kp.to_bytes())
    loaded.code()
    degrees = Counter()

    def eval_all(poly, points, real=Poly.eval_all):
        if len(points) == kp.n:
            degrees[poly.degree] += 1
        return real(poly, points)
    monkeypatch.setattr(Poly, "eval_all", eval_all)
    for i, ct in enumerate(cts):
        assert decrypt(loaded, ct) == b"%d" % i
    assert sum(degrees.values()) == 2 * len(cts)
    assert max(degrees) <= kp.w_enc - kp.r


def test_generic_ld_decrypt_builds_one_table(monkeypatch):
    # the list decoders read G's alternant table, which build_code makes
    # once per key object, r rows of plane products after deg G + 1 for
    # G(L), and three transposes: L to planes, G(L) to values and 1/G(L)
    # to planes; no table of G^2
    kp = keygen("generic", 8, 144, 8, "ld", b"one-table")
    assert kp.w_enc > kp.r
    cts = [encrypt(kp, b"%d" % i, b"one-table/%d" % i) for i in range(4)]
    loaded = KeyPair.from_bytes(kp.to_bytes())
    calls = count_calls(monkeypatch, (
        (scheme, "build_code"), (scheme, "cauchy_code"),
        (goppa, "transpose"), (goppa, "plane_mul")))
    for i, ct in enumerate(cts):
        assert decrypt(loaded, ct) == b"%d" % i
    assert calls == {"build_code": 1, "transpose": 3, "plane_mul": 2 * kp.r}


@pytest.mark.parametrize("args", [("dyadic", 10, 256, 16, "ud"),
                                  ("dyadic", 10, 256, 16, "ld"),
                                  ("generic", 9, 256, 12, "ud"),
                                  ("generic", 8, 144, 8, "ld")])
def test_public_part_is_read_once_and_never_by_decrypt(args, monkeypatch):
    # keygen's key holds the stored bytes of A it encoded once, so its
    # to_bytes neither compacts A nor packs it.  A loaded key keeps its
    # checked bytes of A: decrypt and to_bytes never expand a compact key,
    # compact one or parse a generic A, and encrypt does it once per key
    # object; to_bytes gives back the file, before and after
    kp = keygen(*args, seed=b"lazy")
    calls = count_calls(monkeypatch, ((scheme, "expand_pubkey"),
                                      (scheme, "compact_pubkey")))

    def to_bytes(M, real=BinMatrix.to_bytes):
        calls["A to_bytes"] += (M.rows, M.cols) == (kp.k, kp.n - kp.k)
        return real(M)
    monkeypatch.setattr(BinMatrix, "to_bytes", to_bytes)
    blob = kp.to_bytes()
    assert kp.to_bytes() == blob and not +calls
    cts = [encrypt(kp, b"%d" % i, b"lazy/%d" % i) for i in range(3)]

    def from_bytes(cls, rows, cols, data, real=BinMatrix.from_bytes):
        calls["A parse" if (rows, cols) == (kp.k, kp.n - kp.k)
              else "from_bytes"] += 1
        return real(rows, cols, data)
    monkeypatch.setattr(BinMatrix, "from_bytes", classmethod(from_bytes))
    loaded = [KeyPair.from_bytes(blob) for _ in range(2)]
    assert +calls == {"from_bytes": 4}  # the support and G of each
    calls.clear()
    for key in loaded:
        for i, ct in enumerate(cts):
            assert decrypt(key, ct) == b"%d" % i
        assert key.to_bytes() == blob
    assert not +calls
    for key in loaded:
        for i in range(3):
            seed = b"x%d" % i
            assert encrypt(key, b"x", seed) == encrypt(kp, b"x", seed)
        assert key.public == kp.public and key.to_bytes() == blob
    once = "expand_pubkey" if kp.variant == "dyadic" else "A parse"
    assert +calls == {once: len(loaded)}


@pytest.mark.parametrize("args", [("dyadic", 10, 256, 16, "ud"),
                                  ("generic", 8, 144, 8, "ld")])
def test_key_without_public_part_refuses_its_public_uses(args):
    # every key object holds its public part: None or A itself, in place
    # of A's stored bytes, raises TypeError at construction and empty
    # bytes ValueError; the stored bytes build the key that keygen issued
    kp = keygen(*args, seed=b"bare")
    for public, error in ((None, TypeError), (kp.public, TypeError),
                          (b"", ValueError)):
        with pytest.raises(error):
            KeyPair(kp.variant, kp.decoder, kp.field, kp.support, kp.gpoly,
                    public)
    again = KeyPair(kp.variant, kp.decoder, kp.field, kp.support, kp.gpoly,
                    stored_public(kp))
    assert again.to_bytes() == kp.to_bytes() and again.public == kp.public
    assert decrypt(again, encrypt(kp, b"bare", b"bare/ct")) == b"bare"


def test_signature_bits_beyond_r_fail_at_load(monkeypatch):
    # the m = 16, r = 4 golden key packs each 4-bit signature in a byte:
    # a bit beyond r fails at from_bytes, with expand_pubkey's message,
    # and no compact key is expanded
    kp = keygen(*GOLDEN["dyadic-m16"][0], seed=b"golden/dyadic-m16")
    blob = kp.to_bytes()
    monkeypatch.setattr(scheme, "expand_pubkey", lambda blob: pytest.fail(
        "compact key expanded"))
    start = public_offset(kp) + 9
    for pos, bit in ((start, 4), (start + 37, 5), (len(blob) - 1, 7)):
        bad = bytearray(blob)
        bad[pos] |= 1 << bit
        with pytest.raises(ValueError, match="^signature bits beyond r$"):
            KeyPair.from_bytes(bytes(bad))
    assert KeyPair.from_bytes(blob).to_bytes() == blob


def test_keygen_key_decrypts_on_the_code_keygen_built(monkeypatch):
    # a dyadic key keeps its support order, so the issued key object
    # holds keygen's code and its first decrypt builds none
    kp = keygen("dyadic", 10, 256, 16, "ud", b"kept")
    ct = encrypt(kp, b"kept", b"kept/0")
    calls = count_calls(monkeypatch, (
        (scheme, "build_code"), (scheme, "cauchy_code")))
    assert decrypt(kp, ct) == b"kept"
    assert not calls


@pytest.mark.parametrize("args", [("dyadic", 10, 256, 16, "ud"),
                                  ("dyadic", 12, 1024, 64, "ud")])
def test_dyadic_keygen_eliminates_only_the_cauchy_table(args, monkeypatch):
    # keygen builds its code as decrypt does: one cauchy_code and one rref
    # for the accepted attempt, and no alternant table of G, evaluation of
    # G on the support or square-free test
    want = keygen(*args, seed=b"count").to_bytes()
    calls = count_calls(monkeypatch, (
        (goppa, "build_code"), (scheme, "build_code"),
        (goppa, "is_squarefree"), (dyadic, "cauchy_code"),
        (goppa, "rref")))
    assert keygen(*args, seed=b"count").to_bytes() == want
    assert calls == {"cauchy_code": 1, "rref": 1}


def test_dyadic_keygen_builds_no_generator(monkeypatch):
    want = keygen("dyadic", 10, 256, 16, "ud", b"nogen").to_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(goppa.GoppaCode, "gen", property(
            lambda code: pytest.fail("generator built")), raising=False)
        kp = keygen("dyadic", 10, 256, 16, "ud", b"nogen")
        assert kp.to_bytes() == want


@pytest.mark.parametrize("args", [("generic", 8, 200, 12, "ud"),
                                  ("dyadic", 10, 256, 16, "ud")])
def test_loaded_public_key_is_the_issued_matrix(args):
    # both variants hold A itself; a dyadic key file stores it compactly
    kp = keygen(*args, seed=b"pub")
    loaded = KeyPair.from_bytes(kp.to_bytes())
    assert isinstance(kp.public, BinMatrix)
    assert (kp.public.rows, kp.public.cols) == (kp.k, kp.n - kp.k)
    assert loaded.public == kp.public
    assert loaded.support == kp.support


def test_beyond_unique_witness():
    # at w_enc = r+1 unique decoding must give up while list decryption,
    # disambiguated by the tag, still recovers the payload
    kp = keygen("generic", 7, 87, 6, "ld", b"wit")
    assert kp.w_enc == kp.r + 1 == 7
    hits = 0
    for t in range(5):
        msg = b"%d" % t
        ct = encrypt(kp, msg, b"wit%d" % t)
        assert decrypt(kp, ct) == msg
        hits += not list_decode(kp.code(), ct.vector, kp.r).candidates
    assert hits == 5


def test_tamper_yields_no_candidate():
    kp = keygen("generic", 8, 144, 8, "ud", b"tam")
    msg = b"pay"
    ct = encrypt(kp, msg, b"tam0")
    rng = random.Random(77)
    y = ct.vector
    for p in rng.sample(range(kp.n), kp.r + 1):
        y ^= 1 << p
    with pytest.raises(NoCandidateError):
        decrypt(kp, Cryptogram(kp.n, ct.weight, y))
    with pytest.raises(ValueError):
        decrypt(kp, Cryptogram(kp.n + 8, ct.weight, y))


def test_decrypt_refuses_wrong_weight(monkeypatch):
    keys = [keygen("generic", 8, 144, 8, d, b"wt") for d in ("ud", "ld")]
    cts = [encrypt(kp, b"w", b"wt") for kp in keys]
    for kp, ct in zip(keys, cts):
        assert decrypt(kp, ct) == b"w"

    def refuse(*args):
        raise AssertionError("decoding ran")
    monkeypatch.setattr(scheme, "list_decode", refuse)
    for kp, ct in zip(keys, cts):
        for weight in (0, kp.w_enc - 1, kp.w_enc + 1):
            with pytest.raises(ValueError, match="weight"):
                decrypt(kp, Cryptogram(kp.n, weight, ct.vector))


def test_decrypt_is_one_list_decode_call(monkeypatch):
    keys = [keygen("generic", 8, 144, 8, d, b"one") for d in ("ud", "ld")]
    calls = []

    def counted(code, y, tau):
        calls.append(tau)
        return list_decode(code, y, tau)
    monkeypatch.setattr(scheme, "list_decode", counted)
    for kp in keys:
        calls.clear()
        assert decrypt(kp, encrypt(kp, b"1", b"one")) == b"1"
        assert calls == [kp.w_enc]


def test_encrypt_input_errors():
    kp = keygen("generic", 6, 64, 2, "ud", b"err")
    with pytest.raises(ValueError):
        encrypt(kp, b"ab", b"s")  # capacity is 1
    with pytest.raises(TypeError):
        encrypt(kp, "a", b"s")
    with pytest.raises(ValueError):
        encrypt(kp, b"a", b"")


def test_keygen_errors():
    with pytest.raises(ValueError):
        keygen("generic", 6, 64, 2, "ud", b"")
    with pytest.raises(ValueError):
        keygen("dyadic", 8, 128, 8, "ud", b"x")
    # countermeasure-clean but beyond the support pool capacity
    with pytest.raises(CodeConstructionError):
        keygen("dyadic", 11, 1792, 64, "ud", b"x")


def test_determinism_and_seed_sensitivity():
    a = keygen("generic", 6, 64, 2, "ud", b"det")
    b = keygen("generic", 6, 64, 2, "ud", b"det")
    c = keygen("generic", 6, 64, 2, "ud", b"det2")
    assert a.to_bytes() == b.to_bytes()
    assert a.to_bytes() != c.to_bytes()
    m1 = encrypt(a, b"x", b"s1")
    m2 = encrypt(b, b"x", b"s1")
    m3 = encrypt(a, b"x", b"s2")
    assert m1.to_bytes() == m2.to_bytes()
    assert m1.vector != m3.vector
    d = keygen("dyadic", 10, 256, 16, "ud", b"det")
    e = keygen("dyadic", 10, 256, 16, "ud", b"det")
    assert d.to_bytes() == e.to_bytes()


def test_serialize_roundtrip():
    for kp, tag in ((keygen("generic", 8, 144, 8, "ld", b"ser"), b"sg"),
                    (keygen("dyadic", 16, 128, 4, "ud", b"ser"), b"sd")):
        blob = kp.to_bytes()
        back = KeyPair.from_bytes(blob)
        assert back.to_bytes() == blob
        msg = b"abc"
        c1 = encrypt(kp, msg, tag)
        c2 = encrypt(back, msg, tag)
        assert c1.to_bytes() == c2.to_bytes()
        assert decrypt(back, c1) == msg
        ct_blob = c1.to_bytes()
        assert Cryptogram.from_bytes(ct_blob) == c1
        with pytest.raises(ValueError):
            KeyPair.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            KeyPair.from_bytes(blob[:-1])
        with pytest.raises(ValueError):
            Cryptogram.from_bytes(ct_blob[:-1])
        with pytest.raises(ValueError):
            Cryptogram.from_bytes(b"YYYY" + ct_blob[4:])


@pytest.mark.parametrize("args", [("generic", 8, 144, 8, "ld"),
                                  ("dyadic", 10, 256, 16, "ud")])
def test_key_objects_refuse_a_public_part_of_the_wrong_shape(args):
    # the stored bytes of an A of k - 1 or k - r rows or one column short,
    # or cut or grown by a byte, would save a file whose length from_bytes
    # refuses; a support point or G coefficient outside GF(2^m), or a G
    # over another field, one that loads as another key (a point 408 at
    # m = 8 as 152).  The key object refuses each first, with ValueError
    kp = keygen(*args, seed=b"shape")
    A, stored, field = kp.public, stored_public(kp), kp.field
    fewer = BinMatrix(A.rows - kp.r, A.cols, A.bits[kp.r:])
    if kp.variant == "dyadic":
        bad = ((dyadic.compact_pubkey(kp.m, kp.r, fewer), stored[:5]),
               (stored[:-1], stored + b"\0"))
        wants = ("^compact key does not match the key header$",
                 "^truncated compact key$")
    else:
        bad = ((BinMatrix(A.rows - 1, A.cols, A.bits[1:]).to_bytes(),
                fewer.to_bytes(), stored[:-1], stored + b"\0",
                BinMatrix(A.rows, A.cols - 1, A.bits).to_bytes()),)
        wants = (r"^public part is not k x \(n - k\)$",)
    for publics, want in zip(bad, wants):
        for public in publics:
            with pytest.raises(ValueError, match=want):
                KeyPair(kp.variant, kp.decoder, field, kp.support, kp.gpoly,
                        public)
    other = next(gf2m.Field(kp.m, p)
                 for p in range(field.modulus + 2, 2 << kp.m, 2)
                 if gf2m._gf2_irreducible(p))
    support, c, top = kp.support, kp.gpoly.c, 1 << kp.m
    for points, gpoly in (((support[0] | top,) + support[1:], kp.gpoly),
                          (support[:-1] + (-1,), kp.gpoly),
                          (support, Poly(field, (c[0] | top,) + c[1:])),
                          (support, Poly(field, (-1,) + c[1:])),
                          (support, Poly(other, c))):
        with pytest.raises(ValueError, match=r"^support or G outside GF\(2"):
            KeyPair(kp.variant, kp.decoder, field, points, gpoly, stored)
    again = KeyPair(kp.variant, kp.decoder, field, support, kp.gpoly, stored)
    assert KeyPair.from_bytes(again.to_bytes()).to_bytes() == kp.to_bytes()


@pytest.mark.parametrize("args", [("generic", 7, 100, 5, "ud"),
                                  ("generic", 9, 256, 12, "ud")])
def test_resaved_key_writes_its_padding_bits_as_zero(args):
    # every section's bits past its end set: the support, G and A load
    # as before, and a re-save gives keygen's bytes
    kp = keygen(*args, seed=b"pad")
    blob = kp.to_bytes()
    bad, start, padded = bytearray(blob), 28, 0
    for bits in (kp.n * kp.m, (kp.r + 1) * kp.m, kp.k * (kp.n - kp.k)):
        if bits % 8:
            bad[start + bits // 8] |= 0xff << bits % 8 & 0xff
            padded += 1
        start += (bits + 7) // 8
    assert start == len(blob) and padded and bytes(bad) != blob
    loaded = KeyPair.from_bytes(bytes(bad))
    assert loaded.to_bytes() == blob
    assert loaded.public == kp.public


def test_cryptogram_is_a_value():
    ct = Cryptogram.from_bytes(Cryptogram(20, 2, 0b1001).to_bytes())
    same = Cryptogram(20, 2, 0b1001)
    assert ct == same and hash(ct) == hash(same) and {ct: 1}[same] == 1
    assert ct != Cryptogram(20, 2, 0b0110)
    with pytest.raises(AttributeError):
        ct.vector = 0
    # every value saves a file that loads as itself: a vector outside
    # [0, 2^n), which would write bits past n or not fit its bytes, and
    # an n or weight outside 4 bytes are refused at construction
    for n, vector in ((100, 1 << 100), (144, 1 << 144), (20, -1)):
        with pytest.raises(ValueError, match="^vector bits beyond n$"):
            Cryptogram(n, 2, vector)
    for n, weight in ((1 << 32, 2), (-1, 2), (20, 1 << 32), (20, -1)):
        with pytest.raises(ValueError, match="outside 4 bytes$"):
            Cryptogram(n, weight, 0)
    for edge in (Cryptogram(100, 2, (1 << 100) - 1),
                 Cryptogram(20, (1 << 32) - 1, 0)):
        assert Cryptogram.from_bytes(edge.to_bytes()) == edge
    # _make and _replace pass the same gate
    edge = Cryptogram(100, 2, 1)
    with pytest.raises(ValueError, match="^vector bits beyond n$"):
        edge._replace(vector=1 << 100)
    with pytest.raises(ValueError, match="^vector bits beyond n$"):
        edge._replace(n=64, vector=1 << 64)
    with pytest.raises(ValueError, match="^vector bits beyond n$"):
        Cryptogram._make((100, 2, 1 << 100))
    with pytest.raises(ValueError, match="outside 4 bytes$"):
        edge._replace(weight=1 << 32)
    with pytest.raises(TypeError):
        Cryptogram._make((100, 2))
    assert edge._replace(vector=3) == Cryptogram._make((100, 2, 3))
    assert type(edge._replace(weight=5)) is Cryptogram


def test_repr_of_a_key_code_runs_no_elimination(monkeypatch):
    kp = KeyPair.from_bytes(
        keygen("generic", 8, 144, 8, "ud", b"repr").to_bytes())
    monkeypatch.setattr(goppa, "rref",
                        lambda M: pytest.fail("repr ran an elimination"))
    assert repr(kp.code()) == "GoppaCode(m=8, n=144, r=8)"

def test_error_draw_collisions():
    # the documented error schedule: child stream "err", Fisher-Yates
    seen = {}
    collisions = 0
    for i in range(1000):
        pos = SeededStream(b"c%d" % i).child(b"err").sample_distinct(64, 6)
        key = frozenset(pos)
        collisions += key in seen
        seen[key] = i
    assert collisions <= 1


@pytest.fixture(scope="module")
def small_key_blob():
    return keygen("generic", 6, 64, 2, "ud", b"hostile").to_bytes()


@pytest.mark.parametrize("case", ["variant", "decoder", "short-header"])
def test_from_bytes_typed_errors(small_key_blob, case):
    blob = bytearray(small_key_blob)
    if case == "variant":
        blob[5] = 2
    elif case == "decoder":
        blob[6] = 7
    if case != "short-header":
        with pytest.raises(ValueError):
            KeyPair.from_bytes(bytes(blob))
        return
    for cut in range(28):
        with pytest.raises(ValueError):
            KeyPair.from_bytes(bytes(blob[:cut]))


def test_from_bytes_bounds_m_before_field_work(small_key_blob):
    # x^20 + x^3 + 1 is irreducible; m = 20 must be refused before any
    # trial division or table construction
    blob = bytearray(small_key_blob)
    blob[7] = 20
    blob[24:28] = ((1 << 20) | 0b1001).to_bytes(4, "big")
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        KeyPair.from_bytes(bytes(blob))
    assert time.perf_counter() - t0 < 0.1


def test_from_bytes_checks_header_before_work(small_key_blob):
    # n = 3,000,000 in a 285-byte file: refused from the header alone,
    # before anything is sized from it
    blob = bytearray(small_key_blob)
    blob[8:12] = (3000000).to_bytes(4, "big")
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        KeyPair.from_bytes(bytes(blob))
    assert time.perf_counter() - t0 < 0.1
    for start, value in ((16, 0),   # r = 0
                         (12, 51),  # k != n - m*r
                         (20, 0),   # no errors: the plain codeword
                         (20, 3)):  # w_enc != r for a ud key
        blob = bytearray(small_key_blob)
        blob[start:start + 4] = value.to_bytes(4, "big")
        with pytest.raises(ValueError):
            KeyPair.from_bytes(bytes(blob))
    with pytest.raises(ValueError):
        KeyPair.from_bytes(small_key_blob + b"\0")


@pytest.fixture(scope="module")
def dyadic_key_blob():
    return keygen(*GOLDEN["dyadic-ud"][0], seed=b"golden/dyadic-ud").to_bytes()


@pytest.mark.parametrize("offset, value", [(5, 9), (6, 3), (8, 5)])
def test_from_bytes_checks_compact_header_before_expanding(
        dyadic_key_blob, monkeypatch, offset, value):
    # m, log2 r or k/r of the compact header disagrees with the key header
    def refuse(blob):
        raise AssertionError("compact key expanded")
    kp = KeyPair.from_bytes(dyadic_key_blob)
    blob = bytearray(dyadic_key_blob)
    pos = public_offset(kp) + offset
    assert blob[pos] != value
    blob[pos] = value
    monkeypatch.setattr(scheme, "expand_pubkey", refuse)
    with pytest.raises(ValueError, match="does not match the key header"):
        KeyPair.from_bytes(bytes(blob))


def test_from_bytes_refuses_dyadic_r_not_power_of_two(dyadic_key_blob):
    # m = 10, n = 240, k = 120, r = 12: consistent but for r
    blob = bytearray(dyadic_key_blob)
    for start, value in ((8, 240), (12, 120), (16, 12)):
        blob[start:start + 4] = value.to_bytes(4, "big")
    with pytest.raises(ValueError, match="power-of-two r"):
        KeyPair.from_bytes(bytes(blob))


def _patched_header(blob, variant, m, n, r, decoder):
    out = bytearray(blob)
    out[5:8] = bytes([variant == "dyadic", decoder == "ld", m])
    for i, v in enumerate((n, max(n - m * r, 0), r, r)):
        out[8 + 4 * i:12 + 4 * i] = v.to_bytes(4, "big")
    return bytes(out)


@pytest.mark.parametrize("params", [
    ("generic", 8, 256, 24, "ld"),  # tau - r = 3
    ("dyadic", 8, 128, 8, "ud"),  # r(r+1) <= n and m < 16
    ("dyadic", 8, 192, 16, "ud"),  # n > 2^(m-1)
    ("dyadic", 10, 480, 24, "ud"),  # r not a power of two
    ("generic", 17, 256, 8, "ud"),  # m = 17
    ("generic", 7, 78, 6, "ud"),  # k = 36
    ("generic", 6, 64, 1, "ud"),  # G's root in a full support
])
def test_from_bytes_applies_keygen_gate(dyadic_key_blob, monkeypatch,
                                        params):
    # each kind of validate_params refusal, from the header alone
    def refuse(m, modulus):
        raise AssertionError("field built")
    with pytest.raises(ValueError) as want:
        validate_params(*params)
    monkeypatch.setattr(scheme, "Field", refuse)
    with pytest.raises(ValueError) as got:
        KeyPair.from_bytes(_patched_header(dyadic_key_blob, *params))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_key_objects_refuse_an_insecure_dyadic_shape():
    # a dyadic (8, 128, 8) code, which keygen refuses, built past its gate:
    # the key object applies the same gate, so it can never be saved
    field = make_field(8)
    code = scheme._dyadic_code(field, 128, 8, b"insecure")
    colperm, A = code.systematic
    with pytest.raises(ValueError, match="insecure dyadic parameters"):
        KeyPair("dyadic", "ud", field, [code.support[c] for c in colperm],
                code.gpoly, dyadic.compact_pubkey(8, 8, A))


def test_keys_need_room_past_the_tag():
    # k = 36 holds the tag alone; k = 37 carries the empty message
    with pytest.raises(ValueError, match="36-bit tag"):
        keygen("generic", 7, 78, 6, "ud", b"floor")
    kp = keygen("generic", 7, 79, 6, "ud", b"floor")
    assert (kp.k, kp.capacity()) == (37, 0)
    assert decrypt(kp, encrypt(kp, b"", b"floor")) == b""
    assert decrypt(KeyPair.from_bytes(kp.to_bytes()),
                   encrypt(kp, b"", b"again")) == b""


def _with_support(kp, support):
    return KeyPair(kp.variant, kp.decoder, kp.field, support, kp.gpoly,
                   stored_public(kp)).to_bytes()


def test_decrypt_refuses_invalid_support():
    # a dyadic G splits, so a root of G can be planted in the support
    kp = keygen("dyadic", 10, 256, 16, "ud", b"badsup")
    ct = encrypt(kp, b"x", b"badsup")
    root = kp.gpoly.eval_all(range(kp.field.order)).index(0)
    for support in ((kp.support[1],) + kp.support[1:],
                    (root,) + kp.support[1:]):
        bad = KeyPair.from_bytes(_with_support(kp, support))
        with pytest.raises(CodeConstructionError):
            decrypt(bad, ct)


def test_load_and_decrypt_never_compute_a_null_space(monkeypatch):
    keys = [keygen("generic", 8, 200, 12, "ud", b"lean"),
            keygen("dyadic", 10, 256, 16, "ud", b"lean")]
    cts = [encrypt(kp, b"lean", b"lean") for kp in keys]
    # dyadic keygen runs its one elimination in goppa, so it goes first
    again = keygen("dyadic", 10, 256, 16, "ud", b"lean")

    # every systematic form starts with rref; build_code's table rows
    # are transposes too, so transpose is not refused
    def refuse(M):
        raise AssertionError("elimination run")
    monkeypatch.setattr(goppa, "rref", refuse)
    for kp, ct in zip(keys, cts):
        assert decrypt(KeyPair.from_bytes(kp.to_bytes()), ct) == b"lean"
    assert again.to_bytes() == keys[1].to_bytes()
