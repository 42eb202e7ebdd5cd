"""Seeded, bounded fuzzing of version-2 key files and ciphertexts.

Truncations, extensions, bit flips and patched header fields go through
KeyPair.from_bytes, encrypt, decrypt and the CLI, together with key
fields that reach decoding: a G with a repeated root, a support point
that is a root of G, and a G of the wrong degree; and dyadic keys that
load but lack the structure that decoding derives G's roots from.
Every case must end in a result or a documented exception: ValueError
(CodeConstructionError and RadiusError among them), DecryptionError or
CapacityError.  The CLI must exit 0 or 1 and print no traceback.  A key
that loads must encrypt at the weight its decoder defines, so that no
patched header can make encrypt add fewer errors, and its public part,
parsed on first read, must parse.  The case count is fixed and each case
is timed.
"""

import random
import time

import pytest

from goppacrypt.binmat import BinMatrix
from goppacrypt.cli import main
from goppacrypt.gf2m import Poly
from goppacrypt.goppa import CapacityError, CodeConstructionError
from goppacrypt.scheme import (
    Cryptogram, DecryptionError, KeyPair, decrypt, encrypt, keygen,
)
from goppacrypt.security import encryption_weight
from testlib import stored_public

DOCUMENTED = (ValueError, DecryptionError, CapacityError)
CASE_SECONDS = 1.0

# (offset, width) of the big-endian header fields
KEY_FIELDS = ((4, 1), (5, 1), (6, 1), (7, 1), (8, 4), (12, 4), (16, 4),
              (20, 4), (24, 4))
CT_FIELDS = ((4, 4), (8, 4))


@pytest.fixture(scope="module")
def keys():
    return [keygen("generic", 6, 64, 2, "ud", b"fuzz"),
            keygen("generic", 8, 144, 8, "ld", b"fuzz"),
            keygen("dyadic", 10, 256, 16, "ud", b"fuzz")]


def _patch(rng, blob, fields):
    start, width = rng.choice(fields)
    bits = 8 * width
    old = int.from_bytes(blob[start:start + width], "big")
    value = rng.choice((0, 1, 2, old - 1, old + 1, (1 << bits) - 1,
                        old ^ 1 << rng.randrange(bits), rng.getrandbits(bits)))
    value %= 1 << bits
    return blob[:start] + value.to_bytes(width, "big") + blob[start + width:]


def _flip(rng, blob):
    out = bytearray(blob)
    for _ in range(rng.randrange(1, 4)):
        p = rng.randrange(8 * len(out))
        out[p >> 3] ^= 1 << (p & 7)
    return bytes(out)


def mutants(rng, blob, fields, count):
    """count mutants of blob, cycling through the four kinds."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield blob[:rng.randrange(len(blob))]
        elif kind == 1:
            yield blob + rng.randbytes(rng.randrange(1, 9))
        elif kind == 2:
            yield _flip(rng, blob)
        else:
            yield _patch(rng, blob, fields)


def _with_gpoly(kp, coeffs):
    """kp's key file with G's r + 1 stored coefficients replaced."""
    blob = kp.to_bytes()
    mid = 28 + (kp.n * kp.m + 7) // 8
    pos = mid + ((kp.r + 1) * kp.m + 7) // 8
    return blob[:mid] + BinMatrix(kp.r + 1, kp.m, coeffs).to_bytes() \
        + blob[pos:]


def decoding_fields(kp):
    """Key files whose header is sound but whose support or G is not."""
    field, r = kp.field, kp.r
    a, b = kp.support[:2]
    # (x + a)^2 (x + b)^(r-2) has a repeated root
    g = Poly(field, (a, 1)).square()
    for _ in range(r - 2):
        g = g * Poly(field, (b, 1))
    yield _with_gpoly(kp, list(g.c))
    # G + G(a) has the support point a as a root
    c = list(kp.gpoly.c)
    c[0] ^= kp.gpoly.eval_all([a])[0]
    yield _with_gpoly(kp, c)
    # G of the wrong degree: the leading coefficient cleared, and G = 0
    yield _with_gpoly(kp, list(kp.gpoly.c[:-1]) + [0])
    yield _with_gpoly(kp, [0] * (r + 1))


def check_key(blob, ct):
    """from_bytes, encrypt and decrypt on one key file."""
    try:
        kp = KeyPair.from_bytes(blob)
    except DOCUMENTED:
        return
    assert kp.w_enc == encryption_weight(kp.n, kp.r, kp.decoder)
    # from_bytes makes every check, so the parse of A it defers to the
    # first read of public cannot fail
    assert (kp.public.rows, kp.public.cols) == (kp.k, kp.n - kp.k)
    try:
        assert encrypt(kp, b"", b"fuzz").weight == kp.w_enc
    except DOCUMENTED:
        pass
    try:
        decrypt(kp, Cryptogram(kp.n, kp.w_enc, ct.vector & ((1 << kp.n) - 1)))
    except DOCUMENTED:
        pass


def check_ciphertext(kp, blob):
    try:
        decrypt(kp, Cryptogram.from_bytes(blob))
    except DOCUMENTED:
        pass


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    assert time.perf_counter() - t0 < CASE_SECONDS


def test_fuzz_key_files_and_ciphertexts(keys):
    rng = random.Random(20261018)
    for kp in keys:
        blob = kp.to_bytes()
        ct = encrypt(kp, b"f", b"fuzz")
        for mutant in mutants(rng, blob, KEY_FIELDS, 200):
            timed(check_key, mutant, ct)
        for mutant in decoding_fields(kp):
            timed(check_key, mutant, ct)
        for mutant in mutants(rng, ct.to_bytes(), CT_FIELDS, 100):
            timed(check_ciphertext, kp, mutant)


def test_fuzz_cli_prints_no_traceback(keys, tmp_path, capsys):
    rng = random.Random(18)
    key, ct, msg = (tmp_path / name for name in ("k", "ct", "msg"))
    msg.write_bytes(b"m")
    for kp in keys:
        good_key, good_ct = kp.to_bytes(), encrypt(kp, b"c", b"cli").to_bytes()
        cases = [(m, good_ct) for m in mutants(rng, good_key, KEY_FIELDS, 16)]
        cases += [(good_key, m) for m in mutants(rng, good_ct, CT_FIELDS, 8)]
        for key_blob, ct_blob in cases:
            key.write_bytes(key_blob)
            ct.write_bytes(ct_blob)
            for argv in (["decrypt", "--in", str(ct)],
                         ["encrypt", "--in", str(msg), "--seed", "01"]):
                t0 = time.perf_counter()
                code = main(argv + ["--key", str(key), "--out",
                                    str(tmp_path / "out")])
                assert time.perf_counter() - t0 < CASE_SECONDS
                err = capsys.readouterr().err
                assert code in (0, 1)
                assert "Traceback" not in err
                assert (code == 1) == err.startswith("error: ")


def _span(basis):
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    return span


def hostile_dyadic(kp):
    """(reason, support, G): dyadic key fields that load, and that
    decoding refuses before it decodes anything."""
    field, r, L = kp.field, kp.r, list(kp.support)
    # blocks 0 and 1 trade a point, so they no longer share differences
    swapped = L[:]
    swapped[1], swapped[r + 1] = swapped[r + 1], swapped[1]
    yield "cosets", swapped, kp.gpoly
    # an x^3 term: G + G(0) is not GF(2)-linear, G is not L_V + c
    c = list(kp.gpoly.c)
    c[3] ^= 1
    yield "L_V", L, Poly(field, c)
    # G = L_W + c, its roots a coset of a subspace W other than the V of
    # the support's blocks, and none of them on the support
    V = [L[1 << b] ^ L[0] for b in range(r.bit_length() - 1)]
    z0 = kp.gpoly.eval_all(range(field.order)).index(0)
    for w in range(1, field.order):
        roots = [z0 ^ v for v in _span([w] + V[1:])]
        if w not in _span(V) and not set(roots) & set(L):
            break
    yield "cosets", L, Poly.from_roots(field, roots)
    # G + G(L_0): the whole block of L_0 is G's roots
    c = list(kp.gpoly.c)
    c[0] ^= kp.gpoly.eval_all([L[0]])[0]
    yield "root of G", L, Poly(field, c)


def test_hostile_dyadic_keys_are_refused_at_decrypt(keys, tmp_path, capsys):
    # each loads, as loading does no structure work, and encrypts; decrypt
    # and the CLI refuse it with a typed error, never a plaintext
    kp = keys[2]
    assert kp.variant == "dyadic"
    paths = {name: tmp_path / name for name in ("k", "ct", "out")}
    for reason, support, gpoly in hostile_dyadic(kp):
        blob = KeyPair(kp.variant, kp.decoder, kp.field, support, gpoly,
                       stored_public(kp)).to_bytes()
        loaded = KeyPair.from_bytes(blob)
        ct = encrypt(loaded, b"h", b"hostile")
        t0 = time.perf_counter()
        with pytest.raises(CodeConstructionError, match=reason):
            decrypt(loaded, ct)
        assert time.perf_counter() - t0 < CASE_SECONDS
        paths["k"].write_bytes(blob)
        paths["ct"].write_bytes(ct.to_bytes())
        t0 = time.perf_counter()
        code = main(["decrypt", "--key", str(paths["k"]), "--in",
                     str(paths["ct"]), "--out", str(paths["out"])])
        assert time.perf_counter() - t0 < CASE_SECONDS
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and reason in err
        assert not paths["out"].exists()
