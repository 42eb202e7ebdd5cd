"""Seeded, bounded fuzzing of version-2 key files and ciphertexts.

Truncations, extensions, bit flips and patched header fields go through
KeyPair.from_bytes, encrypt, decrypt and the CLI, together with key
fields that reach decoding: a G with a repeated root, a support point
that is a root of G, and a G of the wrong degree.  Every case must end
in a result or a documented exception: ValueError (CodeConstructionError
and RadiusError among them), DecryptionError or CapacityError.  The CLI
must exit 0 or 1 and print no traceback.  A key that loads must encrypt
at the weight its decoder defines, so that no patched header can make
encrypt add fewer errors.  The case count is fixed and each case is
timed.
"""

import random
import time

import pytest

from goppacrypt.binmat import BinMatrix
from goppacrypt.cli import main
from goppacrypt.gf2m import Poly
from goppacrypt.goppa import CapacityError
from goppacrypt.scheme import (
    Cryptogram, DecryptionError, KeyPair, decrypt, encrypt, keygen,
)
from goppacrypt.security import encryption_weight

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
