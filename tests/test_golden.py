"""Golden SHA-256 digests of fixed-seed artifacts.

Key files, ciphertexts, the `table 1` CSV, a fixed set of `search` CSVs
and list_decode's output over a fixed grid of codes, radii and error
weights must stay byte-identical across refactors and speedups.  A change
that has to alter these bytes must bump the file-format version and
replace the digests on purpose: the key digests below are those of
KEY_FORMAT_VERSION files, and every golden key must carry that version.
"""

import hashlib
import itertools

import pytest

from goppacrypt.cli import main
from goppacrypt.decode import list_decode
from goppacrypt.gf2m import Poly, make_field, random_monic_irreducible
from goppacrypt.goppa import build_code
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import Cryptogram, KeyPair, decrypt, encrypt, keygen
from goppacrypt.security import radii
from testlib import encode

MESSAGE = b"gold"

# the GPPA version byte of the key files whose digests follow
KEY_FORMAT_VERSION = 2

# name -> (keygen arguments, key file digest, ciphertext digest)
GOLDEN = {
    "generic-ud": (
        ("generic", 8, 200, 12, "ud"),
        "8bf9128eb5669971d8323fe3ecd6b8b925caea8190f7dfe791a1b4b6e6b69a73",
        "148f8bd2a7e664b4cc87feab94f145a467ca11f90e0a662ad8b50877e4139789"),
    "generic-ld": (
        ("generic", 8, 144, 8, "ld"),
        "ef79f43fcfe7f27be5c2474cbd1f555ce208250fc3f3da05e905dc67b63f42ef",
        "8a7bbe6b0e012db3cdac5d90e529160c1eb786a158ee6d2b0def5d982d9afc13"),
    "dyadic-ud": (
        ("dyadic", 10, 256, 16, "ud"),
        "21a40f3f952fa5a85e6c4a9c261db33e467be9448f78de3485d38b67d5be6be3",
        "f9131879bbc7c3bee84672ed0139499d1daf5c9b43696cea81afd25b1c9ea754"),
    # the m = 16 shape: many short blocks
    "dyadic-m16": (
        ("dyadic", 16, 256, 4, "ud"),
        "05abc1e8b38f21835579ccf958a3d39fc30f97569fa1b5926af63f72a3b85c33",
        "a32288a9f9b87a4e35f03489288b6eb7fd8a5c69a9488f96774a591143869c39"),
    # w_enc = 17 = r + 1, decrypted by the linear engine
    "dyadic-ld": (
        ("dyadic", 10, 256, 16, "ld"),
        "461a0504005b64795074e48b6f74842df81685902ce16876db5fdbea9737d9cb",
        "62c59296cf0dc0c8186ebe7590a2fada3b38c0e1ae3903b771033908a81020a3"),
}

TABLE1_CSV = "40ff4a5ebb036ec22b1e47a79ba4b75d7494e66d2581f283d5ecbaaf51a6733a"

# each (variant, decoder, countermeasure) once, at targets 80, 96, ..., 256
SEARCHES = list(zip(range(80, 257, 16), itertools.product(
    ("generic", "dyadic"), ("ud", "ld"), ("none", "cm1", "cm2"))))
SEARCH_CSV = "b215f3230fee543efc30e1929881eb61176d29fb2222464c56a29f168d2eeb9b"

# list_decode at tau in {0, r//2, r, r+1, r+2} of four words per error
# weight in {0, 1, r-1, r, r+1, r+2, the Johnson radius} on each code
# of decode_grid_codes(), each exception by its type and message
LIST_DECODE = (
    "54f5e96bb6aa262867ca36c47fdda5f8533bac6b0a7fafa1a89a3733b462280a")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_key_and_ciphertext_digests(name):
    args, key_digest, ct_digest = GOLDEN[name]
    kp = keygen(*args, seed=b"golden/" + name.encode())
    blob = kp.to_bytes()
    assert blob[4] == KEY_FORMAT_VERSION
    assert sha256(blob) == key_digest
    ct = encrypt(kp, MESSAGE, b"golden-ct/" + name.encode())
    assert sha256(ct.to_bytes()) == ct_digest
    # the parsed key file decrypts the parsed ciphertext
    loaded = KeyPair.from_bytes(blob)
    assert loaded.to_bytes() == blob
    assert decrypt(loaded, Cryptogram.from_bytes(ct.to_bytes())) == MESSAGE


def test_table1_csv_digest(capsys):
    assert main(["table", "1"]) == 2
    assert sha256(capsys.readouterr().out.encode()) == TABLE1_CSV


def test_search_csv_digest(capsys):
    for target, (variant, decoder, cm) in SEARCHES:
        assert main(["search", str(target), "--variant", variant,
                     "--decoder", decoder, "--countermeasure", cm]) == 0
    assert sha256(capsys.readouterr().out.encode()) == SEARCH_CSV


def decode_grid_codes():
    """The golden keys' codes, then two build_code codes where r + 2 is
    within the Johnson radius: (7, 128, 14) with an irreducible G, and
    (7, 112, 12) with a split G whose roots miss the support."""
    codes = [(name, keygen(*GOLDEN[name][0],
                           seed=b"golden/" + name.encode()).code())
             for name in sorted(GOLDEN)]
    field = make_field(7)
    stream = SeededStream(b"golden-ld/generic")
    g = random_monic_irreducible(field, 14, stream)
    codes.append(("generic", build_code(
        field, stream.sample_distinct(field.order, 128), g)))
    stream = SeededStream(b"golden-ld/split")
    g = Poly.from_roots(field, stream.sample_distinct(field.order, 12))
    pool = [a for a, v in enumerate(g.eval_all(range(field.order))) if v]
    codes.append(("split", build_code(
        field, [pool[i] for i in stream.sample_distinct(len(pool), 112)], g)))
    return codes


def test_list_decode_digest():
    digest = hashlib.sha256()
    for name, code in decode_grid_codes():
        r = code.r
        stream = SeededStream(b"golden-ld/words/" + name.encode())
        weights = {0, 1, r - 1, r, r + 1, r + 2, radii(code.n, r).ld_errors}
        for w in sorted(weights):
            for _ in range(4):
                y = encode(code, stream.randbelow(1 << code.k))
                for p in stream.sample_distinct(code.n, w):
                    y ^= 1 << p
                for tau in (0, r // 2, r, r + 1, r + 2):
                    try:
                        out = repr(list_decode(code, y, tau).candidates)
                    except (ValueError, RuntimeError) as exc:
                        out = "%s: %s" % (type(exc).__name__, exc)
                    digest.update(b"%s %d %d %s\n" % (
                        name.encode(), w, tau, out.encode()))
    assert digest.hexdigest() == LIST_DECODE
