"""Golden SHA-256 digests of fixed-seed artifacts.

Key files, ciphertexts, the `table 1` CSV and a fixed set of `search`
CSVs must stay byte-identical across refactors and speedups.  A change
that has to alter these bytes must bump the file-format version and
replace the digests on purpose.
"""

import hashlib
import itertools

import pytest

from goppacrypt.cli import main
from goppacrypt.scheme import Cryptogram, KeyPair, decrypt, encrypt, keygen

MESSAGE = b"gold"

# name -> (keygen arguments, key file digest, ciphertext digest)
GOLDEN = {
    "generic-ud": (
        ("generic", 8, 200, 12, "ud"),
        "5d1ec5c0a7741fc92cec780128006b04ae62501eec40a16e13d1bda5099aeec2",
        "4e4173910788ae9959339c78d423a0af57241ff84367114dd72406c990163bc0"),
    "generic-ld": (
        ("generic", 8, 144, 8, "ld"),
        "267cdc218fe6f9e2f76875de2c5d147d6d3cad66396924fcdc1f5787a1cce20e",
        "125a389c4bdc2f53b29386b58bde63337b5cec9b162acc63f1ad4e291bd30b3f"),
    "dyadic-ud": (
        ("dyadic", 10, 256, 16, "ud"),
        "e80be687bd59ad499a2e8a1e387f5d25c52e169e5f4a70552b4cfe8097a9d17d",
        "f9131879bbc7c3bee84672ed0139499d1daf5c9b43696cea81afd25b1c9ea754"),
    # the m = 16 shape: many short blocks
    "dyadic-m16": (
        ("dyadic", 16, 256, 4, "ud"),
        "d7fe803545febec2bbc25834b695dd7943ac5f7bd8ee164b9acf971e51b8eaf5",
        "a32288a9f9b87a4e35f03489288b6eb7fd8a5c69a9488f96774a591143869c39"),
    # w_enc = 17 = r + 1, decrypted by the linear engine
    "dyadic-ld": (
        ("dyadic", 10, 256, 16, "ld"),
        "ea33433d5cca61c36c95d916af2a1272ef92b31df4e52a8bc85ad998d91e7cbb",
        "62c59296cf0dc0c8186ebe7590a2fada3b38c0e1ae3903b771033908a81020a3"),
}

TABLE1_CSV = "40ff4a5ebb036ec22b1e47a79ba4b75d7494e66d2581f283d5ecbaaf51a6733a"

# each (variant, decoder, countermeasure) once, at targets 80, 96, ..., 256
SEARCHES = list(zip(range(80, 257, 16), itertools.product(
    ("generic", "dyadic"), ("ud", "ld"), ("none", "cm1", "cm2"))))
SEARCH_CSV = "b215f3230fee543efc30e1929881eb61176d29fb2222464c56a29f168d2eeb9b"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_key_and_ciphertext_digests(name):
    args, key_digest, ct_digest = GOLDEN[name]
    kp = keygen(*args, seed=b"golden/" + name.encode())
    blob = kp.to_bytes()
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
