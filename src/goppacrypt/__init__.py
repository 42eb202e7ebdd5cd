"""Binary Goppa code toolkit.

Field and polynomial arithmetic over GF(2^m), Goppa code construction,
Patterson and list decoding, quasi-dyadic compact keys, McEliece style
encryption, and keysize/security estimation utilities.

Submodules load on first use: goppacrypt.X looks X up in the module
that defines it on each access, so a command that needs only the
security estimates never imports the code and crypto layers.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "gf2m": ("Field", "Poly", "make_field", "eea_stop", "poly_sqrt_mod"),
    "binmat": ("BinMatrix",),
    "goppa": ("GoppaCode", "build_code", "syndrome_poly",
              "CodeConstructionError", "CapacityError"),
    "decode": ("DecodeResult", "RadiusError", "patterson_decode",
               "list_decode"),
    "dyadic": ("DyadicSignature", "SignatureExhaustionError",
               "gen_signature", "signature_to_code",
               "compact_pubkey", "expand_pubkey"),
    "security": ("radii", "fs_workfactor", "keysize",
                 "check_countermeasures", "gain"),
    "scheme": ("KeyPair", "Cryptogram", "keygen", "encrypt", "decrypt",
               "validate_params", "DecryptionError", "NoCandidateError",
               "AmbiguityError"),
    "prng": ("SeededStream",),
    "tables": (),
    "cli": (),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")


def __getattr__(name):
    # nothing is cached here, so a patched submodule function is what
    # goppacrypt.<name> returns
    if name in _OWNER:
        return getattr(import_module("." + _OWNER[name], __name__), name)
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
