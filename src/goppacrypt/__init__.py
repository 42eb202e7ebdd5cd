"""Binary Goppa code toolkit.

Field and polynomial arithmetic over GF(2^m), Goppa code construction,
Patterson and list decoding, quasi-dyadic compact keys, McEliece style
encryption, and keysize/security estimation utilities.
"""

from .gf2m import Field, Poly, make_field, eea_stop, poly_sqrt_mod
from .binmat import BinMatrix
from .goppa import (
    CapacityError, CodeConstructionError, GoppaCode, build_code, encode,
    syndrome_poly, verify_prop1,
)
from .decode import (
    DecodeResult, RadiusError, g2_decode, list_decode, patterson_decode,
    sphere_oracle,
)
from .dyadic import (
    DyadicSignature, SignatureExhaustionError,
    compact_pubkey, expand_pubkey, gen_signature, signature_to_code,
)
from .security import (
    check_countermeasures, fs_workfactor, gain, keysize, radii,
)
from .scheme import (
    AmbiguityError, Cryptogram, DecryptionError, KeyPair,
    NoCandidateError, decrypt, encrypt, keygen, validate_params,
)
from .prng import SeededStream

__version__ = "0.1.0"

__all__ = [
    "Field", "Poly", "make_field", "eea_stop", "poly_sqrt_mod",
    "BinMatrix",
    "GoppaCode", "build_code", "encode", "syndrome_poly", "verify_prop1",
    "CodeConstructionError", "CapacityError",
    "DecodeResult", "RadiusError", "patterson_decode", "g2_decode",
    "list_decode", "sphere_oracle",
    "DyadicSignature", "SignatureExhaustionError",
    "gen_signature", "signature_to_code",
    "compact_pubkey", "expand_pubkey",
    "radii", "fs_workfactor", "keysize", "check_countermeasures", "gain",
    "KeyPair", "Cryptogram", "keygen", "encrypt", "decrypt",
    "validate_params", "DecryptionError", "NoCandidateError",
    "AmbiguityError",
    "SeededStream",
    "__version__",
]
