"""Published parameter rows and recomputation against them.

Each fixture row records printed values: (method, m, n, k, r, tau2, wf,
keysize, gain) with tau2/gain None on UD rows.  verify_table recomputes
every derived column and marks the row MATCH or MISMATCH; known-bad
printed rows are flagged, never silently corrected.

Recomputation rules: the printed r must satisfy n - k = m*r; tau2
column is ceil(tau2)-1 from the radius formula; WF re-runs the
estimator at w = r (UD) or the recomputed list radius (LD), tolerance
1.0 bits; keysize is (n-k)*k for the generic table and m*k for the
dyadic ones; gain compares printed keysizes of an LD row and its
nearest preceding UD row.
"""

from .security import encryption_weight, fs_workfactor, gain, keysize

WF_TOLERANCE = 1.0

TABLE1 = (
    ("UD", 11, 1893, 1431, 42, None, 80.025, 661122, None),
    ("LD", 11, 1876, 1436, 40, 41, 80.043, 631840, 4.43),
    ("UD", 12, 2887, 2191, 58, None, 112.002, 1524936, None),
    ("LD", 12, 2868, 2196, 58, 59, 112.026, 1475712, 3.23),
    ("UD", 12, 3307, 2515, 66, None, 128.007, 1991880, None),
    ("LD", 12, 3262, 2482, 65, 66, 128.021, 1935960, 2.81),
    ("UD", 13, 5397, 4136, 97, None, 192.003, 5215496, None),
    ("LD", 13, 5269, 4021, 96, 98, 192.052, 5018208, 3.78),
    ("UD", 13, 7150, 5447, 131, None, 256.002, 9276241, None),
    ("LD", 13, 7008, 5318, 130, 133, 257.471, 8987420, 3.11),
)

TABLE2 = (
    ("UD", 11, 1792, 1088, 64, None, 82.518, 11968, None),
    ("LD", 11, 1728, 1024, 64, 67, 82.976, 11264, 5.88),
    ("UD", 12, 2944, 1408, 128, None, 116.735, 16896, None),
    ("LD", 13, 2816, 1280, 128, 134, 113.896, 15360, 9.09),
    ("LD", 13, 7680, 1024, 512, 552, 113.084, 13312, 21.21),
    ("UD", 12, 3200, 1664, 128, None, 131.235, 19968, None),
    ("LD", 12, 3072, 1536, 128, 134, 129.745, 18432, 7.69),
    ("UD", 13, 5888, 2560, 256, None, 205.804, 33280, None),
    ("LD", 13, 5632, 2304, 256, 269, 199.473, 29952, 10.00),
    ("UD", 15, 11264, 3584, 512, None, 279.002, 53760, None),
    ("LD", 15, 10752, 3072, 512, 539, 258.223, 46080, 14.29),
)

TABLE3 = (
    ("UD", 16, 5120, 1024, 256, None, 81.765, 16384, None),
    ("LD", 16, 5120, 1024, 256, 134, 86.216, 16384, 0.0),
    ("UD", 16, 3840, 1792, 128, None, 113.785, 28672, None),
    ("LD", 16, 5632, 1536, 256, 269, 116.400, 24576, 14.29),
    ("UD", 16, 5888, 1792, 256, None, 132.470, 28672, None),
    ("LD", 16, 9728, 1536, 512, 542, 133.534, 24576, 14.29),
    ("UD", 16, 10752, 2560, 512, None, 199.067, 40960, None),
    ("LD", 16, 10752, 2560, 512, 539, 209.414, 40960, 0.0),
    ("UD", 16, 11776, 3584, 512, None, 264.846, 57344, None),
    ("LD", 16, 19456, 3072, 1024, 1085, 267.203, 49152, 14.29),
)

# (security level, DLP keysize, best compact-key size, printed ratio)
TABLE4 = (
    (80, 1024, 11264, 11.0),
    (112, 2048, 13312, 6.5),
    (128, 3072, 18432, 6.0),
    (192, 7680, 29952, 3.9),
    (256, 15360, 46080, 3.0),
)

TABLES = {1: TABLE1, 2: TABLE2, 3: TABLE3}


def table_variant(num):
    return "generic" if num == 1 else "dyadic"


def verify_row(variant, row, prev_ud_keysize):
    method, m, n, k, r, p_tau2, p_wf, p_ks, p_gain = row
    bad = [] if n - k == m * r else ["r"]
    w = encryption_weight(n, r, method.lower())
    tau2 = w if method == "LD" else None
    if tau2 != p_tau2:
        bad.append("tau2")
    wf = fs_workfactor(n, k, w)
    if abs(wf - p_wf) > WF_TOLERANCE:
        bad.append("wf")
    # k(n-k), not security.keysize's m*k*r: the n = 2868 row has n-k != m*r
    ks = k * (n - k) if variant == "generic" else keysize("dyadic", m, k)
    if ks != p_ks:
        bad.append("keysize")
    if method == "LD":
        g = gain(prev_ud_keysize, p_ks)
        if g != p_gain:
            bad.append("gain")
    else:
        g = None
    return {
        "method": method, "m": m, "n": n, "k": k, "r": r,
        "tau2": tau2, "wf": wf, "keysize": ks, "gain": g,
        "printed": row, "mismatches": tuple(bad),
        "status": "MISMATCH" if bad else "MATCH",
    }


def verify_table(num):
    """Recompute one table; a list of row dicts in print order."""
    if num == 4:
        out = []
        for level, dlp, mceliece, p_ratio in TABLE4:
            ratio = round(mceliece / dlp, 1)
            out.append({
                "level": level, "dlp": dlp, "mceliece": mceliece,
                "ratio": ratio,
                "mismatches": () if ratio == p_ratio else ("ratio",),
                "status": "MATCH" if ratio == p_ratio else "MISMATCH",
            })
        return out
    if num not in TABLES:
        raise ValueError("no such table: %r" % (num,))
    variant = table_variant(num)
    out = []
    prev_ud = None
    for row in TABLES[num]:
        res = verify_row(variant, row, prev_ud)
        if row[0] == "UD":
            prev_ud = row[7]
        out.append(res)
    return out
