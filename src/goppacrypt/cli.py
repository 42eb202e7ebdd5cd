"""Command-line front end.

Subcommands: table (recompute a published comparison table and mark
MATCH/MISMATCH per row), search (minimize keysize subject to a
workfactor target), bounds (decoding-radius data for plotting), and
keygen/encrypt/decrypt on files.  Exit status: 0 success, 2 when a
verified table contains any MISMATCH row, 1 on errors.
"""

import argparse
import contextlib
import csv
import sys
from itertools import count

from .security import (
    encryption_weight, fs_reaches, fs_workfactor, keysize, radii,
)

ROW_FIELDS = ("method", "m", "n", "k", "r", "tau2", "wf", "keysize", "gain")


@contextlib.contextmanager
def _out_writer(args):
    """CSV/TSV writer on --out, or on stdout when it is absent."""
    delim = "\t" if args.format == "tsv" else ","
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        yield csv.writer(fh, delimiter=delim, lineterminator="\n")


def _fmt_row(row):
    return [row["method"], row["m"], row["n"], row["k"], row["r"],
            "" if row["tau2"] is None else row["tau2"],
            "%.3f" % row["wf"], row["keysize"],
            "" if row["gain"] is None else "%.2f" % row["gain"]]


def cmd_table(args):
    from .tables import verify_table
    rows = verify_table(args.table)
    with _out_writer(args) as w:
        if args.table == 4:
            w.writerow(("level", "dlp", "mceliece", "ratio"))
            for row in rows:
                w.writerow((row["level"], row["dlp"], row["mceliece"],
                            "%.1f" % row["ratio"]))
        else:
            w.writerow(ROW_FIELDS + ("status",))
            for row in rows:
                w.writerow(_fmt_row(row) + [row["status"]])
    return 2 if any(r["status"] == "MISMATCH" for r in rows) else 0


def _feasible(n, m, r, decoder, target):
    """WF >= target on the design dimension k = n - mr; False, without
    raising, outside the estimator's domain."""
    try:
        w = encryption_weight(n, r, decoder)
        return fs_reaches(n, n - m * r, w, target)
    except ValueError:  # k < 1, 4r + 2 > n, or w outside (0, n - k)
        return False


def _min_feasible(m, r, decoder, target, lo, hi, step, cap):
    # bisect the grid for the smallest feasible n.  This assumes the
    # workfactor grows with n at fixed (m, r); where it does not, the row
    # is the one this path finds (hi first, then halving), which
    # test_search_rows_follow_bisection_path pins.  Only n <= cap can
    # beat the best row so far, so the halving stops once lo passes cap:
    # the feasible n it then returns, like the full path's, lies above
    # cap and improves nothing
    if lo > hi or not _feasible(hi, m, r, decoder, target):
        return None
    while lo < hi and lo <= cap:
        mid = lo + ((hi - lo) // (2 * step)) * step
        if _feasible(mid, m, r, decoder, target):
            hi = mid
        else:
            lo = mid + step
    return hi


def search_params(target, variant, decoder, countermeasure="none"):
    """A parameter row with WF >= target, or None.

    A row is the paper's estimate, not a key.  It is the best row the
    bisection reaches, which is not always the smallest key
    (_min_feasible).  validate_params, and so keygen, refuses rows with
    tau - r > 2 or a dyadic n > 2^(m-1), which search returns when they
    score best.

    Ties break deterministically on (keysize, n, m).  For each m the
    dyadic grid walks r = 2, 4, 8, ... with n stepping by r, the generic
    grid every r with every n; cm1 caps n below r(r+1) and cm2
    restricts to m = 16.  Each m's walk ends once the smallest n with
    k >= 1 exceeds 2^m, or after 25 consecutive values of r that do not
    improve the best row, counted from the first feasible one; a dyadic
    walk has at most 11 values of r, so it is never cut short.  Keysize
    grows with n at fixed (m, r), so an r whose rows cannot beat the
    best so far is skipped once its m has a feasible r, and a bisection
    stops once every n left in it is too large: the rows are those of
    the full walk.  The search scores the design dimension k = n - mr;
    key generation still validates per instance.
    """
    if not 60 <= target <= 300:
        raise ValueError("target workfactor must lie in [60, 300]")
    dyadic = variant == "dyadic"
    best = None
    for m in range(16 if countermeasure == "cm2" else 10, 17):
        # small r cannot reach the target at all, so the miss counter
        # starts only once r enters the feasible region
        misses = 0
        seen_feasible = False
        for r in (1 << j for j in count(1)) if dyadic else count(1):
            step = r if dyadic else 1
            lo, hi = m * r + step, 1 << m
            if lo > hi or misses == 25:
                break
            if countermeasure == "cm1":
                hi = min(hi, (r * (r + 1) - 1) // step * step)
            cap = hi
            if best is not None:
                # keysize grows with n at fixed (m, r), so the grid points
                # whose (keysize, n, m) is below best's form [lo, cap]
                kmax = best[0] // keysize(variant, m, 1, r)
                cap = m * r + kmax // step * step
                if (keysize(variant, m, cap - m * r, r), cap, m) >= best[:3]:
                    cap -= step
                if seen_feasible and cap < lo:
                    misses += 1  # no row here can improve on best
                    continue
            n = _min_feasible(m, r, decoder, target, lo, hi, step, cap)
            improved = False
            if n is not None:
                seen_feasible = True
                k = n - m * r
                cand = (keysize(variant, m, k, r), n, m, r, k)
                if best is None or cand[:3] < best[:3]:
                    best = cand
                    improved = True
            if seen_feasible:
                misses = 0 if improved else misses + 1
    if best is None:
        return None
    ks, n, m, r, k = best
    w = encryption_weight(n, r, decoder)
    return {"method": "LD" if decoder == "ld" else "UD", "m": m, "n": n,
            "k": k, "r": r, "tau2": w if decoder == "ld" else None,
            "wf": fs_workfactor(n, k, w), "keysize": ks, "gain": None}


def cmd_search(args):
    row = search_params(args.target, args.variant, args.decoder,
                        args.countermeasure)
    if row is None:
        print("no feasible parameters for target %.1f" % args.target,
              file=sys.stderr)
        return 1
    with _out_writer(args) as w:
        w.writerow(ROW_FIELDS)
        w.writerow(_fmt_row(row))
    return 0


def cmd_bounds(args):
    if args.tmax < 1 or 4 * args.tmax + 2 > args.n:
        raise ValueError("need 1 <= tmax and 4*tmax + 2 <= n")
    with _out_writer(args) as w:
        w.writerow(("t", "t_over_n", "unique", "generic", "bernstein",
                    "tau2"))
        for t in range(1, args.tmax + 1):
            rep = radii(args.n, t)
            w.writerow(("%d" % t,) + tuple(
                "%.6f" % (v / args.n) for v in
                (t, t, rep.generic_johnson, rep.bernstein, rep.tau2)))
    return 0


def _seed(text):
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise ValueError("seed must be hex digits")
    if not seed:
        raise ValueError("seed must be nonempty")
    return seed


def cmd_keygen(args):
    from .scheme import keygen
    kp = keygen(args.variant, args.m, args.n, args.r, args.decoder,
                _seed(args.seed))
    kp.save(args.out)
    print("%s %s key: n=%d k=%d r=%d w_enc=%d capacity=%dB -> %s"
          % (kp.variant, kp.decoder, kp.n, kp.k, kp.r, kp.w_enc,
             kp.capacity(), args.out))
    return 0


def cmd_encrypt(args):
    from .scheme import KeyPair, encrypt
    kp = KeyPair.load(args.key)
    with open(args.infile, "rb") as fh:
        msg = fh.read()
    encrypt(kp, msg, _seed(args.seed)).save(args.out)
    return 0


def cmd_decrypt(args):
    from .scheme import Cryptogram, KeyPair, decrypt
    kp = KeyPair.load(args.key)
    msg = decrypt(kp, Cryptogram.load(args.infile))
    with open(args.out, "wb") as fh:
        fh.write(msg)
    return 0


def _add_output_opts(p):
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "tsv"), default="csv")


def build_parser():
    p = argparse.ArgumentParser(
        prog="goppacrypt",
        description="Goppa-code McEliece toolkit: tables, parameter "
                    "search, bounds, and file encryption.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="recompute a published table")
    t.add_argument("table", type=int, choices=(1, 2, 3, 4))
    _add_output_opts(t)
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("search", help="minimize keysize at a WF target")
    s.add_argument("target", type=float)
    s.add_argument("--variant", choices=("generic", "dyadic"),
                   required=True)
    s.add_argument("--decoder", choices=("ud", "ld"), required=True)
    s.add_argument("--countermeasure", choices=("cm1", "cm2", "none"),
                   default="none")
    _add_output_opts(s)
    s.set_defaults(func=cmd_search)

    b = sub.add_parser("bounds", help="normalized decoding radii 1..tmax")
    b.add_argument("n", type=int)
    b.add_argument("tmax", type=int)
    _add_output_opts(b)
    b.set_defaults(func=cmd_bounds)

    g = sub.add_parser("keygen", help="generate a key file")
    g.add_argument("--variant", choices=("generic", "dyadic"),
                   required=True)
    g.add_argument("--decoder", choices=("ud", "ld"), required=True)
    g.add_argument("-m", type=int, required=True)
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-r", type=int, required=True)
    g.add_argument("--seed", required=True, help="hex seed")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_keygen)

    e = sub.add_parser("encrypt", help="encrypt a file")
    e.add_argument("--key", required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--seed", required=True, help="hex seed")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_encrypt)

    d = sub.add_parser("decrypt", help="decrypt a file")
    d.add_argument("--key", required=True)
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_decrypt)
    return p


def _errors():
    # an except clause evaluates this only once an exception arrives, so
    # table, search and bounds never load the code and crypto layers
    from .goppa import CapacityError, CodeConstructionError
    from .scheme import DecryptionError
    return (ValueError, CodeConstructionError, DecryptionError,
            CapacityError, OSError)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _errors() as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
