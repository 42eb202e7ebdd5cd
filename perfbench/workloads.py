"""The benchmark's three closed-loop workloads: files, library, params.

Each workload derives every timed op's key seed, message, error seed and
search draw from the workload seed, and hands the package only those
generated inputs.  Set-up keys and warm-up ciphertexts come from a fixed
label instead, the same for every workload seed and every set-up
repetition: a key takes a geometric number of generation attempts, so
seeded set-up keys would make ``setup_s`` move with the seed rather than
with the program.

``ops()`` yields an endless, seed-determined sequence of ``Op``s; run.py
times ``op.run()`` and then calls ``op.check(result, error)`` outside
the timed region, which returns an ``Outcome``.

An op either succeeds, fails in a known way (a documented defect of the
package) or fails in an unexpected way.  Only the last makes the run
incorrect.  The timed ops are chosen so that none fails: every op of a
known defect is in ``defects()`` instead, a fixed list that run.py runs
once per run, untimed and outside the op count, so the defects stay
visible without making the failed count depend on how many ops a run
got through.
"""

import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time

from spans import TRACE_MARKER

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 120

# rows of tables 1-3 whose printed values the recomputation cannot
# reproduce, keyed by (table, n, method); the CLI must flag exactly these
KNOWN_BAD_ROWS = {
    1: {(2868, "LD")},
    2: {(2816, "LD")},
    3: {(5120, "LD"), (5632, "LD")},
    4: set(),
}
SEARCH_HEADER = "method,m,n,k,r,tau2,wf,keysize,gain"
# the README's example search and the row it documents
ANCHOR_ARGS = ("128", "--variant", "dyadic", "--decoder", "ld",
               "--countermeasure", "cm1")
ANCHOR_ROW = ["LD", "12", "3072", "1536", "128", "134", "129.433", "18432"]

def derive(seed, *labels):
    """32 bytes determined by the workload seed and a label path."""
    text = "/".join(["perfbench", str(seed)] + [str(x) for x in labels])
    return hashlib.sha256(text.encode()).digest()


def setup_seed(*labels):
    """A set-up key seed: fixed, whatever the workload seed."""
    return derive("setup", *labels)


def message(seed, limit, *labels):
    """A seeded plaintext of 1 to min(7, limit) bytes."""
    raw = derive(seed, "msg", *labels)
    return raw[1:2 + raw[0] % min(7, limit)]


class Outcome:
    __slots__ = ("status", "reason", "artifacts")

    def __init__(self, status, reason="", artifacts=()):
        self.status = status  # "ok", "known" or "bad"
        self.reason = reason
        self.artifacts = artifacts


def ok(*artifacts):
    return Outcome("ok", "", artifacts)


def bad(reason):
    return Outcome("bad", reason, (("bad:" + reason).encode(),))


def known(reason, *artifacts):
    return Outcome("known", reason, (("known:" + reason).encode(),)
                   + artifacts)


def error_reason(error):
    return "%s: %s" % (type(error).__name__, error)


class Op:
    __slots__ = ("kind", "group", "run", "check")

    def __init__(self, kind, run, check, group=None):
        self.kind = kind  # keygen, encrypt, decrypt_ud, decrypt_ld, search, table
        self.group = group or kind  # latency group for the summary
        self.run = run
        self.check = check


def key_identity(blob):
    """The (support, G) part of a key file, which fixes every cache key."""
    m = blob[7]
    n, r = (int.from_bytes(blob[8 + 4 * i:12 + 4 * i], "big")
            for i in (0, 2))
    span = (n * m + 7) // 8 + ((r + 1) * m + 7) // 8
    return hashlib.sha256(blob[7:28] + blob[28:28 + span]).digest()


class FreshKeys:
    """Asserts that no (support, G) pair is generated twice."""

    def __init__(self):
        self.seen = set()
        self.duplicates = 0

    def add(self, blob):
        ident = key_identity(blob)
        if ident in self.seen:
            self.duplicates += 1
            return False
        self.seen.add(ident)
        return True


class Workload:
    name = ""
    groups = ()  # latency groups whose percentiles are summarized
    digest_ops = 12  # every run runs and digests at least these ops
    setup_reps = 5  # identical set-ups per run; setup_s is their median

    def __init__(self, pkg, root, seed):
        self.pkg = pkg
        self.root = root
        self.seed = seed
        self.tracer = None
        self.fresh = FreshKeys()
        self.setup_artifacts = []

    def setup(self):
        """One set-up; the last repetition's state is kept."""

    def rewarm(self):
        """Refill per-key caches after the package's memos were cleared."""

    def reset(self):
        """Forget generated keys, so the op sequence can be replayed."""
        self.fresh = FreshKeys()

    def ops(self):
        raise NotImplementedError

    def defects(self):
        """The ops of the package's known defects, run once per run."""
        return []


class Files(Workload):
    """The CLI file path, in-process: keygen, encrypt, decrypt sessions."""

    name = "files"
    groups = ("keygen", "encrypt", "decrypt_ud")
    digest_ops = 15  # five sessions
    setup_reps = 9
    PARAMS = ("dyadic", 10, 256, 16, "ud")

    def setup(self):
        # one warm-up session on a key no timed op uses
        blob = self.pkg.keygen(*self.PARAMS, setup_seed(
            "files", "warmup")).to_bytes()
        msg = message("setup", 7, "files", "warmup")
        ct = self._encrypt(blob, msg, setup_seed("files", "warmup-err"))
        if self._decrypt(blob, ct) != msg:
            raise RuntimeError("warm-up session did not round-trip")

    def _encrypt(self, blob, msg, err_seed):
        pkg = self.pkg
        kp = pkg.KeyPair.from_bytes(blob)
        return pkg.encrypt(kp, msg, err_seed).to_bytes()

    def _decrypt(self, blob, ct):
        pkg = self.pkg
        kp = pkg.KeyPair.from_bytes(blob)
        return pkg.decrypt(kp, pkg.Cryptogram.from_bytes(ct))

    def ops(self):
        pkg = self.pkg
        for i in itertools.count():
            key_seed = derive(self.seed, "files", "key", i)
            err_seed = derive(self.seed, "files", "err", i)
            msg = message(self.seed, 7, "files", i)
            state = {}

            def keygen(key_seed=key_seed):
                return pkg.keygen(*self.PARAMS, key_seed).to_bytes()

            def check_keygen(blob, error, state=state):
                if error is not None:
                    return bad("keygen " + error_reason(error))
                if not self.fresh.add(blob):
                    return bad("keygen repeated a (support, G) pair")
                state["key"] = blob
                return ok(blob)

            def encrypt(state=state, msg=msg, err_seed=err_seed):
                return self._encrypt(state["key"], msg, err_seed)

            def check_encrypt(ct, error, state=state):
                if error is not None:
                    return bad("encrypt " + error_reason(error))
                state["ct"] = ct
                return ok(ct)

            def decrypt(state=state):
                return self._decrypt(state["key"], state["ct"])

            def check_decrypt(plain, error, msg=msg):
                if error is not None:
                    return bad("decrypt " + error_reason(error))
                if plain != msg:
                    return bad("decrypt returned the wrong plaintext")
                return ok(plain)

            yield Op("keygen", keygen, check_keygen)
            yield Op("encrypt", encrypt, check_encrypt)
            yield Op("decrypt_ud", decrypt, check_decrypt)


class Library(Workload):
    """A long-lived process holding warm keys; keygen and decrypts."""

    name = "library"
    groups = ("keygen", "decrypt_ud", "decrypt_ld")
    digest_ops = 24  # every pooled ciphertext of both timed keys once
    setup_reps = 3  # each takes seconds
    POOL = 8  # pre-encrypted ciphertexts per held key
    HELD = (("ud", ("dyadic", 11, 1024, 32, "ud")),
            ("ld", ("generic", 8, 144, 8, "ld")),
            ("ld24", ("generic", 8, 256, 24, "ld")))
    KEYGEN = ("generic", 9, 256, 12, "ud")

    def setup(self):
        pkg = self.pkg
        self.held = held = {}  # the previous repetition's keys are freed
        for label, params in self.HELD:
            try:
                kp = pkg.keygen(*params, setup_seed("library", "held", label))
            except (ValueError, RuntimeError) as exc:
                # a refusal of the r=24 key is a documented, typed outcome
                if label != "ld24":
                    raise
                held[label] = (None, exc, [])
                continue
            pool = []
            for j in range(self.POOL):
                msg = message(self.seed, kp.capacity(), "library", label, j)
                err_seed = derive(self.seed, "library", "err", label, j)
                pool.append((msg, pkg.encrypt(kp, msg, err_seed)))
            held[label] = (kp, None, pool)
            self._warm(label, kp)
        self.reset()
        self.setup_artifacts = []
        for kp, _, pool in held.values():
            if kp is not None:
                self.setup_artifacts.append(kp.to_bytes())
                self.setup_artifacts.extend(ct.to_bytes() for _, ct in pool)

    def _warm(self, label, kp):
        """Fill the key's caches by decrypting a fixed set-up ciphertext."""
        pkg = self.pkg
        msg = message("setup", kp.capacity(), "library", label)
        ct = pkg.encrypt(kp, msg, setup_seed("library", "warm", label))
        try:
            pkg.decrypt(kp, ct)
        except (pkg.CapacityError, ValueError):
            if label != "ld24":  # the known defect; the key is warm
                raise

    def rewarm(self):
        for label, (kp, _, _) in self.held.items():
            if kp is not None:
                self._warm(label, kp)

    def reset(self):
        self.fresh = FreshKeys()
        for kp, _, _ in self.held.values():
            if kp is not None:
                self.fresh.add(kp.to_bytes())

    def _decrypt_op(self, kind, label, j):
        pkg = self.pkg
        kp, refusal, pool = self.held[label]
        msg, ct = pool[j % self.POOL] if pool else (None, None)

        def decrypt():
            if kp is None:
                raise refusal
            return pkg.decrypt(kp, ct)

        def check_decrypt(plain, error):
            if error is not None:
                if label == "ld24" and isinstance(
                        error, (pkg.CapacityError, ValueError)):
                    return known("r=24 LD key: " + error_reason(error))
                return bad("decrypt " + error_reason(error))
            if plain != msg:
                return bad("decrypt returned the wrong plaintext")
            return ok(plain)

        return Op(kind, decrypt, check_decrypt)

    def defects(self):
        # ROADMAP item 5: the r=24 key has no workable multiplicity
        return [self._decrypt_op("decrypt_ld", "ld24", 0)]

    def ops(self):
        pkg = self.pkg
        for i in itertools.count():
            key_seed = derive(self.seed, "library", "key", i)

            def keygen(key_seed=key_seed):
                return pkg.keygen(*self.KEYGEN, key_seed)

            def check_keygen(kp, error):
                if error is not None:
                    return bad("keygen " + error_reason(error))
                blob = kp.to_bytes()
                if not self.fresh.add(blob):
                    return bad("keygen repeated a (support, G) pair")
                return ok(blob)

            yield Op("keygen", keygen, check_keygen)
            yield self._decrypt_op("decrypt_ud", "ud", i)
            yield self._decrypt_op("decrypt_ld", "ld", i)


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class Params(Workload):
    """One fresh interpreter per CLI command: tables, then searches."""

    name = "params"
    groups = ("search_generic", "search_dyadic")
    digest_ops = 17  # the tables, the README search, one block of twelve
    setup_reps = 15  # each is one child interpreter of about 0.1 s
    # generic searches ignore --countermeasure (a known defect, run by
    # defects()), so timed generic searches ask for none, three times per
    # decoder, to keep six searches of each variant in a block
    COMBOS = (("generic", "ud", "none"), ("generic", "ld", "none")) * 3 + \
        tuple(itertools.product(("dyadic",), ("ud", "ld"),
                                ("none", "cm1", "cm2")))
    # two observed cases: cm2 returns m=12, and cm1 at T=80
    # returns r=42, n=1895, so r(r+1) <= n
    DEFECTS = (("128", "--variant", "generic", "--decoder", "ud",
                "--countermeasure", "cm2"),
               ("80", "--variant", "generic", "--decoder", "ud",
                "--countermeasure", "cm1"))

    def __init__(self, pkg, root, seed):
        super().__init__(pkg, root, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.startup_s = []

    def setup(self):
        # start one interpreter and check that it imports this checkout
        out = subprocess.run(
            [sys.executable, "-c", "import goppacrypt.cli as c; "
             "print(c.__file__)"], cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        want = os.path.join(self.root, "src", "goppacrypt", "cli.py")
        got = out.stdout.strip()
        if out.returncode or os.path.realpath(got) != os.path.realpath(want):
            raise RuntimeError("child imports goppacrypt from %r, not %r"
                               % (got, want))

    def commands(self):
        """Tables 1-4, the README's search, then seeded searches.

        Each block of twelve searches runs every entry of COMBOS once, in
        a seeded order.  Targets are integers in
        [60, 300]; a variant's six targets in a block fall one in each
        sixth of the range (stratified), since search time grows with
        the target and a run holds only about eight blocks.
        """
        for num in (1, 2, 3, 4):
            yield "table", ("table", str(num))
        yield "search", ("search",) + ANCHOR_ARGS
        rng = random.Random(derive(self.seed, "params", "draws"))
        while True:
            block = list(self.COMBOS)
            rng.shuffle(block)
            strata = {"generic": list(range(6)), "dyadic": list(range(6))}
            for cells in strata.values():
                rng.shuffle(cells)
            for variant, decoder, cm in block:
                cell = strata[variant].pop()
                target = 60 + cell * 40 + rng.randrange(41 if cell == 5
                                                        else 40)
                yield "search", ("search", str(target), "--variant", variant,
                                 "--decoder", decoder,
                                 "--countermeasure", cm)

    def _spawn(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "goppacrypt.cli"] + list(argv)
        else:
            cmd = [sys.executable, CHILD, repr(time.perf_counter())] + \
                list(argv)
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if self.tracer is not None:
            err = self._take_trace(err)
        return proc.returncode, out.decode(), err.decode()

    def _take_trace(self, err):
        # the traced child appends its spans to stderr after a marker
        at = err.rfind(TRACE_MARKER)
        if at < 0:
            raise RuntimeError("traced child sent no spans")
        data = json.loads(err[at + len(TRACE_MARKER):])
        self.tracer.merge(data, self.tracer.op)
        self.startup_s.append(data["startup_s"])
        return err[:at]

    def ops(self):
        for kind, argv in self.commands():
            if kind == "table":
                group = "table"
                check = self._table_check(int(argv[1]))
            else:
                group = "search_" + argv[3]
                check = self._search_check(argv)

            def run(argv=argv):
                return self._spawn(argv)

            yield Op(kind, run, check, group)

    def defects(self):
        return [Op("search", lambda argv=("search",) + args: self._spawn(argv),
                   self._search_check(("search",) + args), "search_generic")
                for args in self.DEFECTS]

    @staticmethod
    def _table_check(num):
        def check(res, error):
            if error is not None:
                return bad("table %d %s" % (num, error_reason(error)))
            code, out, _ = res
            if code != (0 if num == 4 else 2):
                return bad("table %d exited %d" % (num, code))
            rows = parse_csv(out)
            if num == 4:
                if rows[0] != ["level", "dlp", "mceliece", "ratio"] or \
                        len(rows) != 6:
                    return bad("table 4 output malformed")
                return ok(out.encode())
            head = rows[0]
            if head[-1] != "status" or len(rows) < 2:
                return bad("table %d output malformed" % num)
            flagged = {(int(row[2]), row[0]) for row in rows[1:]
                       if row[-1] == "MISMATCH"}
            if flagged != KNOWN_BAD_ROWS[num]:
                return bad("table %d flags %s" % (num, sorted(flagged)))
            return ok(out.encode())
        return check

    @staticmethod
    def _search_check(argv):
        target = float(argv[1])
        variant, decoder, cm = argv[3], argv[5], argv[7]
        anchor = tuple(argv[1:]) == ANCHOR_ARGS

        def check(res, error):
            if error is not None:
                return bad("search " + error_reason(error))
            code, out, err = res
            if code != 0:
                return bad("search exited %d: %s" % (code, err.strip()))
            rows = parse_csv(out)
            if len(rows) != 2 or ",".join(rows[0]) != SEARCH_HEADER:
                return bad("search output malformed")
            row = rows[1]
            m, n, k, r = (int(v) for v in row[1:5])
            if row[0] != decoder.upper() or float(row[6]) < target or \
                    k != n - m * r:
                return bad("search row %s fails its checks" % row)
            if anchor and row[:8] != ANCHOR_ROW:
                return bad("README anchor row is %s" % row)
            holds = {"none": True, "cm1": r * (r + 1) > n,
                     "cm2": m == 16}[cm]
            if not holds:
                if variant == "generic":
                    return known("generic search ignores --countermeasure",
                                 out.encode())
                return bad("dyadic search violates %s" % cm)
            return ok(out.encode())
        return check


WORKLOADS = {w.name: w for w in (Files, Library, Params)}
