"""Interpreter speed probe, for end-to-end metrics that do not drift with
the machine.

On a shared machine the speed at which one core runs the same Python
code changes by up to 1.7x from one minute to the next, while CPU time
stays equal to wall time (nothing is descheduled, everything is slower),
and the two cores can differ.  So the benchmark pins itself and its
children to the core it started on, and times a fixed kernel between ops
(at most every PROBE_EVERY_S) and during each set-up (see ``timed``).
The kernel is the benchmark's own copy of shift-and-add GF(2^m)
multiplication, written like the package's arithmetic but not shared
with it, so a change to the package cannot move it.  A speed factor is a
probe time over PROBE_NOMINAL_S.  The end-to-end metrics divide each
op's wall time by the factor of the probe just before it: they read as
wall times on a machine where the probe takes PROBE_NOMINAL_S.  The
REPORT line keeps the raw wall times.
"""

import os
import signal
import statistics
import time

PROBE_NOMINAL_S = 0.001
PROBE_EVERY_S = 0.1
# a set-up is one long call into the package, so a timer signal
# interrupts it to probe; the speed changes within a second
TIMED_PROBE_EVERY_S = 0.05


class _Field:
    __slots__ = ("modulus", "top")

    def __init__(self, m, modulus):
        self.modulus, self.top = modulus, 1 << m

    def mul(self, a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & self.top:
                a ^= self.modulus
        return out


_FIELD = _Field(10, 0b10000001001)


def _kernel():
    mul = _FIELD.mul
    a = 0x155
    acc = []
    for i in range(600):
        a = mul(a, 0x2ab ^ (i & 511)) ^ 1
        acc.append(a)
    return sum(acc)


def pin_to_current_cpu():
    """Restrict this process (and later children) to the CPU it is on;
    returns that CPU, or None where that cannot be done."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return cpu


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self):
        """Time the kernel (best of three); returns the current factor."""
        perf = time.perf_counter
        best = float("inf")
        for _ in range(3):
            t0 = perf()
            _kernel()
            best = min(best, perf() - t0)
        self.samples.append(best)
        self._last = perf()
        return best / PROBE_NOMINAL_S

    def maybe_sample(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def timed(self, fn):
        """Run ``fn()`` with the probe taken every TIMED_PROBE_EVERY_S from
        a timer signal.  Returns its wall time and its speed-normalized
        time, the probes' own time left out of both: each stretch between
        two probes is divided by the mean of their factors."""
        perf = time.perf_counter
        marks = []  # (probe start, probe end, factor)
        busy = []

        def probe(*_):
            if busy:  # a signal that lands inside a probe is dropped
                return
            busy.append(True)
            t0 = perf()
            factor = self.sample()
            marks.append((t0, perf(), factor))
            busy.pop()

        probe()
        old = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, TIMED_PROBE_EVERY_S,
                         TIMED_PROBE_EVERY_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        probe()
        raw = norm = 0.0
        for (_, end, f0), (start, _, f1) in zip(marks, marks[1:]):
            raw += start - end
            norm += (start - end) / ((f0 + f1) / 2)
        return raw, norm

    def current(self):
        """The latest probe over nominal: above 1 on a slow machine."""
        return self.samples[-1] / PROBE_NOMINAL_S

    def report(self):
        return {"probes": len(self.samples),
                "factor_median": statistics.median(self.samples)
                / PROBE_NOMINAL_S,
                "probe_s_nominal": PROBE_NOMINAL_S}
