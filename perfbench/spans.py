"""Span tracing of goppacrypt from the benchmark's side.

The package is not instrumented.  Instead ``Tracer.install`` replaces the
public functions of each module (and a few public methods) with wrappers
that record a span: name, start, end, parent span and op id.  Every module
namespace that holds a reference to a wrapped function is patched, so
calls between modules are traced too.  ``uninstall`` restores the
originals.

Hot leaf helpers (field and polynomial arithmetic, bit-matrix accessors,
``xor_permute``, the stream's byte reads) are not wrapped: their cost per
call is close to a wrapper's, so their time counts as the self time of
the traced caller.  Two of them get a plain counter instead of a span:
``Poly.eval`` (locator evaluations under decode spans) and
``scheme._unwrap`` (tag checks).
"""

import functools
import inspect
import time

LAYERS = ("gf2m", "binmat", "goppa", "decode", "dyadic", "scheme",
          "security", "tables", "cli", "prng")

# cheap per-call helpers whose time is left to their caller
LEAF_FUNCTIONS = {"dyadic.xor_permute", "dyadic.block_mul",
                  "dyadic.block_invertible"}

# public methods that are op-level entry points (the rest are arithmetic)
METHODS = {
    "scheme": {"KeyPair": ("from_bytes", "to_bytes", "code", "pub_matrix"),
               "Cryptogram": ("from_bytes", "to_bytes")},
    "prng": {"SeededStream": ("sample_distinct",)},
}

# the traced params child appends its spans to stderr after this marker
TRACE_MARKER = b"PERFBENCH-TRACE "

DECODERS = ("decode.patterson_decode", "decode.g2_decode",
            "decode.list_decode")


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self):
        # spans[sid] = (parent sid or -1, op id, name, t0, t1, ok)
        self.spans = []
        self.counts = {}
        self.op = -1  # the running op's id; nothing is recorded while < 0
        self._stack = []
        self._layers = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _span_wrapper(self, name, fn):
        spans, stack, layers = self.spans, self._stack, self._layers
        layer = name.split(".", 1)[0]
        counts_candidates = name in DECODERS
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:  # between ops: checks are not traced
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            layers.append(layer)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                layers.pop()
                spans[sid] = (parent, self.op, name, t0, t1, ok)
            if counts_candidates and (not layers or layers[-1] != "decode"):
                self._bump("decode.candidates", len(result.candidates))
            return result
        return traced

    def _eval_counter(self, fn):
        layers = self._layers

        @functools.wraps(fn)
        def counted(*args):
            if layers and layers[-1] == "decode":
                self.counts["decode.locator_evals"] = \
                    self.counts.get("decode.locator_evals", 0) + 1
            return fn(*args)
        return counted

    def _unwrap_counter(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            msg = fn(*args)
            if self.op < 0:
                return msg
            self._bump("scheme.tag_checks")
            if msg is None:
                self._bump("scheme.tag_rejects")
            return msg
        return counted

    # -- patching --------------------------------------------------------

    def install(self, package):
        """Wrap the package's entry points; returns the wrapped names."""
        modules = [getattr(package, name) for name in LAYERS]
        namespaces = [package] + modules
        replace = {}  # id(original) -> (original, wrapper)
        names = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or name in LEAF_FUNCTIONS):
                    continue
                replace[id(obj)] = (obj, self._span_wrapper(name, obj))
                names.append(name)
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in meths:
                    raw = cls.__dict__.get(meth) if cls else None
                    if raw is None:
                        continue
                    name = "%s.%s.%s" % (layer, cls_name, meth)
                    if isinstance(raw, classmethod):
                        new = classmethod(
                            self._span_wrapper(name, raw.__func__))
                    else:
                        new = self._span_wrapper(name, raw)
                    self._set(cls, meth, new)
                    names.append(name)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        poly = getattr(package.gf2m, "Poly", None)
        if poly is not None and "eval" in poly.__dict__:
            self._set(poly, "eval", self._eval_counter(poly.__dict__["eval"]))
        unwrap = getattr(package.scheme, "_unwrap", None)
        if unwrap is not None:
            self._set(package.scheme, "_unwrap", self._unwrap_counter(unwrap))
        return names

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- merging spans from a child process ------------------------------

    def export(self):
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, exported, op):
        """Append a child process's spans under op id ``op``."""
        base = len(self.spans)
        for parent, _, name, t0, t1, ok in exported["spans"]:
            self.spans.append((parent + base if parent >= 0 else -1, op,
                               name, t0, t1, ok))
        for key, val in exported["counts"].items():
            self._bump(key, val)


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(tracer, ops):
    """Per-layer self times and counts of a traced phase.

    ``ops`` is a list of (op id, start, end).  A span's self time is its
    duration minus that of its direct children; the bench side is op time
    not covered by any top-level span.  ``min_span_self_s`` < 0 or
    ``spans_outside_ops`` > 0 would mean the spans do not nest.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    calls = {}
    ok_calls = {}
    for parent, _, name, t0, t1, ok in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
        calls[name] = calls.get(name, 0) + 1
        if ok:
            ok_calls[name] = ok_calls.get(name, 0) + 1
    self_s = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    key_equations = 0
    g2_fallbacks = 0
    min_self = 0.0
    outside = 0  # top-level spans that do not lie inside their op
    bounds = {op: (t0, t1) for op, t0, t1 in ops}
    for sid, (parent, op, name, t0, t1, _) in enumerate(spans):
        own = (t1 - t0) - child_time[sid]
        self_s[layer_of(name)] += own
        min_self = min(min_self, own)
        if parent < 0:
            top += t1 - t0
            op_t0, op_t1 = bounds.get(op, (t1, t0))
            outside += not op_t0 <= t0 <= t1 <= op_t1
            parent_layer = None
        else:
            parent_layer = layer_of(spans[parent][2])
        if name == "gf2m.eea_stop" and parent_layer == "decode":
            key_equations += 1
        if name == "decode.g2_decode" and parent_layer != "decode":
            g2_fallbacks += 1
    op_time = sum(t1 - t0 for _, t0, t1 in ops)
    counts = dict(tracer.counts)
    return {
        "op_time_s": op_time,
        "self_s": self_s,
        "bench_s": op_time - top,
        "min_span_self_s": min_self,
        "spans_outside_ops": outside,
        "calls": calls,
        "ok_calls": ok_calls,
        "key_equations": key_equations,
        "g2_fallbacks": g2_fallbacks,
        "counts": counts,
    }
