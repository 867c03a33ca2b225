"""Layer spans for the traced benchmark run.

The tracer wraps, from outside the library, the module-level names through
which one fracmean layer calls another (``fracmean.moments.np_principal_pow``,
``fracmean.distributions._sample_with``, ``fracmean.quad._de_finite``, ...).
Each wrapped call records a span ``(id, name, start_ns, end_ns, parent,
call_id, work)`` in memory; ``work`` is the count of work the call did
(values, draws, evaluations). A span's self time is its duration minus the
part of it that its child spans cover; children running in parallel
threads are merged before subtracting.
"""

import functools
import itertools
import threading
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

import fracmean.bounds
import fracmean.distributions
import fracmean.moments
import fracmean.principal
import fracmean.quad
import fracmean.verify

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "call_id", "work")

FAMILIES = {
    "Cauchy": "cauchy",
    "ScaledT3": "t3",
    "Poincare": "poincare",
    "TwoPoint": "atomic",
    "Empirical": "atomic",
}


def _size(args, out):
    return int(np.size(args[0]))


def _evaluations(args, out):
    return out.evaluations


def _draws(args, out):
    return int(args[2])


def _transform_values(args, out):
    transform = args[0]
    for attr in ("samples", "atoms"):
        if hasattr(transform, attr):
            return len(getattr(transform, attr))
    return 1  # closed-form transform: one value per call


def _sample_span(args):
    return "distributions.sample." + FAMILIES.get(type(args[1]).__name__, "other")


def _sites():
    """(owner, attribute, span name, work counter) for every wrapped name."""
    principal, moments, quad = fracmean.principal, fracmean.moments, fracmean.quad
    bounds, verify = fracmean.bounds, fracmean.verify
    return [
        (principal, "np_principal_log", "principal.log", _size),
        (moments, "np_principal_log", "principal.log", _size),
        (bounds, "np_principal_log", "principal.log", _size),
        (moments, "np_principal_pow", "principal.pow", _size),
        (bounds, "np_principal_pow", "principal.pow", _size),
        (quad, "principal_pow", "principal.scalar", None),
        (moments, "principal_pow", "principal.scalar", None),
        (verify, "principal_pow", "principal.scalar", None),
        (bounds, "principal_pow", "principal.scalar", None),
        (bounds, "principal_log", "principal.scalar", None),
        (principal, "gamma", "gammafn", None),
        (moments, "gamma", "gammafn", None),
        (verify, "gamma", "gammafn", None),
        (moments, "integrate_singular_decaying", "quad.integral", _evaluations),
        (moments, "integrate_marchaud", "quad.integral", _evaluations),
        (moments, "marchaud_unit_interval", "quad.integral", _evaluations),
        (quad, "_de_finite", "quad.segment", None),
        (quad, "_near_origin_model", "quad.marchaud", None),
        (fracmean.distributions, "_sample_with", _sample_span, _draws),
        (moments, "char_fn", "distributions.char", None),
        (moments, "char_fn_derivative", "distributions.char", None),
        (moments._NegTransform, "__call__", "moments.transform", _transform_values),
        (moments._PosTransformDerivs, "f_deriv_k", "moments.transform", _transform_values),
        (verify, "distinguish", "characterize.distinguish", None),
        (verify, "half_plane_bound_check", "bounds.check", None),
        (verify, "geometric_slln_demo", "bounds.slln", None),
    ]


class Tracer:
    """Spans of one traced pass, kept in memory until the pass is summarized."""

    def __init__(self):
        self.spans = []
        self.held_peaks = []  # peak live bytes of block results, per Monte Carlo call
        self.call_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []

    def reset(self):
        self.spans = []
        self.held_peaks = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def run(self, name, fn, args, kwargs, work=None, parent=None):
        """Call fn inside a span; list.append keeps this safe across threads."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        count = 0
        try:
            out = fn(*args, **kwargs)
            count = 1 if work is None else work(args, out)
            return out
        finally:
            self.spans.append((sid, name, start, time.perf_counter_ns(), parent, self.call_id, count))
            stack.pop()

    def root(self, call_id, fn):
        """One library call of the workload; its spans share call_id."""
        self.call_id = call_id
        return self.run("call", fn, (), {})

    def _wrap(self, fn, name, work):
        run = self.run
        if callable(name):

            def wrapper(*args, **kwargs):
                return run(name(args), fn, args, kwargs, work)

        else:

            def wrapper(*args, **kwargs):
                return run(name, fn, args, kwargs, work)

        return functools.update_wrapper(wrapper, fn)

    def _wrap_mc_mean(self, fn):
        """Spans for _mc_mean and for each block callback it runs, plus the
        peak bytes of block results alive at once."""
        tracer = self

        def wrapper(per_block_values, total, mc):
            def reduce_blocks():
                mc_span = tracer._stack()[-1]
                lock = threading.Lock()
                live = [0, 0]  # bytes alive now, peak

                def release(nbytes):
                    with lock:
                        live[0] -= nbytes

                def block(idx, size):
                    vals = tracer.run(
                        "moments.mc.block", per_block_values, (idx, size), {}, parent=mc_span
                    )
                    with lock:
                        live[0] += vals.nbytes
                        live[1] = max(live[1], live[0])
                    weakref.finalize(vals, release, vals.nbytes)
                    return vals

                out = fn(block, total, mc)
                tracer.held_peaks.append(live[1])
                return out

            return tracer.run("moments.mc", reduce_blocks, (), {}, work=lambda args, out: total)

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        for owner, attr, name, work in _sites():
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, work))
            self._installed.append((owner, attr, orig))
        orig = fracmean.moments._mc_mean
        fracmean.moments._mc_mean = self._wrap_mc_mean(orig)
        self._installed.append((fracmean.moments, "_mc_mean", orig))

    def uninstall(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)


def self_times(spans, children):
    """Self time in ns per span name."""
    own = Counter()
    for sid, name, start, end, *_ in spans:
        covered = 0
        lo = hi = None
        for _, _, c_start, c_end, *_ in sorted(children.get(sid, ()), key=lambda s: s[2]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        own[name] += end - start - covered
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, held_peaks, threads):
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json, and
    a table of calls, work and self time for every span name."""
    children, calls, work = defaultdict(list), Counter(), Counter()
    for span in spans:
        children[span[4]].append(span)
        calls[span[1]] += 1
        work[span[1]] += span[6]
    own = self_times(spans, children)

    def pick(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def self_s(prefix):
        return pick(own, prefix) * 1e-9

    m = {
        "principal.pow.self_s": self_s("principal.pow"),
        "principal.pow.values": work["principal.pow"],
        "principal.log.self_s": self_s("principal.log"),
        "principal.log.values": work["principal.log"],
        "principal.scalar.calls": calls["principal.scalar"],
        "principal.scalar.self_s": self_s("principal.scalar"),
        "gammafn.calls": calls["gammafn"],
        "gammafn.self_s": self_s("gammafn"),
    }
    for fam in ("", ".cauchy", ".t3", ".poincare", ".atomic"):
        key = "distributions.sample" + fam
        m[key + ".self_s"] = self_s(key)
        m[key + ".draws"] = pick(work, key)
        m[key + ".ns_per_draw"] = _ratio(pick(own, key), pick(work, key))
    m["distributions.char.calls"] = calls["distributions.char"]
    m["distributions.char.self_s"] = self_s("distributions.char")

    integrals, evals = calls["quad.integral"], work["quad.integral"]
    m.update(
        {
            "quad.integrals": integrals,
            "quad.evals": evals,
            "quad.evals_per_integral": _ratio(evals, integrals),
            "quad.self_s": self_s("quad"),
            "quad.us_per_eval": _ratio(pick(own, "quad") * 1e-3, evals),
            "quad.marchaud.calls": calls["quad.marchaud"],
            "quad.marchaud.self_s": self_s("quad.marchaud"),
        }
    )

    reduce_ns = busy_ns = capacity_ns = 0
    for span in spans:
        if span[1] != "moments.mc":
            continue
        blocks = [c for c in children.get(span[0], ()) if c[1] == "moments.mc.block"]
        if blocks:
            reduce_ns += span[3] - max(c[3] for c in blocks)
            busy_ns += sum(c[3] - c[2] for c in blocks)
        capacity_ns += (threads if len(blocks) > 1 else 1) * (span[3] - span[2])
    m.update(
        {
            "moments.mc.calls": calls["moments.mc"],
            "moments.mc.replications": work["moments.mc"],
            "moments.mc.blocks": calls["moments.mc.block"],
            "moments.mc.reduce_s": reduce_ns * 1e-9,
            "moments.mc.busy_frac": _ratio(busy_ns, capacity_ns),
            "moments.mc.held_bytes": max(held_peaks, default=0),
            "moments.transform.calls": calls["moments.transform"],
            "moments.transform.self_s": self_s("moments.transform"),
            "moments.transform.values": work["moments.transform"],
            "characterize.distinguish.self_s": self_s("characterize.distinguish"),
            "bounds.check.self_s": self_s("bounds.check"),
            "bounds.slln.self_s": self_s("bounds.slln"),
        }
    )
    table = {name: {"calls": calls[name], "work": work[name], "self_s": own[name] * 1e-9} for name in calls}
    return m, table


# metrics that count work; two traced passes at one seed must agree on them exactly
EXACT_COUNTS = tuple(
    name
    for name in summarize([], [], 1)[0]
    if name.rsplit(".", 1)[1] in ("values", "calls", "draws", "integrals", "evals", "replications", "blocks")
)
