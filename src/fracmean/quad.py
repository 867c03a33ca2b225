"""Semi-infinite quadrature for the two integral shapes of fractional calculus.

Two entry points:

* ``integrate_singular_decaying`` handles ``int_0^inf t**s g(t) dt`` where the
  algebraic factor t**s (Re s > -1) carries an endpoint singularity; the tail
  [1, inf) is mapped onto (0, 1] by t = 1/v, so g needs no known decay rate.
* ``integrate_marchaud`` handles the difference quotient
  ``int_0^inf (d0 - f(u)) / u**(1+delta) du`` with 0 < Re(delta) < 1.

Both are built on one tanh-sinh (double exponential) trapezoid kernel with
level refinement.  ``tanh_sinh_nodes`` gives the rule, computed once per
level and floor, to the laws' node rules; the kernel reads each level's
nodes from the same computation, held as distances from the endpoints.  An
integrand returns a number or a pair (value, companion) of numbers, such as
a quantity and the gap between two levels of the rule behind it; a number v
counts as the pair (v, 0).  Both components are summed at the same nodes,
but the value alone decides where a walk stops, when the levels stop and
whether the origin is Lipschitz, so adding a companion leaves the value's
bits unchanged; the companion gets its own error estimate.

An integrand may instead take a chunk of nodes per call (``chunked``): a
list of abscissae in, a pair of sequences out.  The walk then asks it for
the nodes of a level in a few calls, each within a fixed budget of floats
over the integrand's width, the first reaching as far as the level before
walked; it still adds the terms one by one, in the same order, and stops
where a node-by-node walk stops, so a chunked integrand gives the bits and
the evaluation count of its scalar form.  A scalar integrand runs on the
same walk, adapted once into a chunked one that is given one node per
call.

The Marchaud route needs special care at the origin: for small u the
difference d0 - f(u) drowns in rounding noise while the weight u**(-1-delta)
amplifies it, so below a fixed cut the ratio (d0 - f(u))/u is replaced by a
fitted polynomial model whose moments integrate in closed form.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .principal import principal_pow

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "NonConvergenceError",
    "QuadraturePreconditionError",
    "integrate_singular_decaying",
    "integrate_marchaud",
    "marchaud_unit_interval",
    "tanh_sinh_nodes",
    "chunked",
    "chunk_size",
]

_EPS = 2.220446049250313e-16
_U_MAX = 6.0  # tanh-sinh abscissa range; beyond this weights underflow
# floats one call of a chunked integrand may hold, 960 kB: on the t3 and
# Poincare fractional-derivative power means, budgets of 60,000 and 480,000
# floats ran slower and 240,000 about as fast
_CHUNK_FLOATS = 120_000


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_level: int = 10

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):  # nan fails too
            raise ValueError("tolerances must be finite and positive")
        if not 3 <= self.max_level <= 14:
            raise ValueError("max_level must lie in [3, 14]")


@dataclass
class IntegralResult:
    """An integral, its error estimate and the evaluations it took; the
    companion component of a pair integrand, with its own error estimate,
    is 0 for a plain one."""

    value: complex
    err_estimate: float
    evaluations: int
    companion: complex = 0j
    companion_err: float = 0.0

    def __post_init__(self):
        if self.err_estimate < 0 or self.companion_err < 0 or self.evaluations <= 0:
            raise ValueError("malformed integral result")


class NonConvergenceError(RuntimeError):
    """Refinements still disagree beyond tolerance at the level cap."""

    def __init__(self, message, value=None, err_estimate=None, evaluations=0):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.evaluations = evaluations


class QuadraturePreconditionError(ValueError):
    """The integrand visibly violates the contract of the routine."""


class _EvalCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _pair(value):
    """A value of an integrand as a (value, companion) pair."""
    return value if type(value) is tuple else (value, 0.0)


def chunked(f, width):
    """Mark f as an integrand of chunks and return it: f(ts) takes a list of
    abscissae and returns the pair (values, companions) of sequences, one
    entry per abscissa; width is how many floats it holds per abscissa,
    which sets how many abscissae one call is given."""
    f.width = width
    return f


def chunk_size(width):
    """The most abscissae one call of a chunked integrand of that width is
    given."""
    return max(1, _CHUNK_FLOATS // max(width, 1))


def _chunks_of(f):
    """f as an integrand of chunks: f itself if it is one, else the scalar
    (or pair) integrand f called at each abscissa of a chunk, at a width
    that fills a call's budget, so that each call is given one abscissa."""
    if hasattr(f, "width"):
        return f

    def each(ts):
        pairs = [_pair(f(t)) for t in ts]
        return [value for value, _ in pairs], [companion for _, companion in pairs]

    return chunked(each, _CHUNK_FLOATS)


def _evaluations(f, nodes, end, step, first):
    """(t, value, companion, dist, weight) at each (dist, weight) of nodes in
    turn, t = end + step * dist, from calls of the chunked integrand f made
    as they are consumed: on the first `first` nodes, then on three at a
    time, never on more than its chunk size.  A consumer that stops early
    leaves the later nodes uncomputed."""
    size, start = chunk_size(f.width), 0
    while start < len(nodes):
        chunk = nodes[start : start + min(size, max(first - start, 3))]
        ts = [end + step * dist for dist, _ in chunk]
        values, companions = f(ts)
        for t, value, companion, (dist, weight) in zip(ts, values, companions, chunk):
            yield t, value, companion, dist, weight
        start += len(chunk)


def _window(f, us):
    """_evaluations of the integrand f, a pair one or not, at each u of the
    positive array us, as a list."""
    pairs = _composed(f, lambda u, value, companion: (value, companion))
    return list(_evaluations(pairs, [(u, 0.0) for u in us.tolist()], 0.0, 1.0, len(us)))


def _composed(f, post, pre=None):
    """The chunked integrand t -> post(t, value, companion) of the pair f(x),
    x = pre(t) or t itself, of the width of f's chunked form."""
    f = _chunks_of(f)

    def each(ts):
        values, companions = f(ts if pre is None else [pre(t) for t in ts])
        # lists: CPython resizes a tuple built from an iterator of unknown
        # length, and keeps every one freed on the free list of its new size,
        # up to 2,000 per size, so varying chunk sizes would pile them up
        pairs = list(map(post, ts, values, companions))
        return [value for value, _ in pairs], [companion for _, companion in pairs]

    return chunked(each, f.width)


def _tanh_sinh_rule(level, floor):
    """The rule of tanh_sinh_nodes, computed afresh."""
    h = 2.0 ** -level
    k = np.arange(-int(_U_MAX / h), int(_U_MAX / h) + 1)
    u = h * k
    w = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(w))
    weight = 2.0 * math.pi * h * np.cosh(u) * e / (1.0 + e) ** 2  # h (pi/2) cosh(u) sech(w)**2
    keep = weight > floor
    return np.tanh(w)[keep], (2.0 * e / (1.0 + e))[keep], weight[keep], k[keep]


@functools.cache
def tanh_sinh_nodes(level, floor):
    """Tanh-sinh rule on (-1, 1) at spacing h = 2**-level out to |u| = 6, as
    read-only arrays (t, 1 - |t|, weight, k), k the integer with u = k h,
    without the nodes lighter than floor; the distances stay resolved where
    t rounds to +-1.  The rules nest: the nodes of even k are the nodes of
    level - 1, bit for bit, at half the weight they have there.  Each rule
    is computed once, for the node rules of the laws."""
    rule = _tanh_sinh_rule(level, floor)
    for part in rule:
        part.flags.writeable = False
    return rule


@functools.cache
def _level_nodes(level):
    """The nodes u = k h, k > 0, that level adds to the rule (every k at
    level 0, odd k above) as (1 - |t|, weight) pairs of Python floats; the
    rule is symmetric, so they serve both endpoints.  The full tables of
    the finer levels, 0.8 MB up to level 10, are not kept."""
    _, dist, weight, _ = _tanh_sinh_rule(level, 0.0)
    side = slice(len(dist) // 2 + 1, None, 2 if level else 1)
    return tuple(zip(dist[side].tolist(), weight[side].tolist()))


def _de_sum_level(f, a, b, level, counter, reach=(1.0, 1.0), ahead=(6, 6)):
    """The terms that level adds to the tanh-sinh sums of the chunked pair
    integrand f over (a, b): the sum of each component, the sum of the sizes
    of each, per end (b, then a) the |term| and 1 - |t| of the value's
    largest term, and per end how many nodes the next level should ask f
    for first, ahead giving this level's.  The terms are added one by one,
    outward from the centre, and a walk stops on the value's terms alone."""
    half = 0.5 * (b - a)
    total = other = 0.0 + 0.0j
    if level == 0:  # center node u = 0
        ((_, value, companion, _, _),) = _evaluations(f, ((1.0, 0.0),), a, half, 1)
        total += value * (half * math.pi / 2.0)
        other += companion * (half * math.pi / 2.0)
        counter.count += 1
    size, other_size = abs(total), abs(other)
    nodes = _level_nodes(level)
    peaks, plans = [], []
    for end, sign, limit, first in ((b, -1.0, reach[0], ahead[0]), (a, 1.0, reach[1], ahead[1])):
        tiny_run, peak, used = 0, (0.0, 1.0), 0
        for t, value, companion, dist, weight in _evaluations(f, nodes, end, sign * half, first):
            term = value * (half * weight)
            extra = companion * (half * weight)
            counter.count += 1
            used += 1
            if not (cmath.isfinite(term) and cmath.isfinite(extra)):
                raise NonConvergenceError(
                    f"integrand not finite at t={t!r}", evaluations=counter.count
                )
            total += term
            other += extra
            mag = abs(term)
            size += mag
            other_size += abs(extra)
            peak = max(peak, (mag, dist))
            if mag <= _EPS * abs(total) + 1e-300:
                tiny_run += 1
                if tiny_run >= 3 and dist < limit:
                    break
            else:
                tiny_run = 0
        peaks.append(peak)
        # the next level puts a node between each two of this walk's, so
        # 2 used - 5 of its nodes lie short of the last three terms here
        # (used - 2 after level 0, whose nodes are u = 1, 2, ...): it asks
        # first for those and three more
        plans.append(2 * used - 2 if level else used + 1)
    return (total, other), (size, other_size), peaks, tuple(plans)


def _de_finite(f, a, b, cfg, counter):
    """Tanh-sinh integral of the pair integrand f over (a, b); f, scalar or
    chunked (a scalar one is adapted by _chunks_of), is never called at the
    endpoints.

    An integral splits into at most two such segments, each held to half of
    cfg.abs_tol.  Returns (value, err_estimate, size) for each component,
    size being the sum of |term| of the last level; the value alone decides
    the levels, and NonConvergenceError is raised when its last two
    refinements still disagree beyond tolerance at cfg.max_level.
    """
    f = _chunks_of(f)
    abs_tol = 0.5 * cfg.abs_tol
    rel_tol = cfg.rel_tol
    (value, other), (size, other_size), peaks, ahead = _de_sum_level(f, a, b, 0, counter)
    # a walk stops after three negligible terms, but not short of its side's largest
    # level-0 term: an integrand held near one end can be negligible at the centre
    reach = tuple(dist if term > _EPS * abs(value) else 1.0 for term, dist in peaks)
    err = other_err = math.inf
    for level in range(1, cfg.max_level + 1):
        (added, added_other), (added_size, added_other_size), _, ahead = _de_sum_level(
            f, a, b, level, counter, reach, ahead
        )
        refined = 0.5 * value + added
        refined_other = 0.5 * other + added_other
        size = 0.5 * size + added_size
        other_size = 0.5 * other_size + added_other_size
        err, other_err = abs(refined - value), abs(refined_other - other)
        value, other = refined, refined_other
        if level >= 2 and err <= max(abs_tol, rel_tol * abs(value)):
            break
    floor = 4.0 * _EPS * abs(value)
    err = max(err, floor)
    if err > max(abs_tol, rel_tol * abs(value)) and err > floor:
        raise NonConvergenceError(
            f"tanh-sinh on ({a:g}, {b:g}) did not converge: err={err:.3e}",
            value=value,
            err_estimate=err,
            evaluations=counter.count,
        )
    return (value, err, size), (other, max(other_err, 4.0 * _EPS * abs(other)), other_size)


def integrate_singular_decaying(g, s, cfg=None):
    """int_0^inf t**s g(t) dt for complex s, Re s > -1, and t**s g(t)
    integrable at infinity, for each component of g; t**s is principal,
    t**Re(s) e^{i Im(s) log t}, and a real s stays a float.

    Both stretches run on tanh-sinh over (0, 1]: the singular one as it
    stands, the tail [1, inf) through t = 1/v as int_0^1 v**(-s-2) g(1/v) dv,
    so no decay rate, truncation point or tail bound enters: an integrand
    that decays only algebraically is as welcome as an exponential one.
    Besides the level gaps, the error estimate carries the rounding of the
    terms, 4 eps (2 + |s|) times the sum of their sizes, since t**s and the
    phases of g lose relative accuracy in proportion to |s| where the terms
    cancel; the companion's adds twice the value's, as for a difference of
    two quantities of the value's size.
    """
    cfg = cfg or QuadratureConfig()
    s = complex(s)
    s = s.real if s.imag == 0 else s
    if s.real <= -1.0:
        raise QuadraturePreconditionError("need Re s > -1 for integrability at 0")
    counter = _EvalCounter()

    def head_term(t, value, companion):
        scale = t ** s
        return scale * value, scale * companion

    def tail_term(v, value, companion):
        if value == 0 and companion == 0:  # underflowed: v**(-s-2) may be past the float range
            return 0j, 0j
        try:
            scale = v ** (-s - 2.0)
        except OverflowError:  # past the float range: a term the walk reports as not finite
            return complex(math.inf), complex(math.inf)
        return scale * value, scale * companion

    (v1, e1, a1), (c1, ce1, ca1) = _de_finite(_composed(g, head_term), 0.0, 1.0, cfg, counter)
    (v2, e2, a2), (c2, ce2, ca2) = _de_finite(_composed(g, tail_term, lambda v: 1.0 / v), 0.0, 1.0, cfg, counter)
    rounding = 4.0 * _EPS * (2.0 + abs(s)) * (a1 + a2)
    # a companion that differences two quantities of the value's size
    # carries the rounding of both
    companion_rounding = 4.0 * _EPS * (2.0 + abs(s)) * (ca1 + ca2) + 2.0 * rounding
    return IntegralResult(v1 + v2, e1 + e2 + rounding, counter.count, c1 + c2, ce1 + ce2 + companion_rounding)


_MARCHAUD_CUT = 1e-4          # below this, d0 - f(u) is replaced by the fitted model
_MARCHAUD_FIT_LO = 3e-5       # fit window (log-spaced) for the model of (d0-f)/u
_MARCHAUD_FIT_HI = 1e-2
_MARCHAUD_PROBE_LO = 1e-6     # probe window for the Lipschitz precondition


@functools.cache
def _fit_window():
    """Abscissae of the near-origin fit, the cubic basis on them and its
    pseudo-inverse, from lstsq: np.linalg.pinv's SVD maps more of LAPACK."""
    us = np.logspace(math.log10(_MARCHAUD_FIT_LO), math.log10(_MARCHAUD_FIT_HI), 12)
    basis = np.stack([np.ones_like(us), us, us ** 2, us ** 3], axis=1)
    return us, basis, np.linalg.lstsq(basis, np.eye(len(us)), rcond=None)[0]


def _near_origin_model(d0, f, delta, noise, counter):
    """int_0^cut (d0 - f(u)) / u**(1+delta) du for each component of the
    pair integrand f, from a least-squares cubic model of the ratio
    (d0 - f(u))/u near the origin, and its error bound, where noise bounds
    the rounding of each difference d0 - f(u), per component.

    Fitting the ratio rather than the difference keeps the fit weights
    uniform across the log-spaced window, so the leading coefficient is not
    distorted by the top of the window.  Also validates the Lipschitz
    precondition on the value: the ratio must not diverge like a power of
    1/u as u -> 0 (slow log growth is tolerated and shows up in the
    residual).
    """
    probes = np.logspace(math.log10(_MARCHAUD_PROBE_LO), -1.0, 11)
    ratios = np.array([abs(d0[0] - value) / u for u, value, *_ in _window(f, probes)])
    counter.count += len(probes)
    if np.max(ratios) > 0.0:
        mask = ratios > 0.0
        if mask.sum() >= 4:
            slope = np.polyfit(np.log(probes[mask]), np.log(ratios[mask]), 1)[0]
            if slope < -0.2 and ratios[0] > 10.0 * (ratios[-1] + 1e-300):
                raise QuadraturePreconditionError(
                    "d0 - f(u) is not Lipschitz at the origin: "
                    f"|d0 - f(u)|/u grows like u^{slope:.2f}"
                )
    us, basis, pinv = _fit_window()
    window = _window(f, us)
    ratio_vals = np.array([
        [(d0[0] - value) / u for u, value, *_ in window],
        [(d0[1] - companion) / u for u, _, companion, *_ in window],
    ], dtype=complex)
    counter.count += len(us)
    # int_0^a (c0 + c1 u + c2 u^2 + c3 u^3) u^(-delta) du, the ratio model
    # times u restoring the difference
    a_cut = _MARCHAUD_CUT
    mom = np.array([principal_pow(a_cut, (m + 1) - delta) / ((m + 1) - delta) for m in range(4)])
    # the model is linear in the ratios, each off by up to noise/u
    spread = float(np.abs(mom @ pinv) @ (1.0 / us))
    out = []
    for ratios_c, noise_c in zip(ratio_vals, noise):
        coef = pinv @ ratios_c
        residual = float(np.max(np.abs(ratios_c - basis @ coef)))
        err = residual * a_cut ** (1.0 - delta.real) / (1.0 - delta.real) + noise_c * spread
        out.append((complex(mom @ coef), err))
    return out


def marchaud_unit_interval(d0, f, delta, cfg=None, amplitude=0.0):
    """int_0^1 (d0 - f(u)) / u**(1+delta) du, with the cancellation-safe
    near-origin treatment but no far field; d0 and f(u) may be pairs.

    Below the cut at u = 1e-4 the difference d0 - f(u) drowns in rounding
    noise while u**(-1-delta) amplifies it, so there the ratio model from
    the clean window takes over and its moments integrate in closed form;
    the fit residual joins the error estimate.  So does the rounding of
    d0 - f(u), up to 2 eps max(amplitude, |d0|) at every u, where amplitude
    bounds the terms that f sums, as the weight magnifies it on both pieces;
    a companion, the difference of two such sums, is allowed twice that.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    if not 0.0 < delta.real < 1.0:
        raise QuadraturePreconditionError("need 0 < Re(delta) < 1")
    d0 = tuple(complex(part) for part in _pair(d0))
    counter = _EvalCounter()
    noise = 2.0 * _EPS * max(amplitude, abs(d0[0]))
    noises = (noise, 2.0 * noise)
    (near, near_err), (near_c, near_c_err) = _near_origin_model(d0, f, delta, noises, counter)

    def mid_term(u, value, companion):
        weight = principal_pow(u, -1.0 - delta)
        return (d0[0] - value) * weight, (d0[1] - companion) * weight

    (mid, mid_err, _), (mid_c, mid_c_err, _) = _de_finite(_composed(f, mid_term), _MARCHAUD_CUT, 1.0, cfg, counter)
    mid_err += noise * (_MARCHAUD_CUT ** -delta.real - 1.0) / delta.real
    mid_c_err += 2.0 * noise * (_MARCHAUD_CUT ** -delta.real - 1.0) / delta.real
    return IntegralResult(near + mid, near_err + mid_err, counter.count, near_c + mid_c, near_c_err + mid_c_err)


def integrate_marchaud(d0, f, delta, cfg=None, amplitude=0.0):
    """int_0^inf (d0 - f(u)) / u**(1+delta) du for 0 < Re(delta) < 1, for
    each component of the pair d0, f(u) (a number counting as (v, 0)).

    Requires |d0 - f(u)| <= L u near the origin (checked numerically on the
    value) and d0 - f(u) bounded, with f itself decaying so the far field
    converges after the exact split int_1^inf d0 u**(-1-delta) du =
    d0 / delta; the decaying remainder is integrated through the
    substitution u = 1/v.  amplitude is as in marchaud_unit_interval.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    if not 0.0 < delta.real < 1.0:
        raise QuadraturePreconditionError("need 0 < Re(delta) < 1")
    d0 = tuple(complex(part) for part in _pair(d0))

    head = marchaud_unit_interval(d0, f, delta, cfg, amplitude)
    counter = _EvalCounter()
    counter.count = head.evaluations

    def far_term(v, value, companion):
        weight = principal_pow(v, delta - 1.0)
        return value * weight, companion * weight

    # every node of the rule on (0, 1) lies 6e-276 or more from the ends,
    # short of where its weight underflows, so 1/v is finite
    far_integrand = _composed(f, far_term, lambda v: 1.0 / v)
    (far, far_err, _), (far_c, far_c_err, _) = _de_finite(far_integrand, 0.0, 1.0, cfg, counter)
    return IntegralResult(
        head.value + d0[0] / delta - far,
        head.err_estimate + far_err,
        counter.count,
        head.companion + d0[1] / delta - far_c,
        head.companion_err + far_c_err,
    )
