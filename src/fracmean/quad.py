"""Semi-infinite quadrature for the two integral shapes of fractional calculus.

Two entry points:

* ``integrate_singular_decaying`` handles ``int_0^inf t**s g(t) dt`` where the
  algebraic factor t**s (s > -1) carries an endpoint singularity; the tail
  [1, inf) is mapped onto (0, 1] by t = 1/v, so g needs no known decay rate.
* ``integrate_marchaud`` handles the difference quotient
  ``int_0^inf (d0 - f(u)) / u**(1+delta) du`` with 0 < Re(delta) < 1.

Both are built on one tanh-sinh (double exponential) trapezoid kernel with
level refinement.  ``tanh_sinh_nodes`` is the one place the rule is
computed; the kernel reads each level's nodes from a table cached on first
use, held as distances from the endpoints.  The
Marchaud route needs special care at the origin: for small u the difference
d0 - f(u) drowns in rounding noise while the weight u**(-1-delta) amplifies
it, so below a fixed cut the ratio (d0 - f(u))/u is replaced by a fitted
polynomial model whose moments integrate in closed form.
"""

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
]

_EPS = 2.220446049250313e-16
_U_MAX = 6.0  # tanh-sinh abscissa range; beyond this weights underflow


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
    value: complex
    err_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.err_estimate < 0 or self.evaluations <= 0:
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


def tanh_sinh_nodes(level, floor):
    """Tanh-sinh rule on (-1, 1) at spacing h = 2**-level out to |u| = 6, as
    arrays (t, 1 - |t|, weight) without the nodes lighter than floor; the
    distances stay resolved where t rounds to +-1."""
    h = 2.0 ** -level
    u = h * np.arange(-int(_U_MAX / h), int(_U_MAX / h) + 1)
    w = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(w))
    weight = 2.0 * math.pi * h * np.cosh(u) * e / (1.0 + e) ** 2  # h (pi/2) cosh(u) sech(w)**2
    keep = weight > floor
    return np.tanh(w)[keep], (2.0 * e / (1.0 + e))[keep], weight[keep]


@functools.cache
def _level_nodes(level):
    """The nodes u = k h, k > 0, that level adds to the rule (every k at
    level 0, odd k above) as (1 - |t|, weight) pairs of Python floats; the
    rule is symmetric, so they serve both endpoints."""
    _, dist, weight = tanh_sinh_nodes(level, 0.0)
    side = slice(len(dist) // 2 + 1, None, 2 if level else 1)
    return tuple(zip(dist[side].tolist(), weight[side].tolist()))


def _de_sum_level(f, a, b, level, counter, reach=(1.0, 1.0)):
    """The terms that level adds to the tanh-sinh sum of f over (a, b), the
    sum of their sizes, and per end (b, then a) the |term| and 1 - |t| of
    its largest term."""
    half = 0.5 * (b - a)
    total = 0.0 + 0.0j
    if level == 0:
        total += f(a + half) * (half * math.pi / 2.0)  # center node u = 0
        counter.count += 1
    size = abs(total)
    nodes = _level_nodes(level)
    peaks = []
    for end, sign, limit in ((b, -1.0, reach[0]), (a, 1.0, reach[1])):
        tiny_run, peak = 0, (0.0, 1.0)
        for dist, weight in nodes:
            t = end + sign * half * dist
            term = f(t) * (half * weight)
            counter.count += 1
            if not (math.isfinite(term.real) and math.isfinite(term.imag)):
                raise NonConvergenceError(
                    f"integrand not finite at t={t!r}", evaluations=counter.count
                )
            total += term
            mag = abs(term)
            size += mag
            peak = max(peak, (mag, dist))
            if mag <= _EPS * abs(total) + 1e-300:
                tiny_run += 1
                if tiny_run >= 3 and dist < limit:
                    break
            else:
                tiny_run = 0
        peaks.append(peak)
    return total, size, peaks


def _de_finite(f, a, b, cfg, counter):
    """Tanh-sinh integral of f over (a, b); f is never called at the endpoints.

    An integral splits into at most two such segments, each held to half of
    cfg.abs_tol.  Returns (value, err_estimate, size), size being the sum of
    |term| of the last level; raises NonConvergenceError when the last two
    refinements still disagree beyond tolerance at cfg.max_level.
    """
    abs_tol = 0.5 * cfg.abs_tol
    rel_tol = cfg.rel_tol
    value, size, peaks = _de_sum_level(f, a, b, 0, counter)
    # a walk stops after three negligible terms, but not short of its side's largest
    # level-0 term: an integrand held near one end can be negligible at the centre
    reach = tuple(dist if term > _EPS * abs(value) else 1.0 for term, dist in peaks)
    err = math.inf
    for level in range(1, cfg.max_level + 1):
        added, added_size, _ = _de_sum_level(f, a, b, level, counter, reach)
        refined = 0.5 * value + added
        size = 0.5 * size + added_size
        err = abs(refined - value)
        value = refined
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
    return value, err, size


def integrate_singular_decaying(g, s, cfg=None):
    """int_0^inf t**s g(t) dt for s > -1 and t**s g(t) integrable at infinity.

    Both stretches run on tanh-sinh over (0, 1]: the singular one as it
    stands, the tail [1, inf) through t = 1/v as int_0^1 v**(-s-2) g(1/v) dv,
    so no decay rate, truncation point or tail bound enters: an integrand
    that decays only algebraically is as welcome as an exponential one.
    Besides the level gaps, the error estimate carries the rounding of the
    terms, 4 eps (2 + |s|) times the sum of their sizes, since t**s and the
    phases of g lose relative accuracy in proportion to s where the terms
    cancel.
    """
    cfg = cfg or QuadratureConfig()
    s = float(s)
    if s <= -1.0:
        raise QuadraturePreconditionError("need s > -1 for integrability at 0")
    counter = _EvalCounter()

    def head(t):
        return (t ** s) * g(t)

    def tail(v):
        term = g(1.0 / v)
        if term == 0:  # underflowed: v**(-s-2) may be past the float range
            return 0j
        try:
            return (v ** (-s - 2.0)) * term
        except OverflowError:  # a term past the float range, reported as a non-finite one
            raise NonConvergenceError(f"integrand not finite at t={1.0 / v!r}", evaluations=counter.count) from None

    v1, e1, a1 = _de_finite(head, 0.0, 1.0, cfg, counter)
    v2, e2, a2 = _de_finite(tail, 0.0, 1.0, cfg, counter)
    rounding = 4.0 * _EPS * (2.0 + abs(s)) * (a1 + a2)
    return IntegralResult(v1 + v2, e1 + e2 + rounding, counter.count)


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
    """int_0^cut (d0 - f(u)) / u**(1+delta) du from a least-squares cubic
    model of the ratio (d0 - f(u))/u near the origin, and its error bound,
    where noise bounds the rounding of each difference d0 - f(u).

    Fitting the ratio rather than the difference keeps the fit weights
    uniform across the log-spaced window, so the leading coefficient is not
    distorted by the top of the window.  Also validates the Lipschitz
    precondition: the ratio must not diverge like a power of 1/u as u -> 0
    (slow log growth is tolerated and shows up in the residual).
    """
    probes = np.logspace(math.log10(_MARCHAUD_PROBE_LO), -1.0, 11)
    ratios = np.empty(len(probes))
    for i, u in enumerate(probes):
        ratios[i] = abs(d0 - f(u)) / u
        counter.count += 1
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
    ratio_vals = np.empty(len(us), dtype=complex)
    for i, u in enumerate(us):
        ratio_vals[i] = (d0 - f(u)) / u
        counter.count += 1
    coef = pinv @ ratio_vals
    residual = float(np.max(np.abs(ratio_vals - basis @ coef)))
    # int_0^a (c0 + c1 u + c2 u^2 + c3 u^3) u^(-delta) du, the ratio model
    # times u restoring the difference
    a_cut = _MARCHAUD_CUT
    mom = np.array([principal_pow(a_cut, (m + 1) - delta) / ((m + 1) - delta) for m in range(4)])
    # the model is linear in the ratios, each off by up to noise/u
    rounding = noise * float(np.abs(mom @ pinv) @ (1.0 / us))
    return complex(mom @ coef), residual * a_cut ** (1.0 - delta.real) / (1.0 - delta.real) + rounding


def marchaud_unit_interval(d0, f, delta, cfg=None, amplitude=0.0):
    """int_0^1 (d0 - f(u)) / u**(1+delta) du, with the cancellation-safe
    near-origin treatment but no far field.

    Below the cut at u = 1e-4 the difference d0 - f(u) drowns in rounding
    noise while u**(-1-delta) amplifies it, so there the ratio model from
    the clean window takes over and its moments integrate in closed form;
    the fit residual joins the error estimate.  So does the rounding of
    d0 - f(u), up to 2 eps max(amplitude, |d0|) at every u, where amplitude
    bounds the terms that f sums, as the weight magnifies it on both pieces.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    if not 0.0 < delta.real < 1.0:
        raise QuadraturePreconditionError("need 0 < Re(delta) < 1")
    d0 = complex(d0)
    counter = _EvalCounter()
    noise = 2.0 * _EPS * max(amplitude, abs(d0))
    near, near_err = _near_origin_model(d0, f, delta, noise, counter)

    def mid_integrand(u):
        return (d0 - f(u)) * principal_pow(u, -1.0 - delta)

    mid, mid_err, _ = _de_finite(mid_integrand, _MARCHAUD_CUT, 1.0, cfg, counter)
    mid_err += noise * (_MARCHAUD_CUT ** -delta.real - 1.0) / delta.real
    return IntegralResult(near + mid, near_err + mid_err, counter.count)


def integrate_marchaud(d0, f, delta, cfg=None, amplitude=0.0):
    """int_0^inf (d0 - f(u)) / u**(1+delta) du for 0 < Re(delta) < 1.

    Requires |d0 - f(u)| <= L u near the origin (checked numerically) and
    d0 - f(u) bounded, with f itself decaying so the far field converges
    after the exact split int_1^inf d0 u**(-1-delta) du = d0 / delta; the
    decaying remainder is integrated through the substitution u = 1/v.
    amplitude is as in marchaud_unit_interval.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    if not 0.0 < delta.real < 1.0:
        raise QuadraturePreconditionError("need 0 < Re(delta) < 1")
    d0 = complex(d0)

    head = marchaud_unit_interval(d0, f, delta, cfg, amplitude)
    counter = _EvalCounter()
    counter.count = head.evaluations

    far_d0 = d0 / delta

    def far_integrand(v):
        if v < 1e-300:
            return 0.0 + 0.0j
        return f(1.0 / v) * principal_pow(v, delta - 1.0)

    far_f, far_err, _ = _de_finite(far_integrand, 0.0, 1.0, cfg, counter)

    value = head.value + far_d0 - far_f
    return IntegralResult(value, head.err_estimate + far_err, counter.count)
