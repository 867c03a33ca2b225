"""Semi-infinite quadrature for the two integral shapes of fractional calculus.

Two entry points:

* ``integrate_singular_decaying`` handles ``int_0^inf t**s g(t) dt`` where the
  algebraic factor t**s (s > -1) carries an endpoint singularity and g decays
  exponentially at a rate the caller passes.
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
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
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


def _de_sum_level(f, a, b, level, counter):
    """The terms that level adds to the tanh-sinh sum of f over (a, b)."""
    half = 0.5 * (b - a)
    total = 0.0 + 0.0j
    if level == 0:
        total += f(a + half) * (half * math.pi / 2.0)  # center node u = 0
        counter.count += 1
    nodes = _level_nodes(level)
    for end, sign in ((b, -1.0), (a, 1.0)):
        tiny_run = 0
        for dist, weight in nodes:
            t = end + sign * half * dist
            term = f(t) * (half * weight)
            counter.count += 1
            if not (math.isfinite(term.real) and math.isfinite(term.imag)):
                raise NonConvergenceError(
                    f"integrand not finite at t={t!r}", evaluations=counter.count
                )
            total += term
            if abs(term) <= _EPS * abs(total) + 1e-300:
                tiny_run += 1
                if tiny_run >= 3:
                    break
            else:
                tiny_run = 0
    return total


def _de_finite(f, a, b, cfg, counter):
    """Tanh-sinh integral of f over (a, b); f is never called at the endpoints.

    An integral splits into at most two such segments, each held to half of
    cfg.abs_tol.  Returns (value, err_estimate); raises NonConvergenceError
    when the last two refinements still disagree beyond tolerance at cfg.max_level.
    """
    abs_tol = 0.5 * cfg.abs_tol
    rel_tol = cfg.rel_tol
    value = _de_sum_level(f, a, b, 0, counter)
    err = math.inf
    for level in range(1, cfg.max_level + 1):
        refined = 0.5 * value + _de_sum_level(f, a, b, level, counter)
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
    return value, err


def _truncation_point(k_bound, s, c, tail_target):
    """Smallest T >= 2 with K * T**max(s,0) * exp(-c T) / c <= tail_target."""
    t_pt = max(2.0, math.log(max(k_bound / (tail_target * c), 1.0)) / c)
    for _ in range(3):
        t_pt = max(
            2.0,
            (math.log(max(k_bound / (tail_target * c), 1.0)) + max(s, 0.0) * math.log(t_pt)) / c,
        )
    return min(t_pt, 1e6)


def _tail_bound(k_bound, s, t_pt, decay):
    # int_T^inf t**s K e**(-ct) dt <= 2 K T**max(s,0) e**(-cT) / c  once cT >= 2s
    return 2.0 * k_bound * t_pt ** max(s, 0.0) * math.exp(-decay * t_pt) / decay


def integrate_singular_decaying(g, s, decay, cfg=None, amplitude=0.0):
    """int_0^inf t**s g(t) dt for s > -1 and |g(t)| <= K exp(-decay t).

    The singular stretch (0, 1] and the smooth stretch [1, T] are both handled
    by tanh-sinh; T comes from the caller's decay rate and the absolute
    tolerance, and the discarded tail is folded into the error estimate.
    K is the larger of amplitude, a bound the caller may know, and
    |g(t)| exp(decay t) at five probes, which terms that cancel there can
    understate.
    """
    cfg = cfg or QuadratureConfig()
    s = float(s)
    if s <= -1.0:
        raise QuadraturePreconditionError("need s > -1 for integrability at 0")
    if not decay > 0.0:
        raise QuadraturePreconditionError("need a positive decay rate for the tail")
    counter = _EvalCounter()

    k_bound = max(amplitude, 1e-300)
    for t_probe in (0.25, 0.5, 1.0, 2.0, 4.0):
        k_bound = max(k_bound, abs(g(t_probe)) * math.exp(decay * t_probe))
        counter.count += 1
    tail_target = 0.25 * cfg.abs_tol
    t_pt = _truncation_point(k_bound, s, decay, tail_target)

    def integrand(t):
        try:
            return (t ** s) * g(t)
        except OverflowError:  # a term past the float range, reported as a non-finite one
            raise NonConvergenceError(f"integrand not finite at t={t!r}", evaluations=counter.count) from None

    v1, e1 = _de_finite(integrand, 0.0, 1.0, cfg, counter)
    v2, e2 = _de_finite(integrand, 1.0, t_pt, cfg, counter)
    tail = _tail_bound(k_bound, s, t_pt, decay)
    return IntegralResult(v1 + v2, e1 + e2 + tail, counter.count)


_MARCHAUD_CUT = 1e-4          # below this, d0 - f(u) is replaced by the fitted model
_MARCHAUD_FIT_LO = 3e-5       # fit window (log-spaced) for the model of (d0-f)/u
_MARCHAUD_FIT_HI = 1e-2
_MARCHAUD_PROBE_LO = 1e-6     # probe window for the Lipschitz precondition


def _near_origin_model(d0, f, counter):
    """Least-squares cubic model of the ratio (d0 - f(u))/u near the origin.

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
    us = np.logspace(math.log10(_MARCHAUD_FIT_LO), math.log10(_MARCHAUD_FIT_HI), 12)
    ratio_vals = np.empty(len(us), dtype=complex)
    for i, u in enumerate(us):
        ratio_vals[i] = (d0 - f(u)) / u
        counter.count += 1
    basis = np.stack([np.ones_like(us), us, us ** 2, us ** 3], axis=1).astype(complex)
    coef, *_ = np.linalg.lstsq(basis, ratio_vals, rcond=None)
    residual = float(np.max(np.abs(ratio_vals - basis @ coef)))
    return coef, residual


def marchaud_unit_interval(d0, f, delta, cfg=None):
    """int_0^1 (d0 - f(u)) / u**(1+delta) du, with the cancellation-safe
    near-origin treatment but no far field.

    Below the cut at u = 1e-4 the difference d0 - f(u) drowns in rounding
    noise while u**(-1-delta) amplifies it, so there the ratio model from
    the clean window takes over and its moments integrate in closed form;
    the fit residual joins the error estimate.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    if not 0.0 < delta.real < 1.0:
        raise QuadraturePreconditionError("need 0 < Re(delta) < 1")
    d0 = complex(d0)
    counter = _EvalCounter()

    coef, residual = _near_origin_model(d0, f, counter)
    a_cut = _MARCHAUD_CUT
    # int_0^a (c0 + c1 u + c2 u^2 + c3 u^3) u^(-delta) du, the ratio model
    # times u restoring the difference
    near = sum(
        coef[m] * principal_pow(a_cut, (m + 1) - delta) / ((m + 1) - delta)
        for m in range(4)
    )
    near_err = (residual + _EPS * abs(d0)) * a_cut ** (1.0 - delta.real) / (1.0 - delta.real)

    def mid_integrand(u):
        return (d0 - f(u)) * principal_pow(u, -1.0 - delta)

    mid, mid_err = _de_finite(mid_integrand, a_cut, 1.0, cfg, counter)
    return IntegralResult(near + mid, near_err + mid_err, counter.count)


def integrate_marchaud(d0, f, delta, cfg=None):
    """int_0^inf (d0 - f(u)) / u**(1+delta) du for 0 < Re(delta) < 1.

    Requires |d0 - f(u)| <= L u near the origin (checked numerically) and
    d0 - f(u) bounded, with f itself decaying so the far field converges
    after the exact split int_1^inf d0 u**(-1-delta) du = d0 / delta; the
    decaying remainder is integrated through the substitution u = 1/v.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    if not 0.0 < delta.real < 1.0:
        raise QuadraturePreconditionError("need 0 < Re(delta) < 1")
    d0 = complex(d0)

    head = marchaud_unit_interval(d0, f, delta, cfg)
    counter = _EvalCounter()
    counter.count = head.evaluations

    far_d0 = d0 / delta

    def far_integrand(v):
        if v < 1e-300:
            return 0.0 + 0.0j
        return f(1.0 / v) * principal_pow(v, delta - 1.0)

    far_f, far_err = _de_finite(far_integrand, 0.0, 1.0, cfg, counter)

    value = head.value + far_d0 - far_f
    return IntegralResult(value, head.err_estimate + far_err, counter.count)
