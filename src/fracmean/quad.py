"""Semi-infinite quadrature for the two integral shapes of fractional calculus.

Two entry points:

* ``integrate_singular_decaying`` handles ``int_0^inf t**s g(t) dt`` where the
  algebraic factor t**s (s > -1) carries an endpoint singularity and g decays
  exponentially with a known rate.
* ``integrate_marchaud`` handles the difference quotient
  ``int_0^inf (d0 - f(u)) / u**(1+delta) du`` with 0 < Re(delta) < 1.

Both are built on one tanh-sinh (double exponential) trapezoid kernel with
level refinement; ``tanh_sinh_nodes`` gives the rule as arrays.  The
Marchaud route needs special care at the origin: for small u the difference
d0 - f(u) drowns in rounding noise while the weight u**(-1-delta) amplifies
it, so below a fixed cut the ratio (d0 - f(u))/u is replaced by a fitted
polynomial model whose moments integrate in closed form.
"""

import math
from dataclasses import dataclass, field

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
    truncation_decay: float = 1.0  # known exponential decay rate of the tail

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 3 <= self.max_level <= 14:
            raise ValueError("max_level must lie in [3, 14]")
        if self.truncation_decay <= 0:
            raise ValueError("truncation_decay must be positive")


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


def _de_sum_level(f, a, b, h, odd_only, counter):
    """Trapezoid sum over tanh-sinh nodes at spacing h (odd multiples only
    when refining a previous level)."""
    half = 0.5 * (b - a)
    total = 0.0 + 0.0j
    if not odd_only:
        # center node u = 0: t = midpoint, weight = half * pi/2
        total += f(a + half) * (half * math.pi / 2.0)
        counter.count += 1
    step = 2 if odd_only else 1
    for sign in (1.0, -1.0):
        k = 1
        tiny_run = 0
        while True:
            u = sign * k * h
            if abs(u) > _U_MAX:
                break
            w = 0.5 * math.pi * math.sinh(u)
            # stable distance from the nearer endpoint
            if w >= 0.0:
                dist = (b - a) / (1.0 + math.exp(2.0 * w))
                t = b - dist
            else:
                dist = (b - a) / (1.0 + math.exp(-2.0 * w))
                t = a + dist
            aw = abs(w)
            sech = 2.0 * math.exp(-aw) / (1.0 + math.exp(-2.0 * aw))
            weight = half * (0.5 * math.pi) * math.cosh(u) * sech * sech
            if weight == 0.0:
                break
            fv = f(t)
            counter.count += 1
            term = fv * weight
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
            k += step
    return total * h


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


def _de_finite(f, a, b, cfg, counter, abs_tol=None, rel_tol=None):
    """Tanh-sinh integral of f over (a, b); f is never called at the endpoints.

    Returns (value, err_estimate). Raises NonConvergenceError when the last
    two refinements still disagree beyond tolerance at cfg.max_level.
    """
    if abs_tol is None:
        abs_tol = cfg.abs_tol
    if rel_tol is None:
        rel_tol = cfg.rel_tol
    h = 1.0
    value = _de_sum_level(f, a, b, h, odd_only=False, counter=counter)
    err = math.inf
    for _level in range(1, cfg.max_level + 1):
        h *= 0.5
        refined = 0.5 * value + _de_sum_level(f, a, b, h, odd_only=True, counter=counter)
        err = abs(refined - value)
        value = refined
        if _level >= 2 and err <= max(abs_tol, rel_tol * abs(value)):
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


def _truncation_point(k_bound, s, cfg, tail_target):
    """Smallest T >= 2 with K * T**max(s,0) * exp(-c T) / c <= tail_target."""
    c = cfg.truncation_decay
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


def integrate_singular_decaying(g, s, cfg=None):
    """int_0^inf t**s g(t) dt for s > -1 and |g(t)| <= K exp(-decay t).

    The singular stretch (0, 1] and the smooth stretch [1, T] are both handled
    by tanh-sinh; T comes from the declared decay rate and the absolute
    tolerance, and the discarded tail is folded into the error estimate.
    """
    cfg = cfg or QuadratureConfig()
    s = float(s)
    if s <= -1.0:
        raise QuadraturePreconditionError("need s > -1 for integrability at 0")
    counter = _EvalCounter()

    k_bound = 1e-300
    for t_probe in (0.25, 0.5, 1.0, 2.0, 4.0):
        k_bound = max(k_bound, abs(g(t_probe)) * math.exp(cfg.truncation_decay * t_probe))
        counter.count += 1
    tail_target = 0.25 * cfg.abs_tol
    t_pt = _truncation_point(k_bound, s, cfg, tail_target)

    def integrand(t):
        return (t ** s) * g(t)

    v1, e1 = _de_finite(integrand, 0.0, 1.0, cfg, counter, abs_tol=0.5 * cfg.abs_tol)
    v2, e2 = _de_finite(integrand, 1.0, t_pt, cfg, counter, abs_tol=0.5 * cfg.abs_tol)
    tail = _tail_bound(k_bound, s, t_pt, cfg.truncation_decay)
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

    mid, mid_err = _de_finite(mid_integrand, a_cut, 1.0, cfg, counter, abs_tol=0.5 * cfg.abs_tol)
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

    far_f, far_err = _de_finite(far_integrand, 0.0, 1.0, cfg, counter, abs_tol=0.5 * cfg.abs_tol)

    value = head.value + far_d0 - far_f
    return IntegralResult(value, head.err_estimate + far_err, counter.count)
