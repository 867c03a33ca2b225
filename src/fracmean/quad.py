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
nodes from the same computation, held as distances from the endpoints.

An integrand takes a 1-d float array of abscissae and returns an array, or
a pair (value, companion) of arrays such as a quantity and the gap between
two levels of the rule behind it, each a scalar or of the abscissae's shape
(QuadraturePreconditionError otherwise); a plain output v counts as (v, 0).
Both components are summed at the same nodes, but the value alone decides
where a walk stops, when the levels stop and whether the origin is
Lipschitz, so adding a companion leaves the value's bits unchanged; the
companion gets its own error estimate.  Each end of a level is one call for
its new nodes, rarely more, and the nodes past the stop are dropped; what an
integrand holds in memory per abscissa is its own concern.

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


def _evaluate(f, ts):
    """The integrand f at the 1-d float array ts as (values, companions),
    each a scalar or an array of ts's shape; f returns one of those or a
    pair of them, a plain output v counting as (v, 0)."""
    out = f(ts)
    parts = out if type(out) is tuple else (out, 0.0)
    if len(parts) != 2 or any(np.shape(part) not in ((), ts.shape) for part in parts):
        shapes = [np.shape(part) for part in (parts if out is parts else (out,))]
        raise QuadraturePreconditionError(
            f"an integrand given {len(ts)} abscissae must return a scalar or an array of their "
            f"shape, or a pair of those; it returned the shapes {shapes}"
        )
    return parts


def _components(d0):
    """d0, a number v or a pair, as a pair of complex numbers, v as (v, 0)."""
    return tuple(complex(part) for part in (d0 if type(d0) is tuple else (d0, 0.0)))


def _power(x, lam):
    """x**lam at the positive float array x: real for a real lam, else
    principal."""
    return x ** lam if type(lam) is float else np.exp(lam * np.log(x))


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
    level 0, odd k above) as arrays (1 - |t|, weight); the rule is
    symmetric, so they serve both endpoints.  The full tables of the finer
    levels, 0.8 MB up to level 10, are not kept."""
    _, dist, weight, _ = _tanh_sinh_rule(level, 0.0)
    side = slice(len(dist) // 2 + 1, None, 2 if level else 1)
    return dist[side].copy(), weight[side].copy()


def _running_sums(start, terms, sizes):
    """start plus each prefix of the rows of terms, then of sizes, added in
    turn, with start itself in column 0."""
    out = np.empty((len(start), terms.shape[1] + 1), dtype=complex)
    out[:, 0] = start
    out[: len(terms), 1:] = terms
    out[len(terms) :, 1:] = sizes
    return np.add.accumulate(out, axis=1, out=out)


@np.errstate(all="ignore")
def _de_sum_level(f, a, b, level, evaluations, reach=(1.0, 1.0), ahead=(6, 6)):
    """The terms that level adds to the tanh-sinh sums of the pair integrand
    f over (a, b): the sum of each component, the sum of the sizes of each,
    per end (b, then a) the |term| and 1 - |t| of the value's largest term,
    per end how many nodes the next level should ask f for first, ahead
    giving this level's, and the evaluations so far.

    Each end asks f for its nodes in one call, as far as ahead says, and
    for three more at a time only while no stop lies inside what it has.
    Its terms add up in turn, outward from the centre, and its walk stops,
    on the value's terms alone, at the first run of three terms negligible
    against the running total, short of reach.  The nodes past the stop are
    dropped, so terms are formed without floating-point warnings and only
    those up to the stop must be finite."""
    half = 0.5 * (b - a)

    def terms(ts, scale):  # the value's and the companion's terms at ts, as two rows
        values, companions = f(ts)
        return np.array((values * scale, companions * scale), dtype=complex)

    # the sums of the value's terms and of the companion's, then of their sizes
    sums = np.zeros(4, dtype=complex)
    if level == 0:  # center node u = 0
        center = terms(np.array([a + half]), np.array([half * math.pi / 2.0]))[:, 0]
        sums = np.concatenate((center, np.abs(center)))
        evaluations += 1
    dists, weights = _level_nodes(level)
    peaks, plans = [], []
    for end, sign, limit, first in ((b, -1.0, reach[0], ahead[0]), (a, 1.0, reach[1], ahead[1])):
        found = terms(end + sign * half * dists[: max(first, 3)], half * weights[: max(first, 3)])
        while True:
            mags = np.abs(found)
            running = _running_sums(sums, found, mags)
            tiny = mags[0] <= _EPS * np.abs(running[0, 1:]) + 1e-300
            stops = np.flatnonzero(tiny[2:] & tiny[1:-1] & tiny[:-2] & (dists[2 : len(tiny)] < limit))
            used = int(stops[0]) + 3 if len(stops) else len(tiny)
            # a term that is not finite leaves every later sum not finite
            if not all(map(cmath.isfinite, running[:2, used].tolist())):
                bad = int(np.isfinite(running[:2, 1:]).all(axis=0).argmin())
                raise NonConvergenceError(
                    f"integrand not finite at t={float(end + sign * half * dists[bad])!r}",
                    evaluations=evaluations + bad + 1,
                )
            if len(stops) or len(tiny) == len(dists):
                break
            new = slice(len(tiny), len(tiny) + 3)
            found = np.concatenate((found, terms(end + sign * half * dists[new], half * weights[new])), axis=1)
        evaluations += used
        sums = running[:, used]
        top = int(mags[0, :used].argmax())  # the nearest the centre of the largest, as 1 - |t| falls
        peaks.append((float(mags[0, top]), float(dists[top])) if mags[0, top] > 0 else (0.0, 1.0))
        # the next level puts a node between each two of this walk's, so
        # 2 used - 5 of its nodes lie short of the last three terms here
        # (used - 2 after level 0, whose nodes are u = 1, 2, ...): it asks
        # first for those and three more
        plans.append(2 * used - 2 if level else used + 1)
    return sums[:2].tolist(), sums.real[2:].tolist(), peaks, tuple(plans), evaluations


def _de_finite(f, a, b, cfg, evaluations=0):
    """Tanh-sinh integral of the pair integrand f over (a, b), f taking a
    1-d array of abscissae and returning two arrays, or scalars, for them;
    it is never called at the endpoints.

    An integral splits into at most two such segments, each held to half of
    cfg.abs_tol.  Returns (value, err_estimate, size) for each component,
    size being the sum of |term| of the last level, and the evaluations
    added to those given; the value alone decides the levels, and
    NonConvergenceError, counting the evaluations given too, is raised when
    its last two refinements still disagree beyond tolerance at
    cfg.max_level.
    """
    abs_tol = 0.5 * cfg.abs_tol
    rel_tol = cfg.rel_tol
    (value, other), (size, other_size), peaks, ahead, evaluations = _de_sum_level(f, a, b, 0, evaluations)
    # a walk stops after three negligible terms, but not short of its side's largest
    # level-0 term: an integrand held near one end can be negligible at the centre
    reach = tuple(dist if term > _EPS * abs(value) else 1.0 for term, dist in peaks)
    err, others = math.inf, [other]
    for level in range(1, cfg.max_level + 1):
        (added, added_other), (added_size, added_other_size), _, ahead, evaluations = _de_sum_level(
            f, a, b, level, evaluations, reach, ahead
        )
        refined = 0.5 * value + added
        refined_other = 0.5 * other + added_other
        size = 0.5 * size + added_size
        other_size = 0.5 * other_size + added_other_size
        err = abs(refined - value)
        value, other = refined, refined_other
        others.append(other)
        if level >= 2 and err <= max(abs_tol, rel_tol * abs(value)):
            break
    floor = 4.0 * _EPS * abs(value)
    err = max(err, floor)
    if err > max(abs_tol, rel_tol * abs(value)) and err > floor:
        raise NonConvergenceError(
            f"tanh-sinh on ({a:g}, {b:g}) did not converge: err={err:.3e}",
            value=value,
            err_estimate=err,
            evaluations=evaluations,
        )
    # the companion's last difference bounds its error where its sums converge,
    # each of its last two differences at most half the one before; where they
    # do not yet, at the levels its value chose, it may be off by its sums' size
    diffs = [math.inf] + [abs(later - earlier) for earlier, later in zip(others, others[1:])]
    if diffs[-1] > 0.5 * diffs[-2] or diffs[-2] > 0.5 * diffs[-3]:
        diffs[-1] += max(abs(others[-1]), abs(others[-2]))
    return (value, err, size), (other, max(diffs[-1], 4.0 * _EPS * abs(other)), other_size), evaluations


def integrate_singular_decaying(g, s, cfg=None):
    """int_0^inf t**s g(t) dt for complex s, Re s > -1, and t**s g(t)
    integrable at infinity, for each component of g, an integrand as the
    module describes; t**s is principal, t**Re(s) e^{i Im(s) log t}, and a
    real s stays real.

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

    def head(t):
        values, companions = _evaluate(g, t)
        scale = _power(t, s)
        return scale * values, scale * companions

    def tail(v):
        values, companions = _evaluate(g, 1.0 / v)
        # where both have underflowed, v**(-s-2) may be past the float range:
        # those terms are 0, and a scale past it elsewhere gives a term the
        # walk reports as not finite
        scale = np.where((values == 0) & (companions == 0), 0.0, _power(v, -s - 2.0))
        return scale * values, scale * companions

    (v1, e1, a1), (c1, ce1, ca1), evaluations = _de_finite(head, 0.0, 1.0, cfg)
    (v2, e2, a2), (c2, ce2, ca2), evaluations = _de_finite(tail, 0.0, 1.0, cfg, evaluations)
    rounding = 4.0 * _EPS * (2.0 + abs(s)) * (a1 + a2)
    # a companion that differences two quantities of the value's size
    # carries the rounding of both
    companion_rounding = 4.0 * _EPS * (2.0 + abs(s)) * (ca1 + ca2) + 2.0 * rounding
    return IntegralResult(v1 + v2, e1 + e2 + rounding, evaluations, c1 + c2, ce1 + ce2 + companion_rounding)


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


def _near_origin_model(d0, f, delta, noise):
    """int_0^cut (d0 - f(u)) / u**(1+delta) du for each component of the
    integrand f, from a least-squares cubic model of the ratio (d0 - f(u))/u
    near the origin, and its error bound, where noise bounds the rounding of
    each difference d0 - f(u), per component; then the evaluations of f.

    Fitting the ratio rather than the difference keeps the fit weights
    uniform across the log-spaced window, so the leading coefficient is not
    distorted by the top of the window.  Also validates the Lipschitz
    precondition on the value: the ratio must not diverge like a power of
    1/u as u -> 0 (slow log growth is tolerated and shows up in the
    residual).
    """
    probes = np.logspace(math.log10(_MARCHAUD_PROBE_LO), -1.0, 11)
    ratios = np.abs(d0[0] - _evaluate(f, probes)[0]) / probes
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
    ratio_vals = np.array([(d0_c - part) / us for d0_c, part in zip(d0, _evaluate(f, us))], dtype=complex)
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
    return (*out, len(probes) + len(us))


def marchaud_unit_interval(d0, f, delta, cfg=None, amplitude=0.0):
    """int_0^1 (d0 - f(u)) / u**(1+delta) du, with the cancellation-safe
    near-origin treatment but no far field; d0 and f(u) may be pairs, f an
    integrand as the module describes.

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
    d0 = _components(d0)
    noise = 2.0 * _EPS * max(amplitude, abs(d0[0]))
    (near, near_err), (near_c, near_c_err), evaluations = _near_origin_model(d0, f, delta, (noise, 2.0 * noise))

    def mid_integrand(u):
        values, companions = _evaluate(f, u)
        weight = _power(u, -1.0 - delta)
        return (d0[0] - values) * weight, (d0[1] - companions) * weight

    (mid, mid_err, _), (mid_c, mid_c_err, _), evaluations = _de_finite(mid_integrand, _MARCHAUD_CUT, 1.0, cfg, evaluations)
    mid_err += noise * (_MARCHAUD_CUT ** -delta.real - 1.0) / delta.real
    mid_c_err += 2.0 * noise * (_MARCHAUD_CUT ** -delta.real - 1.0) / delta.real
    return IntegralResult(near + mid, near_err + mid_err, evaluations, near_c + mid_c, near_c_err + mid_c_err)


def integrate_marchaud(d0, f, delta, cfg=None, amplitude=0.0):
    """int_0^inf (d0 - f(u)) / u**(1+delta) du for 0 < Re(delta) < 1, for
    each component of the pair d0, f(u) (a number counting as (v, 0)), f an
    integrand as the module describes.

    Requires |d0 - f(u)| <= L u near the origin (checked numerically on the
    value) and d0 - f(u) bounded, with f itself decaying so the far field
    converges after the exact split int_1^inf d0 u**(-1-delta) du =
    d0 / delta; the decaying remainder is integrated through the
    substitution u = 1/v.  amplitude is as in marchaud_unit_interval.
    """
    cfg = cfg or QuadratureConfig()
    delta = complex(delta)
    d0 = _components(d0)
    head = marchaud_unit_interval(d0, f, delta, cfg, amplitude)  # which checks delta

    def far_integrand(v):
        # every node of the rule on (0, 1) lies 6e-276 or more from the ends,
        # short of where its weight underflows, so 1/v is finite
        values, companions = _evaluate(f, 1.0 / v)
        weight = _power(v, delta - 1.0)
        return values * weight, companions * weight

    (far, far_err, _), (far_c, far_c_err, _), evaluations = _de_finite(far_integrand, 0.0, 1.0, cfg, head.evaluations)
    return IntegralResult(
        head.value + d0[0] / delta - far,
        head.err_estimate + far_err,
        evaluations,
        head.companion + d0[1] / delta - far_c,
        head.companion_err + far_c_err,
    )
