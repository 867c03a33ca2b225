"""Semi-infinite quadrature for the integral shape of fractional calculus.

``integrate_singular_decaying`` handles the Mellin integral
``int_0^inf t**(a-1) g(t) dt``, Re a > 0, where the algebraic factor carries
an endpoint singularity: on (0, 1] it integrates t**(a-1) (g(t) - g(0)) and
adds g(0)/a, with a exact, and the tail [1, inf) is mapped onto (0, 1] by
t = 1/v, so g needs no known decay rate.  It runs on one tanh-sinh (double
exponential) trapezoid kernel with level refinement.  ``tanh_sinh_nodes``
gives the rule, computed once per level and floor, to the laws' node rules;
the kernel reads each level's nodes from the same computation, held as
distances from the endpoints.

An integrand takes a 1-d float array of abscissae and returns an array, or
a pair (value, companion) of arrays such as a quantity and the gap between
two levels of the rule behind it, each a scalar or of the abscissae's shape
(QuadraturePreconditionError otherwise); a plain output v counts as (v, 0).
Both components are summed at the same nodes.  The value alone decides
where a walk stops and whether the integral converged; the levels stop once
both components' error estimates meet the value's tolerance, and the
companion gets its own error estimate.  Each end of a level is one call for
its new nodes, rarely more, and the nodes past the stop are dropped; what an
integrand holds in memory per abscissa is its own concern.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .principal import principal_pow  # no caller here: perfbench/tracer.py wraps this name

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "NonConvergenceError",
    "QuadraturePreconditionError",
    "integrate_singular_decaying",
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
    added to those given.  The levels stop once the value's last refinement
    and the companion's error estimate (_companion_err) both meet the
    value's tolerance; the value alone decides convergence, and
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
        if level >= 2 and max(err, _companion_err(others)) <= max(abs_tol, rel_tol * abs(value)):
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
    return (value, err, size), (other, max(_companion_err(others), 4.0 * _EPS * abs(other)), other_size), evaluations


def _companion_err(sums):
    """The error of the last of a companion's sums over the levels: its last
    difference where its sums converge, each of its last two differences at
    most half the one before; where they do not yet, it may be off by its
    sums' size."""
    diffs = [math.inf] + [abs(later - earlier) for earlier, later in zip(sums, sums[1:])]
    if diffs[-1] > 0.5 * diffs[-2] or diffs[-2] > 0.5 * diffs[-3]:
        return diffs[-1] + max(abs(sums[-1]), abs(sums[-2]))
    return diffs[-1]


def integrate_singular_decaying(g, a, cfg=None):
    """int_0^inf t**(a-1) g(t) dt for complex a, Re a > 0, and t**(a-1) g(t)
    integrable at infinity, for each component of g, an integrand as the
    module describes that is finite at t = 0; t**(a-1) is principal,
    t**Re(a-1) e^{i Im(a) log t}, and a real a stays real.

    Both stretches run on tanh-sinh over (0, 1]: the singular one as
    g(0)/a + int_0^1 t**(a-1) (g(t) - g(0)) dt, whose integrand vanishes at
    0 for g Lipschitz there, so the mass below the innermost node is not
    lost however small Re a is, and a is taken as given, not as 1 + (a - 1),
    so a small a keeps its digits; the tail [1, inf) through t = 1/v as
    int_0^1 v**(-a-1) g(1/v) dv, so no decay rate, truncation point or tail
    bound enters: an integrand that decays only algebraically is as welcome
    as an exponential one.  Besides the level gaps, the error estimate
    carries the rounding of the terms, 4 eps (2 + |a - 1|) times the sum of
    their sizes, since t**(a-1) and the phases of g lose relative accuracy
    in proportion to |a - 1| where the terms cancel, and of g(0)/a and each
    difference g(t) - g(0) over the head; a companion with a
    term that is not 0 adds twice the value's, as for a difference of two
    quantities of the value's size.
    """
    cfg = cfg or QuadratureConfig()
    a = complex(a)
    a = a.real if a.imag == 0 else a
    if a.real <= 0.0:
        raise QuadraturePreconditionError("need Re a > 0 for integrability at 0")
    s = a - 1.0
    start = tuple(complex(np.ravel(part)[0]) for part in _evaluate(g, np.zeros(1)))
    if not all(map(cmath.isfinite, start)):
        raise NonConvergenceError("integrand not finite at t=0.0", evaluations=1)

    def head(t):
        values, companions = _evaluate(g, t)
        scale = _power(t, s)
        return scale * (values - start[0]), scale * (companions - start[1])

    def tail(v):
        values, companions = _evaluate(g, 1.0 / v)
        # where both have underflowed, v**(-a-1) may be past the float range:
        # those terms are 0, and a scale past it elsewhere gives a term the
        # walk reports as not finite
        scale = np.where((values == 0) & (companions == 0), 0.0, _power(v, -a - 1.0))
        return scale * values, scale * companions

    (v1, e1, a1), (c1, ce1, ca1), evaluations = _de_finite(head, 0.0, 1.0, cfg, 1)
    (v2, e2, a2), (c2, ce2, ca2), evaluations = _de_finite(tail, 0.0, 1.0, cfg, evaluations)
    factor = 4.0 * _EPS * (2.0 + abs(s))
    # g(0)/a rounds by up to |g(0)/a| eps and each g(t) - g(0) by up to
    # |g(0)| eps, where the head's weights times t**(Re a - 1) sum to at most
    # 1/Re(a), and to at most the sum of w/t over its nodes, 1,003 at level 0
    # and less at every later one
    spread = 1.0 / abs(a) + min(1.0 / a.real, 1003.0)
    rounding = factor * (a1 + a2 + abs(start[0]) * spread)
    companion_sizes = ca1 + ca2 + abs(start[1]) * spread
    # a companion that differences two quantities of the value's size
    # carries the rounding of both; one that is 0 at every node carries none
    companion_rounding = factor * companion_sizes + 2.0 * rounding if companion_sizes else 0.0
    return IntegralResult(
        start[0] / a + v1 + v2, e1 + e2 + rounding, evaluations, start[1] / a + c1 + c2, ce1 + ce2 + companion_rounding
    )


# the name perfbench/tracer.py wraps for a near-origin fit no integral has now
_near_origin_model = _de_finite
