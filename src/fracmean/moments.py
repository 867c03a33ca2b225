"""Fractional moments E[Z**lam] and power-mean expectations by three routes.

Routes, cross-checking one another:

* closed forms where a family admits them,
* fractional-order differentiation of the half-line characteristic
  transform, realized as quadrature: one Riemann-Liouville integral of
  order lam - k, Re(lam - k) in (-1, 0) at Re(lam) > 0, of the transform
  weighted by Z'**k, k = max(ceil(Re lam), 0),
* Monte Carlo with componentwise standard errors and deterministic,
  stream-split batching.

The power mean of order p is ((1/n) sum z_j**p)**(1/p) with principal
branches throughout, and the geometric mean prod z_j**(1/n) at p = 0.
"""

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    MomentExistenceError,
    RouteUnavailableError,
    SupportError,
    _check_finite,
    _point_masses,
    char_fn,  # no caller here: perfbench/tracer.py wraps these names
    char_fn_derivative,
)
from .gammafn import gamma
from .principal import (
    FRESH,
    BranchDomainError,
    Workspace,
    _expm1,
    _phasor,
    _polar,
    _root1p,
    _scaled_phasor,
    np_principal_log,
    np_principal_pow,
    principal_pow,
)
# _mc_mean is called through this module, where perfbench/tracer.py wraps it
from .montecarlo import _block_draws, _mc_mean
from .quad import (
    NonConvergenceError,
    QuadratureConfig,
    _EPS,
    _evaluate,
    integrate_singular_decaying,
)

__all__ = [
    "Route",
    "RouteUnavailableError",
    "MomentEstimate",
    "MCConfig",
    "PowerMeanSpec",
    "power_mean",
    "frac_moment",
    "frac_moment_neg",
    "frac_moment_pos",
    "frac_moment_mc",
    "closed_moment",
    "power_mean_expectation",
    "t3_product_identity",
    "continuity_scan",
    "ScanRow",
    "ScanTable",
]


class Route(enum.Enum):
    """A route, and the method of every estimate it makes: QUAD (moments) and
    FRAC_DERIV (power means) run one Riemann-Liouville operator at every
    order; AUTO takes the first route that answers and is never a method."""

    CLOSED = "closed"
    QUAD = "quad"
    FRAC_DERIV = "frac_deriv"
    MONTE_CARLO = "mc"
    AUTO = "auto"


@dataclass
class MomentEstimate:
    value: complex
    uncertainty: float
    method: Route
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be >= 0")
        if self.method is Route.CLOSED and self.uncertainty != 0.0:
            raise ValueError("closed-form estimates carry zero uncertainty")

    def to_json(self):
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "uncertainty": self.uncertainty,
            "method": self.method.value,
            "meta": self.meta,
        }


@dataclass(frozen=True)
class MCConfig:
    samples: int = 100_000
    seed: int = 0
    batch: int = 4096

    def __post_init__(self):
        if self.samples < 1 or self.batch < 1:
            raise ValueError("samples and batch must be positive")


@dataclass(frozen=True)
class PowerMeanSpec:
    p: float
    n: int
    alpha: complex = 0j
    exploratory: bool = False  # lifts the |p| <= 1 restriction (MC experiments only)

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        _check_finite("p and alpha", self.p, self.alpha)
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not self.exploratory and not -1.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [-1, 1]")
        if self.alpha.imag < 0:
            raise ValueError("alpha must lie in the closed upper half plane")


# below this, z**p - 1 ~ p log z sinks under rounding while 1/p amplifies it,
# so the geometric limit is the *accurate* evaluation
_P_GEOMETRIC_EPS = 1e-8

# below this |p| (above _P_GEOMETRIC_EPS) a power mean is formed from
# m = mean of expm1(p log z) as (1 + m)**(1/p): z**p - 1 loses about eps/|p|
# of relative accuracy, 20 ulps at this order and 2e-9 at p = 1e-7
_P_SMALL = 0.05

# the coarser level of the first pair of nested node rules behind the
# single-draw transforms of a density law: one integral sums the transform at
# level 7 and its gap to level 6, and, if that gap misses the tolerance, one
# more the pair (8, 7)
_NODE_LEVEL = 6


def power_mean(values, p):
    """((1/n) sum z_j**p)**(1/p); the geometric mean prod z_j**(1/n) at p = 0.

    p < 0 (and p = 0) require every value to be nonzero.
    """
    values = np.array(values, dtype=complex)  # a copy: the kernel overwrites it
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("power_mean expects a nonempty 1-d collection")
    return complex(_power_mean_rows(values[None, :], [p])[0, 0])


def _power_mean_rows(draws, ps, ws=FRESH, out=None):
    """Power means along axis 1 of an (R, n) complex array: one row of R per
    order in ps, all from one polar form of the draws, into out when given.
    The draws are spent: for each order their memory holds the real and
    imaginary parts of the powers (of z**p - 1 below _P_SMALL), whose
    columns are then summed in place."""
    reps, n = draws.shape
    flat = draws.reshape(-1)
    log_r, theta, zero = _polar(flat, ws, "scratch")
    if zero is not None and min(ps) <= 0:
        raise BranchDomainError("power mean of order p <= 0 needs nonzero values")
    parts = flat.view(float).reshape(2, -1)
    re, im = parts
    out = np.empty((len(ps), reps), dtype=complex) if out is None else out
    for row, p in zip(out, ps):
        if _P_GEOMETRIC_EPS <= abs(p) < _P_SMALL:  # 1 + m, m the mean of z**p - 1
            shift = _expm1(p * log_r, p * theta)
            if zero is not None:
                shift[zero] = -1.0  # 0**p - 1, at p > 0
            np.copyto(re, shift.real)
            np.copyto(im, shift.imag)
            m = _row_means(parts.reshape(2, reps, n), row)
            near = np.abs(m) < 0.5
            row[~near] = np_principal_pow(1.0 + m[~near], 1.0 / p)
            row[near] = _root1p(m[near], p)
        elif abs(p) < _P_GEOMETRIC_EPS:  # exp of the mean of log z
            np.copyto(re, log_r)
            np.copyto(im, theta)
            if zero is not None:
                re[zero] = -np.inf
            means = _row_means(parts.reshape(2, reps, n), row)
            mag, phi = re[:reps], im[:reps]
            np.copyto(phi, means.imag)
            _scaled_phasor(np.exp(means.real, out=mag), phi, row, ws)
        else:
            np.exp(np.multiply(p, log_r, out=re), out=re)
            _phasor(re, np.multiply(p, theta, out=im), re, im, ws)
            if zero is not None:
                parts[:, zero] = 0.0
            np_principal_pow(_row_means(parts.reshape(2, reps, n), row), 1.0 / p, out=row, ws=ws)
    return out


def _row_means(parts, out):
    """np.mean(parts[0] + 1j * parts[1], axis=1) of a (2, R, n) array of real
    and imaginary parts, bit for bit, into the complex array out, from n
    column additions: numpy runs its reduction loop once per row, which
    costs several times the additions at small n, and a complex addition
    adds the parts separately.  The columns are summed in place, so parts
    is overwritten."""
    n = parts.shape[-1]
    _pairwise_columns(parts, 0, n)
    out.real = parts[0, :, 0]
    out.imag = parts[1, :, 0]
    return np.true_divide(out, n, out=out)


def _pairwise_columns(values, lo, hi):
    """Sum of columns lo..hi-1 (along the last axis) into column lo, in the
    order of numpy's pairwise sum of one row: sequential below 4 terms; up
    to 64 terms, four accumulators joined as (a0 + a1) + (a2 + a3) and then
    the remaining terms; above that, the two halves split at a multiple of 4
    terms.  numpy adds the sum to an initial +0.0; starting each accumulator
    at its term + 0.0 gives the same bits, since it only turns -0.0 into
    +0.0."""
    m = hi - lo
    if m > 64:
        mid = lo + (m - m % 8) // 2
        _pairwise_columns(values, lo, mid)
        _pairwise_columns(values, mid, hi)
        values[..., lo] += values[..., mid]
        return
    width = 1 if m < 4 else 4
    acc = [values[..., lo + q] for q in range(width)]
    for col in acc:
        col += 0.0
    stop = hi - m % width
    for j in range(lo + width, stop, width):
        for q in range(width):
            acc[q] += values[..., j + q]
    if width == 4:
        acc[0] += acc[1]
        acc[2] += acc[3]
        acc[0] += acc[2]
    for j in range(stop, hi):
        acc[0] += values[..., j]


def t3_product_identity(p, k):
    """Both sides of p**k Gamma(k - 1/p) / Gamma(-1/p) = prod_{j<k} (j p - 1).

    The product side is the cancellation-free way to evaluate the closed
    power-mean sum of the t3 family; the Gamma side doubles as a self-test.
    """
    if p >= 0:
        raise ValueError("the identity is used with p < 0")
    if not 0 <= k <= 12:
        raise ValueError("k must lie in [0, 12]")
    lhs = p ** k * gamma(k - 1.0 / p) / gamma(-1.0 / p)
    rhs = 1.0 + 0.0j
    for j in range(k):
        rhs *= j * p - 1.0
    return complex(lhs), complex(rhs)


# ---------------------------------------------------------------------------
# closed forms


def closed_moment(model, alpha, lam):
    """E[(Z + alpha)**lam] in closed form.  RouteUnavailableError where the
    family has no closed expression for these arguments; the law's
    check_moment raises MomentExistenceError when the moment itself does
    not exist."""
    return model.closed_moment(complex(alpha), complex(lam))


def _shifted_weighted_char(model, alpha, k, u):
    """E[(Z + alpha)**k exp(iu (Z + alpha))] via the transform derivatives of
    a law with a density, at each u >= 0 of a 1-d array.  The caller checks
    a moment of order above k - 1, so k may be the tail index, where the
    derivative exists at u > 0 and its closed form gives the limit at u = 0+
    (char_fn_derivative refuses u = 0 there)."""
    alpha = complex(alpha)
    total = 0.0 + 0.0j
    for j in range(k + 1):
        ezj = 1j ** j * model.char_deriv(j, u)
        total += math.comb(k, j) * alpha ** (k - j) * ezj
    return np.exp(1j * u * alpha) * total


# ---------------------------------------------------------------------------
# domain guards, run first on every route; moments also run check_moment


def _check_real_shift(model, alpha, order, node_rule=False):
    """A real-line density at real alpha, where Z + alpha meets the branch
    point of its power: refused at negative orders on every route, and at
    every order on the law's node rule (node_rule), graded toward -alpha only
    off the real line."""
    if (order.real < 0 or node_rule) and alpha.imag <= 0 and model.support == "real" and _point_masses(model) is None:
        where = "at negative orders" if order.real < 0 else "on its node rule"
        raise SupportError(f"a real-line density needs Im(alpha) > 0 {where}")


def _check_power_mean(model, spec):
    """The guard of E[M_p] on every route; it reads only the sign of p and n,
    so orders of one sign drawn together fail exactly where each fails alone."""
    p, alpha, atoms = spec.p, spec.alpha, _point_masses(model)
    if p <= 0 and atoms is not None and np.any(atoms[0] + alpha == 0):
        raise BranchDomainError("power mean of order p <= 0 needs nonzero values")
    _check_real_shift(model, alpha, p)
    # |M_p| <= sum |Z_j + alpha| at p > 0; |M_0| = prod |Z_j + alpha|**(1/n); at
    # p < 0, |M_p| <= C min_j |Z_j + alpha|, finite in mean exactly when E|Z|**(1/n) is
    model.check_moment(alpha, 1.0 if p > 0 else 1.0 / spec.n)


# ---------------------------------------------------------------------------
# quadrature routes for a single fractional moment


def _cfg_meta(cfg):
    return {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol, "max_level": cfg.max_level}


def _fractional_power(h, d, cfg, phase):
    """E[Y**lam], lam = k + d, from h(t) = E[Y**k exp(phase t Y)] with the
    callers' k = _whole_order(lam), as E[Y**lam] = E[Y**k Y**(lam - k)]
    integrates by parts.  phase is i for Y in the open upper half plane, -i in the open
    lower one.  h is an integrand of quad, at an array of t; a companion
    goes through the same operator at the same nodes.  Returns (value,
    uncertainty, evaluations, companion, its uncertainty) of

        Re d < 0:  phase**d / Gamma(-d) int_0^inf t**(-d-1) h(t) dt
        d = 0:     h(0), with no quadrature, and 4 eps |h(0)|, the floor of an integral's error

    A d below the least normal float is 0 to every digit, since phase**d and
    Gamma(1 - d) round to 1, while h(0)/(-d) would pass the float range.
    """
    if abs(d) < 2.2250738585072014e-308:
        start = tuple(complex(np.ravel(part)[0]) for part in _evaluate(h, np.zeros(1)))
        return start[0], 4.0 * _EPS * abs(start[0]), 0, start[1], 0.0
    res = integrate_singular_decaying(h, -d, cfg)
    scale = principal_pow(phase, d) / gamma(-d)
    size = abs(scale)
    return scale * res.value, size * res.err_estimate, res.evaluations, scale * res.companion, size * res.companion_err


def _whole_order(lam):
    """k of E[Y**lam] = E[Y**k Y**(lam - k)]: max(ceil(Re lam), 0), one more where
    lam - k would be a nonzero imaginary number, so that Re(lam - k) < 0 unless lam = k."""
    k = max(math.ceil(lam.real), 0)
    return k + (lam.real == k and lam.imag != 0)


def _rotated_atoms(points, weights, alpha, lam, k):
    """(h, rounding) for an atomic law, with every atom z of Z' = Z + alpha
    moved onto its steepest-descent ray u = e^{i phi} r, phi = pi/2 - arg z,
    where e^{iuz} = e^{-|z| r}.  Between the two rays |e^{iuz}| <= 1, so by
    Cauchy's theorem, with d = lam - k, Re d < 0,

        int_0^inf u**(-1-d) e^{iuz} du = e^{-i phi d} int_0^inf r**(-1-d) e^{-|z| r} dr,

    and h(u) = sum_j c_j e^{-|z_j| u}, c_j = w_j z_j**k e^{-i phi_j d}, is a
    sum of exponentials decaying at the rate min_j |z_j|: no term oscillates."""
    z = points + alpha
    if np.any(z.imag < 0):
        raise SupportError("shifted atoms must stay in the closed upper half plane")
    keep = z != 0  # 0**lam = 0 contributes nothing at Re(lam) >= 0
    z, weights = z[keep], weights[keep]
    log_z = np_principal_log(z)  # the principal arg, so -x - 0i rotates like -x + 0i
    d = lam - k
    coef = weights * np.exp(k * log_z - 1j * d * (0.5 * math.pi - log_z.imag))
    kernel = _WeightedPowers(1j * np.abs(z), coef, 0)
    # each term w_j z_j**lam sums r**(-1-d) e^{-|z_j| r} over nodes where
    # |z_j| r reaches a few |d|, and e^{-|z_j| r} inherits the rounding of r
    # times that exponent, unseen by the level gap
    sizes = weights * np.exp((lam * log_z).real)  # |w_j z_j**lam|
    rounding = 8.0 * _EPS * (1.0 + abs(lam)) * float(np.sum(sizes))
    return (lambda u: kernel(u)[..., 0, 0]), rounding


def _quad_moment(model, alpha, lam, cfg):
    """E[(Z + alpha)**lam] at any order, from the Riemann-Liouville operator
    of order lam - k on h(u) = E[Z'**k exp(iuZ')], Z' = Z + alpha,
    k = _whole_order(lam), with the atoms of an atomic law on rotated rays;
    h(0) itself at lam = k."""
    cfg = cfg or QuadratureConfig()
    alpha = complex(alpha)
    lam = complex(lam)
    model.check_moment(alpha, lam)
    _check_real_shift(model, alpha, lam)
    if alpha.imag < 0:
        raise SupportError("alpha must lie in the closed upper half plane")

    k = _whole_order(lam)
    atoms = _point_masses(model)
    if atoms is not None:
        h, rounding = _rotated_atoms(*atoms, alpha, lam, k)
    else:
        h = functools.partial(_shifted_weighted_char, model, alpha, k)  # k + 1 terms, which may cancel
        sizes = [math.comb(k, j) * abs(alpha) ** (k - j) * abs(model.char_deriv(j, 0.0)) for j in range(k + 1)]
        rounding = 4.0 * _EPS * (k + 1) * sum(sizes)  # their rounding, from their sizes at u = 0

    value, unc, evals, _, _ = _fractional_power(h, lam - k, cfg, 1j)
    meta = {"evaluations": evals, "k": k, "quad": _cfg_meta(cfg)}
    return MomentEstimate(value, unc + rounding, Route.QUAD, meta)


def frac_moment_neg(model, alpha, lam, cfg=None):
    """E[(Z + alpha)**lam] for Re(lam) < 0: the Riemann-Liouville integral
    of E[exp(iuZ')], Z' = Z + alpha."""
    if complex(lam).real >= 0:
        raise ValueError("frac_moment_neg needs Re(lam) < 0")
    return _quad_moment(model, alpha, lam, cfg)


def frac_moment_pos(model, alpha, lam, cfg=None):
    """E[(Z + alpha)**lam] for Re(lam) > 0: the Riemann-Liouville integral of
    order lam - k, Re(lam - k) in [-1, 0), of E[Z'**k exp(iuZ')], Z' = Z + alpha,
    k = _whole_order(lam), or that transform at u = 0 if lam = k."""
    if complex(lam).real <= 0:
        raise ValueError("frac_moment_pos needs Re(lam) > 0")
    return _quad_moment(model, alpha, lam, cfg)


# ---------------------------------------------------------------------------
# Monte Carlo


def frac_moment_mc(model, alpha, lam, mc=None):
    """Monte Carlo E[(Z + alpha)**lam] with componentwise standard error
    combined as sqrt(var_re + var_im) / sqrt(N), behind the domain guards of
    the quadrature route: check_moment and _check_real_shift.  It refuses
    where E|Z + alpha|^(2 Re lam) diverges, since the standard error then
    estimates no finite variance."""
    mc = mc or MCConfig()
    alpha = complex(alpha)
    lam = complex(lam)
    model.check_moment(alpha, lam)
    _check_real_shift(model, alpha, lam)
    try:
        model.check_moment(alpha, 2 * lam.real)
    except MomentExistenceError as exc:
        raise RouteUnavailableError(
            f"no Monte Carlo standard error without E[|Z + alpha|^{2 * lam.real:g}]: {exc}"
        ) from exc

    def block(first, count):
        draws, _, ws = _block_draws(model, mc, first, count)
        np.add(draws, alpha, out=draws)
        return np_principal_pow(draws, lam, out=draws, ws=ws)

    [(mean, stderr)], blocks = _mc_mean(block, mc.samples, mc)
    return MomentEstimate(
        value=mean,
        uncertainty=stderr,
        method=Route.MONTE_CARLO,
        meta={"seed": mc.seed, "samples": mc.samples, "blocks": blocks},
    )


# ---------------------------------------------------------------------------
# dispatch


def _first_route(route, steps):
    """The estimate of the first step that answers, with meta["auto"] set.

    steps lists (route, call) pairs in order of preference.  An explicit
    route runs only its own step.  AUTO skips a step that raises ValueError
    or NonConvergenceError, except MomentExistenceError (a moment that does
    not exist is not a route-selection problem) and the last step's error,
    which propagate.
    """
    auto = route is Route.AUTO
    calls = [call for step, call in steps if auto or step is route]
    if not calls:
        raise RouteUnavailableError(
            f"route {route.value} does not apply here; try one of {[step.value for step, _ in steps]}"
        )
    for call in calls[:-1]:
        try:
            est = call()
            break
        except MomentExistenceError:
            raise
        except (ValueError, NonConvergenceError):
            continue
    else:
        est = calls[-1]()
    est.meta["auto"] = auto
    return est


def frac_moment(model, alpha, lam, route=Route.AUTO, cfg=None, mc=None):
    """One fractional moment E[(Z + alpha)**lam] by the requested route.

    AUTO prefers closed > quadrature > Monte Carlo and records the choice.
    """
    alpha = complex(alpha)
    lam = complex(lam)
    _check_finite("alpha and lambda", alpha, lam)  # here, not in a step that AUTO would skip

    def closed():
        return MomentEstimate(closed_moment(model, alpha, lam), 0.0, Route.CLOSED)

    steps = [(Route.CLOSED, closed), (Route.QUAD, lambda: _quad_moment(model, alpha, lam, cfg)),
             (Route.MONTE_CARLO, lambda: frac_moment_mc(model, alpha, lam, mc))]
    return _first_route(route, steps)


# ---------------------------------------------------------------------------
# power-mean expectations


def _series_power_coeff(g_coeffs, n, k):
    """k-th Taylor coefficient of (sum_j g_j tau**j)**n, n >= 1, for each row
    of the array g_coeffs, whose last axis holds g_0..g_k: g_k at n = 1, else
    n - 2 truncated products, then one coefficient of the last, all rows at once."""
    if n == 1:
        return g_coeffs[..., k]
    power = g_coeffs
    if n > 2:
        index, lower = _lower_shift(k)
        factor = g_coeffs[..., index] * lower  # factor[..., m, i] = g_(m - i) of its row, or 0
        for _ in range(n - 2):
            power = (factor * power[..., None, :]).sum(axis=-1)
    return (power * g_coeffs[..., ::-1]).sum(axis=-1)


@functools.cache
def _lower_shift(k):
    """m - i for m, i = 0..k, clipped at 0, and where i <= m."""
    shift = np.subtract.outer(np.arange(k + 1), np.arange(k + 1))
    return np.maximum(shift, 0), shift >= 0


# floats one block of c of _WeightedPowers may hold, 960 kB: on the t3 and
# Poincare fractional-derivative power means, budgets of 60,000 and 480,000
# floats ran slower and 240,000 about as fast
_BLOCK_FLOATS = 120_000


class _WeightedPowers:
    """Moments E[W^j e^{icW}], j = 0..jmax, of a discrete law of W and of a
    coarser law that shares most of its points, at one c or at each c of a
    1-d array.

    Row j holds w_i * W_i**j at the points and weights of the law's node
    rule: exact for atoms, a quadrature sum over a density, whose error
    shows in the gap to the coarser law, the level below of a nested rule,
    given as (count, start, ratio): the finer law weighs the first count
    values, the coarser one the values from start on, at ratio times their
    weights.  The rotated atoms of _quad_moment give it complex weights.
    An evaluation forms e^{icW} = e^{-c Im W} e^{ic Re W}, the phasor from
    one tangent, at every c and value of a block of c as one (c, values)
    array in reused buffers, takes its product with each row and a pairwise
    sum along each product over each law's values, all on the calling
    thread: a BLAS product would hand the reduction to a thread pool, and
    einsum's running sum loses digits that the difference h(t) - h(0) of
    the Riemann-Liouville integral then magnifies.  The blocks hold at most
    _BLOCK_FLOATS floats, so a long array of c is split here, whoever asks
    for it.  Every entry is computed
    as it would be at that c alone, so an array of c gives the bits of one
    call per c.  It returns both laws' moments as rows 0 and 1 of a
    (2, jmax + 1) array per c, after the shape of c; without a coarser law,
    row 1 repeats row 0.
    """

    def __init__(self, values, weights, jmax, coarse=None):
        self._coarse = coarse
        self.count = len(values) if coarse is None else coarse[0]
        self.rows = np.empty((jmax + 1, len(values)), dtype=complex)
        self.rows[0] = weights
        for j in range(1, jmax + 1):
            np.multiply(self.rows[j - 1], values, out=self.rows[j])
        self._re, self._neg_im = values.real.copy(), -values.imag
        # the floats held per c and value: the products with the rows, the
        # first in place of the phasor, with the magnitude and phase it is
        # formed from in the slot of the second (two each), and the scratch of
        # the tangent
        self._size = max(1, _BLOCK_FLOATS // ((2 * max(jmax + 1, 2) + 1) * len(values)))
        # buffers for the largest block, made once, so that blocks of every
        # size reuse the same memory
        self._slots = np.empty((self._size, max(jmax + 1, 2), len(values)), dtype=complex)
        self._ws = Workspace()  # the tangent's scratch
        self._ws.take("scratch.2", (self._size, len(values)))
        self._blocks = {}

    def _block(self, m):
        """Views for m values of c: magnitudes, phases, phasors and their
        products with the rows.  The phasors lie in the slot of the first
        product, formed in place, and the magnitudes and phases in the slot
        of the second, formed after them."""
        block = self._blocks.get(m)
        if block is None:
            slots, size = self._slots[:m], len(self._re)
            parts = slots[:, 1].view(float)
            block = self._blocks[m] = parts[:, :size], parts[:, size:], slots[:, 0], slots[:, : len(self.rows)]
        return block

    def __call__(self, c):
        c = np.asarray(c, dtype=float)
        cs = c.reshape(-1, 1)
        moments = np.empty((len(cs), 2, len(self.rows)), dtype=complex)
        for first in range(0, len(cs), self._size):
            block, out = cs[first : first + self._size], moments[first : first + self._size]
            mag, phi, buf, prod = self._block(len(block))
            np.exp(np.multiply(self._neg_im, block, out=mag), out=mag)
            _scaled_phasor(mag, np.multiply(self._re, block, out=phi), buf, self._ws)
            np.multiply(self.rows[1:], buf[:, None, :], out=prod[:, 1:])
            np.multiply(self.rows[0], buf, out=buf)
            np.add.reduce(prod[:, :, : self.count], axis=2, out=out[:, 0])
            if self._coarse is None:
                out[:, 1] = out[:, 0]
            else:
                _, start, ratio = self._coarse
                np.multiply(np.add.reduce(prod[:, :, start:], axis=2, out=out[:, 1]), ratio, out=out[:, 1])
        return moments.reshape(c.shape + moments.shape[1:])


def _turn(p):
    """The angle psi = -pi (1 + p) / 2 by which W is turned at either sign of
    p: for Z + alpha in the closed upper half plane, arg W lies between 0 and
    p pi, so for 0 < |p| < 1 arg(e^{i psi} W) lies between -pi (1 + p) / 2
    and -pi (1 - p) / 2, strictly below the real axis, centred on -pi / 2."""
    return -0.5 * math.pi * (1.0 + p)


class _SingleDrawTransform:
    """u -> (i**k F^(k)(u), its gap), F = G**n, G(u) = E[exp(-i(u/n) W')]:
    i**k F^(k)(u) = E[S'**k exp(-iuS')] for the mean S' of n turned values
    W' = e^{i psi} (Z + alpha)**p (_turn), which decays as u grows wherever
    every W' lies below the real axis.  W' is taken at the points of the
    law's nested rule (model.nested_nodes) at level and level - 1, graded
    toward the branch point -alpha of W; the kernel sums E[W'^j e^{icW'}],
    j = 0..k, under both levels, and one truncated series power of every
    row gives the k-th coefficient.  The gap is to the coarser level, exactly
    0 for atoms, whose levels agree.  As an integrand of quad it takes an
    array of u and returns the pair as two arrays of u's shape, from one
    kernel call, which blocks the u within the kernel's own memory budget."""

    def __init__(self, model, alpha, p, n, k, level):
        self.n, self.k = n, k
        points, weights, *coarse = model.nested_nodes(level, alpha)
        self.atoms = values = np_principal_pow(points + alpha, p)
        values *= cmath.exp(1j * _turn(p))
        self.kernel = _WeightedPowers(values, weights, k, coarse)
        # G^(j)(u) / j! = (-i)^j E[W'^j e^{-i(u/n)W'}] / (n^j j!), and the
        # (-i)^j leave the k-th coefficient of G**n as (-i)^k, which i**k
        # undoes; 1 / (n^j j!) is formed in floats, which underflow, not overflow
        self._taylor = np.cumprod(np.r_[1.0, 1.0 / (n * np.arange(1.0, k + 1))])

    def __call__(self, u):
        coeffs = self.kernel(np.divide(u, -self.n)) * self._taylor  # at -u / n
        fine, coarse = (_series_power_coeff(coeffs, self.n, self.k) * math.factorial(self.k)).T
        return fine, fine - coarse

    f_deriv_k = __call__


# the names perfbench/tracer.py wraps; a call runs __call__ alone, one span
_NegTransform = _PosTransformDerivs = _SingleDrawTransform
# the names perfbench/tracer.py wraps for the Marchaud integrals; nothing calls them
integrate_marchaud = marchaud_unit_interval = integrate_singular_decaying


def _pm_frac_deriv(model, spec, cfg):
    """E[M_p] = E[S**(1/p)], S = (1/n) sum_j (Z_j + alpha)**p, at either sign
    of p from E[S'**k exp(-iuS')], k = max(ceil(1/p), 0), of the turned
    mean S' = e^{i psi} S below the real axis (_turn), as S**(1/p) =
    e^{-i psi / p} S'**(1/p) on the principal branch.  One draw runs at
    p = 1, since M_p = Z + alpha = M_1 at n = 1.  SupportError refuses a
    real-line density at real alpha, whose node rule is graded toward
    -alpha only off the real line, except at p = 1, where W = Z + alpha has
    no branch point, and, where an integral runs, a turned value on the
    real axis (p = -1, real Z + alpha).  The transform sums the law's nested
    rule (model.nested_nodes): one integral sums the pair (h_L, h_L -
    h_(L-1)) at L = 7, the value and the rule's own gap at the same nodes,
    and, if the gap misses cfg's tolerance, one more at L = 8;
    meta["evaluations"] and a NonConvergenceError count both, and
    meta["nodes"] counts the level-L rule.  The uncertainty adds the gap,
    its error, the relative gap of the rule's y (model.y_rule, in
    meta["y_level"] and meta["y_gap"]) times |value| and a rounding
    allowance to the value's.  Only p = 0 reads the closed transform:
    E[Z**(1/n)] by QUAD."""
    p, n, alpha = spec.p if spec.n > 1 else 1.0, spec.n, spec.alpha
    cfg = cfg or QuadratureConfig()
    _check_power_mean(model, spec)
    gap, gap_unc, k = 0.0, 0.0, 0
    if abs(p) < _P_GEOMETRIC_EPS:
        # geometric mean: E[prod Z_j**(1/n)] = E[Z**(1/n)]**n, no fractional
        # operator at p itself
        inner = frac_moment_pos(model, alpha, 1.0 / n, cfg)
        value = principal_pow(inner.value, float(n))
        unc = n * abs(inner.value) ** (n - 1) * inner.uncertainty
        est = MomentEstimate(value, unc, Route.FRAC_DERIV, {**inner.meta, "geometric": True, "n": n})
    else:
        _check_real_shift(model, alpha, p, p != 1)  # on the node rule
        order = 1.0 / p
        if order > 0 and abs(order - round(order)) < 1e-12:
            order = round(order)  # a plain derivative of the transform
        k = _whole_order(order)
        if k > 170:
            raise RouteUnavailableError(f"1/p = {order:g} needs {k}!, past the float range")
        evals = 0
        for level in (_NODE_LEVEL + 1, _NODE_LEVEL + 2):
            transform = _SingleDrawTransform(model, alpha, p, n, k, level)
            # an integral converges only if every W' lies below the real axis
            if order != k and not np.all(transform.atoms.imag < 0.0):
                raise SupportError("single-draw transform does not decay: a turned value e^{i psi} (Z + alpha)**p not below the real axis; check alpha")
            try:
                value, unc, used, gap, gap_unc = _fractional_power(transform, order - k, cfg, -1j)
            except NonConvergenceError as exc:
                exc.evaluations += evals
                raise
            evals += used
            value *= cmath.exp(-1j * _turn(p) / p)  # |gap| does not turn
            gap = float(abs(gap))
            if gap <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                break
        else:
            msg = f"node rules at levels {level - 1} and {level} disagree by {gap:.3e}"
            raise NonConvergenceError(msg, value=value, err_estimate=gap, evaluations=evals)
        y_level, y_gap = model.y_rule(alpha)
        meta = {"order": order, "transform": model.rule, "level": level, "level_gap": gap}
        meta.update({"nodes": transform.kernel.count, "y_level": y_level, "y_gap": y_gap})
        meta.update({"evaluations": evals} if evals else {"ordinal": True})
        est = MomentEstimate(value, unc, Route.FRAC_DERIV, meta)
        gap += y_gap * abs(value)  # the level gap sees x's error, not y's
    # the ulps cover rounding in the transform sums and the series power, and
    # in each turned value, which S'**k and the turn back magnify k times
    est.uncertainty += gap + gap_unc + (16.0 + 4.0 * k) * math.ulp(abs(est.value))
    return est


def _pm_monte_carlo(model, specs, mc):
    """One estimate per spec; the specs share n and alpha.  Every block of
    draws serves every spec (common random numbers), so each estimate is the
    one a call with that spec alone returns."""
    mc = mc or MCConfig()
    n, alpha = specs[0].n, specs[0].alpha
    if any(spec.n != n or spec.alpha != alpha for spec in specs):
        raise ValueError("Monte Carlo power means drawn together need one n and one alpha")
    for spec in specs:
        _check_power_mean(model, spec)
    ps = [spec.p for spec in specs]

    def block(first, count):
        draws, rows, ws = _block_draws(model, mc, first, count, n, len(ps))
        np.add(draws, alpha, out=draws)
        return _power_mean_rows(draws.reshape(-1, n), ps, ws, rows)

    estimates, blocks = _mc_mean(block, mc.samples, mc)
    return [
        MomentEstimate(
            value=mean,
            uncertainty=stderr,
            method=Route.MONTE_CARLO,
            meta={"seed": mc.seed, "replications": mc.samples, "n": n, "blocks": blocks},
        )
        for mean, stderr in estimates
    ]


def power_mean_expectation(model, spec, route=Route.AUTO, cfg=None, mc=None):
    """E[((1/n) sum_j (Z_j + alpha)**p)**(1/p)] by the requested route.

    Every route runs _check_power_mean first, and the estimate's method is
    the route that ran.  CLOSED covers the residue laws at every p and alpha
    (and exact enumeration for two-point laws); FRAC_DERIV applies the
    fractional operators to the n-th power of the single-draw transform,
    deterministically (it takes no mc), summing the law's nested rule (its
    atoms for an atomic law) at every n, except at p = 0 and n >= 2, where
    it takes E[Z**(1/n)]**n from the QUAD route;
    MONTE_CARLO averages power means over replications of n fresh draws.
    """
    if not isinstance(spec, PowerMeanSpec):
        raise TypeError("spec must be a PowerMeanSpec")
    if spec.exploratory and route is not Route.MONTE_CARLO:
        raise RouteUnavailableError("|p| > 1 exploration is Monte Carlo only")

    def closed():
        _check_power_mean(model, spec)
        val = model.closed_power_mean(spec.p, spec.n, spec.alpha)
        return MomentEstimate(val, 0.0, Route.CLOSED, {"n": spec.n, "p": spec.p})

    return _first_route(route, [
        (Route.CLOSED, closed),
        (Route.FRAC_DERIV, lambda: _pm_frac_deriv(model, spec, cfg)),
        (Route.MONTE_CARLO, lambda: _pm_monte_carlo(model, [spec], mc)[0]),
    ])


# ---------------------------------------------------------------------------
# continuity scan


@dataclass
class ScanRow:
    p: float
    estimate: MomentEstimate | None
    error: str | None = None


@dataclass
class ScanTable:
    rows: list
    max_jump: float
    max_jump_pair: tuple | None
    max_jump_uncertainty: float

    def csv_rows(self):
        """(header, rows) of the CSV form; a failed point carries its error
        in the method column."""
        rows = [
            [row.p, row.estimate.value.real, row.estimate.value.imag, row.estimate.uncertainty, row.estimate.method.value]
            if row.estimate
            else [row.p, "", "", "", f"error: {row.error}"]
            for row in self.rows
        ]
        return ["p", "re", "im", "uncertainty", "method"], rows

    def to_csv(self, path):
        import csv as _csv

        header, rows = self.csv_rows()
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def to_json(self):
        return {
            "rows": [
                {
                    "p": row.p,
                    "estimate": row.estimate.to_json() if row.estimate else None,
                    "error": row.error,
                }
                for row in self.rows
            ],
            "max_jump": self.max_jump,
            "max_jump_pair": list(self.max_jump_pair) if self.max_jump_pair else None,
            "max_jump_uncertainty": self.max_jump_uncertainty,
        }


def continuity_scan(model, alpha, n, p_grid, route=Route.AUTO, cfg=None, mc=None, exploratory=False):
    """Power-mean expectations over a grid of p, with the maximum
    adjacent-pair jump as a continuity diagnostic.

    Every row is the estimate power_mean_expectation returns for its p
    alone at mc's seed.  On route MONTE_CARLO the orders of one sign share
    one call, and so one pass over the draws (common random numbers), which
    fails exactly where its points would fail alone (_check_power_mean).
    Per-point failures are recorded and the scan continues."""
    mc = mc or MCConfig()
    ps = [float(p) for p in p_grid]
    specs = [PowerMeanSpec(p=p, n=n, alpha=alpha, exploratory=exploratory) for p in ps]
    if route is Route.MONTE_CARLO:
        groups = [[idx for idx, p in enumerate(ps) if (p > 0) - (p < 0) == sign] for sign in (-1, 0, 1)]
    else:
        groups = [[idx] for idx in range(len(ps))]
    rows = [None] * len(ps)
    for group in filter(None, groups):
        try:
            if route is Route.MONTE_CARLO:
                ests = _pm_monte_carlo(model, [specs[idx] for idx in group], mc)
                for est in ests:
                    est.meta["auto"] = False  # as power_mean_expectation tags an explicit route
            else:
                ests = [power_mean_expectation(model, specs[group[0]], route, cfg, mc)]
            for idx, est in zip(group, ests):
                rows[idx] = ScanRow(ps[idx], est)
        except Exception as exc:  # per-point errors recorded, scan continues
            for idx in group:
                rows[idx] = ScanRow(ps[idx], None, f"{type(exc).__name__}: {exc}")
    max_jump = 0.0
    max_pair = None
    max_unc = 0.0
    prev = None
    for row in rows:
        if row.estimate is None:
            prev = None
            continue
        if prev is not None:
            jump = abs(row.estimate.value - prev.estimate.value)
            if jump > max_jump:
                max_jump = jump
                max_pair = (prev.p, row.p)
                max_unc = math.hypot(prev.estimate.uncertainty, row.estimate.uncertainty)
        prev = row
    return ScanTable(rows, max_jump, max_pair, max_unc)
