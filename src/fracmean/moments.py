"""Fractional moments E[Z**lam] and power-mean expectations by three routes.

Routes, cross-checking one another:

* closed forms where a family admits them,
* fractional-order differentiation of the half-line characteristic
  transform, realized as quadrature (a Riemann-Liouville integral for
  Re(lam) < 0, a Marchaud difference quotient for Re(lam) > 0),
* Monte Carlo with componentwise standard errors and deterministic,
  stream-split batching.

The power mean of order p is ((1/n) sum z_j**p)**(1/p) with principal
branches throughout, and the geometric mean prod z_j**(1/n) at p = 0.
"""

import cmath
import collections
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    AtomicLaw,
    MomentExistenceError,
    RouteUnavailableError,
    SupportError,
    char_fn,  # no caller here: perfbench/tracer.py wraps this name
    char_fn_derivative,
    sample,
)
from .gammafn import gamma
from .principal import (
    BranchDomainError,
    _log_from_polar,
    _polar,
    _pow_from_polar,
    np_principal_log,
    np_principal_pow,
    principal_pow,
)
from .quad import (
    NonConvergenceError,
    QuadratureConfig,
    _EPS,
    _MARCHAUD_CUT,
    integrate_marchaud,
    integrate_singular_decaying,
    marchaud_unit_interval,  # no caller here: perfbench/tracer.py wraps this name
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
    CLOSED = "closed"
    QUAD_NEG = "quad_neg"
    QUAD_POS = "quad_pos"
    MONTE_CARLO = "mc"
    FRAC_DERIV = "frac_deriv"  # power-mean route through the fractional operators
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
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not self.exploratory and not -1.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [-1, 1]")
        if self.alpha.imag < 0:
            raise ValueError("alpha must lie in the closed upper half plane")


# below this, z**p - 1 ~ p log z sinks under rounding while 1/p amplifies it,
# so the geometric limit is the *accurate* evaluation
_P_GEOMETRIC_EPS = 1e-8

# level of the node rules behind the single-draw transforms of laws without
# a closed one; the route runs again one level up and reports the gap
_NODE_LEVEL = 6


def power_mean(values, p):
    """((1/n) sum z_j**p)**(1/p); the geometric mean prod z_j**(1/n) at p = 0.

    p < 0 (and p = 0) require every value to be nonzero.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("power_mean expects a nonempty 1-d collection")
    return complex(_power_mean_rows(values[None, :], [p])[0, 0])


def _power_mean_rows(draws, ps):
    """Power means along axis 1 of an (R, n) complex array: one row of R per
    order in ps, all from one polar form of the draws."""
    reps, n = draws.shape
    _, _, zero = polar = _polar(draws.reshape(-1))
    if zero is not None and min(ps) <= 0:
        raise BranchDomainError("power mean of order p <= 0 needs nonzero values")
    out = np.empty((len(ps), reps), dtype=complex)
    for row, p in zip(out, ps):
        if abs(p) < _P_GEOMETRIC_EPS:
            row[:] = np.exp(_row_means(_log_from_polar(*polar).reshape(reps, n)))
        else:
            means = _row_means(_pow_from_polar(*polar, complex(p)).reshape(reps, n))
            row[:] = np_principal_pow(means, 1.0 / p)
    return out


def _row_means(values):
    """np.mean(values, axis=1) of an (R, n) complex array, bit for bit, from
    n column additions: numpy runs its reduction loop once per row, which
    costs several times the additions at small n."""
    n = values.shape[1]
    total = _pairwise_columns(values, 0, n)
    return np.true_divide(total, n, out=total)


def _pairwise_columns(values, lo, hi):
    """Sum of columns lo..hi-1 in the order of numpy's pairwise sum of one
    row: sequential below 4 terms; up to 64 terms, four accumulators joined
    as (a0 + a1) + (a2 + a3) and then the remaining terms; above that, the
    two halves split at a multiple of 4 terms.  numpy adds the sum to an
    initial +0.0; starting each accumulator at its term + 0.0 gives the same
    bits, since it only turns -0.0 into +0.0."""
    m = hi - lo
    if m > 64:
        mid = lo + (m - m % 8) // 2
        total = _pairwise_columns(values, lo, mid)
        total += _pairwise_columns(values, mid, hi)
        return total
    width = 1 if m < 4 else 4
    acc = [values[:, lo + q] + 0.0 for q in range(width)]
    stop = hi - m % width
    for j in range(lo + width, stop, width):
        for q in range(width):
            acc[q] += values[:, j + q]
    if width == 4:
        acc[0] += acc[1]
        acc[2] += acc[3]
        acc[0] += acc[2]
    for j in range(stop, hi):
        acc[0] += values[:, j]
    return acc[0]


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
    """E[(Z + alpha)**lam] in closed form, or None when the family has no
    closed expression for these arguments.

    Raises MomentExistenceError when the moment itself does not exist.
    """
    return model.closed_moment(complex(alpha), complex(lam))


def _shifted_weighted_char(model, alpha, k, u):
    """E[(Z + alpha)**k exp(iu (Z + alpha))] via the transform derivatives."""
    alpha = complex(alpha)
    total = 0.0 + 0.0j
    for j in range(k + 1):
        ezj = 1j ** j * char_fn_derivative(model, j, u)
        total += math.comb(k, j) * alpha ** (k - j) * ezj
    return np.exp(1j * u * alpha) * total


# ---------------------------------------------------------------------------
# quadrature routes for a single fractional moment


def _cfg_meta(cfg):
    return {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol, "max_level": cfg.max_level}


def _fractional_power(h, lam, decay, cfg, phase, amplitude=0.0):
    """E[Y**lam] from h(t) = E[Y**k exp(phase t Y)], with k = floor(Re lam)
    for Re(lam) > 0 and k = 0 otherwise; phase is i for Y in the upper half
    plane, -i in the lower; amplitude is a known K in the decay bound of h,
    or 0.  Returns (value, uncertainty, evaluations) of

        Re lam < 0:  phase**lam / Gamma(-lam) int_0^inf t**(-lam-1) h(t) dt,  |h(t)| <~ e^{-decay t}
        Re lam > 0:  phase**d d / Gamma(1-d) int_0^inf (h(0) - h(u)) / u**(1+d) du,  d = lam - k
        integer lam: h(0), with no quadrature
    """
    if lam.real < 0:
        im_l = lam.imag
        g = h if im_l == 0.0 else lambda t: np.exp(-1j * im_l * math.log(t)) * h(t)
        res = integrate_singular_decaying(g, -lam.real - 1.0, decay, cfg, amplitude)
        scale = principal_pow(phase, lam) / gamma(-lam)
    else:
        delta = lam - math.floor(lam.real)
        if delta == 0:
            return complex(h(0.0)), 0.0, 0
        res = integrate_marchaud(h(0.0), h, delta, cfg)
        scale = principal_pow(phase, delta) * delta / gamma(1.0 - delta)
    return scale * res.value, abs(scale) * res.err_estimate, res.evaluations


def _rotated_atoms(model, alpha, lam, k):
    """(h, decay, amplitude, rounding) for an atomic law, with every atom z of
    Z' = Z + alpha moved onto its steepest-descent ray u = e^{i phi} r,
    phi = pi/2 - arg z, where e^{iuz} = e^{-|z| r}.  Between the two rays
    |e^{iuz}| <= 1, so by Cauchy's theorem, with d = lam - k,

        Re d < 0:  int_0^inf u**(-1-d) e^{iuz} du = e^{-i phi d} int_0^inf r**(-1-d) e^{-|z| r} dr,
        Re d > 0:  int_0^inf (1 - e^{iuz}) u**(-1-d) du = e^{-i phi d} int_0^inf (1 - e^{-|z| r}) r**(-1-d) dr,

    and h(u) = sum_j c_j e^{-|z_j| u}, c_j = w_j z_j**k e^{-i phi_j d}, is a
    sum of exponentials decaying at the rate min_j |z_j|: no term oscillates.
    Its amplitude sum_j |c_j| bounds |h(u)| e^{u min_j |z_j|}, which terms of
    opposite phase can hide from probes of h."""
    points, weights = model.nodes(0)
    z = points + alpha
    if np.any(z.imag < 0):
        raise SupportError("shifted atoms must stay in the closed upper half plane")
    model.check_negative_order(alpha, lam)
    keep = z != 0  # 0**lam = 0 contributes nothing at Re(lam) > 0
    z, weights = z[keep], weights[keep]
    log_z = np_principal_log(z)  # the principal arg, so -x - 0i rotates like -x + 0i
    d = lam - k
    coef = weights * np.exp(k * log_z - 1j * d * (0.5 * math.pi - log_z.imag))
    rates = np.abs(z)
    kernel = _WeightedPowers(1j * rates, coef, 0)
    amplitude = float(np.sum(np.abs(coef)))
    rounding = 0.0
    if lam.real > 0:
        # h(0) - h(u) errs by up to 2 eps sum_j |c_j|, which the weight u**(-1-d)
        # magnifies above the near-origin cut, unseen by the quadrature's estimate
        noise = 2.0 * _EPS * amplitude * _MARCHAUD_CUT ** -d.real / d.real
        rounding = abs(d / gamma(1.0 - d)) * math.exp(-0.5 * math.pi * d.imag) * noise  # |i**d d / Gamma(1 - d)|
    else:
        # each term w_j z_j**lam sums r**(-1-lam) e^{-|z_j| r} over nodes where
        # |z_j| r reaches a few |lam|, and e^{-|z_j| r} inherits the rounding
        # of r times that exponent, unseen by the level gap and the tail bound
        sizes = weights * np.exp((lam * log_z).real)  # |w_j z_j**lam|
        rounding = 8.0 * _EPS * (1.0 + abs(lam)) * float(np.sum(sizes))
    decay = float(np.min(rates)) if rates.size else 0.0  # no atom left: h = 0
    return (lambda u: complex(kernel(u)[0])), decay, amplitude, rounding


def _quad_moment(model, alpha, lam, cfg):
    """E[(Z + alpha)**lam], Re(lam) not zero or a positive integer, from the
    fractional operator on h(u) = E[Z'**k exp(iuZ')], Z' = Z + alpha,
    k = floor(Re lam) for Re(lam) > 0 and k = 0 otherwise, with the atoms of
    an atomic law on rotated rays."""
    cfg = cfg or QuadratureConfig()
    alpha = complex(alpha)
    lam = complex(lam)
    if lam.real > 0 and lam.real == int(lam.real):
        raise ValueError(
            "integer Re(lam) is an ordinary moment; compute it directly "
            "from the transform derivatives instead of the fractional route"
        )
    if lam.real >= model.max_moment:
        raise MomentExistenceError(
            f"E[|Z|^{lam.real:g}] diverges for {type(model).__name__}"
        )
    if alpha.imag < 0:
        raise SupportError("alpha must lie in the closed upper half plane")

    k = max(math.floor(lam.real), 0)
    if isinstance(model, AtomicLaw):
        h, decay, amplitude, rounding = _rotated_atoms(model, alpha, lam, k)
    else:
        if lam.real < 0 and model.support == "real" and alpha.imag == 0.0:
            raise SupportError("real-supported law needs Im(alpha) > 0 for Re(lam) < 0")
        h = functools.partial(_shifted_weighted_char, model, alpha, k)
        decay, amplitude, rounding = model.decay + alpha.imag, 0.0, 0.0

    value, unc, evals = _fractional_power(h, lam, decay, cfg, 1j, amplitude)
    meta = {"evaluations": evals, "k": k, "decay": decay, "quad": _cfg_meta(cfg)}
    return MomentEstimate(value, unc + rounding, Route.QUAD_NEG if lam.real < 0 else Route.QUAD_POS, meta)


def frac_moment_neg(model, alpha, lam, cfg=None):
    """E[(Z + alpha)**lam] for Re(lam) < 0: the Riemann-Liouville integral
    of E[exp(iuZ')], Z' = Z + alpha.  Real-supported density laws need
    Im(alpha) > 0; an atom of positive weight at -alpha makes the moment
    diverge (MomentExistenceError)."""
    if complex(lam).real >= 0:
        raise ValueError("frac_moment_neg needs Re(lam) < 0")
    return _quad_moment(model, alpha, lam, cfg)


def frac_moment_pos(model, alpha, lam, cfg=None):
    """E[(Z + alpha)**lam] for Re(lam) > 0, Re(lam) not an integer: the
    Marchaud difference quotient of E[Z'**k exp(iuZ')], Z' = Z + alpha,
    k = floor(Re lam)."""
    if complex(lam).real <= 0:
        raise ValueError("frac_moment_pos needs Re(lam) > 0")
    return _quad_moment(model, alpha, lam, cfg)


# ---------------------------------------------------------------------------
# Monte Carlo


def _thread_count():
    import os

    raw = os.environ.get("FRACMEAN_THREADS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"FRACMEAN_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _block_moments(vals):
    """(count, mean, M2_re, M2_im) of one block of complex values, where M2
    sums the squared deviations of each component from the block mean."""
    mean = complex(np.mean(vals))
    return (
        vals.size,
        mean,
        float(np.sum((vals.real - mean.real) ** 2)),
        float(np.sum((vals.imag - mean.imag) ** 2)),
    )


def _merge_moments(a, b):
    """Pairwise update of Chan, Golub & LeVeque: the moments of the union of
    two blocks, free of the cancellation in sum(x**2) - N * mean**2."""
    n_a, mean_a, re_a, im_a = a
    n_b, mean_b, re_b, im_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    w = n_a * n_b / n
    return n, mean_a + delta * (n_b / n), re_a + re_b + delta.real ** 2 * w, im_a + im_b + delta.imag ** 2 * w


def _ordered_partials(partial, blocks, threads):
    """partial(idx) for idx in range(blocks), yielded in index order.

    With threads > 1 at most 2 * threads blocks are in flight, so memory
    does not grow with the block count.
    """
    if threads == 1 or blocks == 1:
        yield from map(partial, range(blocks))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = collections.deque()
        for idx in range(blocks):
            window.append(pool.submit(partial, idx))
            if len(window) > 2 * threads:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _mc_mean(per_block_values, total, mc):
    """Blockwise accumulation of complex sample means.

    per_block_values(idx, size) returns one array of size values, or an
    array with one row of size values per estimate; each row is reduced
    separately.  Returns ([(mean, stderr) per row], blocks).

    Each block owns a stream derived from (seed, block index). A worker
    reduces its block to moments and drops the values, so about one block
    array per thread is alive at once; the moments are merged in block index
    order, so serial and FRACMEAN_THREADS > 1 runs produce identical results.
    """
    blocks = -(-total // mc.batch)

    def partial(idx):
        size = min(mc.batch, total - idx * mc.batch)
        return [_block_moments(row) for row in np.atleast_2d(per_block_values(idx, size))]

    def merge(acc, part):
        return [_merge_moments(a, b) for a, b in zip(acc, part)]

    merged = functools.reduce(merge, _ordered_partials(partial, blocks, _thread_count()))
    estimates = []
    for _, mean, m2_re, m2_im in merged:
        stderr = math.sqrt((m2_re + m2_im) / (total - 1) / total) if total > 1 else math.inf
        estimates.append((mean, stderr))
    return estimates, blocks


def frac_moment_mc(model, alpha, lam, mc=None):
    """Monte Carlo E[(Z + alpha)**lam] with componentwise standard error
    combined as sqrt(var_re + var_im) / sqrt(N).  At Re(lam) < 0 an atom of
    positive weight at -alpha raises MomentExistenceError, and a
    real-supported density law needs Im(alpha) > 0."""
    mc = mc or MCConfig()
    alpha = complex(alpha)
    lam = complex(lam)
    if isinstance(model, AtomicLaw):
        model.check_negative_order(alpha, lam)
    elif lam.real < 0 and model.support == "real" and alpha.imag <= 0.0:
        raise SupportError("real-supported density law needs Im(alpha) > 0 for Re(lam) < 0")

    def block(idx, size):
        return np_principal_pow(sample(model, mc.seed, size, stream=idx) + alpha, lam)

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

    def closed():
        if lam == 0:
            val = closed_moment(model, alpha, 0.0) if isinstance(model, AtomicLaw) else 1.0 + 0.0j
            return MomentEstimate(val, 0.0, Route.CLOSED, {"trivial_order": True})
        val = closed_moment(model, alpha, lam)
        if val is None:
            raise RouteUnavailableError(
                f"no closed form for {type(model).__name__} at alpha={alpha}, lam={lam}"
            )
        return MomentEstimate(val, 0.0, Route.CLOSED)

    steps = [(Route.CLOSED, closed)]
    if lam.real != 0:
        quad = Route.QUAD_NEG if lam.real < 0 else Route.QUAD_POS
        steps.append((quad, lambda: _quad_moment(model, alpha, lam, cfg)))
    steps.append((Route.MONTE_CARLO, lambda: frac_moment_mc(model, alpha, lam, mc)))
    return _first_route(route, steps)


# ---------------------------------------------------------------------------
# power-mean expectations


def _series_power_coeff(g_coeffs, n, k):
    """k-th Taylor coefficient of (sum_j g_j tau**j)**n, truncated at tau**k."""
    series = np.zeros(k + 1, dtype=complex)
    series[: len(g_coeffs)] = g_coeffs[: k + 1]
    out = np.zeros(k + 1, dtype=complex)
    out[0] = 1.0
    for _ in range(n):
        out = np.convolve(out, series)[: k + 1]
    return out[k]


class _WeightedPowers:
    """Moments E[W^j e^{icW}], j = 0..jmax, of a discrete law of W.

    Row j holds w_i * W_i**j at the points and weights of the law's node
    rule: exact for atoms, a quadrature sum over a density, whose error
    shows in the gap to the next level.  The rotated atoms of
    _quad_moment give it complex weights.  An evaluation is one complex exp
    into a reused buffer, then a product and a pairwise sum per row, all on
    the calling thread: a BLAS product would hand the reduction to a thread
    pool, and einsum's running sum loses digits that the Marchaud difference
    quotient then magnifies.
    """

    def __init__(self, values, weights, jmax):
        self.values = values
        self.rows = np.empty((jmax + 1, len(values)), dtype=complex)
        self.rows[0] = weights
        for j in range(1, jmax + 1):
            np.multiply(self.rows[j - 1], values, out=self.rows[j])
        self._buf = np.empty(len(values), dtype=complex)
        self._prod = np.empty(len(values), dtype=complex)

    def __call__(self, c):
        buf = np.multiply(self.values, 1j * c, out=self._buf)
        np.exp(buf, out=buf)
        prod = self._prod
        return np.array([np.multiply(row, buf, out=prod).sum() for row in self.rows])


class _SingleDrawTransform:
    """Set-up shared by the single-draw transforms of laws without a closed
    single-draw expression: W at the points of the law's node rule."""

    kernel = None  # stays None for a closed single-draw transform

    def _set_weighted_powers(self, model, alpha, p, jmax, level):
        points, weights = model.nodes(level)
        self.kind = "atoms" if isinstance(model, AtomicLaw) else "nodes"
        self.atoms = values = np_principal_pow(points + alpha, p)
        self.kernel = _WeightedPowers(values, weights, jmax)
        return values


class _NegTransform(_SingleDrawTransform):
    """u -> E[exp(-i(u/n) W)]**n with W = (Z+alpha)**p, p < 0, plus its
    exponential decay rate."""

    def __init__(self, model, alpha, p, n, level):
        self.n = n
        closed = model.single_draw(alpha)
        if closed is not None:
            point, factor, slack = closed
            self.kind = model.name
            self.w = principal_pow(point, p)
            self.poly = p * factor * principal_pow(point, p - 1.0) if factor else 0.0
            self.decay = -self.w.imag * slack
        else:
            values = self._set_weighted_powers(model, alpha, p, 0, level)
            self.decay = -float(np.max(values.imag))
        if self.decay <= 0:
            raise SupportError("single-draw transform does not decay; check alpha")

    def __call__(self, u):
        if self.kernel is not None:
            return complex(self.kernel(-u / self.n)[0]) ** self.n
        return (1.0 - self.poly * u / self.n) ** self.n * cmath.exp(-1j * u * self.w)


class _PosTransformDerivs(_SingleDrawTransform):
    """j-th derivatives of G(t) = E[exp(-i(t/n) W)] at t = -u, for
    W = (Z+alpha)**p with p > 0; used to assemble F = G**n."""

    def __init__(self, model, alpha, p, n, jmax, level):
        self.n = n
        self._pref = np.array([(-1j / n) ** j for j in range(jmax + 1)])
        self._fact = np.array([math.factorial(j) for j in range(jmax + 1)])
        closed = model.single_draw(alpha)
        # the t3 correction is worked out for the negative-order transform
        # only; without it E f(Z) = f(point), and so for every derivative too
        if closed is not None and closed[1] == 0.0:
            point, _, slack = closed
            self.w = principal_pow(point, p)
            self.wj = np.array([principal_pow(point, p * j) for j in range(jmax + 1)])
            self.kind = model.name
            self.decay = self.w.imag * slack
        else:
            values = self._set_weighted_powers(model, alpha, p, jmax, level)
            self.decay = float(np.min(values.imag))
        if self.decay <= 0:
            raise SupportError("single-draw transform does not decay; check alpha")

    def g_derivs(self, u):
        """[G^(j)(-u)] for j = 0..jmax; G^(j)(-u) = (-i/n)^j E[W^j e^{i(u/n)W}]."""
        v = u / self.n
        if self.kernel is None:
            return self._pref * self.wj * cmath.exp(1j * v * self.w)
        return self._pref * self.kernel(v)

    def f_deriv_k(self, u, k):
        """F^(k)(-u) with F = G**n, via a truncated series power."""
        return _series_power_coeff(self.g_derivs(u) / self._fact, self.n, k) * math.factorial(k)


def _pm_frac_deriv(model, spec, cfg):
    """A transform on a node rule runs at two levels: the finer value is
    reported, and its uncertainty adds the gap, which must meet cfg's tolerance.
    Every result that is not CLOSED carries a rounding allowance."""
    p, n, alpha = spec.p, spec.n, spec.alpha
    cfg = cfg or QuadratureConfig()
    if p <= 0 and isinstance(model, AtomicLaw) and np.any((model.atoms + alpha == 0) & (model.weights > 0)):
        raise BranchDomainError("power mean of order p <= 0 needs nonzero values")
    gap = 0.0
    if abs(p) < _P_GEOMETRIC_EPS:
        # geometric mean: E[prod Z_j**(1/n)] = E[Z**(1/n)]**n, no fractional
        # operator at p itself
        if n == 1:
            val = complex(_shifted_weighted_char(model, alpha, 1, 0.0))
            return MomentEstimate(val, 0.0, Route.CLOSED, {"route": "frac_deriv", "geometric": True})
        inner = frac_moment_pos(model, alpha, 1.0 / n, cfg)
        value = principal_pow(inner.value, float(n))
        unc = n * abs(inner.value) ** (n - 1) * inner.uncertainty
        meta = dict(inner.meta)
        meta.update({"route": "frac_deriv", "geometric": True, "n": n})
        est = MomentEstimate(value, unc, Route.QUAD_POS, meta)
    else:
        est = _pm_frac_deriv_at(model, spec, cfg, _NODE_LEVEL)
        if est.meta["transform"] == "nodes":
            coarse, est = est, _pm_frac_deriv_at(model, spec, cfg, _NODE_LEVEL + 1)
            gap = abs(est.value - coarse.value)
            if gap > max(cfg.abs_tol, cfg.rel_tol * abs(est.value)):
                msg = f"node rules at levels {_NODE_LEVEL} and {_NODE_LEVEL + 1} disagree by {gap:.3e}"
                raise NonConvergenceError(msg, value=est.value, err_estimate=gap)
            est.meta.update({"level": _NODE_LEVEL + 1, "level_gap": gap})
    # the ulps cover rounding in the transform sums and the series power
    est.uncertainty += gap + 16.0 * math.ulp(abs(est.value))
    return est


def _pm_frac_deriv_at(model, spec, cfg, level):
    """E[M_p] = E[S**(1/p)], S = (1/n) sum_j (Z_j + alpha)**p, from E[exp(-itS)]
    for p < 0 (S in the lower half plane), else from derivatives of E[exp(iuS)]."""
    p, n, alpha = spec.p, spec.n, spec.alpha
    order = 1.0 / p
    if p < 0:
        if model.support == "real" and alpha.imag <= 0:
            raise SupportError("real-supported power means with p < 0 need Im(alpha) > 0")
        h = transform = _NegTransform(model, alpha, p, n, level)
        phase, method = -1j, Route.QUAD_NEG
    else:
        if model.max_moment <= 1.0:
            raise MomentExistenceError(
                f"positive-order power means need Z in L^1; rejected for {type(model).__name__}"
            )
        if order >= 171:
            raise RouteUnavailableError(f"1/p = {order:g} needs {math.floor(order)}!, past the float range")
        if abs(order - round(order)) < 1e-12:
            order = round(order)  # a plain derivative of the transform
        k = math.floor(order)
        transform = _PosTransformDerivs(model, alpha, p, n, k, level)

        def h(u):  # i**k F^(k)(-u) = E[S**k exp(iuS)], exactly
            return (1, 1j, -1, -1j)[k % 4] * transform.f_deriv_k(u, k)

        phase, method = 1j, Route.QUAD_POS
    value, unc, evals = _fractional_power(h, order, transform.decay, cfg, phase)
    meta = {"route": "frac_deriv", "order": order, "transform": transform.kind}
    meta.update({"evaluations": evals} if evals else {"ordinal": True})
    return MomentEstimate(value, unc, method, meta)


def _pm_monte_carlo(model, specs, mc):
    """One estimate per spec; the specs share n and alpha.  Every block of
    draws serves every spec (common random numbers), so each estimate is the
    one a call with that spec alone returns."""
    mc = mc or MCConfig()
    n, alpha = specs[0].n, specs[0].alpha
    if any(spec.n != n or spec.alpha != alpha for spec in specs):
        raise ValueError("Monte Carlo power means drawn together need one n and one alpha")
    ps = [spec.p for spec in specs]
    if min(ps) < 0 and model.support == "real" and alpha.imag <= 0:
        raise SupportError("real-supported power means with p < 0 need Im(alpha) > 0")

    def block(idx, size):
        draws = sample(model, mc.seed, size * n, stream=idx).reshape(size, n) + alpha
        return _power_mean_rows(draws, ps)

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

    Route CLOSED covers the families with explicit formulas (and exact
    enumeration for two-point laws); FRAC_DERIV applies the fractional
    operators to the n-th power of the single-draw transform, deterministically
    (it takes no mc); MONTE_CARLO
    averages power means over replications of n fresh draws.
    """
    if not isinstance(spec, PowerMeanSpec):
        raise TypeError("spec must be a PowerMeanSpec")
    if spec.exploratory and route is not Route.MONTE_CARLO:
        raise RouteUnavailableError("|p| > 1 exploration is Monte Carlo only")

    def closed():
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
    one call, and so one pass over the draws (common random numbers); the
    guards against negative and zero orders differ by sign only, so a group
    fails exactly where its points would fail alone.  Per-point failures are
    recorded and the scan continues."""
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
