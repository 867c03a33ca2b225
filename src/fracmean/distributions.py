"""Distribution families, one class each, and their half-line transforms.

Built-in laws:

* ``Cauchy(mu, sigma)`` on the real line; E[exp(itX)] = exp(i*gamma*t) for
  t >= 0 with gamma = mu + i*sigma.
* ``ScaledT3(mu, sigma)``: location-scale family of the density
  (2/pi)(1+x^2)^-2 (a Student-t with 3 degrees of freedom compressed by
  sqrt(3)); E[exp(itX)] = (1 + sigma t) exp(i mu t - sigma t) for t >= 0.
* ``Poincare(a, b, c)`` on the upper half plane, density
  D e^{2D}/pi * exp(-(a(x^2+y^2)+2bx+c)/y) / y^2 with D = sqrt(ac-b^2);
  E[exp(itZ)] = exp(-i(b/a)t - (D/a)t) for t >= 0.
* ``TwoPoint(z1, z2, w)`` and ``Empirical(samples)`` for discrete checks;
  both are ``AtomicLaw``s with ``atoms`` and ``weights``.

Each class is the one place that knows its family's formulas.  The routes in
``moments`` and ``bounds`` ask a law only for these:

* ``support`` ('real', 'upper' or 'complex', read from the atoms of
  positive weight of an atomic law);
* ``check_moment(alpha, lam)``, which raises MomentExistenceError exactly
  where E[|Z + alpha|^Re(lam)] = inf: past the tail index of a real-line
  density (and at Re(lam) <= -1 for real alpha), at a negative order where
  an atom of positive weight sits at -alpha, and never for Poincare;
* ``density(z)``, ``char_deriv(k, t)`` = (-i)^k E[Z^k exp(itZ)] for t >= 0
  (k = 0 gives E[exp(itZ)]; a density law also takes an array of t), and ``sample(streams, out, ws)``,
  which fills ``out`` with draws, part by part from each (generator, count)
  pair of ``streams`` in turn, taking its scratch arrays from the workspace
  ``ws``;
* ``closed_moment(alpha, lam)`` and ``closed_power_mean(p, n, alpha)``,
  which raise RouteUnavailableError where the law has no closed form: one
  residue path (``_ResidueLaw``) for the three density families, exact sums
  for the atomic laws; each law answers lam = 0 itself (1 for a density);
* ``geometric_mean()`` = exp(E[log Z]), for the laws that can lie in the
  upper half plane (Poincare and the atomic laws);
* ``nodes(level, alpha)``: points and weights of a rule for E f(Z), finer
  as the level grows, and ``nested_nodes(level, alpha)``, the level and
  level - 1 from one build: the atoms at both levels (``rule`` 'atoms'), or
  quadrature over the density (``rule`` 'nodes'), which uses no pole or
  closed value, so the (seedless) routes built on it check the closed
  forms; the Poincare rule is sinh-graded toward the branch point -alpha of
  (z + alpha)**p, the others ignore alpha; ``y_rule(alpha)``, the level of
  the Poincare rule's y and the relative gap to the next, which the level
  gap does not see ((None, 0.0) for the other laws);
* ``name`` (the family tag of the JSON form) and ``to_json()``.

Adding a family means writing one class with these methods.  The
module-level ``density``, ``char_fn`` and ``char_fn_derivative`` check their
arguments and delegate; callers read ``support`` and call ``to_json()`` on
the law itself.

Samplers are exact and deterministic given (seed, stream): Cauchy by inverse
CDF, the t3 family by a rescaled Student draw, and the upper-half-plane law
by its conditional factorization x | y ~ Normal(-b/a, y/(2a)) with
y ~ InverseGaussian(mean D/a, shape 2 D^2 / a).
"""

import csv
import decimal
import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .principal import FRESH, _expm1, _root1p, np_principal_log, np_principal_pow, principal_pow
from .quad import tanh_sinh_nodes

__all__ = [
    "SupportError",
    "MomentExistenceError",
    "RouteUnavailableError",
    "Cauchy",
    "ScaledT3",
    "Poincare",
    "AtomicLaw",
    "TwoPoint",
    "Empirical",
    "density",
    "char_fn",
    "char_fn_derivative",
    "sample",
    "stream_generator",
    "parse_complex",
    "parse_params",
    "make_model",
    "model_from_json",
    "samples_to_csv",
    "load_samples_csv",
]


class SupportError(ValueError):
    """Point or operation outside the support/validity of the law."""


class MomentExistenceError(ValueError):
    """A required absolute moment of the law does not exist."""


class RouteUnavailableError(ValueError):
    """The requested route does not apply to this model/parameter combination."""


def _check_finite(what, *values):
    """ValueError unless every value, real or complex, is finite: a nan or an
    inf would pass the range checks and come out of every route as nan."""
    if not np.all(np.isfinite(np.array(values, dtype=complex))):
        raise ValueError(f"{what} must be finite")


# rules drop nodes lighter than this: they barely move a moment, but the
# farthest would set how slowly a single-draw transform decays.  The density
# factors put on tanh-sinh weights are about 1 at most, so lighter table
# nodes go first.
_NODE_FLOOR = 1e-20


# a Poincare rule stands y at the coarsest level m whose sums agree with
# those at m + 1 to this relative gap: the 16 ulps that the node-rule routes
# allow for rounding, so that the level gap plus that allowance stays an
# honest uncertainty without y's gap, which the routes add too.  Level 4
# meets it on 496 of criterion 9's 500 laws.  At the routes' default absolute
# tolerance, 1e-12, Poincare(2.5, 0.7, 0.2) stood at level 4, where its power
# means err by up to 1.4e-13, three times the gap of the sums that chose it.
_Y_GAP_TOL = 16.0 * math.ulp(1.0)
# the levels of y tried, coarsest first; level 3's gap was 5e-11 or more on
# every law measured
_Y_LEVELS = range(4, 9)


class _NestedRule:
    """The node rules of a density law, which nest: every node of level
    L - 1 is a node of level L, bit for bit, at ratio = 2 times its level-L
    weight, unless the floor drops it at one level.

    A law provides _grid(level, alpha): the nodes of the level's grid that
    either level keeps, as (points, weights, fine, coarse, ratio), fine
    marking the nodes the level keeps and coarse those level - 1 keeps."""

    rule = "nodes"

    def y_rule(self, alpha=0j):
        """(None, 0.0): a real-line rule has no y of its own."""
        return None, 0.0

    def nodes(self, level, alpha=0j):
        points, weights, count, _, _ = self.nested_nodes(level, alpha)
        return points[:count], weights[:count]

    def nested_nodes(self, level, alpha=0j):
        """Both levels of the rule from one build, as (points, weights,
        count, start, ratio): the nodes only the level keeps, then those both
        levels keep, then those only level - 1 keeps, each part in grid
        order, so that points[:count] with weights[:count] is the level's
        rule and points[start:] with ratio * weights[start:] is the rule of
        level - 1, bit for bit."""
        points, weights, fine, coarse, ratio = self._grid(level, alpha)
        order = np.concatenate([np.flatnonzero(part) for part in (fine & ~coarse, fine & coarse, coarse & ~fine)])
        start = int(np.count_nonzero(fine & ~coarse))
        return points[order], weights[order], int(np.count_nonzero(fine)), start, ratio


class _ResidueLaw:
    """A density law whose closed forms are residues at its pole gamma_point:
    E f(Z + alpha) = f(g) for Cauchy and Poincare, f(g) - i sigma f'(g) for
    the t3 law, at g = gamma_point + alpha (_residue_moment and
    _residue_power_mean, which the t3 law overrides), for f = z**lam and
    the power mean M_p of n draws, |p| <= 1.  This needs f holomorphic on
    the upper half plane (in each draw), growth that the law's moments
    absorb (check_moment, or the power-mean guard, refuses the rest), and
    Z + alpha never on the branch cut: alpha lies in the closed upper half
    plane, and a real Z + alpha takes the principal value, the limit from
    above.  E[(Z + alpha)**0] = 1, since Z + alpha != 0 almost surely."""

    def closed_moment(self, alpha, lam):
        self.check_moment(alpha, lam)
        if lam == 0:
            return 1.0 + 0.0j
        if alpha.imag < 0:  # the branch point -alpha sits in the upper half plane
            raise RouteUnavailableError(f"closed {self.name} moments need alpha in the closed upper half plane")
        return self._residue_moment(self.gamma_point + alpha, lam)

    def closed_power_mean(self, p, n, alpha):
        if self.support == "real" and alpha.imag <= 0:
            raise SupportError(f"{self.name} power means need alpha in the open upper half plane")
        return self._residue_power_mean(self.gamma_point + alpha, p, n)

    def _residue_moment(self, g, lam):
        return principal_pow(g, lam)

    def _residue_power_mean(self, g, p, n):
        return g


@dataclass(frozen=True)
class _RealLineLaw(_NestedRule, _ResidueLaw):
    """Location-scale law on the real line whose density has its pole at
    gamma = mu + i*sigma.  Subclasses add no fields."""

    mu: float
    sigma: float

    support = "real"

    def __post_init__(self):
        _check_finite(f"{type(self).__name__} parameters", self.mu, self.sigma)
        if not self.sigma > 0:
            raise ValueError(f"{type(self).__name__} needs sigma > 0")

    @property
    def gamma_point(self):
        return complex(self.mu, self.sigma)

    def density(self, z):
        if z.imag != 0.0:
            raise SupportError(f"{type(self).__name__} density lives on the real line")
        return self._density(z.real)

    def check_moment(self, alpha, lam):
        lam = complex(lam)
        if lam.real >= self.max_moment:  # the tail index
            raise MomentExistenceError(
                f"E[|Z|^{lam.real:g}] diverges for {type(self).__name__}"
            )
        if complex(alpha).imag == 0.0 and lam.real <= -1.0:
            raise MomentExistenceError("negative orders at real alpha need Re(lam) > -1")

    def _grid(self, level, alpha):
        """x = mu + sigma tan(theta), tanh-sinh in theta, weighted by the
        density times dx/dtheta = sigma sec^2(theta); alpha is ignored.  The
        nodes of level - 1 are those of even k, at twice the weight."""
        t, dist, w, k = tanh_sinh_nodes(level, 0.5 * _NODE_FLOOR)
        tan = np.copysign(1.0, t) / np.tan(0.5 * math.pi * dist)  # tan(pi t / 2)
        x = self.mu + self.sigma * tan
        weights = self._density(x) * self.sigma * (1.0 + tan * tan) * (0.5 * math.pi) * w
        fine = (w > _NODE_FLOOR) & (weights > _NODE_FLOOR)
        coarse = (k % 2 == 0) & (2.0 * w > _NODE_FLOOR) & (2.0 * weights > _NODE_FLOOR)
        return x + 0.0j, weights, fine, coarse, 2.0

    def to_json(self):
        return {"dist": self.name, "params": {"mu": self.mu, "sigma": self.sigma}}


class Cauchy(_RealLineLaw):
    name = "cauchy"
    max_moment = 1.0

    def _density(self, x):
        return self.sigma / math.pi / ((x - self.mu) ** 2 + self.sigma ** 2)

    def char_deriv(self, k, t):
        return (-1.0) ** k * ((1j * self.gamma_point) ** k * np.exp(1j * self.gamma_point * t))

    def sample(self, streams, out, ws):
        x = _per_stream(streams, ws.take("scratch.0", out.size), _uniforms)
        x -= 0.5
        x *= math.pi
        np.tan(x, out=x)
        x *= self.sigma
        return _complex_draws(x, self.mu, out)


class ScaledT3(_RealLineLaw):
    name = "t3"
    max_moment = 3.0

    def _density(self, x):
        return 2.0 * self.sigma ** 3 / math.pi / ((x - self.mu) ** 2 + self.sigma ** 2) ** 2

    def char_deriv(self, k, t):
        # (-1)^k phi^(k)(t) for phi(t) = (1 + sigma t) exp(c t)
        c = complex(0.0, self.mu) - self.sigma
        base = np.exp(c * t)
        if k == 0:
            phik = (1.0 + self.sigma * t) * base
        else:
            phik = (k * self.sigma * c ** (k - 1) + c ** k * (1.0 + self.sigma * t)) * base
        return (-1.0) ** k * phik

    def sample(self, streams, out, ws):
        x = _per_stream(streams, ws.take("scratch.0", out.size), _standard_t3)
        x *= self.sigma
        x /= math.sqrt(3.0)
        return _complex_draws(x, self.mu, out)

    def _residue_moment(self, g, lam):
        return principal_pow(g, lam - 1.0) * (g - 1j * lam * self.sigma)

    def _residue_power_mean(self, g, p, n):
        # sum_k comb(n, k) (i sigma / (n g))**k prod_{j<k} (j p - 1), the
        # product form of t3_product_identity, free of cancellation; each
        # term from the last, so no binomial leaves the float range
        term = total = 1.0 + 0.0j
        for k in range(1, n + 1):
            term *= (n - k + 1) / k * (1j * self.sigma / (n * g)) * ((k - 1) * p - 1.0)
            total += term
        return g * total


@dataclass(frozen=True)
class Poincare(_NestedRule, _ResidueLaw):
    a: float
    b: float
    c: float

    name = "poincare"
    support = "upper"

    def __post_init__(self):
        _check_finite("Poincare parameters", self.a, self.b, self.c)
        if not (self.a > 0 and self.c > 0 and self.a * self.c - self.b ** 2 > 0):
            raise ValueError("Poincare needs a > 0, c > 0 and ac - b^2 > 0")

    @property
    def d_const(self):
        return math.sqrt(self.a * self.c - self.b ** 2)

    @property
    def gamma_point(self):
        return complex(-self.b / self.a, self.d_const / self.a)

    def density(self, z):
        if z.imag <= 0.0:
            raise SupportError("Poincare density lives on the open upper half plane")
        x, y = z.real, z.imag
        d_const = self.d_const
        expo = -(self.a * (x * x + y * y) + 2.0 * self.b * x + self.c) / y
        return d_const * math.exp(2.0 * d_const + expo) / (math.pi * y * y)

    def char_deriv(self, k, t):
        beta = self.gamma_point
        return (-1j * beta) ** k * np.exp(1j * t * beta)

    def sample(self, streams, out, ws):
        d_const = self.d_const
        mean = d_const / self.a
        shape = 2.0 * d_const ** 2 / self.a
        y = _inverse_gaussian(streams, mean, shape, out.size, ws)
        x = np.divide(y, 2.0 * self.a, out=ws.take("scratch.0", out.size))
        np.sqrt(x, out=x)
        x *= _per_stream(streams, ws.take("scratch.2", out.size), _normals)
        return _complex_draws(x, -self.b / self.a, out, y)

    def check_moment(self, alpha, lam):
        pass  # the density vanishes faster than any power at the real axis and at infinity

    def geometric_mean(self):
        return self.gamma_point  # exp(E[log Z]) = exp(log beta) = beta

    def y_rule(self, alpha=0j):
        """(m, gap): the tanh-sinh level m of y at which the rule stands for
        this alpha at every level, and the relative gap of y's sums at m to
        those at m + 1 (_poincare_y_rule)."""
        return _poincare_y_rule(self, complex(alpha).imag)

    def _y_rows(self, m):
        """The rows of the rule as (y, weights, k): tanh-sinh at level m in
        log y = log(mean) + atanh(t) against the inverse-Gaussian density,
        without the rows lighter than the floor; k is the integer of the
        tanh-sinh node."""
        mean, shape = self.d_const / self.a, 2.0 * self.d_const ** 2 / self.a
        t, dist, w, k = tanh_sinh_nodes(m, 0.5 * _NODE_FLOOR)
        y = mean * np.sqrt((2.0 - dist) / dist) ** np.copysign(1.0, t)
        ig = np.sqrt(shape / (2.0 * math.pi * y ** 3)) * np.exp(-shape * (y - mean) ** 2 / (2.0 * mean ** 2 * y))
        wy = ig * y / (dist * (2.0 - dist)) * w
        keep = (w > _NODE_FLOOR) & (wy > _NODE_FLOOR)
        return y[keep], wy[keep], k[keep]

    def _grid(self, level, alpha):
        """The sampler's factorization as a product rule graded toward the
        branch point -alpha of (z + alpha)**p: y on the rows of _y_rows at
        the level of y_rule(alpha), the same at every level of the rule;
        x | y by x = -Re(alpha) + h sinh(v), h = y + Im(alpha), at
        v = lo + k step from lo at -8.5 standard deviations s up to +8.5 s,
        beyond which a normal holds 2e-17 of its mass (lighter nodes fall
        under the weight floor).  The branch points sit at v = +-i pi/2 for
        every y, however small h is (the sinh transformation of Elliott and
        Johnston).  Nodes lie h cosh(v) apart in x, widest away from the
        branch point, so the step is 0.7 s over that spacing 4.5 s beyond
        the mean, where the slowest-decaying terms of a single-draw
        transform still carry weight.  Only the x step halves per level, so
        the nodes of level - 1 are those of even k on the same rows, at
        twice the weight: the gap between levels bounds x's error, and
        y_rule's gap y's."""
        y, wy, _ = self._y_rows(self.y_rule(alpha)[0])
        centre, sd, height = -self.b / self.a, np.sqrt(y / (2.0 * self.a)), y + alpha.imag
        offset = centre + alpha.real  # the mean of x | y, measured from -Re(alpha)
        lo = np.arcsinh((offset - 8.5 * sd) / height)
        step = 0.7 * 2.0 ** (6 - level) * sd / np.hypot(height, np.abs(offset) + 4.5 * sd)
        # k = 0..floor(span / step): the span over half the step is twice as
        # many steps, so level - 1's range of k doubled lies inside this one's
        count = np.floor((np.arcsinh((offset + 8.5 * sd) / height) - lo) / step).astype(int) + 1
        row = np.repeat(np.arange(y.size), count)
        k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
        v = lo[row] + step[row] * k
        points = np.empty(row.size, dtype=complex)
        x = np.multiply(height[row], np.sinh(v), out=points.real)
        x -= alpha.real
        points.imag = y[row]
        # the normal density of x | y times dx/dv = h cosh(v), formed in
        # place as scale * cosh(v) * exp(-a (x - centre)**2 / y)
        scale = np.sqrt(self.a / (math.pi * y)) * wy * step * height
        weights = np.cosh(v, out=v)
        weights *= scale[row]
        density = np.subtract(x, centre)
        density **= 2
        density *= -self.a
        density /= points.imag
        weights *= np.exp(density, out=density)
        return points, weights, weights > _NODE_FLOOR, (k % 2 == 0) & (2.0 * weights > _NODE_FLOOR), 2.0

    def to_json(self):
        return {"dist": self.name, "params": {"a": self.a, "b": self.b, "c": self.c}}


# a FRAC_DERIV call asks three times for one law and height, and criterion 9
# once for each of 500 laws, where 1,024 entries held 70 kB at the peak
@functools.lru_cache(maxsize=32)
def _poincare_y_rule(law, lift):
    """(m, gap) for the rows of law at height h = y + lift: the coarsest m
    of _Y_LEVELS whose row sums of h**q, q = -1, 0, 1, agree with those at
    m + 1 within the relative gap _Y_GAP_TOL, else the finest, with its
    gap.  The rows of m are those of even k at m + 1, at twice the weight,
    so one build of rows serves both.  The sums need no x nodes: with x at
    a coarse level, its aliasing, which differs from row to row, swamps
    y's gap (6e-6 against an error of 2e-16 at alpha = 0 for
    Poincare(0.4, -0.7, 3.1)).  The result depends on law and lift alone,
    so every level of a rule stands on the same rows."""
    for m in _Y_LEVELS:
        y, wy, k = law._y_rows(m + 1)
        terms = np.array([wy / (y + lift), wy, wy * (y + lift)])
        fine, coarse = terms.sum(axis=1), 2.0 * terms[:, k % 2 == 0].sum(axis=1)
        gap = float(np.max(np.abs(fine - coarse) / fine))
        if gap <= _Y_GAP_TOL:
            break
    return m, gap


class AtomicLaw:
    """A law on finitely many atoms; subclasses provide ``atoms`` and
    ``weights`` arrays.  Every expectation is an exact weighted sum over the
    atoms of positive weight, ``nodes(0)``: an atom of weight 0 never occurs,
    and its term 0 * inf would make the sum nan."""

    rule = "atoms"

    @property
    def support(self):
        atoms = self.nodes(0)[0]
        if np.all(atoms.imag == 0.0):
            return "real"
        if np.all(atoms.imag >= 0.0):
            return "upper"
        return "complex"

    def density(self, z):
        raise SupportError("discrete law has no density")

    def char_deriv(self, k, t):
        atoms, weights = self.nodes(0)
        return (-1j) ** k * complex(np.sum(weights * atoms ** k * np.exp(1j * t * atoms)))

    def sample(self, streams, out, ws):
        atoms, weights = self.atoms, self.weights

        def draw(rng, part):
            np.take(atoms, rng.choice(len(atoms), size=part.size, p=weights), out=part)

        return _per_stream(streams, out, draw)

    def closed_moment(self, alpha, lam):
        self.check_moment(alpha, lam)
        atoms, weights = self.nodes(0)
        return complex(np.sum(weights * np_principal_pow(atoms + alpha, lam)))

    def check_moment(self, alpha, lam):
        if complex(lam).real < 0 and np.any(self.nodes(0)[0] + alpha == 0):
            raise MomentExistenceError(
                f"E[|Z + alpha|^{complex(lam).real:g}] diverges: an atom of positive weight sits at -alpha"
            )

    def closed_power_mean(self, p, n, alpha):
        raise RouteUnavailableError("no closed power-mean expectation for this law")

    def nodes(self, level, alpha=0j):
        weights = self.weights
        return self.atoms[weights > 0], weights[weights > 0]

    def nested_nodes(self, level, alpha=0j):
        """The atoms as both levels of a nested rule, which agree bit for bit."""
        points, weights = self.nodes(level, alpha)
        return points, weights, len(points), 0, 1.0

    def y_rule(self, alpha=0j):
        return None, 0.0

    def geometric_mean(self):
        atoms, weights = self.nodes(0)
        if np.any(atoms == 0):
            raise SupportError("geometric means need nonzero values")
        return complex(np.exp(complex(np.sum(weights * np_principal_log(atoms)))))


@dataclass(frozen=True)
class TwoPoint(AtomicLaw):
    z1: complex
    z2: complex
    w: float

    name = "twopoint"

    def __post_init__(self):
        _check_finite("TwoPoint atoms and weight", self.z1, self.z2, self.w)
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("TwoPoint weight must lie in [0, 1]")

    @property
    def atoms(self):
        return np.array([self.z1, self.z2], dtype=complex)

    @property
    def weights(self):
        return np.array([self.w, 1.0 - self.w])

    def closed_power_mean(self, p, n, alpha):
        from .moments import _P_GEOMETRIC_EPS  # moments imports this module

        # exact enumeration over the n-fold product law: k draws at z1 weigh
        # comb(n, k) w**k (1 - w)**(n - k), formed in decimals, whose exponent
        # range holds each factor (comb(1030, 515) > 1e308), then rounded once;
        # with n - k draws at z2 their power mean is
        # ((k a**p + (n - k) b**p) / n)**(1/p), at p = 0 exp of the mean log
        ctx = decimal.Context(prec=40)
        w_pow, v_pow = [1], [1]
        for _ in range(n):
            w_pow.append(ctx.multiply(w_pow[-1], decimal.Decimal(self.w)))
            v_pow.append(ctx.multiply(v_pow[-1], decimal.Decimal(1.0 - self.w)))
        weights = np.array(
            [float(ctx.multiply(ctx.multiply(math.comb(n, k), w_pow[k]), v_pow[n - k])) for k in range(n + 1)]
        )
        k = np.arange(n + 1)
        z = self.atoms + alpha
        if abs(p) < _P_GEOMETRIC_EPS:
            log_a, log_b = np_principal_log(z)
            means = np.exp((k * log_a + (n - k) * log_b) / n)
        else:
            pow_a, pow_b = np_principal_pow(z, p)
            means = np_principal_pow((k * pow_a + (n - k) * pow_b) / n, 1.0 / p)
            # where the mean of the powers is near 1, as at every p near 0, it
            # is 1 + m, m the mean of z**p - 1 = expm1(p log z), which keeps
            # the digits that 1 + m rounds away, and its power exp(log1p(m) / p)
            shift, log_z, live = np.full(2, -1.0 + 0j), np_principal_log(z), z != 0  # 0**p = 0
            shift[live] = _expm1(p * log_z.real[live], p * log_z.imag[live])
            m = (k * shift[0] + (n - k) * shift[1]) / n
            near = np.abs(m) < 0.5
            means[near] = _root1p(m[near], p)
        return complex(np.sum(weights * means))

    def to_json(self):
        params = {"z1": [self.z1.real, self.z1.imag], "z2": [self.z2.real, self.z2.imag], "w": self.w}
        return {"dist": self.name, "params": params}


@dataclass(frozen=True)
class Empirical(AtomicLaw):
    samples: tuple

    name = "empirical"

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("Empirical needs at least one sample")
        object.__setattr__(self, "samples", tuple(complex(z) for z in self.samples))
        _check_finite("Empirical samples", *self.samples)

    @property
    def atoms(self):
        return np.array(self.samples, dtype=complex)

    @property
    def weights(self):
        m = len(self.samples)
        return np.full(m, 1.0 / m)

    def to_json(self):
        return {"dist": self.name, "params": {"samples": [[z.real, z.imag] for z in self.samples]}}


def _point_masses(model):
    """(points, weights) of an atomic law's atoms of positive weight, else None."""
    return model.nodes(0) if model.rule == "atoms" else None


def density(model, point):
    """Probability density at a point of the support.

    Real-line laws take a real abscissa (or a complex number with zero
    imaginary part); the upper-half-plane law takes z with Im z > 0.
    Discrete laws have no density.
    """
    return model.density(complex(point))


def char_fn(model, t):
    """E[exp(itZ)] for t >= 0 (closed form; weighted sum for atomic laws)."""
    t = float(t)
    if t < 0:
        raise SupportError("char_fn is defined on t >= 0")
    return complex(model.char_deriv(0, t))


def char_fn_derivative(model, k, t):
    """k-th derivative of f(s) = E[exp(-isZ)] at s = -t, for t >= 0, which
    equals (-i)^k E[Z^k exp(itZ)]: the half-line where the transform of an
    upper-half-plane variable converges.  A law with a density also takes a
    1-d array of t and returns the array of derivatives, which numpy's
    vector arithmetic may round an ulp away from the ones at one t."""
    if k < 0 or k != int(k):
        raise ValueError("derivative order must be a non-negative integer")
    k = int(k)
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise SupportError("char_fn_derivative is defined on t >= 0")
    model.check_moment(0j, k)
    return model.char_deriv(k, t) if t.ndim else complex(model.char_deriv(k, float(t)))


def stream_generator(seed, stream=0):
    """Counter-based generator for (seed, stream); parallel block reductions
    stay deterministic because every block owns its derived stream."""
    entropy = int(seed) & 0xFFFFFFFFFFFFFFFF
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def sample(model, seed, n, stream=0):
    """n i.i.d. draws as a complex array; deterministic given (seed, stream)."""
    if n < 1:
        raise ValueError("need n >= 1 draws")
    n = int(n)
    return _sample_with([(stream_generator(seed, stream), n)], model, n)


def _sample_with(streams, model, n, out=None, ws=FRESH):
    """n draws of the law, from each (generator, count) pair of streams in
    turn, written into out when given; the samplers take their scratch
    arrays from ws.  Each generator makes the calls, in the same order,
    that it would make for its count alone, so its draws do not depend on
    the other streams."""
    return model.sample(streams, np.empty(n, dtype=complex) if out is None else out, ws)


def _per_stream(streams, out, draw):
    """out filled part by part: draw(rng, part) for each (rng, count) pair
    of streams, on the next count entries."""
    lo = 0
    for rng, count in streams:
        draw(rng, out[lo : lo + count])
        lo += count
    return out


def _uniforms(rng, part):
    rng.random(part.size, out=part)


def _normals(rng, part):
    rng.standard_normal(part.size, out=part)


def _standard_t3(rng, part):
    part[:] = rng.standard_t(3, size=part.size)  # standard_t takes no out=


def _inverse_gaussian(streams, mean, shape, n, ws):
    """n inverse-Gaussian draws in the slot scratch.1 of ws; the slots
    scratch.0 and scratch.2 are free again when it returns."""
    # Michael-Schucany-Haas: one chi^2_1 draw y plus a size-biased coin flip,
    # x = mean + mean^2 y / (2 shape) - mean / (2 shape) sqrt(4 mean shape y + (mean y)^2),
    # kept with probability mean / (mean + x), else replaced by mean^2 / x
    y = _per_stream(streams, ws.take("scratch.0", n), _normals)
    np.square(y, out=y)
    x = np.multiply(y, mean * mean, out=ws.take("scratch.1", n))
    x /= 2.0 * shape
    x += mean
    root = np.multiply(y, mean, out=ws.take("scratch.2", n))
    np.square(root, out=root)
    y *= 4.0 * mean * shape
    root += y
    np.sqrt(root, out=root)
    root *= mean / (2.0 * shape)
    x -= root
    ratio = np.divide(mean, np.add(x, mean, out=root), out=root)
    keep = np.less_equal(_per_stream(streams, y, _uniforms), ratio, out=ws.take("scratch.mask", n, bool))
    np.divide(mean * mean, x, out=x, where=np.logical_not(keep, out=keep))
    return x


def _complex_draws(x, shift, out, y=0.0):
    """The complex array out with real part shift + x and imaginary part y:
    the bits of (shift + x) + 1j * y for y >= 0, with no temporaries.  That
    sum adds +0.0 to the real part, which only turns -0.0 into +0.0, so
    adding +0.0 to the shift gives the same bits."""
    np.add(x, shift + 0.0, out=out.real)
    out.imag = y
    return out


_COMPLEX_GRAMMAR = "expected a+bi / a-bi with no spaces (e.g. 0+1i, -0.5+0i, 2, 1i)"


def parse_complex(text):
    """Parse 'a+bi' / 'a-bi' (also plain 'a' or 'bi')."""
    s = text.strip()
    if not s or " " in s:
        raise ValueError(f"bad complex number {text!r}: {_COMPLEX_GRAMMAR}")
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"bad complex number {text!r}: {_COMPLEX_GRAMMAR}") from None
    _check_finite(f"complex number {text!r}", z)
    return z


def parse_params(text):
    """Parse a flat 'key=value,key=value' parameter string into a dict."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r}: expected key=value")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def make_model(name, params):
    """Build a model from a family name and a parameter dict (values may be
    strings, as parsed from the command line, or numbers from JSON)."""
    name = name.lower()
    p = dict(params)

    def real(key, default=None):
        if key not in p:
            if default is None:
                raise ValueError(f"{name} needs parameter {key!r}")
            return default
        try:
            return float(p.pop(key))
        except TypeError:
            raise ValueError(f"{name} parameter {key!r} must be a number") from None

    if name == "cauchy":
        model = Cauchy(real("mu", 0.0), real("sigma", 1.0))
    elif name in ("t3", "scaledt3"):
        model = ScaledT3(real("mu", 0.0), real("sigma", 1.0))
    elif name == "poincare":
        model = Poincare(real("a"), real("b", 0.0), real("c"))
    elif name == "twopoint":
        z1 = p.pop("z1", None)
        z2 = p.pop("z2", None)
        if z1 is None or z2 is None:
            raise ValueError("twopoint needs z1 and z2")
        form = "twopoint atoms must be a+bi or [re, im]"
        model = TwoPoint(_as_complex(z1, form), _as_complex(z2, form), real("w", 0.5))
    elif name == "empirical":
        if "file" in p:
            model = Empirical(tuple(load_samples_csv(p.pop("file"))))
        elif "samples" in p:
            raw, form = p.pop("samples"), "empirical samples must be a list [[re, im], ...]"
            if not isinstance(raw, (list, tuple)):
                raise ValueError(f"{form}, got {raw!r}")
            model = Empirical(tuple(_as_complex(z, form) for z in raw))
        else:
            raise ValueError("empirical needs file=... or a samples list")
    else:
        raise ValueError(f"unknown distribution {name!r}")
    if p:
        raise ValueError(f"unused parameters for {name}: {sorted(p)}")
    return model


def _as_complex(value, form):
    """The complex number of a+bi text, a number or a list [re, im]; else a
    ValueError that says form and shows value."""
    if isinstance(value, str):
        return parse_complex(value)
    if isinstance(value, numbers.Number):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{form}, got {value!r}")


def model_from_json(obj):
    """Build a model from {'dist': name, 'params': {...}} (dict or JSON text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    return make_model(obj["dist"], obj.get("params", {}))


def samples_to_csv(samples, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im"])
        for z in np.asarray(samples, dtype=complex):
            writer.writerow([repr(float(z.real)), repr(float(z.imag))])


def load_samples_csv(path):
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])[:2]] != ["re", "im"]:
            raise ValueError("sample CSV must start with header re,im")
        for row in reader:
            if len(row) < 2:
                raise ValueError(f"sample CSV line {reader.line_num} needs two fields re,im")
            out.append(complex(float(row[0]), float(row[1])))
    return out
