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

* ``support`` ('real', 'upper' or 'complex') and ``max_moment`` (the
  supremum r with E[|Z|^r] < inf); a density law adds ``decay``, a rate r
  with |E[exp(itZ)]| <~ K exp(-r t) (the quadrature routes move the atoms
  of an atomic law onto rays where each decays at its own rate);
* ``density(z)``, ``char(t)`` = E[exp(itZ)] and ``char_deriv(k, t)`` =
  (-i)^k E[Z^k exp(itZ)], both for t >= 0, and ``sample(rng, n)``;
* ``closed_moment(alpha, lam)``, ``closed_power_mean(p, n, alpha)`` and
  ``geometric_mean()`` = exp(E[log Z]) of an upper-half-plane law;
* ``single_draw(alpha)``: ``(point, factor, slack)`` such that for
  W = (Z + alpha)^p with p < 0 and c >= 0,
  E[exp(-icW)] = (1 - c p factor point^(p-1)) exp(-ic point^p), decaying at
  the rate slack * (-Im point^p); None when no such closed form exists;
* ``nodes(level)``: points and weights of a rule for E f(Z), finer as the
  level grows: the atoms, or quadrature over the density, which uses no pole
  or closed value, so the (seedless) route built on it checks the closed forms;
* ``name`` (the family tag of the JSON form) and ``to_json()``;
* of an atomic law, ``check_negative_order(alpha, lam)``, which raises
  MomentExistenceError where an atom of positive weight sits at -alpha and
  Re(lam) < 0.

Adding a family means writing one class with these methods.  The
module-level ``density``, ``char_fn`` and ``char_fn_derivative`` check their
arguments and delegate; callers read ``support`` and call ``to_json()`` on
the law itself.

Samplers are exact and deterministic given (seed, stream): Cauchy by inverse
CDF, the t3 family by a rescaled Student draw, and the upper-half-plane law
by its conditional factorization x | y ~ Normal(-b/a, y/(2a)) with
y ~ InverseGaussian(mean D/a, shape 2 D^2 / a).
"""

import cmath
import csv
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .principal import BranchDomainError, np_principal_log, np_principal_pow, principal_pow
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


# rules drop nodes lighter than this: they barely move a moment, but the
# farthest would set the transform's decay rate.  The density factors put on
# tanh-sinh weights are about 1 at most, so lighter table nodes go first.
_NODE_FLOOR = 1e-20


def _heavy(points, weights):
    keep = weights > _NODE_FLOOR
    return points[keep], weights[keep]


@dataclass(frozen=True)
class _RealLineLaw:
    """Location-scale law on the real line whose density has its pole at
    gamma = mu + i*sigma.  The residue there gives the closed forms: for f
    bounded and holomorphic on the upper half plane, E f(X) = f(gamma) for
    Cauchy and f(gamma) - i*sigma*f'(gamma) for the t3 law.  Subclasses add
    no fields."""

    mu: float
    sigma: float

    support = "real"
    _t3_factor = 0.0  # k in E f(X) = f(gamma) - i*sigma*k*f'(gamma)
    _slack = 1.0  # share of sigma claimed as the transform's decay rate

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"{type(self).__name__} needs sigma > 0")

    @property
    def gamma_point(self):
        return complex(self.mu, self.sigma)

    @property
    def decay(self):
        return self._slack * self.sigma

    def density(self, z):
        if z.imag != 0.0:
            raise SupportError(f"{type(self).__name__} density lives on the real line")
        return self._density(z.real)

    def closed_moment(self, alpha, lam):
        if lam.real >= self.max_moment:
            raise MomentExistenceError(
                f"E[|Z|^{lam.real:g}] diverges for {type(self).__name__}"
            )
        if alpha.imag == 0.0 and lam.real <= -1.0:
            raise MomentExistenceError("negative orders at real alpha need Re(lam) > -1")
        return self._residue_moment(self.gamma_point + alpha, lam)

    def closed_power_mean(self, p, n, alpha):
        if p >= 0:
            raise RouteUnavailableError(f"closed {self.name} power means cover p < 0 only")
        if alpha.imag <= 0:
            raise SupportError(f"{self.name} power means need alpha in the open upper half plane")
        return self._residue_power_mean(self.gamma_point + alpha, p, n)

    def single_draw(self, alpha):
        closed = self.gamma_point + alpha, self._t3_factor * self.sigma, self._slack
        return closed if alpha.imag > 0 else None

    def geometric_mean(self):
        raise SupportError("the geometric-mean limit needs an upper-half-plane law")

    def nodes(self, level):
        """x = mu + sigma tan(theta), tanh-sinh in theta, weighted by the
        density times dx/dtheta = sigma sec^2(theta)."""
        t, dist, w = tanh_sinh_nodes(level, _NODE_FLOOR)
        tan = np.copysign(1.0, t) / np.tan(0.5 * math.pi * dist)  # tan(pi t / 2)
        x = self.mu + self.sigma * tan
        weights = self._density(x) * self.sigma * (1.0 + tan * tan) * (0.5 * math.pi) * w
        return _heavy(x + 0.0j, weights)

    def to_json(self):
        return {"dist": self.name, "params": {"mu": self.mu, "sigma": self.sigma}}


class Cauchy(_RealLineLaw):
    name = "cauchy"
    max_moment = 1.0

    def _density(self, x):
        return self.sigma / math.pi / ((x - self.mu) ** 2 + self.sigma ** 2)

    def char(self, t):
        return cmath.exp(1j * self.gamma_point * t)

    def char_deriv(self, k, t):
        return (-1.0) ** k * ((1j * self.gamma_point) ** k * cmath.exp(1j * self.gamma_point * t))

    def sample(self, rng, n):
        x = rng.random(n)
        x -= 0.5
        x *= math.pi
        np.tan(x, out=x)
        x *= self.sigma
        return _complex_draws(x, self.mu)

    def _residue_moment(self, g, lam):
        return principal_pow(g, lam)

    def _residue_power_mean(self, g, p, n):
        return g


class ScaledT3(_RealLineLaw):
    name = "t3"
    max_moment = 3.0
    _t3_factor = 1.0
    _slack = 0.95  # leaves room for the (1 + sigma t) factor

    def _density(self, x):
        return 2.0 * self.sigma ** 3 / math.pi / ((x - self.mu) ** 2 + self.sigma ** 2) ** 2

    def char(self, t):
        return (1.0 + self.sigma * t) * cmath.exp((1j * self.mu - self.sigma) * t)

    def char_deriv(self, k, t):
        # (-1)^k phi^(k)(t) for phi(t) = (1 + sigma t) exp(c t)
        c = complex(0.0, self.mu) - self.sigma
        base = cmath.exp(c * t)
        if k == 0:
            phik = (1.0 + self.sigma * t) * base
        else:
            phik = (k * self.sigma * c ** (k - 1) + c ** k * (1.0 + self.sigma * t)) * base
        return (-1.0) ** k * phik

    def sample(self, rng, n):
        x = rng.standard_t(3, size=n)
        x *= self.sigma
        x /= math.sqrt(3.0)
        return _complex_draws(x, self.mu)

    def _residue_moment(self, g, lam):
        return principal_pow(g, lam - 1.0) * (g - 1j * lam * self.sigma)

    def _residue_power_mean(self, g, p, n):
        # the product form of t3_product_identity, free of cancellation
        total = 0.0 + 0.0j
        for k in range(n + 1):
            prod = 1.0 + 0.0j
            for j in range(k):
                prod *= j * p - 1.0
            total += math.comb(n, k) * (1j / (n * g)) ** k * prod
        return g * total


@dataclass(frozen=True)
class Poincare:
    a: float
    b: float
    c: float

    name = "poincare"
    support = "upper"
    max_moment = math.inf

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0 and self.a * self.c - self.b ** 2 > 0):
            raise ValueError("Poincare needs a > 0, c > 0 and ac - b^2 > 0")

    @property
    def d_const(self):
        return math.sqrt(self.a * self.c - self.b ** 2)

    @property
    def gamma_point(self):
        return complex(-self.b / self.a, self.d_const / self.a)

    @property
    def decay(self):
        return self.d_const / self.a

    def density(self, z):
        if z.imag <= 0.0:
            raise SupportError("Poincare density lives on the open upper half plane")
        x, y = z.real, z.imag
        d_const = self.d_const
        expo = -(self.a * (x * x + y * y) + 2.0 * self.b * x + self.c) / y
        return d_const * math.exp(2.0 * d_const + expo) / (math.pi * y * y)

    def char(self, t):
        return cmath.exp((-1j * self.b / self.a - self.d_const / self.a) * t)

    def char_deriv(self, k, t):
        beta = self.gamma_point
        return (-1j * beta) ** k * cmath.exp(1j * t * beta)

    def sample(self, rng, n):
        d_const = self.d_const
        mean = d_const / self.a
        shape = 2.0 * d_const ** 2 / self.a
        y = _inverse_gaussian(rng, mean, shape, n)
        x = np.divide(y, 2.0 * self.a)
        np.sqrt(x, out=x)
        x *= rng.standard_normal(n)
        return _complex_draws(x, -self.b / self.a, y)

    def closed_moment(self, alpha, lam):
        return principal_pow(self.gamma_point, lam) if alpha == 0 else None

    def closed_power_mean(self, p, n, alpha):
        if alpha != 0:
            raise RouteUnavailableError("closed Poincare power means need alpha = 0")
        if abs(p) > 1:
            raise RouteUnavailableError("closed Poincare power means need |p| <= 1")
        return self.gamma_point

    def single_draw(self, alpha):
        return (self.gamma_point, 0.0, 1.0) if alpha == 0 else None

    def geometric_mean(self):
        return self.gamma_point  # exp(E[log Z]) = exp(log beta) = beta

    def nodes(self, level):
        """The sampler's factorization as a product rule: y by tanh-sinh in
        log y = log(mean) + atanh(t) against the inverse-Gaussian density, at
        a coarser step since it is smooth, and x | y by Gauss-Hermite of
        order 8 * level."""
        mean, shape = self.d_const / self.a, 2.0 * self.d_const ** 2 / self.a
        t, dist, w = tanh_sinh_nodes(level - 2, _NODE_FLOOR)
        y = mean * np.sqrt((2.0 - dist) / dist) ** np.copysign(1.0, t)
        ig = np.sqrt(shape / (2.0 * math.pi * y ** 3)) * np.exp(-shape * (y - mean) ** 2 / (2.0 * mean ** 2 * y))
        y, wy = _heavy(y, ig * y / (dist * (2.0 - dist)) * w)
        xi, wx = _hermite_rule(8 * level)
        x = -self.b / self.a + np.sqrt(y / self.a)[:, None] * xi
        weights = wy[:, None] * wx
        return _heavy((x + 1j * y[:, None]).ravel(), weights.ravel())

    def to_json(self):
        return {"dist": self.name, "params": {"a": self.a, "b": self.b, "c": self.c}}


@functools.cache
def _hermite_rule(order):
    """Gauss-Hermite points and weights for E f(N), N ~ Normal(0, 1/2), as
    read-only arrays: the table does not depend on the law, and building it
    costs most of a Poincare node rule."""
    points, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


class AtomicLaw:
    """A law on finitely many atoms; subclasses provide ``atoms`` and
    ``weights`` arrays.  Every expectation is an exact weighted sum."""

    max_moment = math.inf

    @property
    def support(self):
        atoms = self.atoms
        if np.all(atoms.imag == 0.0):
            return "real"
        if np.all(atoms.imag >= 0.0):
            return "upper"
        return "complex"

    def density(self, z):
        raise SupportError("discrete law has no density")

    def char(self, t):
        return complex(np.sum(self.weights * np.exp(1j * t * self.atoms)))

    def char_deriv(self, k, t):
        atoms = self.atoms
        return (-1j) ** k * complex(np.sum(self.weights * atoms ** k * np.exp(1j * t * atoms)))

    def sample(self, rng, n):
        atoms = self.atoms
        return atoms[rng.choice(len(atoms), size=n, p=self.weights)]

    def closed_moment(self, alpha, lam):
        self.check_negative_order(alpha, lam)
        return complex(np.sum(self.weights * np_principal_pow(self.atoms + alpha, lam)))

    def check_negative_order(self, alpha, lam):
        """MomentExistenceError when Re(lam) < 0 and an atom of positive
        weight sits at -alpha, where E[|Z + alpha|^Re(lam)] diverges."""
        if complex(lam).real < 0 and np.any(self.nodes(0)[0] + alpha == 0):
            raise MomentExistenceError(
                f"E[|Z + alpha|^{complex(lam).real:g}] diverges: an atom of positive weight sits at -alpha"
            )

    def closed_power_mean(self, p, n, alpha):
        raise RouteUnavailableError("no closed power-mean expectation for this law")

    def single_draw(self, alpha):
        return None

    def nodes(self, level):
        weights = self.weights
        return self.atoms[weights > 0], weights[weights > 0]

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
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("TwoPoint weight must lie in [0, 1]")

    @property
    def atoms(self):
        return np.array([self.z1, self.z2], dtype=complex)

    @property
    def weights(self):
        return np.array([self.w, 1.0 - self.w])

    def closed_power_mean(self, p, n, alpha):
        from .moments import power_mean  # moments imports this module

        # exact enumeration over the n-fold product law
        atoms = self.atoms + alpha
        if p <= 0 and np.any((atoms == 0) & (self.weights > 0)):
            raise BranchDomainError("power mean of order p <= 0 needs nonzero values")
        total = 0.0 + 0.0j
        for k in range(n + 1):
            weight = math.comb(n, k) * self.w ** k * (1.0 - self.w) ** (n - k)
            if weight == 0.0:
                continue
            values = np.array([atoms[0]] * k + [atoms[1]] * (n - k))
            total += weight * power_mean(values, p)
        return total

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

    @property
    def atoms(self):
        return np.array(self.samples, dtype=complex)

    @property
    def weights(self):
        m = len(self.samples)
        return np.full(m, 1.0 / m)

    def to_json(self):
        return {"dist": self.name, "params": {"samples": [[z.real, z.imag] for z in self.samples]}}


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
    return model.char(t)


def char_fn_derivative(model, k, t):
    """k-th derivative of f(s) = E[exp(-isZ)] at s = -t, for t >= 0, which
    equals (-i)^k E[Z^k exp(itZ)]: the half-line where the transform of an
    upper-half-plane variable converges."""
    if k < 0 or k != int(k):
        raise ValueError("derivative order must be a non-negative integer")
    k = int(k)
    t = float(t)
    if t < 0:
        raise SupportError("char_fn_derivative is defined on t >= 0")
    if k >= model.max_moment:
        raise MomentExistenceError(
            f"E[|Z|^{k}] does not exist for {type(model).__name__}"
        )
    return model.char_deriv(k, t)


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
    rng = stream_generator(seed, stream)
    return _sample_with(rng, model, int(n))


def _sample_with(rng, model, n):
    return model.sample(rng, n)


def _inverse_gaussian(rng, mean, shape, n):
    # Michael-Schucany-Haas: one chi^2_1 draw y plus a size-biased coin flip,
    # x = mean + mean^2 y / (2 shape) - mean / (2 shape) sqrt(4 mean shape y + (mean y)^2),
    # kept with probability mean / (mean + x), else replaced by mean^2 / x
    y = rng.standard_normal(n)
    np.square(y, out=y)
    x = np.multiply(y, mean * mean)
    x /= 2.0 * shape
    x += mean
    root = np.multiply(y, mean)
    np.square(root, out=root)
    y *= 4.0 * mean * shape
    root += y
    np.sqrt(root, out=root)
    root *= mean / (2.0 * shape)
    x -= root
    ratio = np.divide(mean, np.add(x, mean, out=root), out=root)
    keep = rng.random(n) <= ratio
    np.divide(mean * mean, x, out=x, where=~keep)
    return x


def _complex_draws(x, shift, y=0.0):
    """One complex array with real part shift + x and imaginary part y: the
    bits of (shift + x) + 1j * y for y >= 0, with no temporaries.  That sum
    adds +0.0 to the real part, which only turns -0.0 into +0.0, so adding
    +0.0 to the shift gives the same bits."""
    out = np.empty(x.shape, dtype=complex)
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
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"bad complex number {text!r}: {_COMPLEX_GRAMMAR}") from None


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
        return float(p.pop(key))

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

        def as_complex(v):
            if isinstance(v, str):
                return parse_complex(v)
            if isinstance(v, (list, tuple)):
                return complex(v[0], v[1])
            return complex(v)

        model = TwoPoint(as_complex(z1), as_complex(z2), real("w", 0.5))
    elif name == "empirical":
        if "file" in p:
            model = Empirical(tuple(load_samples_csv(p.pop("file"))))
        elif "samples" in p:
            raw = p.pop("samples")
            model = Empirical(tuple(complex(z[0], z[1]) for z in raw))
        else:
            raise ValueError("empirical needs file=... or a samples list")
    else:
        raise ValueError(f"unknown distribution {name!r}")
    if p:
        raise ValueError(f"unused parameters for {name}: {sorted(p)}")
    return model


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
        header = next(reader)
        if [h.strip() for h in header[:2]] != ["re", "im"]:
            raise ValueError("sample CSV must start with header re,im")
        for row in reader:
            out.append(complex(float(row[0]), float(row[1])))
    return out
