"""Distribution families and their half-line characteristic transforms.

Built-in laws:

* ``Cauchy(mu, sigma)`` on the real line; E[exp(itX)] = exp(i*gamma*t) for
  t >= 0 with gamma = mu + i*sigma.
* ``ScaledT3(mu, sigma)``: location-scale family of the density
  (2/pi)(1+x^2)^-2 (a Student-t with 3 degrees of freedom compressed by
  sqrt(3)); E[exp(itX)] = (1 + sigma t) exp(i mu t - sigma t) for t >= 0.
* ``Poincare(a, b, c)`` on the upper half plane, density
  D e^{2D}/pi * exp(-(a(x^2+y^2)+2bx+c)/y) / y^2 with D = sqrt(ac-b^2);
  E[exp(itZ)] = exp(-i(b/a)t - (D/a)t) for t >= 0.
* ``TwoPoint(z1, z2, w)`` and ``Empirical(samples)`` for discrete checks.

Samplers are exact and deterministic given (seed, stream): Cauchy by inverse
CDF, the t3 family by a rescaled Student draw, and the upper-half-plane law
by its conditional factorization x | y ~ Normal(-b/a, y/(2a)) with
y ~ InverseGaussian(mean D/a, shape 2 D^2 / a).
"""

import cmath
import csv
import enum
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportError",
    "MomentExistenceError",
    "CharSign",
    "Cauchy",
    "ScaledT3",
    "Poincare",
    "TwoPoint",
    "Empirical",
    "density",
    "char_fn",
    "char_fn_derivative",
    "char_decay_rate",
    "model_support",
    "sample",
    "stream_generator",
    "parse_complex",
    "parse_params",
    "make_model",
    "model_from_json",
    "model_to_json",
    "samples_to_csv",
    "load_samples_csv",
]

class SupportError(ValueError):
    """Point or operation outside the support/validity of the law."""


class MomentExistenceError(ValueError):
    """A required absolute moment of the law does not exist."""


class CharSign(enum.Enum):
    """Which half-line transform a derivative refers to.

    MINUS_I differentiates s -> E[exp(-i s Z)] (evaluated at s = -t, i.e. on
    the half-line where the transform of an upper-half-plane variable
    converges); PLUS_I differentiates s -> E[exp(i s Z)] at s = -t.
    """

    MINUS_I = "minus_i"
    PLUS_I = "plus_i"


@dataclass(frozen=True)
class Cauchy:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("Cauchy needs sigma > 0")

    @property
    def gamma_point(self):
        return complex(self.mu, self.sigma)


@dataclass(frozen=True)
class ScaledT3:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("ScaledT3 needs sigma > 0")

    @property
    def gamma_point(self):
        return complex(self.mu, self.sigma)


@dataclass(frozen=True)
class Poincare:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0 and self.a * self.c - self.b ** 2 > 0):
            raise ValueError("Poincare needs a > 0, c > 0 and ac - b^2 > 0")

    @property
    def d_const(self):
        return math.sqrt(self.a * self.c - self.b ** 2)

    @property
    def gamma_point(self):
        return complex(-self.b / self.a, self.d_const / self.a)


@dataclass(frozen=True)
class TwoPoint:
    z1: complex
    z2: complex
    w: float

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("TwoPoint weight must lie in [0, 1]")

    @property
    def atoms(self):
        return np.array([self.z1, self.z2], dtype=complex)

    @property
    def weights(self):
        return np.array([self.w, 1.0 - self.w])


@dataclass(frozen=True)
class Empirical:
    samples: tuple

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


def model_support(model):
    """'real', 'upper' (closed upper half plane) or 'complex'."""
    if isinstance(model, (Cauchy, ScaledT3)):
        return "real"
    if isinstance(model, Poincare):
        return "upper"
    atoms = model.atoms
    if np.all(atoms.imag == 0.0):
        return "real"
    if np.all(atoms.imag >= 0.0):
        return "upper"
    return "complex"


def density(model, point):
    """Probability density at a point of the support.

    Real-line laws take a real abscissa (or a complex number with zero
    imaginary part); the upper-half-plane law takes z with Im z > 0.
    Discrete laws have no density.
    """
    if isinstance(model, (TwoPoint, Empirical)):
        raise SupportError("discrete law has no density")
    z = complex(point)
    if isinstance(model, Cauchy):
        if z.imag != 0.0:
            raise SupportError("Cauchy density lives on the real line")
        x = z.real
        return model.sigma / math.pi / ((x - model.mu) ** 2 + model.sigma ** 2)
    if isinstance(model, ScaledT3):
        if z.imag != 0.0:
            raise SupportError("ScaledT3 density lives on the real line")
        x = z.real
        return 2.0 * model.sigma ** 3 / math.pi / abs(x - model.gamma_point) ** 4
    if z.imag <= 0.0:
        raise SupportError("Poincare density lives on the open upper half plane")
    x, y = z.real, z.imag
    d_const = model.d_const
    expo = -(model.a * (x * x + y * y) + 2.0 * model.b * x + model.c) / y
    return d_const * math.exp(2.0 * d_const + expo) / (math.pi * y * y)


def char_fn(model, t):
    """E[exp(itZ)] for t >= 0 (closed form; sample average for Empirical)."""
    t = float(t)
    if t < 0:
        raise SupportError("char_fn is defined on t >= 0")
    if isinstance(model, Cauchy):
        return cmath.exp(1j * model.gamma_point * t)
    if isinstance(model, ScaledT3):
        return (1.0 + model.sigma * t) * cmath.exp((1j * model.mu - model.sigma) * t)
    if isinstance(model, Poincare):
        return cmath.exp((-1j * model.b / model.a - model.d_const / model.a) * t)
    atoms, weights = model.atoms, model.weights
    return complex(np.sum(weights * np.exp(1j * t * atoms)))


def _char_k_cap(model):
    # largest k with E[|Z|^k] < inf (inclusive cap on derivative order)
    if isinstance(model, Cauchy):
        return 0
    if isinstance(model, ScaledT3):
        return 2
    return math.inf


def char_fn_derivative(model, k, t, sign=CharSign.MINUS_I):
    """k-th derivative of the half-line transform, pulled back to t >= 0.

    For MINUS_I the function is f(s) = E[exp(-isZ)] and the derivative is
    taken at s = -t, which equals (-i)^k E[Z^k exp(itZ)]; for PLUS_I it is
    g(s) = E[exp(isZ)] at s = -t, i.e. (+i)^k E[Z^k exp(-itZ)].
    """
    if k < 0 or k != int(k):
        raise ValueError("derivative order must be a non-negative integer")
    k = int(k)
    t = float(t)
    if t < 0:
        raise SupportError("char_fn_derivative is defined on t >= 0")
    if k > _char_k_cap(model):
        raise MomentExistenceError(
            f"E[|Z|^{k}] does not exist for {type(model).__name__}"
        )
    if isinstance(model, Poincare):
        if sign is CharSign.PLUS_I:
            raise SupportError(
                "left transform of an upper-half-plane law diverges; use MINUS_I"
            )
        beta = model.gamma_point
        return (-1j * beta) ** k * cmath.exp(1j * t * beta)
    if isinstance(model, (Cauchy, ScaledT3)):
        # phi(t) = E[exp(itX)]; MINUS_I value is (-1)^k phi^(k)(t)
        if isinstance(model, Cauchy):
            phik = (1j * model.gamma_point) ** k * cmath.exp(1j * model.gamma_point * t)
        else:
            c = complex(0.0, model.mu) - model.sigma
            base = cmath.exp(c * t)
            if k == 0:
                phik = (1.0 + model.sigma * t) * base
            else:
                phik = (k * model.sigma * c ** (k - 1) + c ** k * (1.0 + model.sigma * t)) * base
        val = (-1.0) ** k * phik
        if sign is CharSign.PLUS_I:
            return val.conjugate()
        return val
    atoms, weights = model.atoms, model.weights
    if sign is CharSign.MINUS_I:
        expo = 1j * t * atoms
        pref = (-1j) ** k
    else:
        expo = -1j * t * atoms
        pref = (1j) ** k
    return pref * complex(np.sum(weights * atoms ** k * np.exp(expo)))


def char_decay_rate(model):
    """Exponential decay rate r with |char_fn(t)| <~ K exp(-r t); 0 for laws
    with atoms on the real line."""
    if isinstance(model, Cauchy):
        return model.sigma
    if isinstance(model, ScaledT3):
        return 0.95 * model.sigma  # leaves room for the (1 + sigma t) factor
    if isinstance(model, Poincare):
        return model.d_const / model.a
    min_im = float(np.min(model.atoms.imag))
    return max(min_im, 0.0) * 0.999


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
    if isinstance(model, Cauchy):
        u = rng.random(n)
        return (model.mu + model.sigma * np.tan(math.pi * (u - 0.5))) + 0.0j
    if isinstance(model, ScaledT3):
        t_draw = rng.standard_t(3, size=n)
        return (model.mu + model.sigma * t_draw / math.sqrt(3.0)) + 0.0j
    if isinstance(model, Poincare):
        d_const = model.d_const
        mean = d_const / model.a
        shape = 2.0 * d_const ** 2 / model.a
        y = _inverse_gaussian(rng, mean, shape, n)
        x = -model.b / model.a + np.sqrt(y / (2.0 * model.a)) * rng.standard_normal(n)
        return x + 1j * y
    atoms, weights = model.atoms, model.weights
    idx = rng.choice(len(atoms), size=n, p=weights)
    return atoms[idx]


def _inverse_gaussian(rng, mean, shape, n):
    # Michael-Schucany-Haas: one chi^2_1 draw plus a size-biased coin flip
    nu = rng.standard_normal(n)
    y = nu * nu
    x = (
        mean
        + mean * mean * y / (2.0 * shape)
        - (mean / (2.0 * shape)) * np.sqrt(4.0 * mean * shape * y + (mean * y) ** 2)
    )
    u = rng.random(n)
    return np.where(u <= mean / (mean + x), x, mean * mean / x)


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


def model_to_json(model):
    if isinstance(model, Cauchy):
        return {"dist": "cauchy", "params": {"mu": model.mu, "sigma": model.sigma}}
    if isinstance(model, ScaledT3):
        return {"dist": "t3", "params": {"mu": model.mu, "sigma": model.sigma}}
    if isinstance(model, Poincare):
        return {"dist": "poincare", "params": {"a": model.a, "b": model.b, "c": model.c}}
    if isinstance(model, TwoPoint):
        return {
            "dist": "twopoint",
            "params": {
                "z1": [model.z1.real, model.z1.imag],
                "z2": [model.z2.real, model.z2.imag],
                "w": model.w,
            },
        }
    return {
        "dist": "empirical",
        "params": {"samples": [[z.real, z.imag] for z in model.samples]},
    }


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
