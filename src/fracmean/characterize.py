"""Moment-function experiments: determining-set validators and a numerical
distribution distinguisher.

The two-variable moment function F(alpha, lam) = E[(X + alpha)**lam] is
holomorphic in each variable on its half-plane; agreement of two laws on a
rich enough ("determining") set of alphas or lams forces the laws to agree.
Two executable divergence checks cover the classic sufficient conditions:

* a sequence (z_n) in {Im z > a} is determining when the Blaschke condition
  fails for its image under the disk map phi_a(z) = (z-(a+1)i)/(z-(a-1)i),
  i.e. sum (1 - |phi_a(z_n)|) diverges;
* a sequence (lam_n) with Re(lam_n) < 0 and bounded imaginary parts is
  determining when sum 1/(-Re lam_n) diverges.

Finite truncations can only *indicate* divergence, so verdicts are explicit
heuristics over the partial sums, and raw sums are always reported.
"""

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import MCConfig, Route, frac_moment

__all__ = [
    "Verdict",
    "AlphaSequence",
    "LambdaSequence",
    "DivergenceReport",
    "disk_map",
    "alpha_sequence_from_tag",
    "lambda_sequence_from_tag",
    "blaschke_divergence_check",
    "muntz_divergence_check",
    "FixLambda",
    "FixAlpha",
    "DistinguishReport",
    "distinguish",
]


class Verdict(enum.Enum):
    DIVERGENCE_INDICATED = "divergence_indicated"
    INCONCLUSIVE = "inconclusive"


def disk_map(z, a):
    """The biholomorphism {Im z > a} -> unit disk used by the Blaschke check."""
    z = complex(z)
    return (z - (a + 1.0) * 1j) / (z - (a - 1.0) * 1j)


def disk_map_inverse(w, a):
    w = complex(w)
    return 1j * ((a - 1.0) * w - (a + 1.0)) / (w - 1.0)


@dataclass(frozen=True)
class AlphaSequence:
    """Points z_n with Im(z_n) > a, to be tested as a determining set in alpha."""

    a: float
    points: tuple

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("need a > 0")
        pts = tuple(complex(z) for z in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 10:
            raise ValueError("need at least 10 points for a divergence verdict")


@dataclass(frozen=True)
class LambdaSequence:
    """Exponents lam_n with Re(lam_n) < 0 and |Im(lam_n)| <= im_bound."""

    points: tuple
    im_bound: float = 0.0

    def __post_init__(self):
        pts = tuple(complex(z) for z in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 10:
            raise ValueError("need at least 10 points for a divergence verdict")


def alpha_sequence_from_tag(tag, a=1.0, n_terms=200):
    """Benchmark alpha sequences: 'harmonic' has |phi_a(z_n)| = 1 - 1/n,
    'geometric' has |phi_a(z_n)| = 1 - 2**-n, 'constant' repeats (a+1)i."""
    if tag == "harmonic":
        pts = [disk_map_inverse(1.0 - 1.0 / n, a) for n in range(1, n_terms + 1)]
    elif tag == "geometric":
        pts = [disk_map_inverse(1.0 - 2.0 ** (-min(n, 50)), a) for n in range(1, n_terms + 1)]
    elif tag == "constant":
        pts = [(a + 1.0) * 1j] * n_terms
    else:
        raise ValueError(f"unknown alpha sequence tag {tag!r}")
    return AlphaSequence(a=a, points=tuple(pts))


def lambda_sequence_from_tag(tag, n_terms=200, im_bound=0.0):
    """Benchmark exponent sequences: 'harmonic' is -n, 'geometric' is -n**2,
    'constant' repeats -1."""
    if tag == "harmonic":
        pts = [-float(n) for n in range(1, n_terms + 1)]
    elif tag == "geometric":
        pts = [-float(n) ** 2 for n in range(1, n_terms + 1)]
    elif tag == "constant":
        pts = [-1.0] * n_terms
    else:
        raise ValueError(f"unknown lambda sequence tag {tag!r}")
    return LambdaSequence(points=tuple(pts), im_bound=im_bound)


def sequence_from_json(obj):
    """Explicit sequences from JSON: {"kind": "alpha"|"lambda", "a"/"im_bound",
    "points": [[re, im], ...]}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    pts = tuple(complex(p[0], p[1]) for p in obj["points"])
    if obj["kind"] == "alpha":
        return AlphaSequence(a=float(obj["a"]), points=pts)
    if obj["kind"] == "lambda":
        return LambdaSequence(points=pts, im_bound=float(obj.get("im_bound", 0.0)))
    raise ValueError("kind must be 'alpha' or 'lambda'")


@dataclass
class DivergenceReport:
    partial_sums: np.ndarray
    verdict: Verdict
    log_slope: float
    violations: list = field(default_factory=list)

    def to_json(self):
        return {
            "partial_sums": [float(s) for s in self.partial_sums],
            "verdict": self.verdict.value,
            "log_slope": self.log_slope,
            "violations": self.violations,
        }


def _divergence_verdict(partial_sums):
    """Fit S_N against ln N over the last half of the points; slope > 0.5
    indicates divergence (calibrated so the harmonic benchmark, slope 1,
    is comfortably inside)."""
    n_terms = len(partial_sums)
    half = np.arange(n_terms // 2, n_terms)
    slope = np.polyfit(np.log(half + 1.0), partial_sums[half], 1)[0]
    verdict = Verdict.DIVERGENCE_INDICATED if slope > 0.5 else Verdict.INCONCLUSIVE
    return verdict, float(slope)


def blaschke_divergence_check(spec):
    """Partial sums S_N = sum_{n<=N} (1 - |phi_a(z_n)|) and a divergence
    verdict.  Points with Im(z_n) <= a are a hard error."""
    if not isinstance(spec, AlphaSequence):
        raise TypeError("blaschke check needs an AlphaSequence")
    bad = [str(z) for z in spec.points if z.imag <= spec.a]
    if bad:
        raise ValueError(f"points must satisfy Im(z) > a = {spec.a:g}: {bad[:3]}")
    terms = np.array([1.0 - abs(disk_map(z, spec.a)) for z in spec.points])
    sums = np.cumsum(terms)
    verdict, slope = _divergence_verdict(sums)
    return DivergenceReport(sums, verdict, slope)


def muntz_divergence_check(spec):
    """Partial sums of 1/(-Re lam_n) plus the bounded-imaginary-part check;
    bound violations are reported in the result, not fatal."""
    if not isinstance(spec, LambdaSequence):
        raise TypeError("muntz check needs a LambdaSequence")
    violations = []
    for z in spec.points:
        if z.real >= 0:
            raise ValueError(f"exponents must satisfy Re(lam) < 0, got {z}")
        if abs(z.imag) > spec.im_bound:
            violations.append(str(z))
    terms = np.array([1.0 / (-z.real) for z in spec.points])
    sums = np.cumsum(terms)
    verdict, slope = _divergence_verdict(sums)
    return DivergenceReport(sums, verdict, slope, violations)


@dataclass(frozen=True)
class FixLambda:
    lam: complex
    alphas: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))

    def pairs(self):
        return [(a, self.lam) for a in self.alphas]


@dataclass(frozen=True)
class FixAlpha:
    alpha: complex
    lambdas: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "lambdas", tuple(complex(l) for l in self.lambdas))

    def pairs(self):
        return [(self.alpha, l) for l in self.lambdas]


@dataclass
class DistinguishReport:
    points: list  # (alpha, lam, value_a, value_b, discrepancy, uncertainty)
    max_discrepancy: float
    combined_uncertainty: float
    distinct: bool

    @property
    def verdict(self):
        return "distinct" if self.distinct else "not distinguished at this resolution"

    def to_json(self):
        return {
            "points": [
                {
                    "alpha": [a.real, a.imag],
                    "lambda": [l.real, l.imag],
                    "value_a": [va.real, va.imag],
                    "value_b": [vb.real, vb.imag],
                    "discrepancy": d,
                    "uncertainty": u,
                }
                for (a, l, va, vb, d, u) in self.points
            ],
            "max_discrepancy": self.max_discrepancy,
            "combined_uncertainty": self.combined_uncertainty,
            "verdict": self.verdict,
        }


def distinguish(model_a, model_b, mode, route=Route.AUTO, cfg=None, mc=None):
    """Evaluate |F_A - F_B| over the mode's grid.  The verdict is 'distinct'
    when the largest discrepancy exceeds 5x its propagated uncertainty; the
    check never claims equality, only failure to distinguish at this
    resolution."""
    mc = mc or MCConfig()
    points = []
    max_disc = 0.0
    max_unc = 0.0
    for idx, (alpha, lam) in enumerate(mode.pairs()):
        mc_a = MCConfig(samples=mc.samples, seed=mc.seed + 2 * idx, batch=mc.batch)
        mc_b = MCConfig(samples=mc.samples, seed=mc.seed + 2 * idx + 1, batch=mc.batch)
        est_a = frac_moment(model_a, alpha, lam, route=route, cfg=cfg, mc=mc_a)
        est_b = frac_moment(model_b, alpha, lam, route=route, cfg=cfg, mc=mc_b)
        disc = abs(est_a.value - est_b.value)
        unc = math.hypot(est_a.uncertainty, est_b.uncertainty)
        points.append((alpha, lam, est_a.value, est_b.value, disc, unc))
        if disc > max_disc:
            max_disc, max_unc = disc, unc
    distinct = max_disc > 5.0 * max_unc
    return DistinguishReport(points, max_disc, max_unc, distinct)
