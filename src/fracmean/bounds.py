"""Comparisons between E[|Z|**p] and |E[Z**p]|, and the geometric-mean
strong-law demonstration.

For a law supported in a closed half plane (in the principal-argument sense)
and |p| <= 1, the fractional absolute moment is controlled by the fractional
moment:

    E[|Z|**p] <= |E[Z**p]| / cos(p pi / 2),

with equality for the two-point law at {1, -1}.  Without half-plane support
the weaker divisor cos(p pi) works for |p| < 1/2, and for |p| > 1/2 nothing
survives: two unit-modulus atoms whose p-th powers are antipodal give
E[Z**p] = 0 while E[|Z|**p] = 1.

E[Z**p] is taken by frac_moment's AUTO route, which answers in closed form
for every built-in law.  E[|Z|**p] is taken by the method the law admits,
recorded as meta["abs_method"]: the law's ``rule``, 'atoms' or the 'nodes' of
an upper-half-plane density, graded toward the branch point 0 of |z|**p,
summed at two nested levels from one build, or 'mc' for a real-line density,
whose rule is not graded toward 0, which refuses where E[|Z|**(2p)] diverges.
The nested levels share their y rows, so their gap (exactly 0 for atoms)
sees the error of x alone; the uncertainty adds the relative gap of y's level
to the next (``y_rule``) times the value and a few ulps.  A rule also records
meta["nodes"], its level-7 node count, and meta["y_level"].

Half-plane support is checked on principal arguments.  The upper closure
{Im z >= 0} is always admissible, but a lower law may not touch the open
negative real axis: those points carry argument +pi, land on the far end of
the power arc, and break the convex-hull argument the bound rests on.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .distributions import MomentExistenceError, RouteUnavailableError, SupportError, TwoPoint, stream_generator
from .moments import _NODE_LEVEL, MCConfig, Route, frac_moment
from .montecarlo import _block_draws
# np_principal_pow, principal_log and principal_pow have no caller here:
# perfbench/tracer.py wraps these names
from .principal import np_principal_log, np_principal_pow, principal_log, principal_pow

__all__ = [
    "BoundReport",
    "half_plane_bound_check",
    "general_bound_check",
    "cancelling_pair_law",
    "SllnTrajectory",
    "geometric_slln_demo",
]


@dataclass
class BoundReport:
    abs_moment: float
    moment_abs: float
    bound: float
    satisfied: bool
    slack: float
    tolerance: float = 0.0
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "abs_moment": self.abs_moment,
            "moment_abs": self.moment_abs,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "meta": self.meta,
        }


def _support_class(model):
    """'upper' or 'lower' in the principal-argument sense, else SupportError."""
    if model.support != "complex":
        return "upper"  # the real line sits inside the upper closure
    atoms = model.nodes(0)[0]  # only atomic laws have complex support
    on_neg_axis = (atoms.imag == 0.0) & (atoms.real < 0.0)
    if np.all(atoms.imag <= 0.0) and not np.any(on_neg_axis):
        return "lower"
    raise SupportError(
        "law is not supported in a closed half plane of principal arguments"
    )


def _abs_method(model):  # a real-line density's rule is not graded toward 0
    return "mc" if model.rule == "nodes" and model.support == "real" else model.rule


def _abs_moment(model, p, mc, meta=None):
    """(E[|Z|**p], uncertainty) by the law's _abs_method; a rule's node
    count and y level go into meta, when given."""
    model.check_moment(0j, p)
    if _abs_method(model) != "mc":  # levels 7 and 6 of the nested rule, from one build
        points, weights, count, start, ratio = model.nested_nodes(_NODE_LEVEL + 1)
        y_level, y_gap = model.y_rule()
        if meta is not None:
            meta.update(nodes=count, y_level=y_level)
        terms = np.abs(points)
        terms **= p
        terms *= weights
        fine, coarse = float(np.sum(terms[:count])), ratio * float(np.sum(terms[start:]))
        # the level gap sees x's error, y's gap y's; the ulps cover rounding,
        # where both gaps can be exactly 0
        return fine, abs(fine - coarse) + y_gap * fine + 16.0 * math.ulp(fine)
    try:  # a standard error needs a finite variance of |Z|**p
        model.check_moment(0j, 2 * p)
    except MomentExistenceError as exc:
        raise RouteUnavailableError(f"no Monte Carlo standard error without E[|Z|^{2 * p:g}]: {exc}") from exc

    def block(first, count):
        draws, _, ws = _block_draws(model, mc, first, count)
        values = np.abs(draws, out=ws.take("scratch.1", draws.size))
        values **= p  # the scalar fast paths of ** (square, sqrt, ...) as in values ** p
        return values

    # through the module, so that a wrapper of moments._mc_mean sees these calls
    [(mean, stderr)], _ = moments._mc_mean(block, mc.samples, mc)
    return mean.real, stderr


def _bound_report(model, p, divisor, mc, support_declared):
    mc = mc or MCConfig()
    est = frac_moment(model, 0.0, complex(p), route=Route.AUTO, mc=mc)
    moment_abs, m_err = abs(est.value), est.uncertainty
    meta = {"p": p, "abs_method": _abs_method(model), "support": support_declared}
    abs_mom, a_err = _abs_moment(model, p, mc, meta)

    if divisor <= 0.0:
        bound = math.inf
        slack = math.inf
        satisfied = True
        tol = 0.0
    else:
        bound = moment_abs / divisor
        tol = 4.0 * (a_err + m_err / divisor) + 1e-12
        slack = bound - abs_mom
        satisfied = abs_mom <= bound + tol
    return BoundReport(
        abs_moment=abs_mom,
        moment_abs=moment_abs,
        bound=bound,
        satisfied=satisfied,
        slack=slack,
        tolerance=tol,
        meta=meta,
    )


def half_plane_bound_check(model, p, mc=None, declare_support=None):
    """Check E[|Z|**p] <= |E[Z**p]| / cos(p pi/2) for |p| <= 1.

    The law must be supported in a closed half plane (principal arguments);
    pass declare_support='upper'/'lower' to skip the check and probe the
    bound outside its hypotheses.  At |p| = 1 the divisor vanishes and the
    inequality is vacuous; the report then carries bound = inf.
    """
    if abs(p) > 1.0:
        raise ValueError("half-plane bound needs |p| <= 1")
    support = declare_support or _support_class(model)
    divisor = 0.0 if abs(p) == 1.0 else math.cos(p * math.pi / 2.0)
    return _bound_report(model, p, divisor, mc, support)


def general_bound_check(model, p, mc=None):
    """Check E[|Z|**p] <= |E[Z**p]| / cos(p pi) for |p| < 1/2 and any
    complex-supported law."""
    if abs(p) >= 0.5:
        raise ValueError("general bound needs |p| < 1/2")
    divisor = math.cos(p * math.pi)
    return _bound_report(model, p, divisor, mc, "complex")


def cancelling_pair_law(p):
    """Two equally weighted unit-modulus atoms whose p-th powers are
    antipodal, so E[Z**p] = 0 while E[|Z|**p] = 1 (possible once |p| > 1/2).

    The atoms are -1 (principal argument +pi, power angle p*pi) and
    exp(i(1 - 1/p)pi) (power angle (p-1)*pi, exactly pi less).
    """
    if not 0.5 < abs(p) <= 1.0:
        raise ValueError("antipodal powers of unit atoms need 1/2 < |p| <= 1")
    theta = (1.0 - 1.0 / p) * math.pi
    return TwoPoint(-1.0 + 0.0j, complex(math.cos(theta), math.sin(theta)), 0.5)


@dataclass
class SllnTrajectory:
    ns: np.ndarray
    values: np.ndarray
    target: complex

    def final_error(self):
        return abs(self.values[-1] - self.target)

    def to_json(self):
        return {
            "n": [int(n) for n in self.ns],
            "values": [[v.real, v.imag] for v in self.values],
            "target": [self.target.real, self.target.imag],
        }


_SLLN_CHECKPOINTS = 60  # log-spaced path lengths at which the running mean is read
_SLLN_CHUNK = 65_536  # draws per sampler call, so memory stays bounded at any n_max


def geometric_slln_demo(model, n_max, seed):
    """Running geometric means prod_{j<=n} Z_j**(1/n) along one sample path,
    against the limit exp(E[log Z]).

    Supported for laws in the closed upper half plane with a finite positive
    absolute moment (all built-ins that qualify).
    """
    if model.support != "upper":
        raise SupportError("the demo needs an upper-half-plane law")
    if n_max < 10:
        raise ValueError("need n_max >= 10")
    target = model.geometric_mean()
    checkpoints = np.unique(
        np.geomspace(10, n_max, num=min(_SLLN_CHECKPOINTS, n_max)).astype(int)
    )
    rng = stream_generator(seed, 0)
    from .distributions import _sample_with

    values = []
    log_sum = 0.0 + 0.0j
    done = 0
    for n_stop in checkpoints:
        while done < n_stop:  # the interval in chunks, from the one generator
            count = min(int(n_stop) - done, _SLLN_CHUNK)
            block = _sample_with([(rng, count)], model, count)
            log_sum += complex(np.sum(np_principal_log(block)))
            done += count
        values.append(complex(np.exp(log_sum / done)))
    return SllnTrajectory(checkpoints, np.array(values, dtype=complex), target)
