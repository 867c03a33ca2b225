"""The benchmark workloads.

Each workload turns a seed into a list of cells. A cell is one public
library call plus the check of its result against a reference. A pass
runs every cell once. Import this module only after ``run.load_library``
has put the checkout's ``src/`` on the path.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from fracmean import (
    Cauchy,
    Empirical,
    MCConfig,
    Poincare,
    PowerMeanSpec,
    Route,
    ScaledT3,
    TwoPoint,
    closed_moment,
    frac_moment_neg,
    frac_moment_pos,
    power_mean_expectation,
)
from fracmean import verify

CAUCHY = Cauchy(0.0, 1.0)
T3 = ScaledT3(0.0, 1.0)
POIN = Poincare(1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Outcome:
    """What one checked call contributes to the run."""

    attempted: int
    failed: int
    values: object  # exact result payload; identical on every pass at one seed
    err_ratio: float | None = None  # |value - reference| / reported uncertainty
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Cell:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # FRACMEAN_THREADS for the whole process
    build: Callable[[int, bool], list]  # (seed, tiny) -> cells


def _estimate_outcome(est, ref, dev, limit, err_ratio=None):
    return Outcome(
        1,
        0 if dev <= limit else 1,
        [est.value.real, est.value.imag, est.uncertainty],
        err_ratio,
        {
            "value": [est.value.real, est.value.imag],
            "reference": [ref.real, ref.imag],
            "deviation": dev,
            "limit": limit,
            "uncertainty": est.uncertainty,
        },
    )


def _within_stderr(ref, est, k=4.0):
    return _estimate_outcome(est, ref, abs(est.value - ref), k * est.uncertainty)


def _within_rel(ref, tol, est):
    return _estimate_outcome(est, ref, abs(est.value - ref), tol * abs(ref))


def _within_abs(ref, tol, est):
    dev = abs(est.value - ref)
    return _estimate_outcome(est, ref, dev, tol, dev / max(est.uncertainty, 1e-300))


# --- verify_seed7 -----------------------------------------------------------

# The acceptance gate, its thresholds and its one documented xfail are
# defined at seed 7, so the suite always runs there. At other seeds the
# criterion-1 standard-error caps at p = -0.5 and p = -0.1, n = 2 fail
# (seeds 1, 2 and 6 do), which the gate does not document as expected.
SUITE_SEED = 7
TINY_CRITERIA = {4, 5, 6, 10}


def _verify_check(out):
    results, _all_passed = out
    checks = [c for r in results for c in r.checks]
    failed = [f"criterion {r.cid}: {c.name}" for r in results for c in r.checks if c.hard_failure]
    return Outcome(
        len(checks),
        len(failed),
        verify.fingerprint(results),
        detail={"failed": failed, "criterion_wall_ms": {r.cid: r.wall_ms for r in results}},
    )


def _verify_seed7(seed, tiny):
    del seed  # see SUITE_SEED
    ids = TINY_CRITERIA if tiny else None
    call = partial(verify.run_suite, SUITE_SEED, ids=ids, include_determinism=False)
    return [Cell("run_suite", call, _verify_check)]


# --- mc_powermean -------------------------------------------------------------

MC_CELLS = (
    ("poincare p=0.5 n=5", POIN, PowerMeanSpec(p=0.5, n=5)),
    ("poincare p=0 n=2", POIN, PowerMeanSpec(p=0.0, n=2)),
    ("cauchy alpha=i p=-0.5 n=2", CAUCHY, PowerMeanSpec(p=-0.5, n=2, alpha=1j)),
    ("t3 alpha=i p=-0.5 n=5", T3, PowerMeanSpec(p=-0.5, n=5, alpha=1j)),
)


def _mc_powermean(seed, tiny):
    mc = MCConfig(samples=10_000 if tiny else 1_000_000, seed=seed)
    cells = []
    for label, model, spec in MC_CELLS:
        ref = power_mean_expectation(model, spec, Route.CLOSED).value
        call = partial(power_mean_expectation, model, spec, Route.MONTE_CARLO, mc=mc)
        cells.append(Cell(label, call, partial(_within_stderr, ref)))
    return cells


# --- quad_moments ---------------------------------------------------------------

NEG_TOL = 1e-6  # relative, as in acceptance criterion 4
POS_TOL = 1e-4  # relative, as in acceptance criterion 5
QUAD_CELLS = (
    ("cauchy", CAUCHY, 1j, (-0.5, -0.9, -0.5 + 0.5j)),
    ("t3", T3, 1j, (-0.5, 0.5, 1.5, -0.5 + 0.5j, 0.5 + 0.5j)),
    ("poincare", POIN, 0j, (-0.5, 0.5, 1.5, -0.5 + 0.5j, 0.5 + 0.5j)),
    ("twopoint", TwoPoint(1.0 + 1.0j, -0.5 + 0.5j, 0.3), 0j, (-0.5, 0.5)),
)


def empirical_law(seed, atoms):
    """Upper-half-plane atoms: real parts N(0, 1), imaginary parts U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    return Empirical(tuple(rng.normal(size=atoms) + 1j * rng.uniform(0.5, 2.0, atoms)))


def _quad_moments(seed, tiny):
    laws = QUAD_CELLS + (("empirical", empirical_law(seed, 10 if tiny else 200), 0j, (-0.5, 0.5)),)
    cells = []
    for name, model, alpha, orders in laws:
        for lam in orders:
            lam = complex(lam)
            ref = closed_moment(model, alpha, lam)
            if lam.real < 0:
                call, check = partial(frac_moment_neg, model, alpha, lam), partial(_within_rel, ref, NEG_TOL)
            else:
                call, check = partial(frac_moment_pos, model, alpha, lam), partial(_within_rel, ref, POS_TOL)
            cells.append(Cell(f"{name} alpha={alpha} lam={lam}", call, check))
    return cells


# --- fracderiv_sampled ------------------------------------------------------------

FRACDERIV_DRAWS = 20_000
# (label, model, alpha, p, reference, tol at FRACDERIV_DRAWS); the references
# and tolerances come from pin_refs.py
FRACDERIV_CELLS = (
    ("t3 alpha=i p=0.5", T3, 1j, 0.5, 0.0003779948534744573 + 1.0624853941487853j, 3.95e-02),
    ("t3 alpha=i p=0.4", T3, 1j, 0.4, 0.0003751842461060546 + 1.0749819105183567j, 3.89e-02),
    ("poincare alpha=0.5i p=-0.5", POIN, 0.5j, -0.5, 0.0001378337991142686 + 1.4999541998328916j, 2.70e-02),
    ("poincare alpha=0.5i p=0.4", POIN, 0.5j, 0.4, 0.00018244528746611116 + 1.4999850458714443j, 2.94e-02),
)


def fracderiv_call(model, alpha, p, draws, seed):
    spec = PowerMeanSpec(p=p, n=2, alpha=alpha)
    mc = MCConfig(samples=draws, seed=seed)
    return partial(power_mean_expectation, model, spec, Route.FRAC_DERIV, mc=mc)


# The frozen draws are fixed, whatever the seed. How many evaluations the
# t3 p=0.4 cell takes depends on the draws: 1,457 at seed 7, 880 for about
# a quarter of seeds and 5,034 for some (draw seed 618), so with draws from
# the run's seed the pass time would vary threefold from run to run.
FRACDERIV_SEED = 7


def _fracderiv_sampled(seed, tiny):
    del seed  # see FRACDERIV_SEED
    draws = 2_000 if tiny else FRACDERIV_DRAWS
    # the spread of a frozen-draw estimate shrinks like 1/sqrt(draws)
    widen = math.sqrt(FRACDERIV_DRAWS / draws)
    return [
        Cell(label, fracderiv_call(model, alpha, p, draws, FRACDERIV_SEED), partial(_within_abs, ref, tol * widen))
        for label, model, alpha, p, ref, tol in FRACDERIV_CELLS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_seed7", 1, _verify_seed7),
        Workload("mc_powermean", 2, _mc_powermean),
        Workload("quad_moments", 1, _quad_moments),
        Workload("fracderiv_sampled", 1, _fracderiv_sampled),
    )
}
