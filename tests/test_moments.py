"""Fractional moments and power-mean expectations: routes against oracles."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from fracmean import moments
from fracmean.distributions import (
    Cauchy,
    Empirical,
    MomentExistenceError,
    Poincare,
    ScaledT3,
    SupportError,
    TwoPoint,
    sample,
)
from fracmean.moments import (
    MCConfig,
    MomentEstimate,
    PowerMeanSpec,
    Route,
    RouteUnavailableError,
    closed_moment,
    continuity_scan,
    frac_moment,
    frac_moment_mc,
    frac_moment_neg,
    frac_moment_pos,
    power_mean,
    power_mean_expectation,
    t3_product_identity,
)
from fracmean.moments import _NODE_LEVEL, _NegTransform, _PosTransformDerivs, _fractional_power, _pm_monte_carlo
from fracmean.principal import BranchDomainError, principal_pow
from fracmean.quad import NonConvergenceError, QuadratureConfig

CAUCHY = Cauchy(0.0, 1.0)
T3 = ScaledT3(0.0, 1.0)
POIN = Poincare(1.0, 0.0, 1.0)


# --- the statistic itself -----------------------------------------------------


def test_power_mean_is_arithmetic_at_p_one():
    vals = [1 + 1j, 3 + 0j, 0.5j]
    assert abs(power_mean(vals, 1.0) - np.mean(vals)) < 1e-15


def test_power_mean_idempotency():
    assert abs(power_mean([2 + 3j], -0.7) - (2 + 3j)) < 1e-14
    assert abs(power_mean([1j, 1j], -0.5) - 1j) < 1e-15
    assert abs(power_mean([1j, 1j, 1j], 0.0) - 1j) < 1e-15


def test_row_means_are_numpy_means_bit_for_bit():
    # numpy's pairwise order changes at 4 terms (four accumulators) and again
    # above 64 (recursive halves), so cover both switches and beyond
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        scale = np.exp(rng.uniform(-30.0, 30.0, (33, n)))
        values = (rng.standard_normal((33, n)) + 1j * rng.standard_normal((33, n))) * scale
        assert moments._row_means(values).tobytes() == np.mean(values, axis=1).tobytes(), n
    zeros = np.full((2, 5), complex(-0.0, -0.0))  # numpy's sum starts at +0.0
    assert moments._row_means(zeros).tobytes() == np.mean(zeros, axis=1).tobytes()


def test_power_mean_zero_rejection():
    with pytest.raises(BranchDomainError):
        power_mean([1j, 0.0], -0.5)
    with pytest.raises(BranchDomainError):
        power_mean([1j, 0.0], 0.0)
    # p > 0 tolerates zeros through the 0**p = 0 convention
    assert abs(power_mean([0.0, 4.0], 0.5) - 1.0) < 1e-14


def test_power_mean_holder_bound_exact():
    # |PM_p| <= (1/n) sum |z_j| for p in (0, 1], upper-half-plane values
    rng = np.random.default_rng(71)
    for _ in range(10_000):
        n = rng.integers(2, 6)
        vals = rng.normal(size=n) + 1j * np.abs(rng.normal(size=n))
        p = rng.uniform(1e-6, 1.0)
        assert abs(power_mean(vals, p)) <= np.mean(np.abs(vals)) * (1 + 1e-12)


def test_t3_product_identity_trivial_and_grid():
    lhs, rhs = t3_product_identity(-0.5, 0)
    assert lhs == 1.0 and rhs == 1.0
    lhs, rhs = t3_product_identity(-0.5, 1)
    assert abs(lhs - (-1.0)) < 1e-12 and rhs == -1.0
    for p in (-0.9, -0.5, -0.2, -0.05):
        for k in range(7):
            lhs, rhs = t3_product_identity(p, k)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


# --- closed forms ---------------------------------------------------------------


def test_closed_moments():
    assert abs(closed_moment(CAUCHY, 1j, -0.5) - (0.5 - 0.5j)) < 1e-15
    want_t3 = principal_pow(2j, -1.5) * (2.5j)
    assert abs(closed_moment(T3, 1j, -0.5) - want_t3) < 1e-15
    assert abs(want_t3 - (0.625 - 0.625j)) < 1e-15
    assert abs(closed_moment(POIN, 0.0, 0.5) - cmath.exp(1j * math.pi / 4)) < 1e-15
    assert closed_moment(POIN, 1j, 0.5) is None  # no closed shifted form
    tp = TwoPoint(1j, 2j, 0.25)
    want = 0.25 * principal_pow(1j, 0.3) + 0.75 * principal_pow(2j, 0.3)
    assert abs(closed_moment(tp, 0.0, 0.3) - want) < 1e-15


def test_closed_moment_existence_guards():
    with pytest.raises(MomentExistenceError):
        closed_moment(CAUCHY, 1j, 1.0)
    with pytest.raises(MomentExistenceError):
        closed_moment(T3, 1j, 3.0)
    with pytest.raises(MomentExistenceError):
        closed_moment(CAUCHY, 0.0, -1.5)  # real alpha at deep negative order


def test_shift_consistency_at_order_one():
    # E[(X + alpha)^1] = E[X] + alpha for finite-mean laws
    assert abs(closed_moment(T3, 1j, 1.0) - 1j) < 1e-15  # mu = 0
    assert abs(closed_moment(ScaledT3(0.4, 2.0), 0.3 + 1j, 1.0) - (0.7 + 1j)) < 1e-14
    assert abs(closed_moment(POIN, 0.0, 1.0) - 1j) < 1e-15
    tp = TwoPoint(2.0, -1.0, 0.5)
    assert abs(closed_moment(tp, 1j, 1.0) - (0.5 + 1j)) < 1e-15


# --- quadrature routes ----------------------------------------------------------


@pytest.mark.parametrize("lam", [-0.25, -0.5, -0.9, complex(-0.5, 0.3)])
def test_frac_moment_neg_cauchy(lam):
    est = frac_moment_neg(CAUCHY, 1j, lam)
    want = principal_pow(2j, lam)
    assert abs(est.value - want) <= 1e-6 * abs(want)
    assert est.method is Route.QUAD_NEG


@pytest.mark.parametrize("lam", [-0.5, -1.0])
def test_frac_moment_neg_poincare(lam):
    est = frac_moment_neg(POIN, 0.0, lam)
    want = principal_pow(1j, lam)
    assert abs(est.value - want) <= 1e-6 * abs(want)


def test_frac_moment_neg_t3():
    est = frac_moment_neg(T3, 1j, -0.5)
    assert abs(est.value - (0.625 - 0.625j)) <= 1e-6


def test_frac_moment_neg_preconditions():
    with pytest.raises(ValueError):
        frac_moment_neg(CAUCHY, 1j, 0.5)
    with pytest.raises(SupportError):
        frac_moment_neg(CAUCHY, 0.0, -0.5)  # Im(alpha) = 0, real support
    with pytest.raises(SupportError):
        # Z - 0.5i leaves the upper half plane, where the transform no longer
        # gives the moment: (beta + alpha)**lam = 1 - i, Monte Carlo 0.87 - 0.34i
        frac_moment_neg(POIN, -0.5j, -0.5)
    with pytest.raises(MomentExistenceError):
        frac_moment_neg(TwoPoint(0j, 1j, 0.5), 0.0, -0.5)  # a zero atom at a negative order


@pytest.mark.parametrize("lam,want", [(0.5, cmath.exp(1j * math.pi / 4)), (1.5, principal_pow(1j, 1.5))])
def test_frac_moment_pos_poincare(lam, want):
    est = frac_moment_pos(POIN, 0.0, lam)
    assert abs(est.value - want) <= 1e-4 * abs(want)
    assert est.method is Route.QUAD_POS


def test_frac_moment_pos_poincare_shifted_params():
    est = frac_moment_pos(Poincare(2.0, 1.0, 1.0), 0.0, 0.5)
    want = principal_pow(complex(-0.5, 0.5), 0.5)
    assert abs(est.value - want) <= 1e-6 * abs(want)


def test_frac_moment_pos_point_mass_at_one():
    est = frac_moment_pos(TwoPoint(1.0, 1.0, 1.0), 0.0, 0.5)
    assert abs(est.value - 1.0) <= 1e-8


def test_frac_moment_pos_two_point_mixed_atoms():
    tp = TwoPoint(2.0, -1.0 + 0.5j, 0.5)
    lam = 0.7
    est = frac_moment_pos(tp, 0.0, lam)
    want = closed_moment(tp, 0.0, lam)
    assert abs(est.value - want) <= 1e-7 * abs(want)


@pytest.mark.parametrize("lam", [0.5, 1.5, 2.5])
def test_frac_moment_pos_t3_vs_closed(lam):
    est = frac_moment_pos(T3, 1j, lam)
    want = closed_moment(T3, 1j, lam)
    tol = 2e-3 if lam > 2 else 1e-6  # E|Z|^3 = inf makes the last stretch rough
    assert abs(est.value - want) <= tol * abs(want)


def test_frac_moment_pos_rejections():
    with pytest.raises(MomentExistenceError):
        frac_moment_pos(CAUCHY, 1j, 1.5)  # E|Z|^1.5 diverges
    with pytest.raises(MomentExistenceError):
        frac_moment_pos(T3, 1j, 3.2)
    with pytest.raises(ValueError):
        frac_moment_pos(POIN, 0.0, 2.0)  # integer order: not a fractional route


@pytest.mark.parametrize("law, alpha", [(CAUCHY, 1j), (CAUCHY, 0.3), (CAUCHY, 0.0), (Cauchy(0.4, 2.0), 0.5j)])
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 0.5 + 0.5j])
def test_frac_moment_pos_cauchy_below_first_moment(law, alpha, lam):
    # the Marchaud quotient needs E|Z|^Re(lam) < inf only, not E|Z| < inf
    est = frac_moment_pos(law, alpha, lam)
    want = closed_moment(law, alpha, lam)
    assert abs(est.value - want) <= min(est.uncertainty, 1e-11 * abs(want))


def test_frac_moment_pos_ten_real_atoms():
    law = Empirical(tuple(np.random.default_rng(1).normal(size=10)))
    est = frac_moment_pos(law, 0.0, 0.5)
    want = closed_moment(law, 0.0, 0.5)
    assert abs(est.value - want) <= min(est.uncertainty, 1e-12)


@pytest.mark.parametrize("seed", [3, 7])
def test_frac_moment_pos_atoms_with_large_real_part(seed):
    # Cauchy draws reach |Re z| in the hundreds (82, 202 and 700 at seed 3)
    law = Empirical(tuple(sample(Cauchy(0.3, 1.0), seed, 200) + 0.5j))
    est = frac_moment_pos(law, 1j, 0.5)
    want = closed_moment(law, 1j, 0.5)
    assert abs(est.value - want) <= est.uncertainty <= 1e-3 * abs(want)


def test_frac_moment_pos_many_atoms_in_one_integral():
    rng = np.random.default_rng(7)
    law = Empirical(tuple(rng.normal(size=200) + 1j * rng.uniform(0.5, 2.0, 200)))
    est = frac_moment_pos(law, 0.0, 0.5)
    want = closed_moment(law, 0.0, 0.5)
    assert abs(est.value - want) <= est.uncertainty
    assert est.meta["evaluations"] <= 1000  # one Marchaud integral, not one per atom


@pytest.mark.parametrize(
    "atoms,lam",
    [
        ((4.0, 0.5, -0.625), -2.9375),  # opposite phases cancel where the tail bound probes h
        ((1.0, 4.0, 0.1015625), -2.890625),  # a small atom: |z|**lam near 750
        ((3.0, 0.109375), -2.75 + 0.5j),
        ((1.0, 4.0, 0.125), -2.982272740512139),
    ],
)
def test_frac_moment_neg_atoms_near_order_minus_three(atoms, lam):
    # examples the rotated-atom property test found, each understated at first
    law = Empirical(atoms)
    est = frac_moment_neg(law, 0.0, lam)
    assert abs(est.value - closed_moment(law, 0.0, lam)) <= est.uncertainty


# --- Monte Carlo -----------------------------------------------------------------


def test_frac_moment_mc_point_mass():
    est = frac_moment_mc(TwoPoint(1j, 1j, 0.5), 0.0, 2.0, MCConfig(samples=4096, seed=1))
    assert abs(est.value - (-1.0)) < 1e-12
    assert est.uncertainty < 1e-12


@pytest.mark.parametrize("route", [Route.CLOSED, Route.QUAD_NEG, Route.MONTE_CARLO, Route.AUTO])
def test_zero_atom_at_negative_order_has_no_moment(route):
    # E|Z|^-0.5 diverges at the atom 0; the 0**lam = 0 convention must not hide it
    with pytest.raises(MomentExistenceError):
        frac_moment(TwoPoint(0j, 1j, 0.5), 0.0, -0.5, route=route, mc=MCConfig(samples=4096, seed=1))
    # an atom of weight 0 at 0 is no atom at all
    est = frac_moment(TwoPoint(0j, 1j, 0.0), 0.0, -0.5, route=route, mc=MCConfig(samples=4096, seed=1))
    assert abs(est.value - principal_pow(1j, -0.5)) <= 1e-10


def test_frac_moment_mc_real_atoms_at_negative_order():
    law = TwoPoint(2.0, -1.0, 0.5)
    closed = frac_moment(law, 0.0, -0.5, route=Route.CLOSED)
    est = frac_moment(law, 0.0, -0.5, route=Route.MONTE_CARLO, mc=MCConfig(samples=20_000, seed=3))
    assert abs(est.value - closed.value) <= 4.0 * est.uncertainty
    with pytest.raises(SupportError):  # density laws keep their guard
        frac_moment_mc(CAUCHY, 0.0, -0.5, MCConfig(samples=4096, seed=1))


def test_frac_moment_mc_cauchy_inverse():
    est = frac_moment_mc(CAUCHY, 1j, -1.0, MCConfig(samples=200_000, seed=2))
    assert abs(est.value - (-0.5j)) <= 4.0 * est.uncertainty


def test_frac_moment_mc_poincare_root():
    est = frac_moment_mc(POIN, 0.0, 0.5, MCConfig(samples=200_000, seed=3))
    assert abs(est.value - cmath.exp(1j * math.pi / 4)) <= 4.0 * est.uncertainty


def test_frac_moment_mc_stderr_survives_large_mean():
    # sum(x**2) - N * mean**2 cancels to 0 at this mean; merged block M2 does not
    atoms = 1e8 + 0.1 * np.arange(10)
    est = frac_moment_mc(Empirical(tuple(atoms)), 0.0, 1.0, MCConfig(samples=100_000, seed=7))
    want = np.std(0.1 * np.arange(10)) / math.sqrt(1e5)
    assert abs(est.uncertainty - want) <= 0.1 * want


@pytest.mark.parametrize("threads", ["1", "2"])
def test_frac_moment_mc_memory_bounded_in_blocks(monkeypatch, threads):
    def peak_bytes(blocks):
        tracemalloc.start()
        try:
            frac_moment_mc(POIN, 0.0, 0.5, MCConfig(samples=blocks * 4096, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the reference is one worker's peak: with several workers the peak
    # depends on whether their blocks overlap in time, so a reference taken
    # on as many threads swings with the scheduler.  The warm-up runs on the
    # tested thread count, so the lazy import of the executor is not measured.
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    frac_moment_mc(POIN, 0.0, 0.5, MCConfig(samples=16 * 4096, seed=3))
    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    reference = peak_bytes(16)
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    large = peak_bytes(256)
    assert large <= 1.5 * int(threads) * reference, (reference, large)


@pytest.mark.parametrize(
    "model, alpha, p, kind, has_closed",
    [
        (CAUCHY, 1j, -0.5, "cauchy", True),
        (T3, 1j, -0.5, "t3", True),
        (POIN, 0j, -0.5, "poincare", True),
        (POIN, 0j, 0.5, "poincare", True),
        (T3, 1j, 0.5, "nodes", False),
        (POIN, 0.5j, -0.5, "nodes", False),
        (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), 0j, -0.5, "atoms", True),
    ],
)
def test_frac_deriv_transform_kind_per_family(model, alpha, p, kind, has_closed):
    spec = PowerMeanSpec(p=p, n=2, alpha=alpha)
    est = power_mean_expectation(model, spec, Route.FRAC_DERIV, mc=MCConfig(samples=2000, seed=7))
    assert est.meta["transform"] == kind
    if has_closed:
        closed = power_mean_expectation(model, spec, Route.CLOSED).value
        assert abs(est.value - closed) <= 1e-10, (est.value, closed)


def test_frac_moment_dispatch_and_meta():
    est = frac_moment(CAUCHY, 1j, -0.5)
    assert est.method is Route.CLOSED and est.uncertainty == 0.0
    est = frac_moment(POIN, 1j, -0.5)  # shifted: no closed form, quad applies
    want = frac_moment_mc(POIN, 1j, -0.5, MCConfig(samples=400_000, seed=5)).value
    assert est.method is Route.QUAD_NEG
    assert abs(est.value - want) <= 0.01
    est = frac_moment(CAUCHY, 1j, 0.0)
    assert est.value == 1.0 and est.method is Route.CLOSED
    with pytest.raises(RouteUnavailableError):
        frac_moment(POIN, 1j, 0.5, route=Route.CLOSED)


_LADDER_MC = MCConfig(samples=2000, seed=1)
# each dispatcher at arguments where every step answers: (call, steps, routes
# without a step), a step being (owner, name, route, method of its estimate)
_LADDERS = {
    "moment": (
        lambda route: frac_moment(POIN, 0.0, -0.5, route, mc=_LADDER_MC),
        [
            (moments, "closed_moment", Route.CLOSED, Route.CLOSED),
            (moments, "_quad_moment", Route.QUAD_NEG, Route.QUAD_NEG),
            (moments, "frac_moment_mc", Route.MONTE_CARLO, Route.MONTE_CARLO),
        ],
        [Route.QUAD_POS, Route.FRAC_DERIV],
    ),
    "power_mean": (
        lambda route: power_mean_expectation(POIN, PowerMeanSpec(p=-0.5, n=2), route, mc=_LADDER_MC),
        [
            (Poincare, "closed_power_mean", Route.CLOSED, Route.CLOSED),
            (moments, "_pm_frac_deriv", Route.FRAC_DERIV, Route.QUAD_NEG),
            (moments, "_pm_monte_carlo", Route.MONTE_CARLO, Route.MONTE_CARLO),
        ],
        [Route.QUAD_NEG, Route.QUAD_POS],
    ),
}


def _raising(exc):
    def step(*args, **kwargs):
        raise exc("raised by the test")

    return step


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("ladder", sorted(_LADDERS))
def test_route_ladder_of_both_dispatchers(monkeypatch, ladder, index):
    call, steps, foreign = _LADDERS[ladder]
    for route in foreign:  # an explicit route without a step of its own
        with pytest.raises(RouteUnavailableError):
            call(route)
    for owner, name, _, _ in steps[:index]:
        monkeypatch.setattr(owner, name, _raising(NonConvergenceError))
    owner, name, route, method = steps[index]
    est = call(Route.AUTO)  # the failed steps are skipped
    assert est.method is method and est.meta["auto"] is True
    est = call(route)
    assert est.method is method and est.meta["auto"] is False
    monkeypatch.setattr(owner, name, _raising(NonConvergenceError))
    with pytest.raises(NonConvergenceError):  # no later step answers for it
        call(route)
    monkeypatch.setattr(owner, name, _raising(MomentExistenceError))
    with pytest.raises(MomentExistenceError):
        call(Route.AUTO)


# --- power-mean expectations -------------------------------------------------------


def test_closed_cauchy_power_mean_invariance():
    for p in (-1.0, -0.5, -0.1):
        for n in (2, 3, 5):
            est = power_mean_expectation(CAUCHY, PowerMeanSpec(p=p, n=n, alpha=1j), Route.CLOSED)
            assert est.value == 2j
    with pytest.raises(RouteUnavailableError):
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.5, n=2, alpha=1j), Route.CLOSED)


def test_closed_poincare_power_mean_invariance():
    for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
        est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=4), Route.CLOSED)
        assert est.value == 1j
    est = power_mean_expectation(Poincare(2.0, 1.0, 1.0), PowerMeanSpec(p=0.5, n=2), Route.CLOSED)
    assert est.value == complex(-0.5, 0.5)


def test_closed_t3_power_mean_value_and_slope():
    # n = 2, gamma + alpha = 2i: E[M](p) = i (1 + (1 - p)/8), an affine
    # function of p with |slope| = 1!/(2^2 |2i|^1) = 1/8
    for p in (-0.5, -0.9, -0.1):
        est = power_mean_expectation(T3, PowerMeanSpec(p=p, n=2, alpha=1j), Route.CLOSED)
        want = 1j * (1.0 + (1.0 - p) / 8.0)
        assert abs(est.value - want) < 1e-14
    ps = np.arange(-0.9, -0.05, 0.1)
    vals = np.array(
        [
            power_mean_expectation(T3, PowerMeanSpec(p=p, n=2, alpha=1j), Route.CLOSED).value
            for p in ps
        ]
    )
    coeffs = np.polyfit(ps, vals, 1)
    residual = np.max(np.abs(np.polyval(coeffs, ps) - vals))
    assert residual <= 1e-10
    assert abs(abs(coeffs[0]) - 0.125) <= 1e-8


def test_two_point_power_mean_enumeration_matches_mc():
    tp = TwoPoint(1j, 2j, 0.3)
    spec = PowerMeanSpec(p=0.5, n=3)
    closed = power_mean_expectation(tp, spec, Route.CLOSED)
    mc = power_mean_expectation(tp, spec, Route.MONTE_CARLO, mc=MCConfig(samples=200_000, seed=8))
    assert abs(closed.value - mc.value) <= 4.0 * mc.uncertainty


@pytest.mark.parametrize("p", [-0.5, 0.5])
def test_frac_deriv_poincare_criterion_cells(p):
    est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=2), Route.FRAC_DERIV)
    assert abs(est.value - 1j) <= 1e-4


def test_frac_deriv_poincare_non_integer_reciprocal():
    est = power_mean_expectation(POIN, PowerMeanSpec(p=0.6, n=3), Route.FRAC_DERIV)
    assert abs(est.value - 1j) <= 1e-6


def test_frac_deriv_matches_closed_for_cauchy_and_t3():
    est = power_mean_expectation(CAUCHY, PowerMeanSpec(p=-0.5, n=3, alpha=1j), Route.FRAC_DERIV)
    assert abs(est.value - 2j) <= 1e-7
    est = power_mean_expectation(T3, PowerMeanSpec(p=-0.5, n=2, alpha=1j), Route.FRAC_DERIV)
    assert abs(est.value - 1.1875j) <= 1e-7


def test_frac_deriv_geometric_branch():
    est = power_mean_expectation(POIN, PowerMeanSpec(p=0.0, n=2), Route.FRAC_DERIV)
    assert abs(est.value - 1j) <= 1e-6
    assert est.meta.get("geometric") is True


def test_frac_deriv_ordinal_matches_mc():
    # p = 1/2 means a plain second derivative of the transform
    quad = power_mean_expectation(POIN, PowerMeanSpec(p=0.5, n=2), Route.FRAC_DERIV)
    mc = power_mean_expectation(
        POIN, PowerMeanSpec(p=0.5, n=2), Route.MONTE_CARLO, mc=MCConfig(samples=200_000, seed=9)
    )
    assert quad.meta.get("ordinal") is True
    assert abs(quad.value - mc.value) <= 4.0 * mc.uncertainty


def _point_mass_h(y, lam, phase):
    """h(t) = E[Y**k exp(phase t Y)] for Y = y, k = floor(Re lam) or 0."""
    k = math.floor(lam.real) if lam.real > 0 else 0
    return lambda t: y ** k * cmath.exp(phase * t * y)


@pytest.mark.parametrize("lam", [-0.5, -0.5 + 0.3j, -1.7, 0.5, 1.5, 0.5 + 0.5j, 2])
def test_fractional_power_point_mass_upper(lam):
    y = 0.7 + 1.3j
    value, unc, evals = _fractional_power(_point_mass_h(y, lam, 1j), lam, y.imag, QuadratureConfig(), 1j)
    assert abs(value - principal_pow(y, lam)) <= 1e-12 * abs(principal_pow(y, lam))
    if lam == 2:
        assert (unc, evals) == (0.0, 0)  # the plain moment, no quadrature


@pytest.mark.parametrize("lam", [-0.5, -0.5 + 0.3j, -1.7])
def test_fractional_power_point_mass_lower(lam):
    y = 0.7 - 1.3j
    value, _, _ = _fractional_power(_point_mass_h(y, lam, -1j), lam, -y.imag, QuadratureConfig(), -1j)
    assert abs(value - principal_pow(y, lam)) <= 1e-12 * abs(principal_pow(y, lam))


def test_frac_deriv_large_orders_raise_documented_errors():
    # 1/p = 500 would need 500! in the transform derivatives
    t3_spec = PowerMeanSpec(p=0.002, n=2, alpha=1j)
    with pytest.raises(RouteUnavailableError):
        power_mean_expectation(T3, t3_spec, Route.FRAC_DERIV)
    # (t**99) overflows inside the Riemann-Liouville integral
    poin_spec = PowerMeanSpec(p=-0.01, n=2, alpha=0.5j)
    with pytest.raises(NonConvergenceError):
        power_mean_expectation(POIN, poin_spec, Route.FRAC_DERIV)
    with pytest.raises(NonConvergenceError):
        frac_moment_neg(CAUCHY, 1j, -150)
    mc = MCConfig(samples=2000, seed=7)
    for model, spec in ((T3, t3_spec), (POIN, poin_spec)):
        assert power_mean_expectation(model, spec, Route.AUTO, mc=mc).method is Route.MONTE_CARLO


def test_frac_deriv_rejects_cauchy_positive():
    with pytest.raises(MomentExistenceError):
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.5, n=2, alpha=1j), Route.FRAC_DERIV)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_frac_deriv_geometric_mean_of_cauchy(n):
    est = power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.0, n=n, alpha=1j), Route.FRAC_DERIV)
    assert est.method is Route.QUAD_POS
    assert abs(est.value - 2j) <= min(est.uncertainty, 1e-10)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_frac_deriv_exact_transform_carries_rounding_allowance(p, n):
    est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=n), Route.FRAC_DERIV)
    assert est.meta["transform"] == "poincare"
    assert 0.0 < est.uncertainty <= 1e-14
    assert abs(est.value - 1j) <= est.uncertainty


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_auto_power_mean_refuses_nonexistent_expectation(p):
    # E|M_p| diverges for Cauchy at p > 0; no route may return a number
    with pytest.raises(MomentExistenceError):
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=p, n=2, alpha=1j), Route.AUTO)


def test_auto_moment_refuses_nonexistent_moment():
    with pytest.raises(MomentExistenceError):
        frac_moment(CAUCHY, 1j, 1.0)


def test_auto_geometric_mean_of_cauchy_takes_quadrature():
    est = power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.0, n=2, alpha=1j), Route.AUTO)
    assert est.method is Route.QUAD_POS and est.meta["auto"] is True
    assert abs(est.value - 2j) <= est.uncertainty


def _loop_moments(values, weights, jmax, v):
    """[E[W^j exp(ivW)] for j = 0..jmax], one pass per j: the reference for
    the single-pass weighted-powers kernel."""
    base = np.exp(1j * v * values)
    return np.array([complex(np.sum(weights * values**j * base)) for j in range(jmax + 1)])


def _loop_scale(values, weights, jmax, v):
    # sum of |terms|: the size a rounding error of the sum is measured against
    mags = np.abs(np.exp(1j * v * values))
    return np.array([np.sum(weights * np.abs(values) ** j * mags) for j in range(jmax + 1)])


def _assert_close_to_loop(got, want, scale):
    for g, w, s in zip(np.atleast_1d(got), np.atleast_1d(want), np.atleast_1d(scale)):
        if w == 0:
            assert g == 0, (g, w)
        else:
            assert abs(g - w) <= 1e-13 * s, (g, w, s)


KERNEL_US = (0.0, 1e-6, 1.0, 37.5, 1e4)
# the node rule of a density (Poincare shifted off the closed case), empirical
# atoms (one repeated) and atoms with uneven weights; atoms have no level
KERNEL_LAWS = (
    (POIN, 0.5j, _NODE_LEVEL),
    (Empirical((1 + 1j, -0.5 + 2j, 1 + 1j, 0.3 + 0.7j, 1 + 1j)), 0j, None),
    (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), 0j, None),
)


@pytest.mark.parametrize("law, alpha, level", KERNEL_LAWS)
def test_pos_transform_kernel_matches_per_j_loop(law, alpha, level):
    n, jmax = 2, 2
    derivs = _PosTransformDerivs(law, alpha, 0.4, n, jmax, level)
    values, weights = derivs.atoms, law.nodes(level)[1]
    pref = np.array([(-1j / n) ** j for j in range(jmax + 1)])
    for u in KERNEL_US:
        v = u / n
        want = _loop_moments(values, weights, jmax, v)
        _assert_close_to_loop(derivs.g_derivs(u), pref * want, _loop_scale(values, weights, jmax, v))
    assert np.all(derivs.g_derivs(1e4) == 0)  # every term underflows


@pytest.mark.parametrize("law, alpha, level", KERNEL_LAWS)
def test_neg_transform_kernel_matches_loop(law, alpha, level):
    n = 2
    transform = _NegTransform(law, alpha, -0.5, n, level)
    values, weights = transform.atoms, law.nodes(level)[1]
    for u in KERNEL_US:
        v = -u / n
        want = _loop_moments(values, weights, 0, v)[0]
        scale = _loop_scale(values, weights, 0, v)[0]
        got = transform(u)
        if want == 0:
            assert got == 0
        else:
            # (m + e)**n - m**n ~ n m**(n-1) e
            assert abs(got - want**n) <= n * 1e-13 * scale**n, (u, got, want**n)
    assert transform(1e5) == 0  # every term underflows


@pytest.mark.parametrize("p, n", [(-0.5, 2), (-0.4, 3), (0.4, 2), (0.5, 2), (0.6, 3)])
def test_frac_deriv_atomic_law_matches_enumeration(p, n):
    # negative-order, Marchaud and ordinal branches over exact atoms
    tp = TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3)
    spec = PowerMeanSpec(p=p, n=n)
    est = power_mean_expectation(tp, spec, Route.FRAC_DERIV)
    closed = power_mean_expectation(tp, spec, Route.CLOSED)
    assert est.meta["transform"] == "atoms"
    assert abs(est.value - closed.value) <= 1e-12


def _rule_moments(law, alpha, p, level, c):
    """[E[W^j exp(icW)] for j = 0, 1, 2] by the law's node rule."""
    return _PosTransformDerivs(law, alpha, p, 1, 2, level).kernel(c)


def test_t3_node_rule_exact_moments_at_zero():
    # E[W] = (2i)**0.5 (1 - i/4) and E[W**2] = i for W = (X + i)**0.5
    got = _rule_moments(T3, 1j, 0.5, _NODE_LEVEL, 0.0)
    assert abs(got[0] - 1.0) <= 1e-13
    assert abs(got[1] - (0.75 + 0.75j)) <= 1e-13
    assert abs(got[2] - 1j) <= 1e-13


def _t3_oracle(mp, p, c, j):
    # the t3 density in theta = atan(x) is (2/pi) cos(theta)**2
    def f(theta):
        w = (mp.tan(theta) + 1j) ** p
        return 2 / mp.pi * mp.cos(theta) ** 2 * w**j * mp.exp(1j * c * w)

    cuts = [mp.atan(x) for x in (-10, -1, 0, 1, 10, 100, 1000)]
    return complex(mp.quad(f, [-mp.pi / 2, *cuts, mp.pi / 2]))


@pytest.mark.parametrize("p", [0.4, 0.5])
def test_t3_node_rule_level_gap_bounds_error(p):
    mp = pytest.importorskip("mpmath")
    for c in (1.0, 5.0):
        coarse = _rule_moments(T3, 1j, p, _NODE_LEVEL, c)
        fine = _rule_moments(T3, 1j, p, _NODE_LEVEL + 1, c)
        for j in range(3):
            with mp.workdps(20):
                err = abs(fine[j] - _t3_oracle(mp, p, c, j))
            assert err <= abs(fine[j] - coarse[j]), (c, j, err, abs(fine[j] - coarse[j]))


def _residue_power_mean(law, alpha, p, n):
    # the value the closed forms would give by the residue argument; the
    # node rules never see it
    if law is T3:
        return T3._residue_power_mean(T3.gamma_point + alpha, p, n)
    return POIN.gamma_point + alpha


NODE_GRID = [(T3, 1j, p) for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)] + [
    (POIN, alpha, p) for alpha in (0.5j, 1 + 0.5j, 2j) for p in (-0.9, -0.5, -0.2, 0.3, 0.4, 0.7)
]


@pytest.mark.parametrize("law, alpha, p", NODE_GRID)
def test_frac_deriv_node_rule_matches_residue_values(law, alpha, p):
    for n in (2, 3, 5):
        est = power_mean_expectation(law, PowerMeanSpec(p=p, n=n, alpha=alpha), Route.FRAC_DERIV)
        assert est.meta["transform"] == "nodes" and est.meta["level"] == _NODE_LEVEL + 1
        err = abs(est.value - _residue_power_mean(law, alpha, p, n))
        assert err <= 1e-8 and err <= est.uncertainty, (n, err, est.uncertainty)


def test_frac_deriv_ignores_monte_carlo_config():
    spec = PowerMeanSpec(p=0.4, n=2, alpha=0.5j)
    a = power_mean_expectation(POIN, spec, Route.FRAC_DERIV, mc=MCConfig(samples=10, seed=1))
    b = power_mean_expectation(POIN, spec, Route.FRAC_DERIV, mc=MCConfig(samples=50_000, seed=99, batch=7))
    assert a.value == b.value and a.uncertainty == b.uncertainty


@pytest.mark.parametrize("p, n", [(-0.9, 2), (-0.9, 3), (-0.5, 2), (-0.5, 3)])
def test_frac_deriv_real_shift_converges_or_says_so(p, n):
    # at real alpha the shifted law comes close to the real axis, where the
    # Gauss-Hermite rule converges slowly: a number must be honest, or none
    try:
        est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=n, alpha=0.3), Route.FRAC_DERIV)
    except NonConvergenceError:
        return
    assert abs(est.value - (1j + 0.3)) <= est.uncertainty


def test_auto_power_mean_falls_back_to_mc_when_quadrature_fails():
    spec = PowerMeanSpec(-0.5, 2, 0.5j)
    cfg = QuadratureConfig(max_level=3, rel_tol=1e-14, abs_tol=1e-16)
    with pytest.raises(NonConvergenceError):
        power_mean_expectation(POIN, spec, Route.FRAC_DERIV, cfg)
    est = power_mean_expectation(POIN, spec, Route.AUTO, cfg, MCConfig(samples=20_000, seed=3))
    assert est.method is Route.MONTE_CARLO and est.meta["auto"] is True
    assert abs(est.value - 1.5j) <= 4.0 * est.uncertainty


def test_mc_power_mean_sample_size_invariance():
    for model, target in ((CAUCHY, 2j), (POIN, 1j)):
        alpha = 1j if model is CAUCHY else 0j
        for n in (2, 3, 5):
            est = power_mean_expectation(
                model,
                PowerMeanSpec(p=-0.5, n=n, alpha=alpha),
                Route.MONTE_CARLO,
                mc=MCConfig(samples=60_000, seed=10),
            )
            assert abs(est.value - target) <= 4.0 * est.uncertainty


def test_mc_power_mean_identical_across_thread_counts(monkeypatch):
    spec = PowerMeanSpec(p=0.5, n=3)
    mc = MCConfig(samples=20 * 1024, seed=7, batch=1024)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACMEAN_THREADS", threads)
        est = power_mean_expectation(POIN, spec, Route.MONTE_CARLO, mc=mc)
        assert est.meta["blocks"] == 20
        runs.append((est.value, est.uncertainty))
    assert runs[0] == runs[1]


# the order groups of acceptance criteria 1-3, and an atomic law
SHARED_DRAW_GROUPS = [
    (CAUCHY, 1j, (-1.0, -0.5, -0.1)),
    (T3, 1j, (-0.9, -0.1)),
    (Poincare(1.0, 0.0, 1.0), 0j, (-1.0, -0.5, 0.0, 0.5, 1.0)),
    (Poincare(2.0, 1.0, 1.0), 0j, (-1.0, -0.5, 0.0, 0.5, 1.0)),
    (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), 0j, (-0.5, 0.0, 0.5)),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("model, alpha, ps", SHARED_DRAW_GROUPS)
def test_shared_draws_match_one_call_per_order_bitwise(monkeypatch, threads, n, model, alpha, ps):
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    mc = MCConfig(samples=2500, seed=7, batch=1024)  # the last block is partial
    specs = [PowerMeanSpec(p=p, n=n, alpha=alpha) for p in ps]
    grouped = _pm_monte_carlo(model, specs, mc)
    for spec, est in zip(specs, grouped):
        alone = power_mean_expectation(model, spec, Route.MONTE_CARLO, mc=mc)
        assert (est.value, est.uncertainty) == (alone.value, alone.uncertainty), spec.p
        assert est.meta["blocks"] == alone.meta["blocks"] == 3


def test_shared_draws_need_one_n_and_one_alpha():
    mc = MCConfig(samples=1000, seed=1)
    with pytest.raises(ValueError, match="one n and one alpha"):
        _pm_monte_carlo(POIN, [PowerMeanSpec(p=0.5, n=2), PowerMeanSpec(p=0.5, n=3)], mc)
    with pytest.raises(ValueError, match="one n and one alpha"):
        _pm_monte_carlo(POIN, [PowerMeanSpec(p=0.5, n=2), PowerMeanSpec(p=0.5, n=2, alpha=1j)], mc)


@pytest.mark.parametrize("p", [-0.5, 0.0])
@pytest.mark.parametrize("route", [Route.CLOSED, Route.FRAC_DERIV, Route.MONTE_CARLO, Route.AUTO])
def test_power_mean_with_zero_value_and_p_nonpositive_raises_on_every_route(p, route):
    # power_mean rejects a zero value at p <= 0, and so must every route: a
    # zero draw would enter a Monte Carlo mean as 0**p = 0, or as log 0 = -inf
    law = TwoPoint(0j, 1 + 1j, 0.5)
    with pytest.raises(BranchDomainError):
        power_mean_expectation(law, PowerMeanSpec(p=p, n=2), route, mc=MCConfig(samples=2000, seed=1))


@pytest.mark.parametrize("route", [Route.CLOSED, Route.FRAC_DERIV, Route.MONTE_CARLO, Route.AUTO])
def test_zero_atom_of_weight_zero_is_ignored_on_every_route(route):
    # the law is the point mass at 1+i; a weight-0 atom at 0 never occurs
    law = TwoPoint(0j, 1 + 1j, 0.0)
    est = power_mean_expectation(law, PowerMeanSpec(p=-0.5, n=2), route, mc=MCConfig(samples=2000, seed=1))
    assert abs(est.value - (1 + 1j)) <= 1e-10


def test_t3_nonconstancy_exceeds_noise():
    lo = power_mean_expectation(T3, PowerMeanSpec(p=-0.9, n=2, alpha=1j), Route.CLOSED)
    hi = power_mean_expectation(T3, PowerMeanSpec(p=-0.1, n=2, alpha=1j), Route.CLOSED)
    gap = abs(lo.value - hi.value)
    assert abs(gap - 0.1) < 1e-14  # |i*0.8/8|
    mcs = [
        power_mean_expectation(
            T3, PowerMeanSpec(p=p, n=2, alpha=1j), Route.MONTE_CARLO, mc=MCConfig(samples=100_000, seed=12)
        )
        for p in (-0.9, -0.1)
    ]
    for est, closed in zip(mcs, (lo, hi)):
        assert abs(est.value - closed.value) <= 4.0 * est.uncertainty
    combined = math.hypot(mcs[0].uncertainty, mcs[1].uncertainty)
    assert gap > 5.0 * combined


def test_auto_route_and_meta_records_choice():
    est = power_mean_expectation(POIN, PowerMeanSpec(p=0.5, n=2), Route.AUTO)
    assert est.method is Route.CLOSED and est.meta["auto"] is True
    est = power_mean_expectation(POIN, PowerMeanSpec(p=0.5, n=2, alpha=1j), Route.AUTO)
    assert est.method is not Route.CLOSED


def test_moment_estimate_json_shape():
    est = frac_moment(CAUCHY, 1j, -0.5)
    blob = est.to_json()
    assert set(blob) == {"value", "uncertainty", "method", "meta"}
    assert abs(blob["value"]["re"] - 0.5) < 1e-14
    assert abs(blob["value"]["im"] + 0.5) < 1e-14
    assert blob["method"] == "closed"


# --- continuity scans ---------------------------------------------------------------


def test_continuity_scan_poincare_constant():
    grid = np.arange(-0.9, 0.95, 0.3)
    table = continuity_scan(POIN, 0.0, 2, grid, Route.MONTE_CARLO, mc=MCConfig(samples=20_000, seed=13))
    assert all(row.estimate is not None for row in table.rows)
    assert table.max_jump <= 4.0 * table.max_jump_uncertainty


def test_continuity_scan_point_mass_idempotent():
    pm = TwoPoint(1j, 1j, 0.5)
    grid = [-0.9, -0.5, 0.0, 0.5, 0.9]
    table = continuity_scan(pm, 0.0, 3, grid, Route.CLOSED)
    for row in table.rows:
        assert abs(row.estimate.value - 1j) < 1e-12
    assert table.max_jump < 1e-12


def test_continuity_scan_records_errors_and_continues():
    grid = [-0.5, 0.5]  # positive p unavailable on the closed Cauchy route
    table = continuity_scan(CAUCHY, 1j, 2, grid, Route.CLOSED)
    assert table.rows[0].estimate is not None
    assert table.rows[1].estimate is None and "Route" in table.rows[1].error


@pytest.mark.parametrize(
    "route,alpha,grid",
    [
        (Route.MONTE_CARLO, 0.5j, [-1.0, -0.4, -1e-9, 0.0, 1e-9, 0.3, 0.8, 1.0]),
        (Route.AUTO, 0.3, [-0.6, 0.4]),  # no closed form, and the node rules fail: Monte Carlo
    ],
    ids=["mc", "auto"],
)
def test_scan_rows_equal_single_calls_at_the_scan_seed(route, alpha, grid):
    mc = MCConfig(samples=3000, seed=11, batch=1024)
    table = continuity_scan(POIN, alpha, 2, grid, route, mc=mc)
    for row, p in zip(table.rows, grid):
        alone = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=2, alpha=alpha), route, mc=mc)
        assert row.error is None and row.estimate == alone


@pytest.mark.parametrize(
    "model,failing,error",
    [
        (TwoPoint(0j, 1 + 1j, 0.5), lambda p: p <= 0, BranchDomainError),  # zero draws
        (CAUCHY, lambda p: p < 0, SupportError),  # real support at real alpha
    ],
    ids=["twopoint-zero-atom", "cauchy-real-alpha"],
)
def test_mixed_sign_monte_carlo_scan_fails_only_where_single_calls_fail(model, failing, error):
    mc = MCConfig(samples=3000, seed=4)
    grid = [-0.8, -0.2, 0.0, 0.4, 1.0]
    table = continuity_scan(model, 0j, 2, grid, Route.MONTE_CARLO, mc=mc)
    for row, p in zip(table.rows, grid):
        spec = PowerMeanSpec(p=p, n=2)
        if failing(p):
            with pytest.raises(error) as exc:
                power_mean_expectation(model, spec, Route.MONTE_CARLO, mc=mc)
            assert row.estimate is None and row.error == f"{error.__name__}: {exc.value}"
        else:
            assert row.error is None
            assert row.estimate == power_mean_expectation(model, spec, Route.MONTE_CARLO, mc=mc)


def test_scan_csv_export(tmp_path):
    grid = [-0.5, -0.25]
    table = continuity_scan(CAUCHY, 1j, 2, grid, Route.CLOSED)
    path = tmp_path / "scan.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,re,im,uncertainty,method"
    assert len(lines) == 3


def test_scan_csv_numbers_are_plain_floats(tmp_path):
    # p = 1/2 takes the integer-order branch of the fractional operator
    table = continuity_scan(POIN, 0j, 2, [0.5], Route.FRAC_DERIV)
    path = tmp_path / "scan.csv"
    table.to_csv(path)
    _, row = path.read_text().splitlines()
    p, re_part, im_part, unc, method = row.split(",")
    assert abs(complex(float(re_part), float(im_part)) - 1j) < 1e-12 and method == "quad_pos"
