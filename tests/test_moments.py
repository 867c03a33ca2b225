"""Fractional moments and power-mean expectations: routes against oracles."""

import cmath
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from fracmean import bounds, moments, montecarlo
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
from fracmean.moments import (
    _NODE_LEVEL,
    _SingleDrawTransform,
    _WeightedPowers,
    _fractional_power,
    _shifted_weighted_char,
    _pm_monte_carlo,
    _whole_order,
)
from fracmean.principal import BranchDomainError, np_principal_pow, principal_log, principal_pow
from fracmean.quad import NonConvergenceError, QuadratureConfig
from graded_laws import GRADED_LAWS

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
        assert _row_means(values).tobytes() == np.mean(values, axis=1).tobytes(), n
    zeros = np.full((2, 5), complex(-0.0, -0.0))  # numpy's sum starts at +0.0
    assert _row_means(zeros).tobytes() == np.mean(zeros, axis=1).tobytes()


def _row_means(values):
    """moments._row_means of a complex array, which it reads as an array of
    real and imaginary parts and overwrites."""
    out = np.empty(len(values), dtype=complex)
    return moments._row_means(np.stack([values.real, values.imag]), out)


def test_power_mean_zero_rejection():
    with pytest.raises(BranchDomainError):
        power_mean([1j, 0.0], -0.5)
    with pytest.raises(BranchDomainError):
        power_mean([1j, 0.0], 0.0)
    # p > 0 tolerates zeros through the 0**p = 0 convention
    assert abs(power_mean([0.0, 4.0], 0.5) - 1.0) < 1e-14


@pytest.mark.parametrize("p", [1e-3, 1e-5, 1e-7, -1e-3, -1e-5, -1e-7])
def test_power_mean_keeps_its_digits_near_p_zero(p):
    # z**p - 1 would lose about eps/|p|: 1e-13 at p = 1e-3, 6e-10 at 1e-7
    vals = [1 + 2j, 0.5 - 0.3j, 3 + 0.1j, -2 + 1j]
    with mpmath.workdps(50):
        mean = sum(mpmath.power(mpmath.mpc(z.real, z.imag), p) for z in vals) / len(vals)
        want = complex(mpmath.power(mean, 1 / mpmath.mpf(p)))
    assert abs(power_mean(vals, p) - want) <= 4 * np.finfo(float).eps * abs(want)


def test_power_mean_rows_keep_their_bits_at_larger_orders():
    # every order from 0.05 on, and p = 0, runs the code it ran before the
    # small orders were formed from expm1; the sha256 was taken with it
    rng = np.random.default_rng(29)
    draws = rng.standard_normal((64, 3)) + 1j * rng.exponential(size=(64, 3))
    rows = moments._power_mean_rows(draws, (-1.0, -0.5, -0.1, -0.05, 0.0, 0.05, 0.1, 0.4, 0.5, 1.0))
    digest = "4e4101b3dbe0ba24bb77ce2c0cf067e81082041b672804f958804748763f61ad"
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


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
    assert abs(closed_moment(POIN, 1j, 0.5) - (1 + 1j)) < 1e-15  # (beta + alpha)**lam, beta + alpha = 2i
    tp = TwoPoint(1j, 2j, 0.25)
    want = 0.25 * principal_pow(1j, 0.3) + 0.75 * principal_pow(2j, 0.3)
    assert abs(closed_moment(tp, 0.0, 0.3) - want) < 1e-15


def test_residue_moment_of_a_real_line_law_needs_alpha_in_the_closed_upper_half_plane():
    # (z - 0.5i)**lam has its branch point in the upper half plane, so the
    # residue at gamma does not give the moment; mpmath at lam = 0.25:
    # 1.022441 - 0.423509i.  At lam = 0.5, E|Z - 0.5i| diverges, so Monte
    # Carlo has no standard error and no route answers.
    with pytest.raises(RouteUnavailableError):
        closed_moment(CAUCHY, -0.5j, 0.5)
    with pytest.raises(RouteUnavailableError):
        frac_moment(CAUCHY, -0.5j, 0.5, mc=MCConfig(samples=1000, seed=2))
    with pytest.raises(RouteUnavailableError):
        closed_moment(CAUCHY, -0.5j, 0.25)
    est = frac_moment(CAUCHY, -0.5j, 0.25, mc=MCConfig(samples=100_000, seed=2))
    assert est.method is Route.MONTE_CARLO
    assert abs(est.value - complex(1.0224407746114265, -0.4235088355673057)) <= 4.0 * est.uncertainty


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
    assert est.method is Route.QUAD


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
    assert est.method is Route.QUAD


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
    est = frac_moment_pos(POIN, 0.0, 2.0)  # an integer order is the transform's own derivative at 0
    assert est.meta["evaluations"] == 0
    assert abs(est.value - closed_moment(POIN, 0.0, 2.0)) <= est.uncertainty


@pytest.mark.parametrize(
    "law, alpha",
    [(CAUCHY, 1j), (T3, 0.5j), (POIN, 0.5j), (Poincare(2.5, 0.7, 0.2), 0.3), (TwoPoint(1.0, -0.5 + 0.3j, 0.4), 0.2j)],
    ids=repr,
)
@pytest.mark.parametrize("lam", [0, 1, 2, 0.7j, -1.3j, 0.05j, 1 + 0.4j, 2 - 0.3j])
def test_quad_answers_the_mellin_line_and_integer_orders(law, alpha, lam):
    # k = max(ceil(Re lam), 0), one more where lam - k would be imaginary, so the
    # Mellin line integrates at Re(lam - k) = -1, and lam = k reads h(0) alone;
    # a moment past the tail index is still refused, as Cauchy's at 1 and 1 + 0.4i
    if complex(lam).real >= getattr(law, "max_moment", math.inf):
        with pytest.raises(MomentExistenceError):
            frac_moment(law, alpha, lam, Route.QUAD)
        return
    est = frac_moment(law, alpha, lam, Route.QUAD)
    want = closed_moment(law, alpha, lam)
    assert abs(est.value - want) <= est.uncertainty <= 1e-8 * max(1.0, abs(want))
    k = est.meta["k"]
    assert (k - lam).real > 0 or k == lam
    assert (est.meta["evaluations"] == 0) == (k == lam)


@pytest.mark.parametrize("law, alpha", [(CAUCHY, 1j), (CAUCHY, 0.3), (CAUCHY, 0.0), (Cauchy(0.4, 2.0), 0.5j)])
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 0.5 + 0.5j])
def test_frac_moment_pos_cauchy_below_first_moment(law, alpha, lam):
    # by parts, with k = 1 at the tail index: the route needs E|Z|^Re(lam) < inf
    # only, not E|Z| < inf, and takes the transform's limit at u = 0+
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
    assert est.meta["evaluations"] <= 1000  # one integral, not one per atom


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


# orders just below 0, where the weight t**(-1-lam) is barely integrable at
# the origin: each raised or was understated (127 times at -0.0255) while the
# head integrated t**(-1-lam) g(t) as it stands, missing the mass below its
# innermost node; below the least normal float, g(0)/(-lam) would pass the
# float range
NEAR_ZERO_LAWS = [(CAUCHY, 1j), (T3, 1j), (POIN, 0j), (TwoPoint(2.0, -1.0, 0.5), 0j)]


@pytest.mark.parametrize("law, alpha", NEAR_ZERO_LAWS, ids=repr)
@pytest.mark.parametrize("lam", [-1e-4, -0.01, -0.0255, -5e-324])
def test_quad_meets_closed_just_below_order_zero(law, alpha, lam):
    est = frac_moment(law, alpha, lam, Route.QUAD)
    err = abs(est.value - closed_moment(law, alpha, lam))
    assert est.method is Route.QUAD and err <= est.uncertainty, (err, est.uncertainty)


@pytest.mark.parametrize("law, alpha", [(POIN, 0j), (T3, 1j)], ids=repr)
@pytest.mark.parametrize("lam", [0.97, 0.99, 1.97, 2.999])
def test_quad_meets_closed_just_below_an_integer_order(law, alpha, lam):
    # by parts, E[Y**lam] = E[Y**k Y**(lam - k)] with k = ceil(lam), so the
    # operator's order lam - k lies just below 0 here too
    est = frac_moment(law, alpha, lam, Route.QUAD)
    err = abs(est.value - closed_moment(law, alpha, lam))
    assert est.meta["k"] == math.ceil(lam) and err <= est.uncertainty, (err, est.uncertainty)


# --- Monte Carlo -----------------------------------------------------------------


def test_frac_moment_mc_point_mass():
    est = frac_moment_mc(TwoPoint(1j, 1j, 0.5), 0.0, 2.0, MCConfig(samples=4096, seed=1))
    assert abs(est.value - (-1.0)) < 1e-12
    assert est.uncertainty < 1e-12


@pytest.mark.parametrize("route", [Route.CLOSED, Route.QUAD, Route.MONTE_CARLO, Route.AUTO])
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


@pytest.mark.parametrize("law, lam", [(CAUCHY, 0.75), (T3, 1.5)], ids=["cauchy", "t3"])
def test_frac_moment_mc_refuses_without_finite_variance(law, lam):
    # E|Z + i|^(2 lam) diverges: the moment exists, its standard error does not
    with pytest.raises(RouteUnavailableError, match="E\\[\\|Z \\+ alpha\\|"):
        frac_moment(law, 1j, lam, route=Route.MONTE_CARLO, mc=MCConfig(samples=1000, seed=1))
    est = frac_moment(law, 1j, lam)  # AUTO answers through the closed form
    assert est.method is Route.CLOSED


@pytest.mark.parametrize("law, alpha, lam", [(T3, 1j, 0.5), (POIN, 0j, 1.5)], ids=["t3", "poincare"])
def test_frac_moment_mc_keeps_moments_of_finite_variance(law, alpha, lam):
    est = frac_moment_mc(law, alpha, lam, MCConfig(samples=100_000, seed=4))
    assert abs(est.value - closed_moment(law, alpha, lam)) <= 4.0 * est.uncertainty


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
    # depends on whether their groups overlap in time, so a reference taken
    # on as many threads swings with the scheduler.  The warm-up runs on the
    # tested thread count, so every worker's workspace is built before the
    # measurements; what either of them traces beyond it is per-call state,
    # which must not grow with the block count.
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    frac_moment_mc(POIN, 0.0, 0.5, MCConfig(samples=16 * 4096, seed=3))
    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    reference = peak_bytes(16)
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    large = peak_bytes(256)
    assert large <= 1.5 * int(threads) * reference, (reference, large)
    # numpy's own buffers (about 71 KB) dominate those peaks and hide small
    # per-group state, so also count what montecarlo.py holds when the last
    # group's moments are ready: the fold keeps a few groups' moments (about
    # 470 bytes each), however many blocks the call has
    small, large = (_montecarlo_bytes_at_last_group(monkeypatch, blocks) for blocks in (16, 256))
    assert large <= small + 8192, (small, large)


def _montecarlo_bytes_at_last_group(monkeypatch, blocks):
    """Bytes allocated in montecarlo.py and still held when the block moments
    of the last group to finish are ready, in a frac_moment_mc call."""
    original, held, done, lock = montecarlo._block_moments, [], [0], threading.Lock()

    def probe(rows, batch, ws):
        parts = original(rows, batch, ws)
        with lock:
            done[0] += len(parts)
            if done[0] == blocks:
                snapshot = tracemalloc.take_snapshot()
                mine = snapshot.filter_traces([tracemalloc.Filter(True, montecarlo.__file__)])
                held.append(sum(stat.size for stat in mine.statistics("filename")))
        return parts

    monkeypatch.setattr(montecarlo, "_block_moments", probe)
    tracemalloc.start()
    try:
        frac_moment_mc(POIN, 0.0, 0.5, MCConfig(samples=blocks * 4096, seed=3))
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(montecarlo, "_block_moments", original)
    return held[0]


@pytest.mark.parametrize(
    "model, alpha, p, kind",
    [
        (CAUCHY, 1j, -0.5, "nodes"),
        (T3, 1j, -0.5, "nodes"),
        (POIN, 0j, -0.5, "nodes"),
        (POIN, 0j, 0.5, "nodes"),
        (POIN, 0j, 0.4, "nodes"),
        (Poincare(2.0, 1.0, 1.0), 0j, 0.9, "nodes"),
        (T3, 1j, 0.5, "nodes"),
        (POIN, 0.5j, -0.5, "nodes"),
        (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), 0j, -0.5, "atoms"),
    ],
)
def test_frac_deriv_transform_kind_per_family(model, alpha, p, kind):
    spec = PowerMeanSpec(p=p, n=2, alpha=alpha)
    est = power_mean_expectation(model, spec, Route.FRAC_DERIV, mc=MCConfig(samples=2000, seed=7))
    assert est.meta["transform"] == kind
    closed = power_mean_expectation(model, spec, Route.CLOSED).value
    assert abs(est.value - closed) <= 1e-10, (est.value, closed)


def test_frac_moment_dispatch_and_meta():
    est = frac_moment(CAUCHY, 1j, -0.5)
    assert est.method is Route.CLOSED and est.uncertainty == 0.0
    est = frac_moment(POIN, 1j, -0.5)  # shifted: (beta + alpha)**lam
    want = frac_moment_mc(POIN, 1j, -0.5, MCConfig(samples=400_000, seed=5)).value
    assert est.method is Route.CLOSED
    assert abs(est.value - want) <= 0.01
    # the laws answer lam = 0 themselves: 1 for a density, the weight of the
    # atoms off -alpha (0**0 = 0) for an atomic law
    for law in (CAUCHY, ScaledT3(0.3, 2.0), POIN):
        est = frac_moment(law, 0.5 + 1j, 0.0)
        assert est.value == 1.0 and est.method is Route.CLOSED
    assert frac_moment(TwoPoint(-1j, 1j, 0.25), 1j, 0.0).value == 0.75
    with pytest.raises(RouteUnavailableError):  # the branch point -alpha in the upper half plane
        frac_moment(CAUCHY, -0.5j, 0.25, route=Route.CLOSED)


_LADDER_MC = MCConfig(samples=2000, seed=1)
# each dispatcher at arguments where every step answers: (call, steps, routes
# without a step), a step being (owner, name, route, method of its estimate)
_LADDERS = {
    "moment": (
        lambda route: frac_moment(POIN, 0.0, -0.5, route, mc=_LADDER_MC),
        [
            (moments, "closed_moment", Route.CLOSED, Route.CLOSED),
            (moments, "_quad_moment", Route.QUAD, Route.QUAD),
            (moments, "frac_moment_mc", Route.MONTE_CARLO, Route.MONTE_CARLO),
        ],
        [Route.FRAC_DERIV],
    ),
    "power_mean": (
        lambda route: power_mean_expectation(POIN, PowerMeanSpec(p=-0.5, n=2), route, mc=_LADDER_MC),
        [
            (Poincare, "closed_power_mean", Route.CLOSED, Route.CLOSED),
            (moments, "_pm_frac_deriv", Route.FRAC_DERIV, Route.FRAC_DERIV),
            (moments, "_pm_monte_carlo", Route.MONTE_CARLO, Route.MONTE_CARLO),
        ],
        [Route.QUAD],
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
    for n in (2, 3, 5):  # the geometric mean too
        assert power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.0, n=n, alpha=1j), Route.CLOSED).value == 2j
    with pytest.raises(MomentExistenceError):  # E|M_p| diverges at p > 0
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.5, n=2, alpha=1j), Route.CLOSED)
    with pytest.raises(SupportError):  # real alpha
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.0, n=2, alpha=0.5), Route.CLOSED)


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


def test_two_point_power_mean_past_the_float_range_of_binomials():
    # comb(2000, 1000) ~ 2e600 exceeds the float range
    law, alpha = TwoPoint(1 + 1j, -1 + 1j, 0.3), 0.5j
    est = power_mean_expectation(law, PowerMeanSpec(p=1.0, n=2000, alpha=alpha), Route.CLOSED)
    assert abs(est.value - (0.3 * law.z1 + 0.7 * law.z2 + alpha)) <= 1e-12


@pytest.mark.parametrize("p", [-0.5, 0.5])
def test_t3_power_mean_past_the_float_range_of_binomials(p):
    # comb(2000, k) leaves the float range; the closed sum is formed term by term
    law, alpha, n = ScaledT3(0.3, 2.0), 0.5 + 1j, 2000
    g = mpmath.mpc(law.gamma_point + alpha)
    want, term = 0, mpmath.mpf(1)
    for k in range(n + 1):
        want += term
        term *= mpmath.mpf(n - k) / (k + 1) * 1j * law.sigma / (n * g) * (k * mpmath.mpf(p) - 1)
    est = power_mean_expectation(law, PowerMeanSpec(p=p, n=n, alpha=alpha), Route.AUTO)
    assert est.method is Route.CLOSED
    assert abs(est.value - complex(g * want)) <= 1e-14 * abs(est.value)
    mean = power_mean_expectation(law, PowerMeanSpec(p=1.0, n=n, alpha=alpha), Route.CLOSED).value
    assert abs(mean - (law.mu + alpha)) <= 1e-12  # E[M_1] = E[Z] + alpha


@pytest.mark.parametrize("n", [7, 1029])
@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5])
def test_two_point_power_mean_weights_within_float_range_unchanged(p, n):
    # the float binomial weights, which hold up to n = 1029, and the power
    # mean of k values a and n - k values b in closed form
    law, alpha = TwoPoint(2j, 0.5 + 0.1j, 0.3), 0.3j
    a, b = law.z1 + alpha, law.z2 + alpha
    want = 0j
    for k in range(n + 1):
        if p == 0:
            pm = cmath.exp((k * principal_log(a) + (n - k) * principal_log(b)) / n)
        else:
            pm = principal_pow((k * principal_pow(a, p) + (n - k) * principal_pow(b, p)) / n, 1.0 / p)
        want += math.comb(n, k) * 0.3 ** k * 0.7 ** (n - k) * pm
    got = power_mean_expectation(law, PowerMeanSpec(p=p, n=n, alpha=alpha), Route.CLOSED).value
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1e-3, -1e-3, 1e-5, -1e-5, 1e-7, -1e-7])
def test_two_point_power_mean_near_the_geometric_mean(p, n):
    # a 50-digit enumeration: near p = 0 the mean of the powers is 1 + O(p),
    # and its power 1/p must not magnify the rounding of that 1
    law = TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3)
    with mpmath.workdps(50):
        a, b, w, q = mpmath.mpc(law.z1), mpmath.mpc(law.z2), mpmath.mpf(law.w), mpmath.mpf(p)
        want = complex(sum(
            mpmath.binomial(n, k) * w**k * (1 - w) ** (n - k) * ((k * a**q + (n - k) * b**q) / n) ** (1 / q)
            for k in range(n + 1)
        ))
    got = power_mean_expectation(law, PowerMeanSpec(p=p, n=n), Route.CLOSED).value
    assert abs(got - want) <= 4e-15 * abs(want), abs(got - want) / abs(want)


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
    """h(t) = E[Y**k exp(phase t Y)] for Y = y, k = _whole_order(lam), and
    the order lam - k of the operator on it."""
    k = _whole_order(complex(lam))
    return (lambda t: y ** k * np.exp(phase * t * y)), lam - k


@pytest.mark.parametrize("lam", [-0.5, -0.5 + 0.3j, -1.7, 0.5, 1.5, 0.5 + 0.5j, 2, 0.7j, 1 + 0.4j])
def test_fractional_power_point_mass_upper(lam):
    y = 0.7 + 1.3j
    value, unc, evals, _, _ = _fractional_power(*_point_mass_h(y, lam, 1j), QuadratureConfig(), 1j)
    assert abs(value - principal_pow(y, lam)) <= 1e-12 * abs(principal_pow(y, lam))
    if lam == 2:  # the plain moment, no quadrature, with a rounding allowance
        assert evals == 0 and abs(value - y * y) <= unc <= 1e-14


@pytest.mark.parametrize("lam", [-0.5, -0.5 + 0.3j, -1.7])
def test_fractional_power_point_mass_lower(lam):
    y = 0.7 - 1.3j
    value, *_ = _fractional_power(*_point_mass_h(y, lam, -1j), QuadratureConfig(), -1j)
    assert abs(value - principal_pow(y, lam)) <= 1e-12 * abs(principal_pow(y, lam))


def test_frac_deriv_large_orders_raise_documented_errors():
    # 1/p = 500 would need 500! in the transform derivatives
    t3_spec = PowerMeanSpec(p=0.002, n=2, alpha=1j)
    with pytest.raises(RouteUnavailableError):
        power_mean_expectation(T3, t3_spec, Route.FRAC_DERIV)
    with pytest.raises(NonConvergenceError):
        frac_moment_neg(CAUCHY, 1j, -150)
    assert power_mean_expectation(T3, t3_spec, Route.AUTO).method is Route.CLOSED
    # a law without a closed power mean falls through to Monte Carlo
    law, spec = Empirical((1 + 1j, -0.5 + 0.5j, 2j)), PowerMeanSpec(p=0.002, n=2)
    with pytest.raises(RouteUnavailableError):
        power_mean_expectation(law, spec, Route.FRAC_DERIV)
    assert power_mean_expectation(law, spec, Route.AUTO, mc=MCConfig(samples=2000, seed=7)).method is Route.MONTE_CARLO
    # 1/p = -100: t**99 only meets transform values that have underflowed to 0
    est = power_mean_expectation(POIN, PowerMeanSpec(p=-0.01, n=2, alpha=0.5j), Route.FRAC_DERIV)
    assert abs(est.value - 1.5j) <= est.uncertainty


def test_frac_deriv_rejects_cauchy_positive():
    with pytest.raises(MomentExistenceError):
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.5, n=2, alpha=1j), Route.FRAC_DERIV)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_frac_deriv_geometric_mean_of_cauchy(n):
    est = power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.0, n=n, alpha=1j), Route.FRAC_DERIV)
    assert est.method is Route.FRAC_DERIV
    assert abs(est.value - 2j) <= min(est.uncertainty, 1e-10)


@pytest.mark.parametrize(
    "law, spec",
    [
        (POIN, PowerMeanSpec(p=-0.5, n=2, alpha=0.5j)),  # node rule at two levels
        (CAUCHY, PowerMeanSpec(p=-0.5, n=2, alpha=1j)),  # node rule of a real-line law
        (CAUCHY, PowerMeanSpec(p=0.0, n=2, alpha=1j)),  # geometric mean by E[Z**(1/n)]
        (POIN, PowerMeanSpec(p=0.0, n=1)),  # geometric mean of one draw
    ],
    ids=["nodes", "real-line-nodes", "geometric", "geometric-n1"],
)
def test_frac_deriv_estimates_name_their_route(law, spec):
    est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    assert est.method is Route.FRAC_DERIV and "route" not in est.meta
    assert est.uncertainty > 0.0  # the rounding allowance of every route but CLOSED
    assert abs(est.value - (1j + spec.alpha)) <= max(est.uncertainty, 1e-12)  # both laws center at i


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_frac_deriv_exact_transform_carries_rounding_allowance(p, n):
    law, spec = TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), PowerMeanSpec(p=p, n=n)
    est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    assert est.meta.get("transform") == "atoms"  # n = 1 sums the atoms at p = 1
    assert 0.0 < est.uncertainty <= 1e-14
    assert abs(est.value - power_mean_expectation(law, spec, Route.CLOSED).value) <= est.uncertainty


@pytest.mark.parametrize("law", [CAUCHY, T3, POIN, TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), Empirical((1j, 2j))], ids=repr)
def test_no_law_offers_a_closed_single_draw_or_a_decay_rate(law):
    # the headline E[M_p] = beta + alpha must come out of the node rule, not
    # go in, and no quadrature reads how fast a transform decays
    assert not hasattr(law, "single_draw") and not hasattr(law, "decay")


@pytest.mark.parametrize(
    "law, mean",
    [(T3, 0j), (ScaledT3(-0.5, 0.7), -0.5 + 0j), (POIN, 1j), (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), -0.05 + 0.65j)],
    ids=repr,
)
@pytest.mark.parametrize("p", [-0.9, -0.5, -0.1, 0.0, 0.4, 1.0])
def test_frac_deriv_of_one_draw_is_the_mean(law, mean, p):
    # M_p = Z + alpha for n = 1 at every |p| <= 1
    est = power_mean_expectation(law, PowerMeanSpec(p=p, n=1, alpha=0.5j), Route.FRAC_DERIV)
    assert abs(est.value - (mean + 0.5j)) <= est.uncertainty <= 1e-14


@pytest.mark.parametrize(
    "law, mean",
    [(T3, 0j), (POIN, 1j), (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), -0.05 + 0.65j),
     (Empirical((1 + 1j, -0.5 + 0.2j, 2 + 0.3j)), (2.5 + 1.5j) / 3)],
    ids=repr,
)
@pytest.mark.parametrize("p", [-0.5, 0.0, 0.4])
def test_frac_deriv_of_one_draw_reads_no_closed_transform(monkeypatch, law, mean, p):
    # one draw runs at p = 1 on the law's rule: M_p = Z + alpha = M_1
    def closed(*args):
        raise RuntimeError("FRAC_DERIV read the closed transform")

    monkeypatch.setattr(moments, "char_fn_derivative", closed)
    monkeypatch.setattr(moments, "_shifted_weighted_char", closed)
    est = power_mean_expectation(law, PowerMeanSpec(p=p, n=1, alpha=0.5j), Route.FRAC_DERIV)
    assert est.meta["transform"] == law.rule and est.meta["level"] == _NODE_LEVEL + 1
    assert abs(est.value - (mean + 0.5j)) <= est.uncertainty


@pytest.mark.parametrize("law", [TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), Empirical((1 + 1j, -0.5 + 0.2j, 2 + 0.3j))], ids=repr)
@pytest.mark.parametrize("p", [-0.5, 0.4, 1.0])
def test_frac_deriv_on_atoms_reports_a_zero_gap(law, p):
    # the atoms are both levels of their rule, so the two sums are equal
    est = power_mean_expectation(law, PowerMeanSpec(p=p, n=2, alpha=0.5j), Route.FRAC_DERIV)
    assert est.meta["transform"] == "atoms" and est.meta["level"] == _NODE_LEVEL + 1
    assert est.meta["level_gap"] == 0.0


def test_frac_deriv_at_p_one_answers_a_real_line_law_at_real_alpha():
    # W = Z + alpha has no branch point at p = 1, so the rule needs no grading
    # toward -alpha: E[M_1] = mu + alpha
    est = power_mean_expectation(ScaledT3(-0.5, 2.0), PowerMeanSpec(p=1.0, n=2, alpha=0.7), Route.FRAC_DERIV)
    assert abs(est.value - 0.2) <= est.uncertainty <= 1e-12


@pytest.mark.parametrize(
    "fields", [dict(p=math.nan, n=2, exploratory=True), dict(p=-0.5, n=2, alpha=complex(math.nan, 1.0))], ids=["p", "alpha"]
)
def test_power_mean_spec_refuses_non_finite_fields(fields):
    with pytest.raises(ValueError, match="finite"):
        PowerMeanSpec(**fields)


@pytest.mark.parametrize("route", [Route.AUTO, Route.CLOSED, Route.QUAD, Route.MONTE_CARLO])
@pytest.mark.parametrize("alpha, lam", [(math.nan, -0.5), (1j, complex(-0.5, math.inf))], ids=["alpha", "lam"])
def test_frac_moment_refuses_non_finite_arguments(route, alpha, lam):
    # checked before the routes, since AUTO would skip a ValueError of one step
    with pytest.raises(ValueError, match="finite"):
        frac_moment(POIN, alpha, lam, route, mc=MCConfig(samples=1000, seed=1))


@pytest.mark.parametrize("route", [Route.CLOSED, Route.FRAC_DERIV, Route.MONTE_CARLO, Route.AUTO])
def test_negative_order_of_one_draw_needs_a_mean(route):
    # |M_p| <= C min_j |Z_j + alpha| at p < 0, finite in mean iff E|Z|**(1/n) is;
    # at n = 1 that is E[Z + i], which a Cauchy law lacks
    mc = MCConfig(samples=2000, seed=1)
    with pytest.raises(MomentExistenceError):
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=-0.5, n=1, alpha=1j), route, mc=mc)
    for law, alpha in ((T3, 1j), (POIN, 0j)):  # both means are i
        est = power_mean_expectation(law, PowerMeanSpec(p=-0.5, n=1, alpha=alpha), route, mc=mc)
        assert abs(est.value - 1j) <= max(4.0 * est.uncertainty, 1e-14), (law, route)


T3_SIGMA_CELLS = [
    (ScaledT3(mu, sigma), alpha, p, n)
    for mu, sigma in ((0.4, 0.7), (-0.3, 2.0))
    for alpha in (1j, 0.3j)
    for p in (-0.9, -0.5, -0.1)
    for n in (1, 2, 5)
]


@pytest.mark.parametrize("law, alpha, p, n", T3_SIGMA_CELLS, ids=repr)
def test_closed_t3_power_mean_carries_sigma(law, alpha, p, n):
    # E f(X) = f(gamma) - i sigma f'(gamma) per draw, so term k of the residue
    # sum is (i sigma / (n g))**k; at sigma = 1 the sum is unchanged
    spec = PowerMeanSpec(p=p, n=n, alpha=alpha)
    closed = power_mean_expectation(law, spec, Route.CLOSED).value
    frac = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    assert abs(closed - frac.value) <= 1e-10, (closed, frac.value)
    mc = power_mean_expectation(law, spec, Route.MONTE_CARLO, mc=MCConfig(samples=100_000, seed=11))
    assert abs(closed - mc.value) <= 4.0 * mc.uncertainty, (closed, mc.value, mc.uncertainty)


def test_closed_t3_power_mean_at_sigma_two():
    # (g = 3i) * (1 - 2/3 + 1/6): Monte Carlo gives 1.502i +- 0.001
    est = power_mean_expectation(ScaledT3(0.0, 2.0), PowerMeanSpec(p=-0.5, n=2, alpha=1j), Route.CLOSED)
    assert abs(est.value - 1.5j) <= 1e-15


# --- one residue law: the closed forms against the independent routes --------------

POIN_B = Poincare(2.0, 1.0, 1.0)


@pytest.mark.parametrize("law", [POIN, POIN_B], ids=repr)
@pytest.mark.parametrize("alpha", [0.3, 1 + 0.5j])
@pytest.mark.parametrize("lam", [-0.5, 0.5 + 0.3j])
def test_closed_poincare_moment_matches_quadrature(law, alpha, lam):
    closed = frac_moment(law, alpha, lam, Route.CLOSED).value
    est = frac_moment(law, alpha, lam, Route.QUAD)
    err = abs(est.value - closed)
    assert err <= est.uncertainty and err <= 1e-8 * abs(closed), (err, est.uncertainty)


# the cells that the node-rule and turned grids below leave out: real alpha
# at p >= 0, a second Poincare law, t3 with sigma != 1 and mu != 0 at p >= 0,
# and a Cauchy geometric mean off the imaginary axis
RESIDUE_GRID = (
    [(POIN, 0.3, 0.0, 2), (POIN, 0.3, 0.5, 3), (POIN_B, 0.3, 0.5, 2), (POIN_B, 1 + 0.5j, -0.5, 2), (POIN_B, 1 + 0.5j, 0.0, 3)]
    + [(ScaledT3(0.3, 0.7), 1j, p, 2) for p in (0.0, 0.25, 0.5, 0.9)]
    + [(ScaledT3(-0.4, 2.0), 0.5 + 0.5j, p, 2) for p in (0.0, 0.25, 0.5)]
    + [(CAUCHY, 0.5 + 0.5j, 0.0, 2)]
)


@pytest.mark.parametrize("law, alpha, p, n", RESIDUE_GRID, ids=repr)
def test_closed_power_mean_matches_frac_deriv(law, alpha, p, n):
    spec = PowerMeanSpec(p=p, n=n, alpha=alpha)
    closed = power_mean_expectation(law, spec, Route.CLOSED).value
    est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    err = abs(est.value - closed)
    assert err <= est.uncertainty and err <= 1e-8, (err, est.uncertainty)


# t3 cells at p = 0.9 where the node rules of FRAC_DERIV do not converge
@pytest.mark.parametrize("law, alpha", [(ScaledT3(0.3, 2.0), 1j), (ScaledT3(0.3, 2.0), 0.5 + 0.5j), (T3, 0.5 + 0.5j)])
def test_closed_t3_power_mean_matches_monte_carlo_where_frac_deriv_fails(law, alpha):
    spec = PowerMeanSpec(p=0.9, n=2, alpha=alpha)
    closed = power_mean_expectation(law, spec, Route.CLOSED).value
    est = power_mean_expectation(law, spec, Route.MONTE_CARLO, mc=MCConfig(samples=100_000, seed=21))
    assert abs(est.value - closed) <= 4.0 * est.uncertainty


@pytest.mark.parametrize(
    "law, alpha, p",
    [(POIN, 0.3, 0.5), (POIN_B, 1 + 0.5j, -1.0), (POIN_B, 2j, 0.0), (ScaledT3(0.3, 2.0), 1j, 0.9),
     (T3, 0.5 + 0.5j, 0.0), (CAUCHY, 0.5 + 1j, 0.0)],
    ids=repr,
)
def test_auto_power_mean_takes_the_residue_value(law, alpha, p):
    est = power_mean_expectation(law, PowerMeanSpec(p=p, n=3, alpha=alpha))
    assert est.method is Route.CLOSED and est.meta["auto"] is True
    if law.name != "t3":  # the pole moved by alpha
        assert est.value == law.gamma_point + alpha


@pytest.mark.parametrize("alpha", [0.3, 1 + 0.5j, 2j])
def test_auto_poincare_moment_takes_the_residue_value(alpha):
    est = frac_moment(POIN_B, alpha, -0.5 + 0.3j)
    assert est.method is Route.CLOSED and est.value == principal_pow(POIN_B.gamma_point + alpha, -0.5 + 0.3j)


def test_residue_laws_define_no_closed_form_of_their_own():
    for law in (Cauchy, Poincare):
        for name in ("closed_moment", "closed_power_mean", "_residue_moment", "_residue_power_mean"):
            assert name not in vars(law), (law, name)


# Cauchy, t3 and Poincare against their closed residue values, at orders down
# to -0.05 where the Riemann-Liouville order 1/p reaches -20, and at real alpha
# for the upper-half-plane law
TURNED_GRID = [
    (law, alpha, p, n)
    for law, alphas in (
        (CAUCHY, (0.5j, 1 + 0.5j, 2j)),
        (T3, (0.5j, 1 + 0.5j, 2j)),
        (ScaledT3(-0.5, 0.7), (0.5j, 1 + 0.5j, 2j)),
        (POIN, (0j, 0.5j, 1 + 0.5j, 2j, 0.3 + 0j, 1 + 0j)),
    )
    for alpha in alphas
    for p in (-0.9, -0.5, -0.15, -0.1, -0.05)
    for n in (2, 5)
]


@pytest.mark.parametrize("law, alpha, p, n", TURNED_GRID, ids=repr)
def test_turned_negative_order_matches_residue_values(law, alpha, p, n):
    spec = PowerMeanSpec(p=p, n=n, alpha=alpha)
    est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    assert est.meta["transform"] == "nodes"
    want = power_mean_expectation(law, spec, Route.CLOSED).value
    err = abs(est.value - want)
    assert err <= est.uncertainty, (err, est.uncertainty)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_auto_power_mean_refuses_nonexistent_expectation(p):
    # E|M_p| diverges for Cauchy at p > 0; no route may return a number
    with pytest.raises(MomentExistenceError):
        power_mean_expectation(CAUCHY, PowerMeanSpec(p=p, n=2, alpha=1j), Route.AUTO)


def test_auto_moment_refuses_nonexistent_moment():
    with pytest.raises(MomentExistenceError):
        frac_moment(CAUCHY, 1j, 1.0)


def test_auto_geometric_mean_of_cauchy_is_closed():
    est = power_mean_expectation(CAUCHY, PowerMeanSpec(p=0.0, n=2, alpha=1j), Route.AUTO)
    assert est.method is Route.CLOSED and est.meta["auto"] is True
    assert est.value == 2j


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


@pytest.mark.parametrize("p, k", [(-0.5, 0), (0.4, 2)])
@pytest.mark.parametrize("law, alpha, level", KERNEL_LAWS)
def test_transform_matches_per_j_loop(law, alpha, level, p, k):
    # over two draws, E[S'**k exp(-iuS')] = sum_j C(k, j) M_j M_(k-j) / 2**k
    # with M_j = E[W'**j exp(-i(u/2)W')] of the turned values
    n = 2
    transform = _SingleDrawTransform(law, alpha, p, n, k, level)
    weights = law.nodes(level, alpha)[1]
    values = transform.atoms[: len(weights)]  # the finer level's values come first
    assert np.all(values.imag < 0)  # turned below the real axis
    for u in KERNEL_US:
        v = -u / n
        moments, scale = _loop_moments(values, weights, k, v), _loop_scale(values, weights, k, v)
        want = sum(math.comb(k, j) * moments[j] * moments[k - j] for j in range(k + 1)) / n**k
        size = sum(math.comb(k, j) * scale[j] * scale[k - j] for j in range(k + 1)) / n**k
        got, _ = transform(u)
        if want == 0:
            assert got == 0
        else:
            # each M_j within 1e-13 of its sum of |terms|, so each product
            # within about twice that of the product of those sums
            assert abs(got - want) <= n * 1e-13 * size, (u, got, want)
    assert transform(1e5) == (0, 0)  # every term underflows


@pytest.mark.parametrize("law, alpha, level", KERNEL_LAWS)
def test_weighted_powers_match_complex_exp_formula(law, alpha, level):
    # the tangent phasor against one complex exp of icW per point, the
    # formula it replaced, to a few ulps of the sum of |terms|
    points, weights = law.nodes(level, alpha)
    values = np_principal_pow(points + alpha, 0.4)
    kernel = _WeightedPowers(values, weights, 2)
    for c in KERNEL_US:  # W in the upper half plane, so c >= 0 keeps |e^{icW}| <= 1
        old = np.array([(row * np.exp(values * (1j * c))).sum() for row in kernel.rows])
        scale = _loop_scale(values, weights, 2, c)
        assert np.all(np.abs(kernel(c) - old) <= 4.0 * np.finfo(float).eps * scale), c


@pytest.mark.parametrize("p, n", [(-0.5, 2), (-0.4, 3), (0.4, 2), (0.5, 2), (0.6, 3)])
def test_frac_deriv_atomic_law_matches_enumeration(p, n):
    # negative, positive and integer orders of the operator over exact atoms
    tp = TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3)
    spec = PowerMeanSpec(p=p, n=n)
    est = power_mean_expectation(tp, spec, Route.FRAC_DERIV)
    closed = power_mean_expectation(tp, spec, Route.CLOSED)
    assert est.meta["transform"] == "atoms"
    assert abs(est.value - closed.value) <= 1e-12


def _rule_moments(law, alpha, p, level, c):
    """[E[W^j exp(icW)] for j = 0, 1, 2] by the law's node rule."""
    points, weights, *coarse = law.nested_nodes(level, alpha)
    return _WeightedPowers(np_principal_pow(points + alpha, p), weights, 2, coarse)(c)[0]


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


NODE_GRID = [(T3, 1j, p) for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)] + [
    (POIN, alpha, p) for alpha in (0.5j, 1 + 0.5j, 2j) for p in (-0.9, -0.5, -0.2, 0.3, 0.4, 0.7)
]


@pytest.mark.parametrize("law, alpha, p", NODE_GRID)
def test_frac_deriv_node_rule_matches_residue_values(law, alpha, p):
    for n in (2, 3, 5):
        spec = PowerMeanSpec(p=p, n=n, alpha=alpha)
        est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
        assert est.meta["transform"] == "nodes" and est.meta["level"] == _NODE_LEVEL + 1
        err = abs(est.value - power_mean_expectation(law, spec, Route.CLOSED).value)  # the node rules never see it
        assert err <= 1e-8 and err <= est.uncertainty, (n, err, est.uncertainty)


@pytest.mark.parametrize("law", GRADED_LAWS, ids=repr)
@pytest.mark.parametrize("alpha", [0.5j, 1 + 0.5j])
def test_frac_deriv_graded_rule_gives_beta_plus_alpha(law, alpha):
    # E f(Z) = f(beta) for f bounded and holomorphic on the upper half plane,
    # so E[M_p] = beta + alpha; the rule is graded toward -alpha, not beta
    for p, n in ((-0.9, 2), (0.4, 2), (-0.5, 5)):
        est = power_mean_expectation(law, PowerMeanSpec(p=p, n=n, alpha=alpha), Route.FRAC_DERIV)
        assert est.meta["transform"] == "nodes"
        err = abs(est.value - (law.gamma_point + alpha))
        assert err <= est.uncertainty, (p, n, err, est.uncertainty)


@pytest.mark.parametrize("law", [POIN, Poincare(2.0, 1.0, 1.0), Poincare(2.5, 0.7, 0.2)], ids=repr)
@pytest.mark.parametrize("alpha", [0.5j, 1j, 0.2j, 1 + 0.5j])
def test_frac_deriv_poincare_grid_answers_at_level_7_within_its_uncertainty(law, alpha):
    # y stands at its own level, so the level gap sees x alone: the
    # uncertainty must still cover the error, y's gap included
    for p, n in itertools.product((-0.9, -0.5, 0.4, 0.7), (2, 3)):
        spec = PowerMeanSpec(p=p, n=n, alpha=alpha)
        est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
        err = abs(est.value - power_mean_expectation(law, spec, Route.CLOSED).value)
        assert est.meta["level"] == _NODE_LEVEL + 1 and err <= est.uncertainty, (p, n, err, est.uncertainty)


@pytest.mark.parametrize("law", [T3, POIN, TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3)], ids=repr)
def test_frac_deriv_reports_the_size_of_its_rule(law):
    est = power_mean_expectation(law, PowerMeanSpec(p=-0.5, n=2, alpha=0.5j), Route.FRAC_DERIV)
    level = est.meta["level"]
    assert est.meta["nodes"] == law.nested_nodes(level, 0.5j)[2]
    assert (est.meta["y_level"], est.meta["y_gap"]) == law.y_rule(0.5j)
    assert (est.meta["y_level"] is None) == (law is not POIN)


def test_frac_deriv_uncertainty_carries_the_y_gap(monkeypatch):
    spec = PowerMeanSpec(p=-0.5, n=2, alpha=0.5j)
    base = power_mean_expectation(POIN, spec, Route.FRAC_DERIV)
    monkeypatch.setattr(Poincare, "y_rule", lambda self, alpha=0j: (4, 1e-9))
    est = power_mean_expectation(POIN, spec, Route.FRAC_DERIV)
    assert est.value == base.value and est.meta["y_gap"] == 1e-9
    assert est.uncertainty - base.uncertainty >= 0.99e-9 * abs(est.value)


@pytest.mark.parametrize("p", [-0.5, 0.4])
def test_frac_deriv_poincare_level_gap_well_inside_tolerance(p):
    # the two Poincare cells of the fracderiv_sampled benchmark
    cfg = QuadratureConfig()
    est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=2, alpha=0.5j), Route.FRAC_DERIV, cfg)
    assert est.meta["level_gap"] <= cfg.rel_tol * abs(est.value) / 4.0
    assert est.meta["level_gap"] <= 1e-13  # 3.6e-15 at p = -0.5, 2.8e-14 at p = 0.4


def _transform_h(law, alpha, p, n, level):
    """The pair integrand (h_L, h_L - h_(L-1)) of the power-mean route at p,
    the order of its operator and its phase, as _pm_frac_deriv forms them."""
    order = 1.0 / p
    k = _whole_order(order)
    return _SingleDrawTransform(law, alpha, p, n, k, level), order - k, -1j


PAIR_CELLS = [(T3, 1j, 0.7, 3), (POIN, 0.5j, -0.5, 2), (POIN, 0.5j, 0.4, 2)]


@pytest.mark.parametrize("law, alpha, p, n", PAIR_CELLS)
def test_gap_component_is_the_integral_of_the_level_difference(law, alpha, p, n):
    cfg = QuadratureConfig()
    pair, order, phase = _transform_h(law, alpha, p, n, _NODE_LEVEL + 1)
    value, _, evals, gap, gap_unc = _fractional_power(pair, order, cfg, phase)
    # the same integral from the two levels' own rules, differenced at each u
    coarse = _transform_h(law, alpha, p, n, _NODE_LEVEL)[0]

    def separate(u):
        fine = pair(u)[0]
        return fine, fine - coarse(u)[0]

    want_value, _, want_evals, want_gap, _ = _fractional_power(separate, order, cfg, phase)
    assert value == want_value and evals == want_evals  # the same u nodes and levels
    assert abs(gap - want_gap) <= gap_unc  # the coarse sums add their nodes in another order


def test_gap_component_error_covers_the_value_driven_nodes():
    # t3 at alpha = i, p = 0.9, n = 2: h_7 - h_6 oscillates where h_7 does
    # not; had the value alone chosen the levels, the gap would read 2.9e-12
    # at its u nodes, but the levels wait for the gap too, which then reads
    # 1.2e-16, as a scalar integral of h_7 - h_6 that picks its own nodes
    # does; the gap's error estimate covers the difference
    cfg = QuadratureConfig()
    pair, order, phase = _transform_h(T3, 1j, 0.9, 2, _NODE_LEVEL + 1)
    _, _, evals, gap, gap_unc = _fractional_power(pair, order, cfg, phase)
    alone, alone_unc, alone_evals, _, _ = _fractional_power(lambda u: pair(u)[1], order, cfg, phase)
    assert abs(alone) <= 1e-12 and abs(gap) <= 1e-12
    assert abs(gap - alone) <= gap_unc + alone_unc, (gap, alone, gap_unc, alone_unc)


@pytest.mark.parametrize("law, alpha", [(T3, 1j), (ScaledT3(-0.5, 2.0), 0.5j), (ScaledT3(0.3, 0.7), 0.5j)], ids=repr)
def test_gap_component_error_covers_unresolved_sums_at_p_near_one(law, alpha):
    # at p = 0.95 the gap read 2e-10 to 2.4e-9 at the levels the value alone
    # chose, against 2e-14 or less alone; the levels wait for the gap now,
    # which reads 2.2e-14 or less, and where its sums at those levels have
    # not begun to converge, the estimate says so
    cfg = QuadratureConfig()
    pair, order, phase = _transform_h(law, alpha, 0.95, 2, _NODE_LEVEL + 1)
    _, _, evals, gap, gap_unc = _fractional_power(pair, order, cfg, phase)
    alone, alone_unc, alone_evals, _, _ = _fractional_power(lambda u: pair(u)[1], order, cfg, phase)
    assert abs(alone) <= 1e-12 and abs(gap) <= 1e-13
    assert abs(gap - alone) <= gap_unc + alone_unc, (gap, alone, gap_unc, alone_unc)


@pytest.mark.parametrize("law, alpha, p, n", PAIR_CELLS)
def test_frac_deriv_reports_the_rule_gap_and_stays_honest(law, alpha, p, n):
    spec = PowerMeanSpec(p=p, n=n, alpha=alpha)
    est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    assert est.meta["level"] == _NODE_LEVEL + 1 and type(est.meta["level_gap"]) is float
    assert est.meta["level_gap"] <= est.uncertainty
    assert abs(est.value - power_mean_expectation(law, spec, Route.CLOSED).value) <= est.uncertainty


def test_frac_deriv_counts_the_evaluations_of_both_levels():
    # the level-7 gap misses the tolerance here, so the pair (8, 7) runs too:
    # 241 evaluations at each level
    spec = PowerMeanSpec(p=-0.5, n=5, alpha=0.2j)
    est = power_mean_expectation(ScaledT3(-0.5, 2.0), spec, Route.FRAC_DERIV)
    assert est.meta["level"] == _NODE_LEVEL + 2 and est.meta["evaluations"] == 482


@pytest.mark.parametrize("fail", ["gap", "quadrature"])
def test_frac_deriv_failure_counts_the_evaluations_of_both_levels(monkeypatch, fail):
    used = []
    fractional_power = moments._fractional_power

    def failing(*args):  # the levels disagree, or level 8's quadrature fails
        value, unc, evals, gap, gap_unc = fractional_power(*args)
        used.append(evals)
        if fail == "quadrature" and len(used) == 2:
            raise NonConvergenceError("level 8 failed", evaluations=evals)
        return value, unc, evals, 1.0, gap_unc

    monkeypatch.setattr(moments, "_fractional_power", failing)
    with pytest.raises(NonConvergenceError) as info:
        power_mean_expectation(T3, PowerMeanSpec(p=0.4, n=2, alpha=1j), Route.FRAC_DERIV)
    assert len(used) == 2 and info.value.evaluations == sum(used) and used[0] > 0


@pytest.mark.parametrize("alpha", [0.5j, 0.2j])
def test_frac_deriv_answers_cauchy_near_p_minus_one(alpha):
    # as the turn e^{i psi} vanishes, the far nodes decay only algebraically;
    # these cells raised NonConvergenceError while the gap's level differences
    # did not decide when the levels stop
    spec = PowerMeanSpec(p=-0.95, n=2, alpha=alpha)
    est = power_mean_expectation(CAUCHY, spec, Route.FRAC_DERIV)
    err = abs(est.value - power_mean_expectation(CAUCHY, spec, Route.CLOSED).value)
    assert err <= est.uncertainty, (err, est.uncertainty)


@pytest.mark.parametrize(
    "law, alpha, n",
    [(ScaledT3(-0.5, 2.0), 1j, 3), (T3, 0.2j, 2), (ScaledT3(0.3, 0.7), 1 + 0.5j, 5)],
    ids=repr,
)
def test_frac_deriv_keeps_answering_t3_at_p_095(law, alpha, n):
    # where the gap's sums converge more slowly than the value's, the levels
    # wait for them, and k = ceil(1/p) = 2 weights the far nodes by |W|**2
    spec = PowerMeanSpec(p=0.95, n=n, alpha=alpha)
    est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
    err = abs(est.value - power_mean_expectation(law, spec, Route.CLOSED).value)
    assert err <= est.uncertainty, (err, est.uncertainty)


def _enumerated_power_mean(law, p, n):
    """E[M_p] over every n-tuple of the law's atoms."""
    points, weights = law.nodes(0)
    return sum(
        math.prod(weights[i] for i in tup) * power_mean(points[list(tup)], p)
        for tup in itertools.product(range(len(points)), repeat=n)
    )


REAL_ATOMS = [TwoPoint(1.0, 2.0, 0.5), Empirical((1.0, 2.0, 3.0)), Empirical((-1.0, 2.0, 0.5j))]


@pytest.mark.parametrize("law", REAL_ATOMS, ids=repr)
def test_frac_deriv_meets_enumeration_on_atoms_on_the_real_axis(law):
    # at alpha = 0 a real atom's W = (Z + alpha)**p lies on the real axis or
    # on the ray of angle p pi; turned, every W lies strictly below the axis
    for p in (0.3, 0.4, 0.5, 0.7):
        for n in (2, 3):
            est = power_mean_expectation(law, PowerMeanSpec(p=p, n=n, alpha=0j), Route.FRAC_DERIV)
            err = abs(est.value - _enumerated_power_mean(law, p, n))
            assert est.meta["transform"] == "atoms" and err <= est.uncertainty, (p, n, err, est.uncertainty)


@pytest.mark.parametrize("law", REAL_ATOMS[:2], ids=repr)
def test_frac_deriv_at_p_one_on_real_atoms_is_the_mean(law):
    # an integer order runs no integral, so no decay check refuses it
    points, weights = law.nodes(0)
    for n in (2, 3):
        est = power_mean_expectation(law, PowerMeanSpec(p=1.0, n=n, alpha=0j), Route.FRAC_DERIV)
        assert est.meta["ordinal"] is True
        assert est.value.real == np.dot(weights, points).real and abs(est.value.imag) <= 1e-30  # the turn's rounding


def test_frac_deriv_refuses_a_turned_value_on_the_real_axis():
    # at p = -1 the turn is 1, so a real Z + alpha gives W' on the real axis,
    # and the Riemann-Liouville integral of its transform would not converge
    with pytest.raises(SupportError, match="does not decay"):
        power_mean_expectation(TwoPoint(1.0, 2.0, 0.5), PowerMeanSpec(p=-1.0, n=2, alpha=0j), Route.FRAC_DERIV)


@pytest.mark.parametrize("alpha", [0j, 0.7 + 0j])
def test_frac_deriv_refuses_a_real_line_density_at_real_alpha(monkeypatch, alpha):
    # the node rules are graded toward -alpha only off the real line, so no
    # integral runs, and AUTO falls back to Monte Carlo at once
    def no_integral(*args):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(moments, "_fractional_power", no_integral)
    spec = PowerMeanSpec(p=0.4, n=2, alpha=alpha)
    with pytest.raises(SupportError, match="Im\\(alpha\\) > 0"):
        power_mean_expectation(T3, spec, Route.FRAC_DERIV)
    est = power_mean_expectation(T3, spec, Route.AUTO, mc=MCConfig(samples=2000, seed=3))
    assert est.method is Route.MONTE_CARLO and est.meta["auto"] is True


def _counted_power_mean(law, p, n):
    """E[M_p] of n draws from a law of positive real atoms, summed over how
    often each atom is drawn, at 50 digits."""
    points, weights = law.nodes(0)
    with mpmath.workdps(50):
        q = mpmath.mpf(p)
        powers = [mpmath.mpf(z.real) ** q for z in points]
        total = mpmath.mpf(0)
        for counts in itertools.product(range(n + 1), repeat=len(points)):
            if sum(counts) == n:
                ways = mpmath.factorial(n) / mpmath.fprod(mpmath.factorial(c) for c in counts)
                odds = mpmath.fprod(mpmath.mpf(w.real) ** c for w, c in zip(weights, counts))
                total += ways * odds * (mpmath.fsum(c * w for c, w in zip(counts, powers)) / n) ** (1 / q)
        return complex(total)


@pytest.mark.parametrize("p, n", [(0.0065, 2), (0.01, 50)])
def test_frac_deriv_answers_orders_past_a_hundred(p, n):
    # 1/p = 153.8 and 100: 1 / (n^j j!) falls below the float range before
    # j reaches 1/p, and must underflow, not overflow
    law = Empirical((1.0, 2.0, 3.0))
    want = _counted_power_mean(law, p, n)
    for route in (Route.FRAC_DERIV, Route.AUTO):
        est = power_mean_expectation(law, PowerMeanSpec(p=p, n=n, alpha=0j), route)
        err = abs(est.value - want)
        assert est.method is Route.FRAC_DERIV and err <= est.uncertainty, (route, err, est.uncertainty)


@pytest.mark.parametrize("p", [1 / 20, 1 / 50, 1 / 100, 1 / 150])
def test_frac_deriv_integer_orders_cover_their_rounding(p):
    # no integral runs, but S'**k magnifies the rounding of the turned values
    law = TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3)
    for n in (2, 5):
        spec = PowerMeanSpec(p=p, n=n, alpha=0j)
        est = power_mean_expectation(law, spec, Route.FRAC_DERIV)
        err = abs(est.value - power_mean_expectation(law, spec, Route.CLOSED).value)
        assert est.meta["ordinal"] is True and err <= est.uncertainty, (n, err, est.uncertainty)


# the fracderiv_sampled benchmark cells and t3 at p = 0.9, with the
# evaluations their walks take
WALK_CELLS = [
    (T3, 1j, 0.4, 242),
    (POIN, 0.5j, -0.5, 238),
    (POIN, 0.5j, 0.4, 242),
    (T3, 1j, 0.9, 1082),
]


@pytest.mark.parametrize("law, alpha, p, evaluations", WALK_CELLS)
def test_frac_deriv_kernel_computes_little_past_the_walk(monkeypatch, law, alpha, p, evaluations):
    computed = []
    kernel = _WeightedPowers.__call__
    monkeypatch.setattr(_WeightedPowers, "__call__", lambda self, c: computed.append(np.size(c)) or kernel(self, c))
    est = power_mean_expectation(law, PowerMeanSpec(p=p, n=2, alpha=alpha), Route.FRAC_DERIV)
    assert est.meta["evaluations"] == evaluations
    assert evaluations <= sum(computed) <= 1.1 * evaluations
    assert len(computed) < evaluations / 1.9  # most calls take a chunk of u


def _assert_bits_of_one_element_arrays(h, us):
    """h at the array us gives, element for element, the bits of h at
    one-element arrays, for each part of its pair."""
    whole = np.array(h(us))
    alone = np.concatenate([np.array(h(us[i : i + 1])) for i in range(len(us))], axis=-1)
    assert whole.shape == alone.shape and whole.tobytes() == alone.tobytes()


TRANSFORM_US = np.array([0.0, 1e-6, 0.3, 1.0, 37.5, 1e4])


@pytest.mark.parametrize("law, alpha, level", KERNEL_LAWS)
def test_transforms_of_an_array_give_the_bits_of_one_element_arrays(law, alpha, level):
    _assert_bits_of_one_element_arrays(_SingleDrawTransform(law, alpha, -0.5, 3, 0, level), TRANSFORM_US)
    _assert_bits_of_one_element_arrays(_SingleDrawTransform(law, alpha, 0.4, 3, 2, level), TRANSFORM_US)


@pytest.mark.parametrize("law, orders", [(CAUCHY, (0,)), (T3, (0, 1, 2)), (POIN, (0, 1, 2))])
def test_closed_transform_of_an_array_gives_the_bits_of_one_element_arrays(law, orders):
    for alpha in (1j, 1 + 0.5j):
        for k in orders:
            _assert_bits_of_one_element_arrays(lambda u: _shifted_weighted_char(law, alpha, k, u), TRANSFORM_US)


def test_kernel_splits_a_long_array_into_blocks_of_the_same_bits():
    # the kernel holds at most its budget of floats at once, whatever it is asked
    kernel = _SingleDrawTransform(POIN, 0.5j, 0.4, 2, 2, _NODE_LEVEL + 1).kernel
    cs = np.linspace(0.0, 40.0, 3 * kernel._size + 7)
    assert kernel._size < len(cs)
    _assert_bits_of_one_element_arrays(lambda c: np.moveaxis(kernel(c), 0, -1), cs)


def test_frac_deriv_ignores_monte_carlo_config():
    spec = PowerMeanSpec(p=0.4, n=2, alpha=0.5j)
    a = power_mean_expectation(POIN, spec, Route.FRAC_DERIV, mc=MCConfig(samples=10, seed=1))
    b = power_mean_expectation(POIN, spec, Route.FRAC_DERIV, mc=MCConfig(samples=50_000, seed=99, batch=7))
    assert a.value == b.value and a.uncertainty == b.uncertainty


@pytest.mark.parametrize("p, n", [(-0.9, 2), (-0.9, 3), (-0.5, 2), (-0.5, 3)])
def test_frac_deriv_real_shift_converges_or_says_so(p, n):
    # at real alpha the shifted law reaches the real axis; the node rule is
    # graded toward -alpha, but the transform can decay too slowly along the
    # real ray to converge (p=-0.5, n=3): a number must be honest, or none
    try:
        est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=n, alpha=0.3), Route.FRAC_DERIV)
    except NonConvergenceError:
        return
    assert abs(est.value - (1j + 0.3)) <= est.uncertainty


def test_auto_power_mean_falls_back_to_mc_when_quadrature_fails():
    atoms = (1 + 1j, -0.5 + 0.5j, 2j)
    law, spec = Empirical(atoms), PowerMeanSpec(-0.5, 2, 0.5j)  # no closed power mean
    cfg = QuadratureConfig(max_level=3, rel_tol=1e-14, abs_tol=1e-16)
    with pytest.raises(NonConvergenceError):
        power_mean_expectation(law, spec, Route.FRAC_DERIV, cfg)
    est = power_mean_expectation(law, spec, Route.AUTO, cfg, MCConfig(samples=20_000, seed=3))
    assert est.method is Route.MONTE_CARLO and est.meta["auto"] is True
    want = np.mean([power_mean([a + 0.5j, b + 0.5j], -0.5) for a in atoms for b in atoms])
    assert abs(est.value - want) <= 4.0 * est.uncertainty


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


def _reference_mc(model, mc, block_values):
    """The block-at-a-time loop: block idx reduced alone from the stream
    (mc.seed, idx), its moments merged in index order; [(mean, stderr)] per
    row of block_values(draws of the block, replications)."""
    merged = None
    for idx in range(-(-mc.samples // mc.batch)):
        size = min(mc.batch, mc.samples - idx * mc.batch)
        rows = np.atleast_2d(block_values(lambda per_row: sample(model, mc.seed, size * per_row, stream=idx), size))
        part = []
        for vals in rows:
            mean = complex(np.mean(vals))
            part.append((vals.size, mean, float(np.sum((vals.real - mean.real) ** 2)), float(np.sum((vals.imag - mean.imag) ** 2))))
        merged = part if merged is None else [montecarlo._merge_moments(a, b) for a, b in zip(merged, part)]
    total = mc.samples
    return [(mean, math.sqrt((re + im) / (total - 1) / total)) for _, mean, re, im in merged]


@pytest.mark.parametrize("model, alpha", [(POIN, 0j), (CAUCHY, 1j), (T3, 0.5j), (TwoPoint(1 + 1j, -0.5 + 0.5j, 0.3), 0j)])
def test_every_monte_carlo_caller_gives_the_block_loop_bits_at_any_thread_count(monkeypatch, model, alpha):
    # a partial last block, and a last group with fewer blocks than the others
    batch = 1024
    span = montecarlo._GROUP_ROWS // batch
    mc = MCConfig(samples=(2 * span + span // 2) * batch + 17, seed=11, batch=batch)
    ps, n, lam, p_abs = (-0.5, 0.0, 0.5), 3, complex(0.4, 0.3), 0.7
    if model is CAUCHY:
        ps = ps[:2]  # no expectation at p > 0
        p_abs = 0.4  # |Z|**0.7 has no finite variance: E|Z|**1.4 diverges
    specs = [PowerMeanSpec(p=p, n=n, alpha=alpha) for p in ps]

    def power_means(draws, size):
        return moments._power_mean_rows(draws(n).reshape(size, n) + alpha, ps)

    want = {
        "power means": _reference_mc(model, mc, power_means),
        "moment": _reference_mc(model, mc, lambda draws, size: np_principal_pow(draws(1) + alpha, lam)),
        "abs moment": _reference_mc(model, mc, lambda draws, size: np.abs(draws(1)) ** p_abs),
    }
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("FRACMEAN_THREADS", threads)
        est = frac_moment_mc(model, alpha, lam, mc)
        got = {
            "power means": [(e.value, e.uncertainty) for e in _pm_monte_carlo(model, specs, mc)],
            "moment": [(est.value, est.uncertainty)],
        }
        if model.support == "real":  # atomic laws sum their atoms, Poincare its node rule
            mean, stderr = bounds._abs_moment(model, p_abs, mc)
            got["abs moment"] = [(complex(mean), stderr)]
        for name, values in got.items():
            assert values == want[name], (name, threads)


def test_many_workers_on_short_switches_merge_every_block_in_order(monkeypatch):
    # more workers than cores, handing the interpreter lock over every few
    # microseconds: a lost or reordered group would change the bits
    mc = MCConfig(samples=60 * 256 + 3, seed=4, batch=256)
    specs = [PowerMeanSpec(p=p, n=2) for p in (-0.5, 0.5)]
    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    want = [(e.value, e.uncertainty) for e in _pm_monte_carlo(POIN, specs, mc)]
    monkeypatch.setattr(montecarlo, "_GROUP_ROWS", 512)  # two blocks a group, 31 groups
    monkeypatch.setenv("FRACMEAN_THREADS", "5")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert [(e.value, e.uncertainty) for e in _pm_monte_carlo(POIN, specs, mc)] == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_domain_guard_raises_before_any_worker_starts(monkeypatch, threads):
    # a failure inside a worker: test_worker_failure_in_a_middle_group_propagates
    monkeypatch.setenv("FRACMEAN_THREADS", threads)
    law = TwoPoint(0j, 1 + 1j, 0.5)  # a zero draw has no power of order p < 0
    mc = MCConfig(samples=4 * montecarlo._GROUP_ROWS, seed=5, batch=1024)
    before = threading.active_count()
    with pytest.raises(BranchDomainError):
        power_mean_expectation(law, PowerMeanSpec(p=-0.5, n=2), Route.MONTE_CARLO, mc=mc)
    assert threading.active_count() == before


def test_worker_failure_in_a_middle_group_propagates(monkeypatch):
    # three groups of two blocks at two threads: the helper's group 1 raises,
    # and the calling thread must not wait for its moments
    monkeypatch.setenv("FRACMEAN_THREADS", "2")
    mc = MCConfig(samples=3 * montecarlo._GROUP_ROWS, seed=5, batch=montecarlo._GROUP_ROWS // 2)
    planted = ArithmeticError("raised by the test in group 1")

    def block(first, count):
        if first == 2:
            raise planted
        return np.ones(count * mc.batch, dtype=complex)

    with pytest.raises(ArithmeticError) as info:
        montecarlo._mc_mean(block, mc.samples, mc)
    assert info.value is planted
    assert not [t.name for t in threading.enumerate() if t.name.startswith("fracmean-mc-")]


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_monte_carlo_blocks_take_no_page_faults(monkeypatch):
    # every block of the call reuses the worker's workspace, so after one
    # warm-up call no block allocates, and faults in, memory of its own size
    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    spec, mc = PowerMeanSpec(p=0.5, n=5), MCConfig(samples=64 * 4096, seed=3)
    power_mean_expectation(POIN, spec, Route.MONTE_CARLO, mc=mc)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    power_mean_expectation(POIN, spec, Route.MONTE_CARLO, mc=mc)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


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


# (law, alpha, order, n, the guard's exception): a moment E[(Z + alpha)**order]
# where n is None, else the power mean of that order over n draws
DOMAIN_TABLE = [
    (CAUCHY, 1j, 1.5, None, MomentExistenceError),  # no E|Z|^1.5
    (T3, 1j, 3.5, None, MomentExistenceError),  # tail index 3
    (CAUCHY, 0j, -1.5, None, MomentExistenceError),  # the density at 0 makes it diverge
    (CAUCHY, 0j, -0.5, None, SupportError),  # exists, but quadrature and Monte Carlo refuse
    (TwoPoint(0j, 1j, 0.5), 0j, -0.5, None, MomentExistenceError),
    (CAUCHY, 1j, 0.5, 2, MomentExistenceError),  # no mean, so no expectation at p > 0
    (CAUCHY, 1j, 0.0, 1, MomentExistenceError),  # the geometric mean of one draw is Z + i
    (CAUCHY, 0j, -0.5, 2, SupportError),
    (T3, 0.7, -0.5, 2, SupportError),
    (TwoPoint(0j, 1 + 1j, 0.5), 0j, -0.5, 2, BranchDomainError),
    (TwoPoint(0j, 1 + 1j, 0.5), 0j, 0.0, 2, BranchDomainError),
]


@pytest.mark.parametrize(
    "law, alpha, order, n, guard",
    DOMAIN_TABLE,
    ids=[f"{law.name} alpha={alpha} {'lam' if n is None else f'n={n} p'}={order}" for law, alpha, order, n, _ in DOMAIN_TABLE],
)
def test_every_route_that_refuses_raises_the_guards_exception(law, alpha, order, n, guard):
    mc = MCConfig(samples=2000, seed=3)
    if n is None:
        calls = {route: lambda route=route: frac_moment(law, alpha, order, route, mc=mc)
                 for route in (Route.CLOSED, Route.QUAD, Route.MONTE_CARLO)}
    else:
        spec = PowerMeanSpec(p=order, n=n, alpha=alpha)
        calls = {route: lambda route=route: power_mean_expectation(law, spec, route, mc=mc)
                 for route in (Route.CLOSED, Route.FRAC_DERIV, Route.MONTE_CARLO)}
    for route, call in calls.items():
        try:
            call()
        except Exception as exc:
            assert isinstance(exc, guard), (route, exc)
        else:
            assert route is not Route.MONTE_CARLO, "Monte Carlo answered outside the domain"


def test_real_atoms_at_negative_order_answer_by_fractional_derivative_under_auto():
    # turned by e^{i psi}, every (Z + alpha)**p of a real atom lies below the axis
    law = Empirical((1.0, 2.0, 3.0))
    est = power_mean_expectation(law, PowerMeanSpec(p=-0.5, n=2), Route.AUTO)
    assert est.method is Route.FRAC_DERIV and est.meta["transform"] == "atoms"
    want = np.mean([power_mean([a, b], -0.5) for a in law.samples for b in law.samples])
    assert abs(est.value - want) <= est.uncertainty
    mc = power_mean_expectation(law, PowerMeanSpec(p=-0.5, n=2), Route.MONTE_CARLO, mc=MCConfig(samples=20_000, seed=5))
    assert abs(mc.value - want) <= 4.0 * mc.uncertainty


def test_real_two_point_law_at_negative_order_on_monte_carlo():
    law, spec = TwoPoint(2.0, 1.0, 0.5), PowerMeanSpec(p=-0.5, n=2)
    closed = power_mean_expectation(law, spec, Route.CLOSED)
    est = power_mean_expectation(law, spec, Route.MONTE_CARLO, mc=MCConfig(samples=20_000, seed=6))
    assert abs(est.value - closed.value) <= 4.0 * est.uncertainty


@pytest.mark.parametrize("law", [CAUCHY, T3])
@pytest.mark.parametrize("alpha", [0j, 0.7 + 0j, -1.5 + 0j])
def test_fractional_derivative_refuses_a_real_density_at_real_alpha_without_the_guard(monkeypatch, law, alpha):
    # the turned transform decays there, but the node rule of a real-line law
    # is not graded toward -alpha on its own line, and its levels disagree
    spec = PowerMeanSpec(p=-0.5, n=2, alpha=alpha)
    with pytest.raises(SupportError):
        power_mean_expectation(law, spec, Route.FRAC_DERIV)
    monkeypatch.setattr(moments, "_check_real_shift", lambda *args: None)
    with pytest.raises(NonConvergenceError, match="node rules at levels"):
        power_mean_expectation(law, spec, Route.FRAC_DERIV)


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
    assert est.method is Route.CLOSED and est.value == 2j
    est = power_mean_expectation(Empirical((1 + 1j, 2j)), PowerMeanSpec(p=0.5, n=2), Route.AUTO)
    assert est.method is Route.FRAC_DERIV and est.meta["auto"] is True


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
    grid = [-0.5, 0.5]  # E|M_p| of Cauchy draws diverges at p > 0
    table = continuity_scan(CAUCHY, 1j, 2, grid, Route.CLOSED)
    assert table.rows[0].estimate is not None
    assert table.rows[1].estimate is None and "MomentExistenceError" in table.rows[1].error


_NO_CLOSED_LAW = Empirical((1 + 1j, -0.5 + 0.5j, 2j))  # no closed power mean
_FAILING_RULES = QuadratureConfig(max_level=3, rel_tol=1e-14, abs_tol=1e-16)  # FRAC_DERIV raises


@pytest.mark.parametrize(
    "model,route,alpha,grid,cfg",
    [
        (POIN, Route.MONTE_CARLO, 0.5j, [-1.0, -0.4, -1e-9, 0.0, 1e-9, 0.3, 0.8, 1.0], None),
        # no closed form and the node rules fail: each row is Monte Carlo
        # alone, not grouped by sign as on route MONTE_CARLO
        (_NO_CLOSED_LAW, Route.AUTO, 0.5j, [-0.6, -0.2, 0.4], _FAILING_RULES),
    ],
    ids=["mc", "auto"],
)
def test_scan_rows_equal_single_calls_at_the_scan_seed(model, route, alpha, grid, cfg):
    mc = MCConfig(samples=3000, seed=11, batch=1024)
    table = continuity_scan(model, alpha, 2, grid, route, cfg, mc)
    for row, p in zip(table.rows, grid):
        alone = power_mean_expectation(model, PowerMeanSpec(p=p, n=2, alpha=alpha), route, cfg, mc)
        assert row.error is None and row.estimate == alone
        assert row.estimate.method is Route.MONTE_CARLO


@pytest.mark.parametrize(
    "model,error_at",
    [
        (TwoPoint(0j, 1 + 1j, 0.5), lambda p: BranchDomainError if p <= 0 else None),  # zero draws
        # real support at real alpha; no mean, so no expectation at p > 0
        (CAUCHY, lambda p: SupportError if p < 0 else MomentExistenceError if p > 0 else None),
    ],
    ids=["twopoint-zero-atom", "cauchy-real-alpha"],
)
def test_mixed_sign_monte_carlo_scan_fails_only_where_single_calls_fail(model, error_at):
    mc = MCConfig(samples=3000, seed=4)
    grid = [-0.8, -0.2, 0.0, 0.4, 1.0]
    table = continuity_scan(model, 0j, 2, grid, Route.MONTE_CARLO, mc=mc)
    for row, p in zip(table.rows, grid):
        spec = PowerMeanSpec(p=p, n=2)
        error = error_at(p)
        if error:
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
    assert abs(complex(float(re_part), float(im_part)) - 1j) < 1e-12 and method == "frac_deriv"
