"""Fractional absolute moment vs absolute fractional moment, and the
geometric-mean strong law."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fracmean import verify
from fracmean.bounds import (
    _abs_moment,
    cancelling_pair_law,
    general_bound_check,
    geometric_slln_demo,
    half_plane_bound_check,
)
from fracmean import bounds, distributions, moments
from fracmean.distributions import (
    Cauchy,
    MomentExistenceError,
    Poincare,
    RouteUnavailableError,
    ScaledT3,
    SupportError,
    TwoPoint,
)
from fracmean.moments import MCConfig, closed_moment

POIN = Poincare(1.0, 0.0, 1.0)
T3 = ScaledT3(0.0, 1.0)


def test_tight_two_point_case_has_zero_slack():
    law = TwoPoint(1.0, -1.0, 0.5)
    for p in (0.25, 0.5, 0.75):
        rep = half_plane_bound_check(law, p)
        assert abs(rep.abs_moment - 1.0) < 1e-15
        assert abs(rep.moment_abs - math.cos(p * math.pi / 2.0)) < 1e-15
        assert rep.satisfied
        assert abs(rep.slack) <= 1e-14  # exactly tight, up to rounding


def test_point_mass_at_i_moments_agree():
    law = TwoPoint(1j, 1j, 0.5)
    for p in (-0.8, -0.3, 0.4, 0.9):
        rep = half_plane_bound_check(law, p)
        assert abs(rep.moment_abs - 1.0) < 1e-14
        assert abs(rep.abs_moment - 1.0) < 1e-14
        assert rep.satisfied


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_atom_absolute_moments():
    # an atom of weight 0 at 0 is no atom: the law is the point mass at i
    rep = half_plane_bound_check(TwoPoint(0j, 1j, 0.0), -0.5)
    assert rep.abs_moment == 1.0 and rep.satisfied
    # with positive weight there, E|Z|^-0.5 diverges
    with pytest.raises(MomentExistenceError):
        _abs_moment(TwoPoint(0j, 1j, 0.5), -0.5, MCConfig())
    with pytest.raises(MomentExistenceError):
        half_plane_bound_check(TwoPoint(0j, 1j, 0.5), -0.5)
    # the atoms' rule sum is exact; its uncertainty is the rule's rounding allowance
    value, unc = _abs_moment(TwoPoint(0j, 1j, 0.5), 0.5, MCConfig())
    assert value == 0.5 and 0.0 < unc <= 16.0 * math.ulp(0.5)


def test_bound_reports_the_size_of_the_rule():
    rep = half_plane_bound_check(POIN, -0.5)
    assert rep.meta["nodes"] == POIN.nested_nodes(7)[2] and rep.meta["y_level"] == POIN.y_rule()[0] == 4
    rep = half_plane_bound_check(TwoPoint(1j, 2j, 0.5), 0.5)
    assert (rep.meta["nodes"], rep.meta["y_level"]) == (2, None)
    rep = half_plane_bound_check(ScaledT3(0.0, 1.0), 0.4, mc=MCConfig(samples=4096, seed=1))
    assert "nodes" not in rep.meta and "y_level" not in rep.meta  # Monte Carlo


def test_abs_moment_uncertainty_carries_the_y_gap(monkeypatch):
    value, unc = _abs_moment(POIN, 0.5, None)
    monkeypatch.setattr(Poincare, "y_rule", lambda self, alpha=0j: (4, 1e-9))
    widened_value, widened_unc = _abs_moment(POIN, 0.5, None)
    assert widened_value == value and widened_unc - unc == pytest.approx(1e-9 * value, rel=1e-6)


def test_support_reads_atoms_of_positive_weight_only():
    assert TwoPoint(-1j, 1j, 0.0).support == "upper"  # the point mass at i
    rep = half_plane_bound_check(TwoPoint(1j, -1j, 0.0), 0.5)  # the point mass at -i
    assert rep.meta["support"] == "lower" and rep.satisfied
    assert abs(rep.abs_moment - 1.0) < 1e-15 and abs(rep.moment_abs - 1.0) < 1e-15


def test_poincare_half_plane_bound_mc():
    rep = half_plane_bound_check(POIN, 0.5, mc=MCConfig(samples=100_000, seed=5))
    assert abs(rep.moment_abs - 1.0) < 1e-12  # |i**0.5| via the closed moment
    assert rep.satisfied
    assert rep.meta["abs_method"] == "nodes"


@pytest.mark.parametrize("law, p", [(T3, -0.75), (Cauchy(0.0, 1.0), 0.75)], ids=["t3", "cauchy"])
def test_monte_carlo_abs_moment_refuses_infinite_variance(law, p):
    # E|Z|^(2p) diverges: near 0 for t3 at p = -0.75, in the tail for Cauchy at
    # p = 0.75, so a standard error of |Z|^p would mean nothing
    with pytest.raises(RouteUnavailableError, match=rf"E\[\|Z\|\^{2 * p:g}\]"):
        _abs_moment(law, p, MCConfig(samples=4096, seed=1))
    with pytest.raises(RouteUnavailableError):
        half_plane_bound_check(law, p, mc=MCConfig(samples=4096, seed=1))


def test_abs_moment_memory_bounded_in_blocks(monkeypatch):
    def peak_bytes(blocks):
        tracemalloc.start()
        try:
            _abs_moment(T3, 0.5, MCConfig(samples=blocks * 4096, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    reference = peak_bytes(16)
    large = peak_bytes(256)
    assert large <= 1.5 * reference, (reference, large)


def test_abs_moment_reduces_through_the_moments_module(monkeypatch):
    # wrappers of moments._mc_mean (the benchmark's tracer) see the Monte
    # Carlo absolute moments of real-line laws only if bounds calls it
    # through the module
    calls = []
    original = moments._mc_mean

    def counting(per_block_values, total, mc):
        calls.append(total)
        return original(per_block_values, total, mc)

    monkeypatch.setattr(moments, "_mc_mean", counting)
    _abs_moment(T3, 0.5, MCConfig(samples=5000, seed=3))
    assert calls == [5000]


def test_abs_moment_rule_gap_is_honest_on_criterion_9_laws():
    poincare = (pair for pair in verify._half_plane_laws(7) if isinstance(pair[0], Poincare))
    for law, p in itertools.islice(poincare, 50):
        value, unc = _abs_moment(law, p, None)
        z, w = law.nodes(10)
        err = abs(value - float(np.sum(w * np.abs(z) ** p)))
        assert err <= unc, (law, p, err, unc)


def test_upper_half_plane_abs_moment_draws_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("E[|Z|^p] of an upper-half-plane density ran Monte Carlo")

    monkeypatch.setattr(moments, "_mc_mean", refuse)
    rep = half_plane_bound_check(POIN, -0.5)
    assert rep.satisfied and rep.tolerance < 1e-8


def test_unit_p_is_vacuous_but_reported():
    rep = half_plane_bound_check(POIN, 1.0, mc=MCConfig(samples=50_000, seed=6))
    assert rep.bound == math.inf
    assert rep.satisfied


def test_cancelling_pair_reproduces_zero_moment():
    law = cancelling_pair_law(0.75)
    moment = closed_moment(law, 0.0, 0.75)
    assert abs(moment) <= 5e-16  # E[Z**p] = 0, up to rounding
    assert abs(sum(law.weights * np.abs(law.atoms) ** 0.75) - 1.0) <= 1e-15


def test_cancelling_pair_breaks_bound_outside_hypotheses():
    law = cancelling_pair_law(0.75)
    with pytest.raises(SupportError):
        half_plane_bound_check(law, 0.75)
    rep = half_plane_bound_check(law, 0.75, declare_support="lower")
    assert not rep.satisfied
    assert rep.abs_moment == 1.0
    assert rep.bound <= 1e-14


def test_general_bound_point_mass_and_two_point():
    rep = general_bound_check(TwoPoint(1.0, 1.0, 0.5), 0.25)
    assert rep.satisfied and abs(rep.abs_moment - 1.0) < 1e-15
    rep = general_bound_check(TwoPoint(1.0, -1.0, 0.5), 0.25)
    # bound = cos(p pi/2)/cos(p pi) = 0.9239/0.7071 > 1
    assert rep.satisfied
    assert abs(rep.bound - math.cos(0.25 * math.pi / 2.0) / math.cos(0.25 * math.pi)) < 1e-14


def test_general_bound_range_guard():
    with pytest.raises(ValueError):
        general_bound_check(POIN, 0.5)
    with pytest.raises(ValueError):
        half_plane_bound_check(POIN, 1.2)


def test_random_half_plane_laws_smoke():
    rng = np.random.default_rng(3)
    for trial in range(60):
        if trial % 2:
            law = Poincare(
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(0.5, 2.0)) + 0.5,
            )
        else:
            law = TwoPoint(
                complex(rng.normal(), abs(rng.normal())),
                complex(rng.normal(), abs(rng.normal())),
                float(rng.uniform(0.0, 1.0)),
            )
        p = float(rng.uniform(-1.0, 1.0))
        rep = half_plane_bound_check(law, p, mc=MCConfig(samples=20_000, seed=trial))
        assert rep.satisfied, (law, p, rep)


def test_random_general_laws_any_atoms():
    rng = np.random.default_rng(9)
    for trial in range(1000):
        z1 = complex(rng.normal(), rng.normal()) or 1.0
        z2 = complex(rng.normal(), rng.normal()) or -1j
        law = TwoPoint(z1, z2, float(rng.uniform(0.0, 1.0)))
        p = float(rng.uniform(-0.45, 0.45))
        rep = general_bound_check(law, p)
        assert rep.satisfied, (law, p, rep)


def test_slln_point_mass_trajectory_constant():
    traj = geometric_slln_demo(TwoPoint(1j, 1j, 0.5), 1000, seed=1)
    assert np.allclose(traj.values, 1j)
    assert abs(traj.target - 1j) < 1e-15  # exp(log i) up to rounding
    # an atom of weight 0 never occurs, even at 0: the law is the point mass at i
    traj = geometric_slln_demo(TwoPoint(0j, 1j, 0.0), 1000, seed=1)
    assert np.allclose(traj.values, 1j)
    assert abs(traj.target - 1j) < 1e-15


def test_slln_poincare_converges():
    traj = geometric_slln_demo(POIN, 100_000, seed=2)
    assert traj.target == 1j
    assert traj.final_error() <= 0.05


def test_slln_poincare_shifted_target():
    traj = geometric_slln_demo(Poincare(2.0, 1.0, 1.0), 50_000, seed=3)
    assert traj.target == complex(-0.5, 0.5)
    assert traj.final_error() <= 0.1


def test_slln_draws_in_bounded_chunks(monkeypatch):
    # a real-line law has no geometric_mean; the draws of an atomic law come
    # from one uniform each, so chunking leaves them unchanged
    law = TwoPoint(1j, 1.0 + 2.0j, 0.3)
    whole = geometric_slln_demo(law, 100_000, seed=5)
    counts = []

    def counting(streams, model, n, *args, **kwargs):
        counts.append(n)
        return sample_with(streams, model, n, *args, **kwargs)

    sample_with = distributions._sample_with
    monkeypatch.setattr(distributions, "_sample_with", counting)
    monkeypatch.setattr(bounds, "_SLLN_CHUNK", 1000)
    chunked = geometric_slln_demo(law, 100_000, seed=5)
    assert max(counts) == 1000 and sum(counts) == 100_000
    assert np.array_equal(chunked.ns, whole.ns)
    assert np.max(np.abs(chunked.values - whole.values)) <= 1e-12


def test_slln_rejects_real_supported_laws():
    with pytest.raises(SupportError):
        geometric_slln_demo(Cauchy(0.0, 1.0), 1000, seed=1)
