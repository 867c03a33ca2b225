"""Fractional absolute moment vs absolute fractional moment, and the
geometric-mean strong law."""

import math
import tracemalloc

import numpy as np
import pytest

from fracmean.bounds import (
    _abs_moment,
    cancelling_pair_law,
    general_bound_check,
    geometric_slln_demo,
    half_plane_bound_check,
)
from fracmean.distributions import Cauchy, MomentExistenceError, Poincare, SupportError, TwoPoint
from fracmean.moments import MCConfig, closed_moment

POIN = Poincare(1.0, 0.0, 1.0)


def test_tight_two_point_case_has_zero_slack():
    law = TwoPoint(1.0, -1.0, 0.5)
    for p in (0.25, 0.5, 0.75):
        rep = half_plane_bound_check(law, p, estimator="closed")
        assert abs(rep.abs_moment - 1.0) < 1e-15
        assert abs(rep.moment_abs - math.cos(p * math.pi / 2.0)) < 1e-15
        assert rep.satisfied
        assert abs(rep.slack) <= 1e-14  # exactly tight, up to rounding


def test_point_mass_at_i_moments_agree():
    law = TwoPoint(1j, 1j, 0.5)
    for p in (-0.8, -0.3, 0.4, 0.9):
        rep = half_plane_bound_check(law, p, estimator="closed")
        assert abs(rep.moment_abs - 1.0) < 1e-14
        assert abs(rep.abs_moment - 1.0) < 1e-14
        assert rep.satisfied


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_atom_absolute_moments():
    # an atom of weight 0 at 0 is no atom: the law is the point mass at i
    rep = half_plane_bound_check(TwoPoint(0j, 1j, 0.0), -0.5, estimator="closed")
    assert rep.abs_moment == 1.0 and rep.satisfied
    # with positive weight there, E|Z|^-0.5 diverges
    with pytest.raises(MomentExistenceError):
        _abs_moment(TwoPoint(0j, 1j, 0.5), -0.5, MCConfig())
    with pytest.raises(MomentExistenceError):
        half_plane_bound_check(TwoPoint(0j, 1j, 0.5), -0.5, estimator="closed")
    assert _abs_moment(TwoPoint(0j, 1j, 0.5), 0.5, MCConfig()) == (0.5, 0.0)


def test_poincare_half_plane_bound_mc():
    rep = half_plane_bound_check(POIN, 0.5, estimator="mc", mc=MCConfig(samples=100_000, seed=5))
    assert abs(rep.moment_abs - 1.0) < 1e-12  # |i**0.5| via the closed moment
    assert rep.satisfied
    assert rep.meta["estimator"] == "mc"


def test_abs_moment_memory_bounded_in_blocks(monkeypatch):
    def peak_bytes(blocks):
        tracemalloc.start()
        try:
            _abs_moment(POIN, 0.5, MCConfig(samples=blocks * 4096, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setenv("FRACMEAN_THREADS", "1")
    reference = peak_bytes(16)
    large = peak_bytes(256)
    assert large <= 1.5 * reference, (reference, large)


def test_unit_p_is_vacuous_but_reported():
    rep = half_plane_bound_check(POIN, 1.0, estimator="mc", mc=MCConfig(samples=50_000, seed=6))
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
        half_plane_bound_check(law, 0.75, estimator="closed")
    rep = half_plane_bound_check(law, 0.75, estimator="closed", declare_support="lower")
    assert not rep.satisfied
    assert rep.abs_moment == 1.0
    assert rep.bound <= 1e-14


def test_general_bound_point_mass_and_two_point():
    rep = general_bound_check(TwoPoint(1.0, 1.0, 0.5), 0.25, estimator="closed")
    assert rep.satisfied and abs(rep.abs_moment - 1.0) < 1e-15
    rep = general_bound_check(TwoPoint(1.0, -1.0, 0.5), 0.25, estimator="closed")
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
        estimator = "mc" if isinstance(law, Poincare) else "closed"
        rep = half_plane_bound_check(law, p, estimator=estimator, mc=MCConfig(samples=20_000, seed=trial))
        assert rep.satisfied, (law, p, rep)


def test_random_general_laws_any_atoms():
    rng = np.random.default_rng(9)
    for trial in range(1000):
        z1 = complex(rng.normal(), rng.normal()) or 1.0
        z2 = complex(rng.normal(), rng.normal()) or -1j
        law = TwoPoint(z1, z2, float(rng.uniform(0.0, 1.0)))
        p = float(rng.uniform(-0.45, 0.45))
        rep = general_bound_check(law, p, estimator="closed")
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


def test_slln_rejects_real_supported_laws():
    with pytest.raises(SupportError):
        geometric_slln_demo(Cauchy(0.0, 1.0), 1000, seed=1)
