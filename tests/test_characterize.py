"""Determining-set validators and the moment-function distinguisher."""

import json
import math

import numpy as np
import pytest

from fracmean.characterize import (
    AlphaSequence,
    FixAlpha,
    FixLambda,
    LambdaSequence,
    Verdict,
    alpha_sequence_from_tag,
    blaschke_divergence_check,
    disk_map,
    distinguish,
    lambda_sequence_from_tag,
    muntz_divergence_check,
    sequence_from_json,
)
from fracmean.distributions import Cauchy, ScaledT3
from fracmean.moments import MCConfig, Route, frac_moment

CAUCHY = Cauchy(0.0, 1.0)
T3 = ScaledT3(0.0, 1.0)
EULER_GAMMA = 0.5772156649015329


def test_moment_function_delegates():
    # the moment function F(alpha, lam) = E[(X + alpha)**lam] is frac_moment
    est = frac_moment(CAUCHY, 1j, -0.5)
    assert abs(est.value - (0.5 - 0.5j)) < 1e-14
    est = frac_moment(T3, 1j, -0.5)
    assert abs(est.value - (0.625 - 0.625j)) < 1e-14
    est = frac_moment(CAUCHY, 1j, 0.0)
    assert est.value == 1.0


def test_harmonic_alpha_sequence_is_calibrated():
    seq = alpha_sequence_from_tag("harmonic", a=1.0, n_terms=200)
    # inverse of the disk map puts |phi(z_n)| = 1 - 1/n exactly
    mods = [abs(disk_map(z, 1.0)) for z in seq.points[:10]]
    for n, m in enumerate(mods, start=1):
        assert abs(m - (1.0 - 1.0 / n)) < 1e-12
    report = blaschke_divergence_check(seq)
    assert report.verdict is Verdict.DIVERGENCE_INDICATED
    n_terms = len(report.partial_sums)
    assert abs(report.partial_sums[-1] - (math.log(n_terms) + EULER_GAMMA)) < 0.01


def test_geometric_alpha_sequence_inconclusive():
    report = blaschke_divergence_check(alpha_sequence_from_tag("geometric", a=1.0))
    assert report.verdict is Verdict.INCONCLUSIVE
    assert abs(report.partial_sums[-1] - 1.0) < 1e-10


def test_constant_alpha_sequence_diverges():
    seq = alpha_sequence_from_tag("constant", a=1.0, n_terms=100)
    report = blaschke_divergence_check(seq)
    assert report.verdict is Verdict.DIVERGENCE_INDICATED
    assert abs(report.partial_sums[-1] - 100.0) < 1e-12  # phi = 0 at (a+1)i


def test_alpha_sequence_point_validation():
    with pytest.raises(ValueError):
        blaschke_divergence_check(AlphaSequence(a=1.0, points=tuple([0.5j] * 20)))
    with pytest.raises(ValueError):
        AlphaSequence(a=1.0, points=(2j, 3j))  # fewer than 10 points


def test_muntz_sequences():
    rep = muntz_divergence_check(lambda_sequence_from_tag("harmonic"))
    assert rep.verdict is Verdict.DIVERGENCE_INDICATED
    rep = muntz_divergence_check(lambda_sequence_from_tag("geometric"))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert abs(rep.partial_sums[-1] - math.pi ** 2 / 6.0) < 0.01
    rep = muntz_divergence_check(lambda_sequence_from_tag("constant", n_terms=120))
    assert rep.verdict is Verdict.DIVERGENCE_INDICATED
    assert rep.partial_sums[-1] == 120.0


def test_muntz_im_bound_violations_reported_not_fatal():
    seq = LambdaSequence(points=tuple(complex(-n, 3.0) for n in range(1, 40)), im_bound=1.0)
    rep = muntz_divergence_check(seq)
    assert len(rep.violations) == 39
    assert rep.verdict is Verdict.DIVERGENCE_INDICATED


def test_muntz_positive_real_part_rejected():
    with pytest.raises(ValueError):
        muntz_divergence_check(LambdaSequence(points=tuple([1.0 - 1j] * 20)))


def test_sequence_json_round_trip():
    blob = json.dumps(
        {"kind": "lambda", "im_bound": 0.5, "points": [[-float(n), 0.0] for n in range(1, 30)]}
    )
    seq = sequence_from_json(blob)
    assert isinstance(seq, LambdaSequence)
    assert muntz_divergence_check(seq).verdict is Verdict.DIVERGENCE_INDICATED


def test_distinguish_same_law_closed_is_zero():
    rep = distinguish(CAUCHY, Cauchy(0.0, 1.0), FixAlpha(1j, (-0.5, -1.0)), Route.CLOSED)
    assert rep.max_discrepancy == 0.0
    assert not rep.distinct
    assert rep.verdict == "not distinguished at this resolution"


def test_distinguish_cauchy_vs_t3_closed_value():
    rep = distinguish(CAUCHY, T3, FixAlpha(1j, (-0.5,)), Route.CLOSED)
    assert abs(rep.max_discrepancy - 0.125 * math.sqrt(2.0)) <= 1e-8
    assert rep.distinct


def test_distinguish_by_quadrature_at_both_signs_of_lambda():
    # one quadrature route takes the Riemann-Liouville and the Marchaud points alike
    mode = FixAlpha(1j, (-0.5, 0.5))
    quad = distinguish(CAUCHY, T3, mode, Route.QUAD)
    closed = distinguish(CAUCHY, T3, mode, Route.CLOSED)
    for got, want in zip(quad.points, closed.points):
        assert abs(got[2] - want[2]) <= 1e-6 and abs(got[3] - want[3]) <= 1e-6
        assert abs(got[4] - want[4]) <= 1e-6


def test_distinguish_scale_perturbation():
    mode = FixLambda(-1.0, (1j, 2j, 3j))
    rep = distinguish(CAUCHY, Cauchy(0.0, 1.1), mode, Route.CLOSED)
    assert rep.max_discrepancy > 0.0
    assert all(point[4] > 0 for point in rep.points)


def test_distinguish_same_law_mc_smoke():
    rep = distinguish(
        CAUCHY,
        Cauchy(0.0, 1.0),
        FixAlpha(1j, (-0.5,)),
        Route.MONTE_CARLO,
        mc=MCConfig(samples=20_000, seed=42),
    )
    assert rep.max_discrepancy <= 5.0 * rep.combined_uncertainty
    blob = rep.to_json()
    assert blob["verdict"] == "not distinguished at this resolution"
