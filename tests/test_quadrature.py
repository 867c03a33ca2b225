"""The semi-infinite integrator against Gamma-integral ground truth."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fracmean.gammafn import gamma
from fracmean.principal import principal_pow
from fracmean.quad import (
    NonConvergenceError,
    QuadraturePreconditionError,
    QuadratureConfig,
    _de_finite,
    integrate_singular_decaying,
    tanh_sinh_nodes,
)

SQRT_PI = 1.7724538509055159


def test_gamma_integral_singular_endpoint():
    res = integrate_singular_decaying(lambda t: np.exp(-t), 0.5)
    assert abs(res.value - SQRT_PI) <= 1e-9
    assert res.err_estimate >= abs(res.value - SQRT_PI)
    assert res.evaluations > 0


def test_power_overflow_is_nonconvergence():
    # t**400 leaves the float range past t ~ 5.9, inside the integration range
    with pytest.raises(NonConvergenceError, match="not finite"):
        integrate_singular_decaying(lambda t: np.exp(-t), 401.0)


def test_tail_past_the_float_range_neither_warns_nor_raises():
    # at a = 101 the tail's v**(-102) overflows at nodes where e^(-1/v) has
    # already underflowed to 0, and those terms are 0; at a = 401 it overflows
    # where e^(-1/v) is not 0 yet, a term the walk reports as not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_singular_decaying(lambda t: np.exp(-t), 101.0)
        want = math.factorial(100)
        assert abs(res.value - want) <= 1e-12 * want
        with pytest.raises(NonConvergenceError, match="not finite"):
            integrate_singular_decaying(lambda t: np.exp(-t), 401.0)


def test_plain_exponential():
    res = integrate_singular_decaying(lambda t: np.exp(-t), 1.0)
    assert abs(res.value - 1.0) <= 1e-10


def test_oscillatory_decaying_matches_gamma_times_power():
    res = integrate_singular_decaying(lambda t: np.exp((1j - 1.0) * t), 0.5)
    want = gamma(0.5) * principal_pow(1.0 - 1j, -0.5)
    assert abs(res.value - want) <= 1e-9


def test_complex_exponent_is_principal():
    # int_0^inf t**(a-1) e^-t dt = Gamma(a), with t**(a-1) = t**Re(a-1) e^{i Im(a) log t}
    for a in (0.5 + 0.3j, 0.1 - 0.7j, 2.3 + 0.4j):
        res = integrate_singular_decaying(lambda t: np.exp(-t), a)
        assert abs(res.value - complex(mpmath.gamma(a))) <= res.err_estimate
    real = integrate_singular_decaying(lambda t: np.exp(-t), 0.5)
    assert integrate_singular_decaying(lambda t: np.exp(-t), complex(0.5, -0.0)) == real
    with pytest.raises(QuadraturePreconditionError):
        integrate_singular_decaying(lambda t: np.exp(-t), 0.5j)


@pytest.mark.parametrize("a", [1e-4, 1e-2, 0.0255])
def test_a_small_order_keeps_its_digits(a):
    # int_0^inf t**(a-1) e^-t dt = Gamma(a), about 1/a: g(0)/a is split off
    # the head, whose integrand then vanishes at 0, and a is taken as given,
    # not as 1 + (a - 1), so the mass below the innermost node is not lost
    res = integrate_singular_decaying(lambda t: np.exp(-t), a)
    want = float(mpmath.gamma(a))
    assert abs(res.value - want) <= res.err_estimate <= 1e-13 * want


def test_a_plain_integrand_carries_no_companion_error():
    # a companion that is 0 at every node, and at t = 0, has no rounding to carry
    for a in (0.5, 1e-4, 2.3 + 0.4j):
        res = integrate_singular_decaying(lambda t: np.exp((1j - 1.0) * t), a)
        assert res.companion == 0 and res.companion_err == 0.0
    res = integrate_singular_decaying(lambda t: (np.exp(-t), np.zeros_like(t)), 0.5)
    assert res.companion == 0 and res.companion_err == 0.0


def test_an_integrand_not_finite_at_the_origin_is_refused():
    # the head subtracts g(0), so g must be finite there
    with pytest.raises(NonConvergenceError, match="not finite at t=0"):
        integrate_singular_decaying(lambda t: np.where(t == 0, np.inf, np.exp(-t)), 0.5)


def test_the_levels_wait_for_the_companion():
    # e^-t converges by level 3, while 1e-3 e^{(10i - 1/2) t} needs about four
    # more; the levels stop only when both meet the value's tolerance, so the
    # companion is resolved too (it erred by 6e-5 at the value's levels)
    want = 1e-3 / (0.5 - 10j)
    res = integrate_singular_decaying(lambda t: (np.exp(-t), 1e-3 * np.exp((10j - 0.5) * t)), 1.0)
    alone = integrate_singular_decaying(lambda t: np.exp(-t), 1.0)
    assert res.evaluations > 4 * alone.evaluations
    assert abs(res.companion - want) <= res.companion_err <= 1e-9
    assert abs(res.value - 1.0) <= res.err_estimate


def test_mass_near_one_end_survives_a_larger_far_end():
    # on (1, T), T ~ 3354, the integrand is e^-500 at the centre but 1e-60
    # near T, so a walk from the centre toward t = 1 meets three negligible
    # terms before the mass at every level past the first, and must not stop
    # there
    def g(t):
        return np.exp(-t / 3.0) + 1e-60 * np.exp(-(((t - 2500.0) / 200.0) ** 2))

    (value, err, _), _, _ = _de_finite(lambda t: (g(t), 0.0), 1.0, 3354.0, QuadratureConfig())
    want = 3.0 * math.exp(-1.0 / 3.0)
    assert abs(value - want) <= 1e-9 and err <= 1e-9


def test_algebraic_tail():
    # int_0^inf t**(-1/2) (1 + t)**-2 dt = B(1/2, 3/2) = pi / 2: no exponential decay
    res = integrate_singular_decaying(lambda t: (1.0 + t) ** -2, 0.5)
    assert abs(res.value - 0.5 * math.pi) <= 1e-9
    assert res.err_estimate >= abs(res.value - 0.5 * math.pi)


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 1.0])
def test_gamma_self_test_grid(a):
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
    res = integrate_singular_decaying(lambda t: np.exp(-t), a, cfg)
    want = gamma(a).real
    assert abs(res.value - want) <= cfg.rel_tol * abs(want) + cfg.abs_tol


def test_positive_power_weight():
    # t**3 e^-2t integrates to Gamma(4)/2**4
    res = integrate_singular_decaying(lambda t: np.exp(-2.0 * t), 4.0)
    want = 6.0 / 16.0
    assert abs(res.value - want) <= 1e-9


def test_linearity():
    cfg = QuadratureConfig()
    g1 = lambda t: np.exp(-t)
    g2 = lambda t: np.exp((2j - 1.0) * t)
    a, b = 2.0 - 1j, 0.5j
    combined = integrate_singular_decaying(lambda t: a * g1(t) + b * g2(t), 0.7, cfg)
    parts = a * integrate_singular_decaying(g1, 0.7, cfg).value + b * integrate_singular_decaying(g2, 0.7, cfg).value
    tol = 3.0 * (combined.err_estimate + 1e-10)
    assert abs(combined.value - parts) <= tol


def test_refinement_monotonicity_of_error_estimate():
    # with tolerances beyond reach the level cap is hit and the exception
    # carries the last-two-level disagreement; it must shrink with the cap
    errs = []
    for cap in (4, 5, 6):
        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300, max_level=cap)
        try:
            res = integrate_singular_decaying(lambda t: np.exp((5j - 1.0) * t), 0.5, cfg)
            errs.append(res.err_estimate)
        except NonConvergenceError as exc:
            errs.append(exc.err_estimate)
    assert errs[0] >= errs[1] >= errs[2]


def test_precondition_s_out_of_range():
    with pytest.raises(QuadraturePreconditionError):
        integrate_singular_decaying(lambda t: np.exp(-t), 0.0)


def test_nonconvergence_raises_at_level_cap():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-15, max_level=3)
    with pytest.raises(NonConvergenceError):
        integrate_singular_decaying(lambda t: np.exp(-t), 0.1, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for bad in (math.nan, math.inf):  # nan would drop the relative test, inf stop every refinement
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(rel_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(abs_tol=bad)
    with pytest.raises(ValueError):
        QuadratureConfig(max_level=2)
    with pytest.raises(ValueError):
        QuadratureConfig(max_level=15)


def _pair_integrand(t):
    # a value that decays and a companion that oscillates, as a level gap does
    return np.exp((1j - 1.0) * t), 1e-3 * np.exp((5j - 0.5) * t)


def _one_at_a_time(f):
    """f called on a one-element array per abscissa, the outputs joined."""

    def each(ts):
        outs = [f(ts[i : i + 1]) for i in range(len(ts))]
        if type(outs[0]) is not tuple:
            return np.concatenate(outs)
        return tuple(np.concatenate([np.broadcast_to(part, 1) for part in parts]) for parts in zip(*outs))

    return each


# a pair of arrays, a value alone, and a pair with a scalar companion
INTEGRANDS = {
    "pair": _pair_integrand,
    "value": lambda t: np.exp(-t) * np.cos(3.0 * t),
    "scalar_companion": lambda t: (np.exp((2j - 1.0) * t), 0.0),
}


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1e-4, 1.0), (1.0, 3354.0)])
def test_array_walk_matches_a_walk_of_one_element_calls(integrand, a, b):
    cfg = QuadratureConfig()
    f, calls = INTEGRANDS[integrand], []
    pair = f if integrand != "value" else lambda t: (f(t), 0.0)
    want = _de_finite(_one_at_a_time(pair), a, b, cfg)
    got = _de_finite(lambda t: calls.append(len(t)) or pair(t), a, b, cfg)
    assert got == want  # value, error and size of each component and the evaluations, bit for bit
    # the walk computes little more than it uses, in few calls
    assert got[2] <= sum(calls) <= 1.1 * got[2]
    assert len(calls) <= got[2] / 4


@pytest.mark.parametrize("integrand", INTEGRANDS)
def test_array_integrands_give_the_bits_of_one_element_calls(integrand):
    # the start value g(0) included
    cfg = QuadratureConfig()
    for integrate in (
        lambda f: integrate_singular_decaying(f, 0.5, cfg),
        lambda f: integrate_singular_decaying(f, 0.7 - 0.1j, cfg),
    ):
        want = integrate(_one_at_a_time(INTEGRANDS[integrand]))
        got = integrate(INTEGRANDS[integrand])
        assert got == want


def test_an_overflowing_tail_term_is_not_finite_whether_given_an_array_or_one_abscissa():
    # t**400 leaves the float range in the tail: the walk reports the term
    # that overflows, after the same evaluations either way
    errors = []
    for f in (lambda t: np.exp(-t), _one_at_a_time(lambda t: np.exp(-t))):
        with pytest.raises(NonConvergenceError, match="not finite") as info:
            integrate_singular_decaying(f, 401.0)
        errors.append((str(info.value), info.value.evaluations))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_singular_decaying(f, 0.5),
    lambda f: integrate_singular_decaying(f, 1e-4),
])
def test_an_integrand_of_the_wrong_shape_is_refused(integrate):
    # three values whatever the abscissae, a companion of its own shape, or
    # three outputs
    for f in (lambda t: np.ones(3), lambda t: (np.exp(-t), np.zeros(2)), lambda t: (np.exp(-t), 0.0, 0.0)):
        with pytest.raises(QuadraturePreconditionError, match="shape"):
            integrate(f)
    assert integrate(lambda t: np.exp(-t)).evaluations > 0


def test_node_table_is_computed_once_and_read_only():
    rule = tanh_sinh_nodes(5, 1e-300)
    assert tanh_sinh_nodes(5, 1e-300) is rule
    for part in rule:
        with pytest.raises(ValueError):
            part[0] = 0
