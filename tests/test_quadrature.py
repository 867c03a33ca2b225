"""The two semi-infinite integrators against Gamma-integral ground truth."""

import cmath
import math

import mpmath
import pytest

from fracmean.gammafn import gamma
from fracmean.principal import principal_pow
from fracmean.quad import (
    _CHUNK_FLOATS,
    NonConvergenceError,
    QuadraturePreconditionError,
    QuadratureConfig,
    _de_finite,
    _EvalCounter,
    chunked,
    integrate_marchaud,
    integrate_singular_decaying,
    tanh_sinh_nodes,
)

SQRT_PI = 1.7724538509055159


def test_gamma_integral_singular_endpoint():
    res = integrate_singular_decaying(lambda t: math.exp(-t), -0.5)
    assert abs(res.value - SQRT_PI) <= 1e-9
    assert res.err_estimate >= abs(res.value - SQRT_PI)
    assert res.evaluations > 0


def test_power_overflow_is_nonconvergence():
    # t**400 leaves the float range past t ~ 5.9, inside the integration range
    with pytest.raises(NonConvergenceError, match="not finite"):
        integrate_singular_decaying(lambda t: math.exp(-t), 400.0)


def test_plain_exponential():
    res = integrate_singular_decaying(lambda t: math.exp(-t), 0.0)
    assert abs(res.value - 1.0) <= 1e-10


def test_oscillatory_decaying_matches_gamma_times_power():
    res = integrate_singular_decaying(lambda t: cmath.exp((1j - 1.0) * t), -0.5)
    want = gamma(0.5) * principal_pow(1.0 - 1j, -0.5)
    assert abs(res.value - want) <= 1e-9


def test_complex_exponent_is_principal():
    # int_0^inf t**s e^-t dt = Gamma(1 + s), with t**s = t**Re(s) e^{i Im(s) log t}
    for s in (-0.5 + 0.3j, -0.9 - 0.7j, 1.3 + 0.4j):
        res = integrate_singular_decaying(lambda t: math.exp(-t), s)
        assert abs(res.value - complex(mpmath.gamma(1 + s))) <= res.err_estimate
    real = integrate_singular_decaying(lambda t: math.exp(-t), -0.5)
    assert integrate_singular_decaying(lambda t: math.exp(-t), complex(-0.5, -0.0)) == real
    with pytest.raises(QuadraturePreconditionError):
        integrate_singular_decaying(lambda t: math.exp(-t), -1.0 + 0.5j)


def test_mass_near_one_end_survives_a_larger_far_end():
    # on (1, T), T ~ 3354, the integrand is e^-500 at the centre but 1e-60
    # near T, so a walk from the centre toward t = 1 meets three negligible
    # terms before the mass at every level past the first, and must not stop
    # there
    def g(t):
        return math.exp(-t / 3.0) + 1e-60 * math.exp(-(((t - 2500.0) / 200.0) ** 2))

    (value, err, _), _ = _de_finite(lambda t: (g(t), 0.0), 1.0, 3354.0, QuadratureConfig(), _EvalCounter())
    want = 3.0 * math.exp(-1.0 / 3.0)
    assert abs(value - want) <= 1e-9 and err <= 1e-9


def test_algebraic_tail():
    # int_0^inf t**(-1/2) (1 + t)**-2 dt = B(1/2, 3/2) = pi / 2: no exponential decay
    res = integrate_singular_decaying(lambda t: (1.0 + t) ** -2, -0.5)
    assert abs(res.value - 0.5 * math.pi) <= 1e-9
    assert res.err_estimate >= abs(res.value - 0.5 * math.pi)


@pytest.mark.parametrize("s", [-0.9, -0.5, -0.1, 0.0])
def test_gamma_self_test_grid(s):
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
    res = integrate_singular_decaying(lambda t: math.exp(-t), s, cfg)
    want = gamma(s + 1.0).real
    assert abs(res.value - want) <= cfg.rel_tol * abs(want) + cfg.abs_tol


def test_positive_power_weight():
    # t**3 e^-2t integrates to Gamma(4)/2**4
    res = integrate_singular_decaying(lambda t: math.exp(-2.0 * t), 3.0)
    want = 6.0 / 16.0
    assert abs(res.value - want) <= 1e-9


def test_linearity():
    cfg = QuadratureConfig()
    g1 = lambda t: math.exp(-t)
    g2 = lambda t: cmath.exp((2j - 1.0) * t)
    a, b = 2.0 - 1j, 0.5j
    combined = integrate_singular_decaying(lambda t: a * g1(t) + b * g2(t), -0.3, cfg)
    parts = a * integrate_singular_decaying(g1, -0.3, cfg).value + b * integrate_singular_decaying(g2, -0.3, cfg).value
    tol = 3.0 * (combined.err_estimate + 1e-10)
    assert abs(combined.value - parts) <= tol


def test_refinement_monotonicity_of_error_estimate():
    # with tolerances beyond reach the level cap is hit and the exception
    # carries the last-two-level disagreement; it must shrink with the cap
    errs = []
    for cap in (4, 5, 6):
        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300, max_level=cap)
        try:
            res = integrate_singular_decaying(lambda t: cmath.exp((5j - 1.0) * t), -0.5, cfg)
            errs.append(res.err_estimate)
        except NonConvergenceError as exc:
            errs.append(exc.err_estimate)
    assert errs[0] >= errs[1] >= errs[2]


def test_precondition_s_out_of_range():
    with pytest.raises(QuadraturePreconditionError):
        integrate_singular_decaying(lambda t: math.exp(-t), -1.0)


def test_nonconvergence_raises_at_level_cap():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-15, max_level=3)
    with pytest.raises(NonConvergenceError):
        integrate_singular_decaying(lambda t: math.exp(-t), -0.9, cfg)


def test_marchaud_basic_identity():
    # int (1 - e^-t) t^(-1-d) dt = Gamma(1-d)/d
    res = integrate_marchaud(1.0, lambda u: math.exp(-u), 0.5)
    assert abs(res.value - 2.0 * SQRT_PI) <= 1e-9
    res = integrate_marchaud(1.0, lambda u: math.exp(-u), 0.3)
    want = gamma(0.7).real / 0.3
    assert abs(res.value - want) <= 1e-9


def test_marchaud_zero_integrand():
    res = integrate_marchaud(1.0, lambda u: 1.0, 0.4)
    assert abs(res.value) <= 1e-12


def test_marchaud_complex_phase():
    # f(u) = exp(iu * i) = exp(-u), delta = 0.3, same identity
    res = integrate_marchaud(1.0, lambda u: cmath.exp(1j * u * 1j), 0.3)
    want = gamma(0.7).real / 0.3
    assert abs(res.value - want) <= 1e-9


def test_marchaud_complex_order():
    # exact value Gamma(1-d)/d holds for complex d as well
    delta = 0.5 + 0.2j
    res = integrate_marchaud(1.0, lambda u: math.exp(-u), delta)
    want = gamma(1.0 - delta) / delta
    assert abs(res.value - want) <= 1e-8 * abs(want)


def test_marchaud_lipschitz_violation_detected():
    with pytest.raises(QuadraturePreconditionError):
        integrate_marchaud(1.0, lambda u: 1.0 - math.sqrt(u), 0.5)


def test_marchaud_delta_out_of_range():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(QuadraturePreconditionError):
            integrate_marchaud(1.0, lambda u: math.exp(-u), bad)


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
    return cmath.exp((1j - 1.0) * t), 1e-3 * cmath.exp((5j - 0.5) * t)


def _chunked_form(f, width, calls):
    """f as an integrand of chunks of the given width, recording the size of
    each call."""

    def each(ts):
        calls.append(len(ts))
        pairs = [f(t) for t in ts]
        return [value for value, _ in pairs], [companion for _, companion in pairs]

    return chunked(each, width)


# chunks of one node, of five, and as many as a level asks for
CHUNK_WIDTHS = (_CHUNK_FLOATS, _CHUNK_FLOATS // 5, 1)


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1e-4, 1.0), (1.0, 3354.0)])
def test_chunked_walk_matches_the_node_by_node_walk(width, a, b):
    cfg = QuadratureConfig()
    want_counter, counter, calls = _EvalCounter(), _EvalCounter(), []
    want = _de_finite(_pair_integrand, a, b, cfg, want_counter)
    got = _de_finite(_chunked_form(_pair_integrand, width, calls), a, b, cfg, counter)
    assert got == want  # value, error and size of each component, bit for bit
    assert counter.count == want_counter.count
    assert max(calls) <= max(1, _CHUNK_FLOATS // width)
    # the walk asks for little more than it uses
    assert counter.count <= sum(calls) <= 1.25 * counter.count


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
def test_chunked_integrands_give_the_bits_of_scalar_ones(width):
    # both public integrators, the Marchaud fit windows included
    cfg = QuadratureConfig()
    for integrate in (
        lambda f: integrate_singular_decaying(f, -0.5, cfg),
        lambda f: integrate_marchaud((1.0, 1e-3), f, 0.3 + 0.1j, cfg),
    ):
        want = integrate(_pair_integrand)
        got = integrate(_chunked_form(_pair_integrand, width, []))
        assert got == want


def test_an_overflowing_tail_term_is_not_finite_for_either_kind_of_integrand():
    # t**400 leaves the float range in the tail: the walk reports the term
    # that overflows, a chunked integrand as a scalar one
    for f in (lambda t: math.exp(-t), _chunked_form(lambda t: (math.exp(-t), 0.0), 1, [])):
        with pytest.raises(NonConvergenceError, match="not finite"):
            integrate_singular_decaying(f, 400.0)


def test_node_table_is_computed_once_and_read_only():
    rule = tanh_sinh_nodes(5, 1e-300)
    assert tanh_sinh_nodes(5, 1e-300) is rule
    for part in rule:
        with pytest.raises(ValueError):
            part[0] = 0
