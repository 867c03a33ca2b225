"""Property tests of the scalar and array kernels against mpmath."""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmean.distributions import Cauchy, Empirical, Poincare, ScaledT3
from fracmean.gammafn import gamma
from fracmean.moments import Route, closed_moment, frac_moment, frac_moment_neg, frac_moment_pos
from fracmean.principal import _scaled_phasor, np_principal_pow, principal_pow

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)


def _away_from_poles(z):
    # the reflection formula loses relative accuracy next to a pole
    return abs(z) <= 20.0 and (z.real > 0.5 or abs(z - round(z.real)) >= 0.05)


@settings(max_examples=300, deadline=None)
@given(finite, finite)
def test_gamma_relative_error_within_docstring_promise(x, y):
    z = complex(x, y)
    hypothesis.assume(_away_from_poles(z))
    want = complex(mpmath.gamma(mpmath.mpc(x, y)))
    hypothesis.assume(want != 0 and math.isfinite(abs(want)))
    assert abs(gamma(z) - want) <= 1e-12 * abs(want), (z, gamma(z), want)


def _mp_pow(z, lam):
    # principal branch: mpmath's log has its argument in (-pi, pi]
    return complex(mpmath.exp(lam * mpmath.log(mpmath.mpc(z.real, z.imag))))


moduli = st.floats(min_value=1e-3, max_value=1e3)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
orders = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=300, deadline=None)
@given(moduli, angles, orders, orders)
def test_principal_pow_matches_mpmath(r, theta, a, b):
    z = cmath.rect(r, theta)
    lam = complex(a, b)
    want = _mp_pow(z, lam)
    hypothesis.assume(want != 0 and math.isfinite(abs(want)))
    assert abs(principal_pow(z, lam) - want) <= 1e-13 * abs(want), (z, lam)
    got = np_principal_pow(np.array([z]), lam)[0]
    assert abs(got - want) <= 1e-13 * abs(want), (z, lam, got, want)


EPS = np.finfo(float).eps


def test_scaled_phasor_matches_mpmath_out_to_huge_angles():
    rng = np.random.default_rng(47)
    far = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-3.0, 9.0, 2000)
    phi = np.concatenate([rng.uniform(-4.0, 4.0, 2000), far, [math.pi, -math.pi, 0.5 * math.pi, 1e9, -1e9]])
    got = _scaled_phasor(np.ones_like(phi), phi.copy())
    want = np.array([complex(mpmath.expj(p)) for p in phi.tolist()])
    assert np.max(np.abs(got - want)) <= 2.0 * EPS


def test_scaled_phasor_scales_a_tiny_modulus_without_underflow():
    # (-1e-300)**1: phi = pi, where 1 + tan(phi/2)**2 is about 2.7e32
    got = _scaled_phasor(np.array([1e-300]), np.array([math.pi]))[0]
    assert got.real == -1e-300
    assert abs(got.imag - 1e-300 * math.sin(math.pi)) <= 2.0 * EPS * 1e-300 * math.sin(math.pi)
    got = np_principal_pow(np.array([-1e-300]), 1.0)[0]
    assert abs(got + 1e-300) <= 4.0 * EPS * (2.0 + math.log(1e300)) * 1e-300, got


def test_np_principal_pow_matches_mpmath_at_extreme_moduli():
    # the tolerance of the hypot-reference test in test_principal.py: one ulp
    # of log|z| moves z**lam by |lam| ulp(log|z|) relative
    rng = np.random.default_rng(53)
    size = 1000
    z = 10.0 ** rng.uniform(-300.0, 300.0, size) * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    z[:4] = [-2.5, complex(-2.5, -0.0), -1e-300, complex(-1e300, -0.0)]  # the cut takes theta = +pi
    log_mod = np.abs(np.log(np.abs(z)))
    for lam in (0.5, -1.0, -0.7 + 0.2j, 0.3 + 3j):
        want = np.array([_mp_pow(w, lam) for w in z.tolist()])
        tol = 4.0 * EPS * (1.0 + abs(lam) * (1.0 + log_mod)) * np.abs(want)
        assert np.all(np.abs(np_principal_pow(z, lam) - want) <= tol), lam


atom_moduli = st.floats(min_value=0.1, max_value=10.0)
real_atoms = st.tuples(atom_moduli, st.sampled_from([1.0, -1.0])).map(lambda t: complex(t[0] * t[1], 0.0))
upper_atoms = st.tuples(atom_moduli, st.floats(min_value=0.0, max_value=math.pi)).map(lambda t: cmath.rect(*t))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(real_atoms, upper_atoms), min_size=1, max_size=7),
    st.one_of(st.floats(min_value=-2.99, max_value=-1e-4), st.floats(min_value=1e-4, max_value=2.99)),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, 0.5]),
)
# once understated by the rounding of a near-origin fit of the positive orders
@example(
    [0.9172890062609872 + 0j, 0.9172890062609872 + 0j, cmath.rect(0.25, 1.617679733056225),
     cmath.rect(0.25, 2.97265625), 0.9140625 + 0j],
    2.9175879834558676, 0.0, 0.0,
)
@example([1.5 + 0j, -0.25 + 0j, cmath.rect(2.0, 0.3)], 2.0, 0.0, 0.5)  # lam = k: h(0) alone
@example([1.5 + 0j, -0.25 + 0j, cmath.rect(2.0, 0.3)], 1.0, 0.4, 0.0)  # Re(lam - k) = -1
def test_rotated_atom_moments_match_closed_form(atoms, a, b, shift):
    # atoms on the real axis and in the upper half plane, every one on its
    # own steepest-descent ray inside one Riemann-Liouville integral, of
    # order lam - k just below 0 where lam lies just below an integer k or 0,
    # or -1 where lam - k would be a nonzero imaginary number; at lam = k, no integral.
    # A shift moves the law down by shift*i and alpha = shift*i moves it
    # back, so real atoms come from a law with complex support.
    lam = complex(a, b)
    law = Empirical(tuple(z - 1j * shift for z in atoms))
    alpha = 1j * shift
    est = (frac_moment_neg if a < 0 else frac_moment_pos)(law, alpha, lam)
    want = closed_moment(law, alpha, lam)
    size = float(np.mean(np.abs(np_principal_pow(law.atoms + alpha, lam))))
    err = abs(est.value - want)
    assert err <= est.uncertainty, (atoms, lam, shift, err, est.uncertainty)
    assert err <= 1e-8 * size, (atoms, lam, shift, err, size)


DENSITY_LAWS = [(Cauchy(0.0, 1.0), 1j), (Cauchy(0.3, 2.0), 0.5 + 0.5j), (ScaledT3(0.0, 1.0), 1j),
                (ScaledT3(-0.5, 2.0), 0.2j), (Poincare(1.0, 0.0, 1.0), 0j), (Poincare(2.0, 1.0, 1.0), 0.3 + 0.1j)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(DENSITY_LAWS),
    st.integers(min_value=-2, max_value=2),
    st.one_of(st.floats(min_value=-0.03, max_value=-1e-4), st.floats(min_value=1e-4, max_value=0.03),
              st.floats(min_value=-0.97, max_value=0.97)),
    st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0)),
)
def test_quad_moments_of_density_laws_match_closed_form(law_alpha, whole, offset, b):
    # Re lam in (-3, 3), within 0.03 of 0 and of each integer among the
    # rest, where the Riemann-Liouville order lam - k reaches 0 or -1, and
    # on them: the Mellin line and the integer orders
    law, alpha = law_alpha
    lam = complex(whole + offset, b)
    hypothesis.assume(-3.0 < lam.real < getattr(law, "max_moment", 3.0))
    est = frac_moment(law, alpha, lam, Route.QUAD)
    want = closed_moment(law, alpha, lam)
    err = abs(est.value - want)
    assert err <= est.uncertainty <= 1e-8 * max(1.0, abs(want)), (law, alpha, lam, err, est.uncertainty)
