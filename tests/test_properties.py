"""Property tests of the scalar and array kernels against mpmath."""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings
from hypothesis import strategies as st

from fracmean.gammafn import gamma
from fracmean.principal import np_principal_pow, principal_pow

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
