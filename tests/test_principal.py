"""Principal-branch arithmetic, the complex Gamma function, and the
half-plane power bound."""

import cmath
import math
import warnings

import numpy as np
import pytest

from fracmean.gammafn import GammaPoleError, gamma
from fracmean.principal import (
    BranchDomainError,
    np_principal_log,
    np_principal_pow,
    power_bound_constant,
    principal_log,
    principal_pow,
)

SQRT_PI = 1.7724538509055159
# |Gamma(1-i)| = sqrt(pi / sinh(pi)), a reflection-formula identity
ABS_GAMMA_ONE_MINUS_I = math.sqrt(math.pi / math.sinh(math.pi))


def test_principal_log_pins_the_branch():
    assert principal_log(1) == 0
    assert principal_log(-1) == complex(0, math.pi)  # theta = +pi, never -pi
    assert principal_log(complex(-1, -0.0)) == complex(0, math.pi)
    assert principal_log(1j) == complex(0, math.pi / 2)
    with pytest.raises(BranchDomainError):
        principal_log(0)


def test_principal_pow_examples():
    assert principal_pow(0, 2.5) == 0
    assert principal_pow(0, 0) == 0  # 0**lam = 0 for every lam, including 0
    assert principal_pow(0, -1 + 2j) == 0
    got = principal_pow(1j, -0.5)
    want = cmath.exp(-1j * math.pi / 4)
    assert abs(got - want) < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = complex(*rng.normal(size=2))
        assert abs(principal_pow(z, 1.0) - z) < 1e-15 * abs(z)


def test_power_addition_law_shares_one_log():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        z = complex(*rng.normal(size=2))
        if z == 0:
            continue
        l1 = complex(*rng.normal(size=2))
        l2 = complex(*rng.normal(size=2))
        lhs = principal_pow(z, l1 + l2)
        rhs = principal_pow(z, l1) * principal_pow(z, l2)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


def test_integer_powers_match_repeated_multiplication():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        z = complex(*rng.normal(size=2))
        if abs(z) < 1e-3:
            continue
        for n in range(-8, 9):
            direct = 1.0 + 0j
            for _ in range(abs(n)):
                direct = direct * z if n > 0 else direct / z
            got = principal_pow(z, n)
            assert abs(got - direct) <= 1e-10 * max(abs(direct), 1e-30)


def test_branch_cut_breaks_product_rule():
    # (zw)**lam = z**lam w**lam fails across the cut; keep a counterexample
    z = w = cmath.exp(3j * math.pi / 4)
    lam = 0.5
    lhs = principal_pow(z * w, lam)
    rhs = principal_pow(z, lam) * principal_pow(w, lam)
    assert abs(lhs - rhs) > 0.5


def test_np_principal_pow_matches_scalar_and_handles_cut():
    zs = np.array([2.0, -3.0, 1j, -1 - 1j, 0.0, complex(-2.0, -0.0)])
    lam = -0.7 + 0.2j
    got = np_principal_pow(zs, lam)
    for z, g in zip(zs, got):
        assert abs(g - principal_pow(z, lam)) < 1e-14 * max(abs(g), 1.0)


# signed zeros, the cut approached with -0.0j, and magnitudes whose squares
# overflow or underflow a double, so |z| must be found without squaring
_PARTS = (0.0, -0.0, 1.0, -2.5, 1e-300, -1e-300, 1e300, -1e300)
CUT_POINTS = np.array([complex(x, y) for x in _PARTS for y in _PARTS if complex(x, y) != 0])
CUT_ORDERS = (0.0, 1.0, 0.5, -0.5, -1.0, -0.7 + 0.2j, 0.3 + 3j, -0.4 - 3j, 1 - 3j, 3j)
ZEROS = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])


def test_np_principal_log_matches_scalar_on_branch_cut_points():
    got = np_principal_log(CUT_POINTS)
    for z, g in zip(CUT_POINTS, got):
        assert abs(g - principal_log(z)) <= 1e-14 * abs(principal_log(z)), z
        if z.real < 0 and z.imag == 0.0:
            assert g.imag == math.pi, z  # +pi also when the input carries -0.0j


def test_np_principal_pow_matches_scalar_on_branch_cut_points():
    assert any(z.real < 0 and math.copysign(1.0, z.imag) < 0 and z.imag == 0 for z in CUT_POINTS)
    for lam in CUT_ORDERS:
        got = np_principal_pow(CUT_POINTS, lam)
        for z, g in zip(CUT_POINTS, got):
            want = principal_pow(z, lam)
            assert abs(g - want) <= 1e-14 * abs(want), (z, lam)


def test_np_principal_pow_zero_to_any_order_is_zero_without_warning():
    mixed = np.concatenate([ZEROS, CUT_POINTS])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for lam in CUT_ORDERS:
            got = np_principal_pow(mixed, lam)
            assert np.all(got[: len(ZEROS)] == 0), lam
            assert np.all(got[len(ZEROS):] != 0), lam
            assert np_principal_pow(0j, lam) == 0, lam


def _hypot_log(z):
    # the reference kernel: |z| from hypot on the real and imaginary parts
    return np.log(np.hypot(z.real, z.imag)) + 1j * np.arctan2(z.imag + 0.0, z.real)


def _hypot_pow(z, lam):
    log_r, theta = np.log(np.hypot(z.real, z.imag)), np.arctan2(z.imag + 0.0, z.real)
    a, b = lam.real, lam.imag
    mag, phi = np.exp(a * log_r - b * theta), a * theta + b * log_r
    return mag * np.cos(phi) + 1j * mag * np.sin(phi)


def test_array_kernels_match_hypot_reference_at_extreme_moduli():
    # the moduli agree to about one ulp, which can move log|z| by one ulp of
    # itself, and z**lam = exp(lam log z) by |lam| ulp(log|z|) relative: up
    # to 1.1e-13 * |lam| at |z| = 1e+-300, a few eps near |z| = 1
    eps = np.finfo(float).eps
    rng = np.random.default_rng(43)
    size = 100_000
    z = 10.0 ** rng.uniform(-300.0, 300.0, size) * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    want = _hypot_log(z)
    assert np.all(np.abs(np_principal_log(z) - want) <= 2.0 * eps * np.maximum(np.abs(want), 1.0))
    log_mod = np.abs(np.log(np.abs(z)))
    for lam in (0.5, -1.0, 0.3 + 3j):
        want = _hypot_pow(z, complex(lam))
        tol = 4.0 * eps * (1.0 + abs(lam) * (1.0 + log_mod)) * np.abs(want)
        assert np.all(np.abs(np_principal_pow(z, lam) - want) <= tol), lam


def test_gamma_classic_values():
    assert abs(gamma(1.0) - 1.0) <= 1e-12
    assert abs(gamma(0.5) - SQRT_PI) <= 1e-12
    assert abs(gamma(-0.5) - (-2.0 * SQRT_PI)) <= 1e-11
    assert abs(gamma(10.0) - 362880.0) <= 1e-6
    assert abs(abs(gamma(1 - 1j)) - ABS_GAMMA_ONE_MINUS_I) <= 1e-13


def test_gamma_poles_raise():
    for bad in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(GammaPoleError):
            gamma(bad)


def test_gamma_recurrence_off_poles():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 500:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < 0.1 and z.real < 0.6:
            continue
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
        checked += 1


def test_gamma_reflection():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 500:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
            continue
        lhs = gamma(z) * gamma(1 - z)
        rhs = cmath.pi / cmath.sin(cmath.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        checked += 1


def test_power_bound_constant_values():
    assert abs(power_bound_constant(-1.0) - 1.0) <= 1e-12
    assert abs(power_bound_constant(-0.5) - 1.0) <= 1e-12
    want = math.exp(math.pi / 2) / ABS_GAMMA_ONE_MINUS_I  # Gamma(1) = 1
    assert abs(power_bound_constant(-1 + 1j) - want) <= 1e-12 * want
    with pytest.raises(BranchDomainError):
        power_bound_constant(0.5)
    with pytest.raises(BranchDomainError):
        power_bound_constant(1j)


def test_half_plane_power_bound_is_exact_inequality():
    # |z**lam| <= C(lam) |Im z|**Re(lam), no tolerance on the direction
    rng = np.random.default_rng(41)
    count = 0
    while count < 10_000:
        z = complex(rng.standard_cauchy(), rng.standard_cauchy())
        if z.imag == 0.0:
            continue
        lam = complex(rng.uniform(-3.0, -1e-6), rng.uniform(-2.0, 2.0))
        bound = power_bound_constant(lam) * abs(z.imag) ** lam.real
        assert abs(principal_pow(z, lam)) <= bound
        count += 1
