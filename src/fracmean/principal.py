"""Principal-branch complex arithmetic.

Everything in this package fixes one branch: log z = log|z| + i*theta with
theta in (-pi, pi], so the negative real axis carries theta = +pi.  Powers
are z**lam = exp(lam * log z) with the convention 0**lam = 0 for every lam
(including lam = 0).

The array kernels work on the real and imaginary parts with real ufuncs
instead of numpy's complex log.  For z = x + iy they take the polar form

    L = log|z|,    theta = arctan2(y + 0.0, x),

where |z| is numpy's complex abs, which scales like hypot, so it neither
overflows nor underflows at extreme |z| (and it runs on SIMD lanes), and
adding +0.0 turns y = -0.0 into +0.0 so the negative real axis keeps
theta = +pi.  With lam = a + ib a power is assembled from that polar form,

    z**lam = exp(a*L - b*theta) * (cos phi + i sin phi),  phi = a*theta + b*L,

dropping the b terms when lam is real.  One polar form serves any number of
orders lam.  The unit phasor comes from one tangent t = tan(phi/2), as
cos phi = 2/(1+t**2) - 1 and sin phi = t * 2/(1+t**2), because numpy runs
tan on SIMD lanes where cos, sin and complex exp may be scalar libm.  It is
formed before the scaling by exp(a*L - b*theta), so that a tiny modulus
such as |-1e-300| does not underflow inside 2/(1+t**2).

The kernels take their arrays from a Workspace when given one, so that a
Monte Carlo worker reuses the same memory for every group of blocks instead
of allocating, and faulting in, fresh temporaries each time.
"""

import cmath
import math

import numpy as np

from .gammafn import gamma

__all__ = [
    "principal_log",
    "principal_pow",
    "np_principal_log",
    "np_principal_pow",
    "power_bound_constant",
    "BranchDomainError",
]


class BranchDomainError(ValueError):
    """Argument outside the domain of a principal-branch operation."""


def principal_log(z):
    """log|z| + i*theta with theta in (-pi, pi]; domain error at z = 0.

    A zero imaginary part (including -0.0) is snapped to the upper side of
    the cut, so principal_log(-1) = i*pi, never -i*pi.
    """
    z = complex(z)
    if z == 0:
        raise BranchDomainError("principal_log undefined at 0")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.log(z)


def principal_pow(z, lam):
    """exp(lam * principal_log(z)) for z != 0, and exactly 0 for z = 0."""
    z = complex(z)
    if z == 0:
        return 0j
    return cmath.exp(complex(lam) * principal_log(z))


class Workspace:
    """Scratch arrays kept for reuse.  take(key, shape, dtype) returns slot
    key as an array of that shape, and grows the slot when it is too small.
    A slot holds one array at a time: what a caller still needs must sit in
    a slot that nothing in between takes.  A key always has one dtype.

    The slots of a Monte Carlo group, in the order of use: draws (the
    group's draws, whose memory then holds the parts of each order's
    powers, followed by its power means, one row per order); scratch.0-2 and
    scratch.mask (a sampler's temporaries, then the polar form of the draws
    in 0, 1 and mask and the phasor's 2/(1+t**2) in 2, then the block
    moments' deviations in 0 or absolute values in 1); pow.0-2 and pow.mask
    (the polar form and temporaries of np_principal_pow)."""

    def __init__(self):
        self._slots = {}

    def take(self, key, shape, dtype=float):
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        slot = self._slots.get(key)
        if slot is None or slot.size < size:
            slot = self._slots[key] = np.empty(size, dtype)
        return slot[:size].reshape(shape) if isinstance(shape, tuple) else slot[:size]


class _Fresh:
    """The workspace of one-off calls: every take is a new array."""

    def take(self, key, shape, dtype=float):
        return np.empty(shape, dtype)


FRESH = _Fresh()


def _polar(z, ws=FRESH, key="pow"):
    """(log|z|, theta, zero) of a 1-d complex array, in the slots key.0,
    key.1 and key.mask of ws; zero masks the entries z = 0, whose log|z|
    is 0 so that no ufunc warns, or is None when there are none."""
    r = np.abs(z, out=ws.take(key + ".0", z.shape))
    zero = np.equal(r, 0.0, out=ws.take(key + ".mask", z.shape, bool))
    if zero.any():  # |z| >= max(|x|, |y|), so only z = 0 gives 0
        r[zero] = 1.0
    else:
        zero = None
    # +0.0 maps y = -0.0 to +0.0, so the negative real axis keeps theta = +pi
    theta = np.add(z.imag, 0.0, out=ws.take(key + ".1", z.shape))
    return np.log(r, out=r), np.arctan2(theta, z.real, out=theta), zero


def _log_from_polar(log_r, theta, zero):
    """log z from the polar form, with log 0 = -inf."""
    out = np.empty(log_r.shape, dtype=complex)
    out.real = log_r
    out.imag = theta
    if zero is not None:
        out.real[zero] = -np.inf
    return out


def _phasor(mag, phi, re, im, ws=FRESH):
    """The real and imaginary parts of mag * e^{i phi}, for real arrays mag
    and phi, into re and im, through t = tan(phi/2); re may be mag and im
    may be phi.  phi is overwritten."""
    t = np.tan(np.multiply(phi, 0.5, out=phi), out=phi)
    q = np.multiply(t, t, out=ws.take("scratch.2", t.shape))
    np.divide(2.0, np.add(q, 1.0, out=q), out=q)  # 2/(1+t**2)
    np.multiply(np.multiply(t, q, out=t), mag, out=im)
    np.multiply(np.subtract(q, 1.0, out=q), mag, out=re)


def _scaled_phasor(mag, phi, out=None, ws=FRESH):
    """mag * e^{i phi} for real arrays mag and phi, through t = tan(phi/2);
    phi is overwritten."""
    out = np.empty(phi.shape, dtype=complex) if out is None else out
    _phasor(mag, phi, out.real, out.imag, ws)
    return out


def _pow_from_polar(log_r, theta, zero, lam, out=None, ws=FRESH):
    """z**lam from the polar form, with 0**lam = 0, computed in the arrays
    of the polar form, which are lost."""
    a, b = lam.real, lam.imag
    if b != 0.0:  # mag = a L - b theta, phi = a theta + b L
        b_theta = np.multiply(b, theta, out=ws.take("scratch.2", theta.shape))
        b_log_r = np.multiply(b, log_r, out=ws.take("pow.2", log_r.shape))
    mag = np.multiply(a, log_r, out=log_r)
    phi = np.multiply(a, theta, out=theta)
    if b != 0.0:
        mag -= b_theta
        phi += b_log_r
    out = _scaled_phasor(np.exp(mag, out=mag), phi, out, ws)
    if zero is not None:
        out[zero] = 0.0
    return out


def np_principal_log(z):
    """Vectorized principal_log. Entries on the negative real axis get +pi;
    entries z = 0 get -inf, without a warning."""
    z = np.asarray(z, dtype=complex)
    return _log_from_polar(*_polar(z.reshape(-1))).reshape(z.shape)


def _expm1(x, y):
    """e^(x + iy) - 1 for real arrays x and y, accurate where x + iy is
    small: Re = expm1(x) cos(y) - 2 sin(y/2)**2, Im = e^x sin(y)."""
    out = np.empty(np.shape(x), dtype=complex)
    half = np.sin(0.5 * y)
    out.real = np.expm1(x) * np.cos(y) - 2.0 * half * half
    out.imag = np.exp(x) * np.sin(y)
    return out


def _log1p(m):
    """log(1 + m) of a complex array with |m| < 1/2, accurate where m is
    small, as numpy's complex log1p is not: the modulus is
    log1p(|1 + m|**2 - 1) / 2 with |1 + m|**2 - 1 = Re m (2 + Re m) +
    (Im m)**2, free of the cancellation in 1 + Re m."""
    out = np.empty(m.shape, dtype=complex)
    out.real = 0.5 * np.log1p(m.real * (2.0 + m.real) + m.imag * m.imag)
    out.imag = np.arctan2(m.imag, 1.0 + m.real)
    return out


def _root1p(m, p):
    """(1 + m)**(1/p) of a complex array with |m| < 1/2, as exp(log1p(m) / p),
    which keeps the digits that 1 + m rounds away: with m the mean of
    expm1(p log z), a power mean near p = 0 keeps its digits."""
    log_mean = _log1p(m)
    return np.exp(log_mean.real / p) * np.exp(1j * (log_mean.imag / p))


def np_principal_pow(z, lam, out=None, ws=FRESH):
    """Vectorized principal_pow with the 0**lam = 0 convention.  out may be
    z itself; ws lends the scratch arrays."""
    z = np.asarray(z, dtype=complex)
    if out is not None:
        out = out.reshape(-1)
    return _pow_from_polar(*_polar(z.reshape(-1), ws), complex(lam), out, ws).reshape(z.shape)


def power_bound_constant(lam):
    """Constant C with |z**lam| <= C * |Im z|**Re(lam) for all z off the real axis.

    C = Gamma(-Re lam) * exp(pi |Im lam| / 2) / |Gamma(-lam)|, defined for
    Re(lam) < 0 only.
    """
    lam = complex(lam)
    if lam.real >= 0.0:
        raise BranchDomainError("power_bound_constant needs Re(lam) < 0")
    num = gamma(-lam.real).real * math.exp(math.pi * abs(lam.imag) / 2.0)
    return num / abs(gamma(-lam))
