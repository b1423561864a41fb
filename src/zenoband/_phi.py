"""Stable evaluation of the exponential phi functions.

phi_j(z) = (e^z - sum_{m<j} z^m/m!) / z^j, the building blocks of
exponential integrators and of exact oscillatory moments.  Closed forms
cancel catastrophically for small |z|, so a Taylor series takes over there.
The free 1/E^2 tail beyond a window edge and the lowest-order decay kernel
have their moments in closed form through the sine and cosine integrals.
Fixed Gauss-Legendre rules serve the smooth integrals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import sici

_SMALL = 0.5
_TERMS = 20


def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (t + 1.0), 0.5 * w


def phi_functions(z, nmax: int = 3):
    """Return [phi_0(z) = e^z, phi_1(z), ..., phi_nmax(z)] elementwise for complex ``z``."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SMALL
    zb = np.where(small, 1.0, z)
    ez = np.exp(z)
    closed = []
    partial = np.ones_like(z)
    zpow = np.ones_like(z)
    for j in range(1, nmax + 1):
        closed.append(np.asarray((ez - partial) / zb ** j))
        zpow = zpow * z
        partial = partial + zpow / math.factorial(j)
    zs = z[small]
    taylor = [np.zeros_like(zs) for _ in range(nmax)]
    term = np.ones_like(zs)
    for m in range(_TERMS):
        for j in range(1, nmax + 1):
            taylor[j - 1] = taylor[j - 1] + term / math.factorial(m + j)
        term = term * zs
    for c, tay in zip(closed, taylor):
        c[small] = tay
    return [ez] + closed


def free_tail_moments(W: float, t):
    """(Int_W^inf cos(Et)/E^2 dE, Int_W^inf sin(Et)/E^2 dE) for W > 0, times t >= 0."""
    t = np.asarray(t, dtype=float)
    x = W * t
    si, ci = sici(np.where(t == 0.0, 1.0, x))  # the t factor zeroes both at t = 0
    return np.cos(x) / W - t * (np.pi / 2.0 - si), np.sin(x) / W - t * ci


def kernel_antiderivatives(x, t: float):
    """Antiderivatives in x of (1 - cos(xt))/x^2 and (1 - cos(xt))/x, t >= 0.

    With y = x*t they are t*(Si(y) - (1 - cos y)/y) and
    Cin(y) = gamma_E + ln|y| - Ci(|y|), both taken as 0 at y = 0.
    """
    y = x * t
    at0 = y == 0.0
    ay = np.where(at0, 1.0, np.abs(y))
    si, ci = sici(ay)
    f0 = t * np.sign(y) * (si - 2.0 * np.sin(ay / 2.0) ** 2 / ay)
    f1 = np.where(at0, 0.0, np.euler_gamma + np.log(ay) - ci)
    return f0, f1
