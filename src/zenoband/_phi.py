"""Stable evaluation of the exponential phi functions.

phi_j(z) = (e^z - sum_{m<j} z^m/m!) / z^j, the building blocks of
exponential integrators and of exact oscillatory moments.  Built from e^z
they cancel for small |z|, where a Taylor series takes over.
The free 1/E^2 tail beyond a window edge and the lowest-order decay kernel
have their moments in closed form through the sine and cosine integrals.
Gauss-Legendre rules serve the smooth integrals.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.special import sici

_SMALL = 0.5
# Cin(y), (y - sin y)/y and (y^2/2 - y sin y + 1 - cos y)/y^2 for |y| < 1, one
# column each: sum_{k=1..10} (-1)^(k+1) a_k y^2k, a_k = 1/(2k (2k)!), 1/(2k+1)!, (2k+1)/(2k+2)!
_KERNEL_SERIES = np.array([[0.0] * 3] + [[(-1) ** (k + 1) * a for a in (
    1.0 / (2 * k * math.factorial(2 * k)), 1.0 / math.factorial(2 * k + 1),
    (2 * k + 1) / math.factorial(2 * k + 2))] for k in range(1, 11)])


@functools.cache
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [0, 1], solved once per order and read-only."""
    t, w = np.polynomial.legendre.leggauss(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def phi_functions(z, nmax: int = 3):
    """Return [phi_0(z) = e^z, phi_1(z), ..., phi_nmax(z)] elementwise for complex ``z``.

    One exp per table.  Off the disc |z| < 0.5 the table is built upward,
    phi_{j+1} = (phi_j - 1/j!)/z.  On it one Horner series gives phi_nmax,
    with as many terms as the largest |z| there needs, and the downward
    recurrence phi_j = 1/j! + z*phi_{j+1} the rest.
    """
    z = np.asarray(z, dtype=complex)
    phi = [np.exp(z)]
    small = np.abs(z) < _SMALL
    everywhere = small.all()
    if not everywhere:
        inv_z = 1.0 / np.where(small, 1.0, z)
        for j in range(nmax):
            phi.append((phi[j] - 1.0 / math.factorial(j)) * inv_z)
        if not small.any():
            return phi
    zs = z if everywhere else z[small]
    r = np.abs(zs).max(initial=0.0)  # the first dropped term, r^m nmax!/(m+nmax)!, is <= 2^-53
    terms = next(m for m in itertools.count(1)
                 if r ** m * math.factorial(nmax) <= 2.0 ** -53 * math.factorial(m + nmax))
    disc = [np.full_like(zs, 1.0 / math.factorial(terms - 1 + nmax))]
    for m in range(terms - 2, -1, -1):
        disc[0] = disc[0] * zs + 1.0 / math.factorial(m + nmax)
    for j in range(nmax - 1, 0, -1):
        disc.insert(0, zs * disc[0] + 1.0 / math.factorial(j))
    if everywhere:
        return phi + disc
    for p, d in zip(phi[1:], disc):
        p[small] = d
    return phi


def free_tail_moments(W: float, t):
    """(Int_W^inf cos(Et)/E^2 dE, Int_W^inf sin(Et)/E^2 dE) for W > 0, times t >= 0."""
    t = np.asarray(t, dtype=float)
    x = W * t
    si, ci = sici(np.where(t == 0.0, 1.0, x))  # the t factor zeroes both at t = 0
    return np.cos(x) / W - t * (np.pi / 2.0 - si), np.sin(x) / W - t * ci


def kernel_antiderivatives(x, t: float):
    """Antiderivatives in x of x^k (1 - cos(xt))/x^2, k = 0..3, for t >= 0.

    With y = x*t they are t*(Si(y) - (1 - cos y)/y),
    Cin(y) = gamma_E + ln|y| - Ci(|y|), x - sin(y)/t and
    x^2/2 - x sin(y)/t + 2 sin^2(y/2)/t^2, all taken as 0 at y = 0.  The
    last three cancel to O(y^2) of their terms, so below |y| = 1 they come
    from their series in y^2.  ``t`` may be a column of times, giving one
    row per time.
    """
    y = x * t
    ay = np.where(y == 0.0, 1.0, np.abs(y))
    si, ci = sici(ay)
    v, c = 2.0 * np.sin(ay / 2.0) / ay, np.cos(ay / 2.0)  # sin y = y v c, 1 - cos y = (y v)^2/2
    f0 = t * np.sign(y) * (si - ay * v * v / 2.0)
    f = [np.euler_gamma + np.log(ay) - ci, x * (1.0 - v * c), x * x * (0.5 - v * c + v * v / 2.0)]
    small = np.abs(y) < 1.0
    if small.any():
        xs = np.broadcast_to(x, y.shape)[small]
        cin, r2, r3 = np.polynomial.polynomial.polyval(y[small] ** 2, _KERNEL_SERIES)
        f[0][small], f[1][small], f[2][small] = cin, xs * r2, xs * xs * r3
    return (f0, *f)
