"""Stable evaluation of the exponential phi functions.

phi_j(z) = (e^z - sum_{m<j} z^m/m!) / z^j, the building blocks of
exponential integrators and of exact oscillatory moments.  Built from e^z
they cancel for small |z|, where a Taylor series takes over.
The free 1/E^2 tail beyond a window edge and the lowest-order decay kernel
have their moments in closed form through the sine and cosine integrals,
evaluated here (:func:`sici`).  Gauss-Legendre rules serve the smooth integrals.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_SMALL = 0.5
# Si(y)/y, Cin(y), (y - sin y)/y and (y^2/2 - y sin y + 1 - cos y)/y^2, one column
# each: sum_{k=0..15} (-1)^k a_k y^2k, a_k = 1/((2k+1) (2k+1)!) for Si and, for k > 0,
# -1/(2k (2k)!), -1/(2k+1)!, -(2k+1)/(2k+2)! for the rest; 16 terms hold to |y| = 3.75
_SERIES = np.array([[1.0, 0.0, 0.0, 0.0]] + [[(-1) ** k * a for a in (
    1.0 / ((2 * k + 1) * math.factorial(2 * k + 1)), -1.0 / (2 * k * math.factorial(2 * k)),
    -1.0 / math.factorial(2 * k + 1), -(2 * k + 1) / math.factorial(2 * k + 2))]
    for k in range(1, 16)])
# The auxiliary functions f and g of Si and Ci: x f and x^2 g from their asymptotic
# series in 1/x^2, sum (-1)^k (2k)! / x^2k and sum (-1)^k (2k+1)! / x^2k (Abramowitz &
# Stegun 5.2.34-35), one column each, 13 terms.  sici sums them past x = _KERNEL_FAR + 1/4,
# and the kernel antiderivatives' oscillatory parts past |x t| = _KERNEL_FAR: the first
# dropped term, 26!/40^26 = 9e-16, is below the Taylor centres' own error.  Below ~36 the
# series' smallest term stays above 1e-15, and a larger cut-off leaves more pairs to Si/Ci
_AUX_ASYMPTOTIC = np.array([[(-1) ** k * math.factorial(2 * k + j) for j in (0, 1)]
                            for k in range(13)], dtype=float)
_KERNEL_FAR = 40.0
# Between x = 3.75 and _KERNEL_FAR + 1/4: Taylor series of f + ig about the nearest centre
# j/2, 8 <= j <= 80, of 13 terms each; |x - j/2| <= 1/4
_AUX_CENTRES, _AUX_TERMS = (8, int(2 * _KERNEL_FAR)), 13
# phase_blocks: rows per direct exp, the most step tables it holds, and the elements of
# one (times or energies x nodes) block, here and in formfactor
_ANCHOR, _STEP_TABLES, _BLOCK = 32, 32, 2 ** 14


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
    recurrence phi_j = 1/j! + z*phi_{j+1} the rest.  A mixed table runs each
    rule on its own elements only.
    """
    z = np.asarray(z, dtype=complex)
    e = np.exp(z)
    small = np.abs(z) < _SMALL
    if small.all():
        return [e] + _phi_disc(z, nmax)
    if not small.any():
        return [e] + _phi_upward(z, e, nmax)
    phi, off = [e] + [np.empty_like(z) for _ in range(nmax)], ~small
    for p, d, u in zip(phi[1:], _phi_disc(z[small], nmax), _phi_upward(z[off], e[off], nmax)):
        p[small], p[off] = d, u
    return phi


def _phi_upward(z, e, nmax):
    """[phi_1 .. phi_nmax] off the disc from e = e^z, upward."""
    phi, inv_z = [e], 1.0 / z
    for j in range(nmax):
        phi.append((phi[j] - 1.0 / math.factorial(j)) * inv_z)
    return phi[1:]


def _phi_disc(z, nmax):
    """[phi_1 .. phi_nmax] on the disc: Horner for phi_nmax, then downward."""
    r = np.abs(z).max(initial=0.0)  # the first dropped term, r^m nmax!/(m+nmax)!, is <= 2^-53
    terms = next(m for m in itertools.count(1)
                 if r ** m * math.factorial(nmax) <= 2.0 ** -53 * math.factorial(m + nmax))
    disc = [np.full_like(z, 1.0 / math.factorial(terms - 1 + nmax))]
    for m in range(terms - 2, -1, -1):
        disc[0] = disc[0] * z + 1.0 / math.factorial(m + nmax)
    for j in range(nmax - 1, 0, -1):
        disc.insert(0, z * disc[0] + 1.0 / math.factorial(j))
    return disc


def _horner(coef, z, at=slice(None)):
    """sum_k coef[k][at] z^k, broadcast, on one buffer; ``coef`` has at least 2 rows.

    An index array ``at`` gathers one row at a time, not the whole table.
    """
    p = coef[-1][at] * z
    for a in coef[-2:0:-1]:
        p += a[at]
        p *= z
    p += coef[0][at]
    return p


@functools.cache
def _aux_taylor():
    """Taylor coefficients of F = f + ig about the centres c = j/2: row k, column j - 8.

    At each centre F(c) = i e^(ic) E1(ic), from 64 levels of the continued fraction
    e^z E1(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(z + 7 - ...)))).  As
    F' = iF - i/x, the coefficients follow upward:
    (k + 1) T[k + 1] = i (T[k] - (-1)^k / c^(k+1)).  Read-only.
    """
    c = np.arange(_AUX_CENTRES[0], _AUX_CENTRES[1] + 1) / 2.0
    z, tail = 1j * c, 0.0
    for k in range(64, 0, -1):
        tail = k * k / (z + 2 * k + 1 - tail)
    T = [1j / (z + 1 - tail)]
    for k in range(_AUX_TERMS - 1):
        T.append(1j * (T[k] - (-1) ** k / c ** (k + 1)) / (k + 1))
    T = np.array(T)
    T.flags.writeable = False
    return T


def sici(x, sin_x=None, cos_x=None):
    """(Si(x), Ci(x)) elementwise for x > 0; ``sin_x`` and ``cos_x``, if given, are sin x and cos x.

    Si = pi/2 - f cos x - g sin x and Ci = f sin x - g cos x through the
    auxiliary functions f and g (Abramowitz & Stegun 5.2.8-9), from their
    asymptotic series past x = _KERNEL_FAR + 1/4 and from their Taylor series
    about the nearest :func:`_aux_taylor` centre down to 3.75.  Below that Si
    and Ci come from their series in x^2.  Each is within ~1e-15 of the exact
    value.
    """
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    s = np.sin(x) if sin_x is None else np.ravel(sin_x)
    c = np.cos(x) if cos_x is None else np.ravel(cos_x)
    j = np.rint(2.0 * x)
    f, g = np.zeros((2,) + x.shape)
    far = np.flatnonzero(j > _AUX_CENTRES[1])
    if far.size:
        xf = x[far]
        z = xf * xf
        np.divide(1.0, z, out=z)
        ff, gf = _horner(_AUX_ASYMPTOTIC[:, :, None], z)
        f[far], g[far] = ff / xf, gf * z
    mid = np.flatnonzero(j <= _AUX_CENTRES[1])
    near = mid[j[mid] >= _AUX_CENTRES[0]]
    if near.size:
        jn = j[near]
        F = _horner(_aux_taylor(), x[near] - jn / 2.0, jn.astype(int) - _AUX_CENTRES[0])
        f[near], g[near] = F.real, F.imag
    si = f * c
    si += g * s
    np.subtract(np.pi / 2.0, si, out=si)
    ci = f * s
    ci -= g * c
    small = mid[j[mid] < _AUX_CENTRES[0]]
    if small.size:
        xs = x[small]
        a, cin = _horner(_SERIES[:, :2, None], xs * xs)
        si[small], ci[small] = a * xs, np.euler_gamma + np.log(xs) - cin
    return si.reshape(shape), ci.reshape(shape)


def phase_blocks(t, x, start=0):
    """Yield (j, Z), Z[r] = e^{-i t[j[r]] x[-n:]}, over the increasing times ``t`` from the last.

    A block of ~_BLOCK elements holds the n nodes from ``start`` (one index,
    or one per time, not rising with t) of its latest time on.  Where the step
    d to the next later time recurs, a row is that time's row times the
    table e^{-i d x}, of which at most _STEP_TABLES are kept; every
    _ANCHOR-th time, and one whose step is unique, takes a direct exp.  Rows
    are within ~_ANCHOR ulps of the direct exp, so other batches agree to ~1e-15.
    """
    t, start = t[::-1], np.broadcast_to(start, np.shape(t))[::-1]
    steps, which, uses = np.unique(np.diff(t), return_inverse=True, return_counts=True)
    table = np.r_[-1, np.where(uses[which] > 1, which, -1)]  # a row's step table, -1: direct
    table[::_ANCHOR] = -1
    tables, rows = {}, max(1, _BLOCK // len(x))
    for s in range(0, len(t), rows):
        tab, k = table[s:s + rows], int(start[s])
        walk = np.argsort(tab >= 0, kind="stable")  # Z's rows: the direct exps first
        at, m = np.argsort(walk).tolist(), np.count_nonzero(tab < 0)
        Z = np.empty((len(tab), len(x) - k), dtype=complex)
        np.exp(-1j * t[s + walk[:m], None] * x[k:], out=Z[:m])
        for r, i in zip(walk[m:].tolist(), tab[walk[m:]].tolist()):
            if i not in tables:
                if len(tables) == _STEP_TABLES:
                    del tables[next(iter(tables))]
                tables[i] = k, np.exp(-1j * steps[i] * x[k:])
            k0, w = tables[i]
            np.multiply(Z[at[r - 1]] if r else last[k - k_last:], w[k - k0:], out=Z[at[r]])
        last, k_last = Z[at[-1]], k
        yield len(t) - 1 - s - walk, Z


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
    row per time.  sin y and cos y come from the half-angle phase e^{i|y|/2}.
    """
    y = x * t
    a = np.abs(y)
    ay, half = np.where(y == 0.0, 1.0, a), np.exp(0.5j * a)
    v, c = 2.0 * half.imag / ay, half.real  # sin y = y v c, 1 - cos y = (y v)^2/2
    yv, vc = ay * v, v * c
    si, ci = sici(ay, yv * c, 1.0 - yv * yv / 2.0)
    f0 = t * np.sign(y) * (si - yv * v / 2.0)
    f = [np.euler_gamma + np.log(ay) - ci, x * (1.0 - vc), x * x * (0.5 - vc + v * v / 2.0)]
    small = a < 1.0
    if small.any():
        xs = np.broadcast_to(x, y.shape)[small]
        cin, r2, r3 = np.polynomial.polynomial.polyval(y[small] ** 2, _SERIES[:, 1:])
        f[0][small], f[1][small], f[2][small] = cin, xs * r2, xs * xs * r3
    return (f0, *f)


def kernel_smooth_parts(x, t):
    """The smooth parts of :func:`kernel_antiderivatives` where |x t| >= _KERNEL_FAR.

    They are t sgn(x) pi/2 - 1/x, gamma_E + ln|x t|, x and x^2/2 + 1/t^2; the
    rest oscillates and is summed through :func:`kernel_oscillation_weights`.
    """
    return (t * np.sign(x) * (np.pi / 2.0) - 1.0 / x, np.euler_gamma + np.log(np.abs(x * t)),
            x, x * x / 2.0 + 1.0 / (t * t))


def kernel_smooth_cells(x):
    """The smooth parts' differences across the cells of the increasing ``x``, free of t.

    A cell whose ends differ in sign, or touch 0, is never far from the
    origin at any t and reads 0.
    """
    h, one_sign = np.diff(x), x[:-1] * x[1:] > 0.0
    u, v = (np.where(one_sign, e, 1.0) for e in (x[:-1], x[1:]))
    diffs = (h / (u * v), np.log1p(h / u), h, h * (u + v) / 2.0)
    return [np.where(one_sign, d, 0.0) for d in diffs]


def kernel_oscillation_weights(x, jumps):
    """Node weights of the oscillatory parts of :func:`kernel_antiderivatives`, past _KERNEL_FAR.

    Summed by parts against the ``jumps`` (4 x nodes) of the cells' power
    coefficients at the nodes x, those parts are, at a time t,
    Sum_p t^-(2p+1) (sin(|x| t) . S[:, p] + cos(|x| t) . C[:, p] / t), with
    (C, S) returned.  Column p holds the p-th terms of the series of f and g
    in 1/(x t)^2 that :func:`sici` sums past _KERNEL_FAR (A&S 5.2.34-35).
    """
    X, s = np.abs(x), np.sign(x)
    a, b = _AUX_ASYMPTOTIC.T  # (-1)^p (2p)!, (-1)^p (2p+1)!
    j0, j1, j2, j3 = jumps
    inv = np.cumprod(np.broadcast_to(1.0 / X[:, None], (len(X), 2 * len(a))), axis=1)
    odd, even = inv[:, 0::2], inv[:, 1::2]  # X^-(2p+1), X^-(2p+2)
    S = -b * (s * j0)[:, None] * even - a * j1[:, None] * odd
    S[:, 0] -= s * j2 + X * j3
    C = b * j1[:, None] * even
    C[:, :-1] -= a[1:] * (s * j0)[:, None] * odd[:, 1:]
    C[:, 0] -= j3
    return C, S
