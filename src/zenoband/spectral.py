"""Spectral-function route to the survival probability.

An independent solution path: the atom's self-energy over the renormalized
continuum gives the line shape A(E), whose Fourier transform is the survival
amplitude.  Everything here consumes a :class:`FormFactorGrid` and never
touches the discretized propagation model, so agreement between the two
routes is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._phi import (_KERNEL_FAR, free_tail_moments, kernel_antiderivatives,
                   kernel_oscillation_weights, kernel_smooth_cells, kernel_smooth_parts,
                   phase_blocks, phi_functions)
from .errors import HorizonExceeded, ToleranceNotMet, WindowTooNarrow
from .formfactor import (FormFactorGrid, PiecewisePoly, _ladder, _split_cubic, _within_budget,
                         free_value, self_energy)

__all__ = [
    "SpectralFunction",
    "spectral_function",
    "survival_amplitude_spectral",
    "perturbative_decay",
]

_LINE_POINTS = 1200       # uniform energies across the dressed line
_SKELETON = 24            # second-kind Chebyshev nodes per panel of Sigma across the line
_HELD_OUT = (0.5, 11.5, 22.5)  # a panel's held-out energies, between nodes 0|1, 11|12, 22|23
_MOMENTS = 16             # Taylor terms of phi4 on the nodes with |t x| < _NEAR
_NEAR = 1.0               # |t x| below which phi4 is summed from moments, not cos/sin
# (time, node) pairs per chunk of perturbative_decay's near cells: 16,384 put fig3-spectral's
# peak RSS 2.5 MB higher (1.5 MB over Si/Ci on every node), 4,096 ran 6% slower on log times
_NEAR_PAIRS = 8192
# Largest normalization defect spectral_function() accepts.  Measured route gaps
# run 2-4x the defect, so 2e-4 keeps the spectral route inside the 1e-3 cross-route gate.
DEFECT_TOL = 2e-4
# Largest |f(0) - (area + tails)| survival_amplitude_spectral() accepts: up to 2e-10 measured
# on Fig. 3, flat and n = 1600 centred bands; of 1,696 drawn configs, those with route gaps <= 1e-6
# missed by <= 9.5e-8, the 15 past 2e-7 (n = 1600, far off the line) had gaps of 2.4e-6 to 2.7e-4
TRANSFORM_TOL = 2e-7


@dataclass(frozen=True)
class SpectralFunction:
    """Line shape A(E) of the excited state, normalized to unit area."""

    E: np.ndarray
    A: np.ndarray
    line: PiecewisePoly  # A's not-a-knot cubic in E - omega, fitted once: read it, never write it
    sigma_omega: complex  # Sigma(omega + i0): the dressed line sits at omega + Re, half-width -Im
    normalization_defect: float
    omega: float
    gamma: float
    window: Tuple[float, float]


def _sigma(grid: FormFactorGrid, E, lo, hi):
    """Sigma(E + i0): the grid's own at its energies, the rest from one self_energy call.

    On a power-law band, Sigma strictly between lo and hi is interpolated
    (barycentric, Berrut and Trefethen, SIAM Rev. 46, 501 (2004)) where that
    needs fewer energies.  Each panel, broken at the band edges and no longer
    than the strip delta sin(pi/n) of eta_k's poles, takes _SKELETON
    second-kind Chebyshev nodes and the _HELD_OUT energies that check it.  A
    panel whose interpolant misses a held-out Sigma by more than self_energy's
    own budget (:func:`~zenoband.formfactor._within_budget`) evaluates its
    energies directly.
    """
    band, gamma, tol = grid.band, grid.gamma, grid.tol
    fit = (E > lo) & (E < hi) & (band.strip > 0.0) & ~np.isin(E, grid.mu)  # fitted, if it pays
    theta = np.pi / (_SKELETON - 1) * np.r_[np.arange(_SKELETON), _HELD_OUT]
    cuts = np.unique(np.clip([lo, band.center - band.delta, band.center + band.delta, hi], lo, hi))
    panels = np.ceil(np.diff(cuts) / band.strip) if fit.any() else np.zeros(0)
    if not panels.sum() * len(theta) < fit.sum():  # the skeleton would not save energies
        fit[:], panels = False, panels[:0]
    ends = np.concatenate([np.linspace(a, b, int(k), endpoint=False)
                           for a, b, k in zip(cuts, cuts[1:], panels)] + [[hi]])
    nodes = (ends[:-1, None] + ends[1:, None]) / 2.0 + np.diff(ends)[:, None] / 2.0 * np.cos(theta)
    nodes[:, 0], nodes[:, _SKELETON - 1] = ends[1:], ends[:-1]  # neighbours share their ends
    # every energy and node in one lookup; each once, from the grid where it holds them
    ask, back = np.unique(np.r_[E, nodes.ravel()], return_inverse=True)
    i = np.minimum(np.searchsorted(grid.mu, ask), len(grid.mu) - 1)
    got, new = grid.sigma[i], grid.mu[i] != ask
    need, at = np.zeros(len(ask), dtype=bool), back[len(E):len(E) + nodes.size]
    need[back[:len(E)][~fit]] = need[at] = True
    got[need & new] = self_energy(band, gamma, ask[need & new], tol)
    sigma, got = got[back[:len(E)]], got[at].reshape(nodes.shape)
    # the held-out energies, then the fitted ones, each by its own panel's interpolant
    want, y = got[:, _SKELETON:].ravel(), np.r_[nodes[:, _SKELETON:].ravel(), E[fit]]
    p = np.r_[np.arange(want.size) // len(_HELD_OUT), np.searchsorted(ends[1:-1], E[fit])]
    z, f = nodes[p, :_SKELETON], got[p, :_SKELETON]
    w = (-1.0) ** np.arange(_SKELETON) * np.r_[0.5, np.ones(_SKELETON - 2), 0.5]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = w / (y[:, None] - z)
        val = (r * f).sum(axis=1) / r.sum(axis=1)
    hit = np.isinf(r).any(axis=1)  # an energy on a node takes that node's value
    val[hit] = f[hit, np.isinf(r[hit]).argmax(axis=1)]
    bad = ~_within_budget(np.abs(val[:want.size] - want) / math.pi, -want.imag / math.pi,
                          free_value(gamma), tol)
    sigma[fit] = val[want.size:]
    redo = np.flatnonzero(fit)[bad.reshape(-1, len(_HELD_OUT)).any(axis=1)[p[want.size:]]]
    sigma[redo] = self_energy(band, gamma, E[redo], tol)
    return sigma


def spectral_function(grid: FormFactorGrid, omega: float) -> SpectralFunction:
    """Normalized line shape A(E) = g2 / ((E - omega - Re Sigma)^2 + (pi g2)^2).

    The energies are dense across the dressed line (whose width can be far
    below the free linewidth when the decay is suppressed), march out to the
    window edges and hold the form-factor grid, whose Sigma they reuse.  Far
    out A's wing is ~gamma w/(2 D^2) of its peak, w = -Im Sigma(omega), so the
    window grows to hold omega +- 550 sqrt(2 w gamma), past its 1e-6.  A's
    spline breaks where the grid's does, at a flat band's edges; Re Sigma's
    log cusp takes A to 0 there only within ~exp(-2 pi |E - omega|/gamma), so
    each side's value is extrapolated from its own nodes; omega on an edge, where
    Re Sigma(omega) is infinite, raises :class:`WindowTooNarrow`.  The unit-area check
    integrates the spline and adds the 1/(E-omega)^2 tail mass beyond the window;
    a defect above ``DEFECT_TOL`` raises :class:`ToleranceNotMet`.
    """
    sigma_omega = complex(_sigma(grid, np.array([omega]), omega, omega)[0])
    if not np.isfinite(sigma_omega):  # Re Sigma's log cusp: omega on a flat band's edge
        b = grid.band
        raise WindowTooNarrow(f"Sigma(omega)={sigma_omega:.6g} is not finite: omega={omega:g} "
                              f"lies on an edge of the flat band {b.center:g}+-{b.delta:g}")
    center, half_w = omega + sigma_omega.real, -sigma_omega.imag  # of the dressed line
    reach = 550.0 * math.sqrt(2.0 * half_w * grid.gamma)
    lo, hi = min(grid.window[0], omega - reach), max(grid.window[1], omega + reach)
    span, gap = 45.0 * half_w, np.spacing(abs(omega))
    if not gap < 2.0 * span / _LINE_POINTS:  # the line's energies would not be distinct
        raise WindowTooNarrow(f"float spacing {gap:g} at omega={omega:g} vs half-width {half_w:g}")
    if center - span <= lo or center + span >= hi:
        raise WindowTooNarrow(
            f"window {(lo, hi)} cannot hold the line region {center}+-{span:g}")

    step0 = 2.0 * span / _LINE_POINTS * 4.0
    parts = [np.linspace(center - span, center + span, _LINE_POINTS), grid.mu, [lo, hi],
             _ladder(center + span, hi, step0, 1.05), _ladder(center - span, lo, step0, 1.05)]
    edges = grid.mu[1:][np.diff(grid.mu) == 0.0]
    E = np.setdiff1d(np.concatenate([np.asarray(p, dtype=float) for p in parts]), edges)

    sigma = _sigma(grid, E, center - span, center + span)
    A = -sigma.imag / math.pi / ((E - omega - sigma.real) ** 2 + sigma.imag ** 2)
    E, A = _split_cubic(E, A, edges)
    if A[0] > 1e-6 * A.max() or A[-1] > 1e-6 * A.max():
        raise WindowTooNarrow(
            "A(E) has not decayed to 1e-6 of its peak at the spectral window edge")
    line = PiecewisePoly.cubic(E - omega, A)
    defect = abs(1.0 - _mass(line, grid.gamma, hi - omega, omega - lo))
    if not defect <= DEFECT_TOL:
        raise ToleranceNotMet(f"normalization defect {defect:.3e} exceeds {DEFECT_TOL:.1e}")
    return SpectralFunction(E=E, A=A, line=line, sigma_omega=sigma_omega,
                            normalization_defect=defect,
                            omega=omega, gamma=grid.gamma, window=(lo, hi))


def _mass(line: PiecewisePoly, gamma: float, above: float, below: float) -> float:
    """The area under ``line`` plus the (gamma/2pi)/(E-omega)^2 tails past the window edges
    ``above`` and ``below`` omega."""
    area = float(line.antiderivative()(line.x[-1]))  # from line.x[0]
    return area + free_value(gamma) * (1.0 / above + 1.0 / below)


def _times(t):
    """(sorted distinct times of ``t``, all >= 0; the map putting values back in t's order)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t_arr >= 0.0):  # NaN too
        raise ValueError("t must be >= 0")
    t_arr, back = np.unique(t_arr, return_inverse=True)
    return t_arr, lambda values: values[back] if np.ndim(t) else values[0]


def survival_amplitude_spectral(sf: SpectralFunction, t) -> np.ndarray:
    """f(t) = Int A(E) e^{-iEt} dE, exact against the cubic spline of A.

    Integrating by parts four times puts it on the jumps J_j of the spline's
    j-th derivative (0 outside the window) at the nodes x_k = E_k - omega:
    f e^{i omega t} = Sum_k Sum_j J_jk (-x_k)^{j+1} phi_{j+1}(-i t x_k); the
    phi's polynomial parts cancel as A has compact support.  The spline is
    C^2, so J_0..J_2 live at the ends of its pieces and every node carries a
    J_3.  Where |t x| >= 1 the J_3 terms are closed-form: e^{-itx} from
    :func:`~zenoband._phi.phase_blocks`, one dot product per time, with
    suffix sums for the cubic part.  The other nodes are a prefix in |x|
    order, a Taylor series in cumulative moments Sum J_3 x^{m+4}.  The
    analytic free-tail transform is added beyond the window.  Times beyond
    2 pi over the largest cell of the mass-carrying region raise
    :class:`HorizonExceeded`.  The transform checks itself at t = 0, where it
    must give the spline's area plus the tails: a miss past ``TRANSFORM_TOL``
    raises :class:`ToleranceNotMet`.  The sorted distinct times, and 0, are
    transformed: the order and repeats of ``t`` change no bit, other batches
    agree to ~1e-15.
    """
    t_req, restore = _times(t)
    t_arr = np.r_[0.0, t_req] if t_req[0] > 0.0 else t_req
    core = sf.A > 1e-3 * sf.A.max()
    d_core = np.diff(sf.E)[core[:-1] & core[1:]]
    horizon = 2.0 * np.pi / d_core.max() if d_core.size else np.inf
    if np.any(t_arr > horizon):
        raise HorizonExceeded(
            f"t up to {t_arr.max():g} exceeds the spectral horizon {horizon:g}")

    x, cut = sf.line.x, np.flatnonzero(np.diff(sf.line.x) == 0.0)
    # J_0..J_2: +S, S', S'' at a piece's left end, - at its right, each from its own end cell
    left, right = np.r_[0, cut + 1], np.r_[cut, len(x) - 1]
    xb, cell = x[np.r_[left, right]], np.r_[left, right - 1]
    phi = phi_functions(-1j * t_arr[:, None] * xb, 3)
    sign = np.repeat([1.0, -1.0], len(left))
    out = sum((-xb) ** (j + 1) * sf.line(xb, j, cell) * sign * phi[j + 1] for j in range(3)).sum(1)
    c = np.diff(6.0 * sf.line.c[0], prepend=0.0, append=0.0)  # J_3: the jumps of S''' = 6 * c[0]
    order = np.argsort(np.abs(x), kind="stable")
    x, c, n = x[order], c[order], len(x)
    lim = np.divide(_NEAR, t_arr, out=np.full_like(t_arr, np.inf), where=t_arr > 0.0)
    n_small = np.searchsorted(np.abs(x), lim)  # |t x| < _NEAR on the first n_small nodes
    powers = c * x ** np.arange(_MOMENTS + 4)[:, None]
    # column j: the moments Sum_{k<j} c x^{m+4}, and Sum_{k>=j} c x^p for p < 4
    prefix = np.pad(np.cumsum(powers[4:], axis=1), ((0, 0), (1, 0)))
    suffix = np.pad(np.cumsum(powers[:4, ::-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
    m = np.arange(_MOMENTS)
    coef = (-1j * t_arr[:, None]) ** m / (6.0 * np.cumprod(m + 4.0))  # (-it)^m / (m+4)!
    out += (prefix[:, n_small].T * coef).sum(axis=1)
    # the other nodes add c (e^{-itx} - 1 + itx + (tx)^2/2 - i(tx)^3/6)/t^4
    far, c = np.empty(len(t_arr), dtype=complex), c.astype(complex)  # np.dot casts no c per time
    for j, Z in phase_blocks(t_arr, x, n_small):
        for i, z in zip(j, Z):  # z holds the last len(z) nodes
            far[i] = np.dot(z[n_small[i] - n + len(z):], c[n_small[i]:])
    s0, s1, s2, s3 = suffix[:, n_small]
    far += t_arr ** 2 * s2 / 2.0 - s0 + 1j * (t_arr * s1 - t_arr ** 3 * s3 / 6.0)
    out += np.divide(far, t_arr ** 4, out=np.zeros_like(far), where=n_small < n)
    # analytic tails: A ~ (gamma/2pi)/(E-omega)^2 outside the window
    for sgn, W in ((+1, sf.window[1] - sf.omega), (-1, sf.omega - sf.window[0])):
        c_int, s_int = free_tail_moments(W, t_arr)
        out += free_value(sf.gamma) * (c_int - 1j * sgn * s_int)
    miss = abs(out[0] - _mass(sf.line, sf.gamma, sf.window[1] - sf.omega, sf.omega - sf.window[0]))
    if not miss <= TRANSFORM_TOL:
        raise ToleranceNotMet(f"the transform misses its own mass at t = 0 by {miss:.3e}, "
                              f"past {TRANSFORM_TOL:.0e}")
    return restore(out[len(t_arr) - len(t_req):] * np.exp(-1j * t_req * sf.omega))


def perturbative_decay(grid: FormFactorGrid, omega: float, t) -> np.ndarray:
    """Lowest-order decay probability 1 - s(t).

    1 - s(t) = Int dmu g2(mu) sin^2(xt/2) / (x/2)^2 with x = mu - omega.

    The free part integrates to gamma*t exactly and is added in closed form.
    The deviation (g2 - gamma/2pi) is the grid's own cubic line, whose powers
    x^k on each cell meet the kernel 2(1 - cos xt)/x^2 exactly through its
    antiderivatives, so the cost does not grow with t.  At each time the
    cells with a node inside |t x| < _KERNEL_FAR, and one across x = 0, take
    :func:`~zenoband._phi.kernel_antiderivatives` at their ends, differenced.
    Past it the antiderivatives are smooth parts plus cos/sin(|x| t) times
    Si/Ci's asymptotic series: the smooth parts' cell differences are free of
    t and summed from the window's ends inwards, and the oscillatory parts
    are summed by parts, one matrix product of the phase rows of
    :func:`~zenoband._phi.phase_blocks` with fixed node weights per block of
    times.  The sorted distinct times are transformed: the order and repeats
    of ``t`` change no bit, other batches agree to ~1e-15.
    """
    t_arr, restore = _times(t)
    x, n = grid.line.x - omega, len(grid.line.x)
    d3, d2, d1, d0 = grid.line.c  # in powers of x - u on the cell from u; coef in powers of x
    u = x[:-1]
    coef = np.array((d0 - u * (d1 - u * (d2 - u * d3)) - free_value(grid.gamma),
                     d1 - u * (2.0 * d2 - 3.0 * u * d3), d2 - 3.0 * u * d3, d3))
    lim = np.divide(_KERNEL_FAR, t_arr, out=np.full_like(t_arr, np.inf), where=t_arr > 0.0)
    # near nodes, |x| < lim, are lo .. hi - 1; the cells from a to b - 2 have a near end or cross 0
    lo, hi = np.searchsorted(x, -lim, side="right"), np.searchsorted(x, lim)
    a, b = np.maximum(lo - 1, 0), np.minimum(hi + 1, n)
    # the other cells' smooth parts, free of t, summed from the window's ends inwards
    q = sum(c * d for c, d in zip(coef, kernel_smooth_cells(x)))
    dev = np.r_[0.0, np.cumsum(q)][a] + np.r_[np.cumsum(q[::-1])[::-1], 0.0][b - 1]
    # near cells: rows of pairs (time, node a .. b - 1), about _NEAR_PAIRS pairs at a time
    count = b - a
    start = np.cumsum(count) - count  # a row's first pair
    coef = np.pad(coef, ((0, 0), (0, 1)))  # a node's own cell; the last node's is 0
    r0 = 0
    while r0 < len(t_arr):
        r1 = max(r0 + 1, int(np.searchsorted(start, start[r0] + _NEAR_PAIRS)))
        c, first = count[r0:r1], start[r0:r1] - start[r0]
        last = first + c - 1
        row = np.repeat(np.arange(r0, r1), c)
        node = np.arange(last[-1] + 1) + np.repeat(a[r0:r1] - first, c)
        xs, ts = x[node], t_arr[row]
        G = kernel_antiderivatives(xs, ts)
        ends = np.r_[first, last]  # a row's end node past lim keeps only its smooth part
        ends = ends[np.abs(xs[ends]) >= lim[row[ends]]]
        for g, f in zip(G, kernel_smooth_parts(xs[ends], ts[ends])):
            g[ends] = f
        cells = np.r_[sum(k[node[:-1]] * np.diff(g) for k, g in zip(coef, G)), 0.0]
        cells[last] = 0.0  # no cell from a row's last node
        dev[r0:r1] += np.add.reduceat(cells, first)
        r0 = r1
    # far nodes: the oscillatory parts by parts, in |x| order, from n_far on at each time
    order = np.argsort(np.abs(x), kind="stable")
    X = np.abs(x)[order]
    n_far = np.searchsorted(X, lim)
    k0 = int(n_far.min(initial=n))
    jumps = -np.diff(coef, axis=1, prepend=0.0)[:, order[k0:]]  # coef[i - 1] - coef[i]
    C, S = kernel_oscillation_weights(x[order[k0:]], jumps)
    W = np.zeros((2 * (n - k0), 2 * C.shape[1]))  # rows: cos, -sin (Z's float view)
    W[0::2, 1::2], W[1::2, 0::2] = C, -S  # columns: t^-1, t^-2, ... t^-2K
    sums = np.empty((len(t_arr), W.shape[1]))
    for j, Z in phase_blocks(t_arr, X, n_far):
        k = n - Z.shape[1]
        Z[np.arange(Z.shape[1]) < (n_far[j] - k)[:, None]] = 0.0
        sums[j] = Z.view(float) @ W[2 * (k - k0):]
    r = np.divide(1.0, t_arr, out=np.zeros_like(t_arr), where=n_far < n)
    dev += (sums * np.cumprod(np.broadcast_to(r[:, None], sums.shape), axis=1)).sum(axis=1)
    return restore(grid.gamma * t_arr + 2.0 * dev)
