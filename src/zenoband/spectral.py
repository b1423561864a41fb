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

from ._phi import free_tail_moments, kernel_antiderivatives, phi_functions
from .errors import HorizonExceeded, WindowTooNarrow
from .formfactor import (_BLOCK, FormFactorGrid, _ladder, _self_energy, _split_cubic,
                         free_value, renormalized_form_factor)
from .model import ValidatedModel

__all__ = [
    "SpectralFunction",
    "self_energy",
    "spectral_function",
    "survival_amplitude_spectral",
    "perturbative_decay",
    "stage_rates",
]

_LINE_POINTS = 1200       # uniform energies across the dressed line
_MOMENTS = 16             # Taylor terms of phi4 on the nodes with |t x| < _NEAR
_NEAR = 1.0               # |t x| below which phi4 is summed from moments, not cos/sin


@dataclass(frozen=True)
class SpectralFunction:
    """Line shape A(E) of the excited state, normalized to unit area."""

    E: np.ndarray
    A: np.ndarray
    sigma_omega: complex  # Sigma(omega + i0): the dressed line sits at omega + Re, half-width -Im
    normalization_defect: float
    omega: float
    gamma: float
    window: Tuple[float, float]


def self_energy(grid: FormFactorGrid, E):
    """Sigma(E + i0) over the renormalized continuum of ``grid``'s band, at E or an array of E.

    The grid's own Sigma at its energies, elsewhere the band-edge integral of
    :func:`zenoband.formfactor._self_energy` at the grid's ``tol``, never the
    tabulated g2, so it holds at any real E; Im Sigma = -pi g2(E).
    """
    E_arr = np.atleast_1d(np.asarray(E, dtype=float))
    i = np.minimum(np.searchsorted(grid.mu, E_arr), len(grid.mu) - 1)
    sigma, new = grid.sigma[i], grid.mu[i] != E_arr
    sigma[new] = _self_energy(grid.band, grid.gamma, E_arr[new], grid.tol)
    return sigma if np.ndim(E) else complex(sigma[0])


def spectral_function(grid: FormFactorGrid, omega: float) -> SpectralFunction:
    """Normalized line shape A(E) = g2 / ((E - omega - Re Sigma)^2 + (pi g2)^2).

    The energies are dense across the dressed line (whose width can be far
    below the free linewidth when the decay is suppressed), march out to the
    window edges and hold the form-factor grid, whose Sigma they reuse.  A's
    spline breaks where the grid's does, at a flat band's edges; Re Sigma's
    log cusp takes A to 0 there only within ~exp(-2 pi |E - omega|/gamma), so
    each side's value is extrapolated from its own nodes.  The unit-area check
    integrates the spline and adds the 1/(E-omega)^2 tail mass beyond the window.
    """
    lo, hi = grid.window
    sigma_omega = self_energy(grid, omega)
    center, half_w = omega + sigma_omega.real, -sigma_omega.imag  # of the dressed line
    span = 45.0 * half_w
    if center - span <= lo or center + span >= hi:
        raise WindowTooNarrow(
            f"window {(lo, hi)} cannot hold the line region {center}+-{span:g}")

    step0 = 2.0 * span / _LINE_POINTS * 4.0
    parts = [np.linspace(center - span, center + span, _LINE_POINTS), grid.mu,
             _ladder(center + span, hi, step0, 1.05), _ladder(center - span, lo, step0, 1.05)]
    edges = grid.mu[1:][np.diff(grid.mu) == 0.0]
    E = np.setdiff1d(np.concatenate([np.asarray(p, dtype=float) for p in parts]), edges)

    sigma = self_energy(grid, E)
    A = -sigma.imag / math.pi / ((E - omega - sigma.real) ** 2 + sigma.imag ** 2)
    E, A, line = _split_cubic(E, A, edges)
    if A[0] > 1e-6 * A.max() or A[-1] > 1e-6 * A.max():
        raise WindowTooNarrow(
            "A(E) has not decayed to 1e-6 of its peak at the spectral window edge")
    area = float(line.integrate(E[0], E[-1]))
    # analytic mass of the (gamma/2pi)/(E-omega)^2 tails beyond the window
    tail = free_value(grid.gamma) * (1.0 / (hi - omega) + 1.0 / (omega - lo))
    return SpectralFunction(E=E, A=A, sigma_omega=sigma_omega,
                            normalization_defect=abs(1.0 - (area + tail)),
                            omega=omega, gamma=grid.gamma, window=(lo, hi))


def survival_amplitude_spectral(sf: SpectralFunction, t) -> np.ndarray:
    """f(t) = Int A(E) e^{-iEt} dE, exact against the cubic spline of A.

    Integrating by parts four times puts it on the jumps J_j of the spline's
    j-th derivative (0 outside the window) at the nodes x_k = E_k - omega:
    f e^{i omega t} = Sum_k Sum_j J_jk (-x_k)^{j+1} phi_{j+1}(-i t x_k); the
    phi's polynomial parts cancel as A has compact support.  The spline is
    C^2, so J_0..J_2 live at the ends of its pieces and every node carries a
    J_3.  Where |t x| >= 1 the J_3 terms are closed-form: cos and sin of t*x
    in (times x nodes) blocks, with suffix sums for the cubic part.  The
    other nodes are a prefix in |x| order, a Taylor series in cumulative
    moments Sum J_3 x^{m+4}.  The analytic free-tail transform is added
    beyond the window.  Times beyond 2 pi over the largest cell of the
    mass-carrying region raise :class:`HorizonExceeded`.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    core = sf.A > 1e-3 * sf.A.max()
    d_core = np.diff(sf.E)[core[:-1] & core[1:]]
    horizon = 2.0 * np.pi / d_core.max() if d_core.size else np.inf
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    if np.any(t_arr > horizon):
        raise HorizonExceeded(
            f"t up to {t_arr.max():g} exceeds the spectral horizon {horizon:g}")

    line = _split_cubic(sf.E - sf.omega, sf.A)[2]
    x, cut = line.x, np.flatnonzero(np.diff(line.x) == 0.0)
    # J_0..J_2: +S, S', S'' at a piece's left end, - at its right, each from its own end cell
    left, right = np.r_[0, cut + 1], np.r_[cut, len(x) - 1]
    xb, cell = x[np.r_[left, right]], np.r_[left, right - 1]
    phi = phi_functions(-1j * t_arr[:, None] * xb, 3)
    sign = np.repeat([1.0, -1.0], len(left))
    out = sum((-xb) ** (j + 1) * line(xb, j, cell) * sign * phi[j + 1] for j in range(3)).sum(1)
    c = np.diff(6.0 * line.c[0], prepend=0.0, append=0.0)  # J_3: the jumps of S''' = 6 * c[0]
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
    far = np.empty(len(t_arr), dtype=complex)
    rows = max(1, _BLOCK // n)
    for s in range(0, len(t_arr), rows):
        sl = slice(s, s + rows)
        j0 = n_small[sl].min()
        cw = np.where(np.arange(j0, n) >= n_small[sl, None], c[j0:], 0.0)
        y = t_arr[sl, None] * x[j0:]
        far[sl] = (np.cos(y) * cw).sum(axis=1) - 1j * (np.sin(y) * cw).sum(axis=1)
    s0, s1, s2, s3 = suffix[:, n_small]
    far += t_arr ** 2 * s2 / 2.0 - s0 + 1j * (t_arr * s1 - t_arr ** 3 * s3 / 6.0)
    out += np.divide(far, t_arr ** 4, out=np.zeros_like(far), where=n_small < n)
    # analytic tails: A ~ (gamma/2pi)/(E-omega)^2 outside the window
    for sgn, W in ((+1, sf.window[1] - sf.omega), (-1, sf.omega - sf.window[0])):
        c_int, s_int = free_tail_moments(W, t_arr)
        out += free_value(sf.gamma) * (c_int - 1j * sgn * s_int)
    out *= np.exp(-1j * t_arr * sf.omega)
    return out if np.ndim(t) else out[0]


def perturbative_decay(grid: FormFactorGrid, omega: float, t) -> np.ndarray:
    """Lowest-order decay probability 1 - s(t).

    1 - s(t) = Int dmu g2(mu) sin^2(xt/2) / (x/2)^2 with x = mu - omega.

    The free part integrates to gamma*t exactly and is added in closed form.
    The deviation (g2 - gamma/2pi) is the grid's own cubic line, whose powers
    x^k on each cell meet the kernel 2(1 - cos xt)/x^2 exactly through
    :func:`~zenoband._phi.kernel_antiderivatives`, so the cost does not grow
    with t.  The times go through in (times x nodes) blocks.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    line = grid.interpolator()
    x = line.x - omega
    d3, d2, d1, d0 = line.c  # in powers of x - u on the cell from u; coef in powers of x
    u = x[:-1]
    coef = (d0 - u * (d1 - u * (d2 - u * d3)) - free_value(grid.gamma),
            d1 - u * (2.0 * d2 - 3.0 * u * d3), d2 - 3.0 * u * d3, d3)
    rows = max(1, _BLOCK // len(x))  # times per (times x nodes) block
    dev = np.concatenate([sum((np.diff(f) * a).sum(axis=1) for a, f in zip(
        coef, kernel_antiderivatives(x, t_arr[s:s + rows, None])))
        for s in range(0, len(t_arr), rows)])
    out = grid.gamma * t_arr + 2.0 * dev
    return out if np.ndim(t) else out[0]


def stage_rates(m: ValidatedModel):
    """(free rate, suppressed rate) = (gamma, 2 pi g2(omega))."""
    g2_line = renormalized_form_factor(m.band, m.gamma, m.omega, m.numerics.quad_tol)
    return m.gamma, 2.0 * math.pi * g2_line
