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
from .formfactor import (FormFactorGrid, _ladder, _self_energy, free_value,
                         renormalized_form_factor)
from .model import ValidatedModel

__all__ = [
    "SpectralFunction",
    "self_energy",
    "spectral_function",
    "survival_amplitude_spectral",
    "perturbative_decay",
    "stage_rates",
]

_PERT_REFINE = 8          # perturbative_decay interpolation nodes per grid cell
_LINE_POINTS = 1200       # uniform energies across the dressed line


@dataclass(frozen=True)
class SpectralFunction:
    """Line shape A(E) of the excited state, normalized to unit area."""

    E: np.ndarray
    A: np.ndarray
    normalization_defect: float
    omega: float
    gamma: float
    window: Tuple[float, float]


def _refined_nodes(grid: FormFactorGrid, per_cell: int) -> np.ndarray:
    """Grid nodes plus uniform subdivision of every cell into ``per_cell`` parts."""
    mu = grid.mu
    parts = [mu]
    for j in range(1, per_cell):
        parts.append(mu[:-1] + np.diff(mu) * (j / per_cell))
    return np.sort(np.concatenate(parts))


def self_energy(grid: FormFactorGrid, E: float) -> complex:
    """Sigma(E + i0) over the renormalized continuum of ``grid``'s band.

    Evaluated directly from the band-edge integral of
    :func:`zenoband.formfactor._self_energy` at the grid's ``tol``, not from
    the tabulated g2, so it holds at any real E; Im Sigma = -pi g2(E).
    """
    return complex(_self_energy(grid.band, grid.gamma, E, grid.tol)[0])


def spectral_function(grid: FormFactorGrid, omega: float) -> SpectralFunction:
    """Normalized line shape A(E) = g2 / ((E - omega - Re Sigma)^2 + (pi g2)^2).

    The energy grid is dense across the dressed line (whose width can be far
    below the free linewidth when the decay is suppressed), marches
    geometrically out to the window edges, and is refined 4x everywhere so
    that piecewise-linear quadratures of A stay inside the normalization
    budget.  Sigma comes from the band-edge integral at every energy.  The
    unit-area check adds the analytic 1/(E-omega)^2 tail mass for the region
    beyond the window.
    """
    lo, hi = grid.window
    sigma = self_energy(grid, omega)
    center, half_w = omega + sigma.real, -sigma.imag  # of the dressed line
    span = 45.0 * half_w
    if center - span <= lo or center + span >= hi:
        raise WindowTooNarrow(
            f"window {(lo, hi)} cannot hold the line region {center}+-{span:g}")

    fine = np.linspace(center - span, center + span, _LINE_POINTS)
    step0 = 2.0 * span / _LINE_POINTS * 4.0
    parts = [fine,
             _ladder(center + span, hi, step0, 1.05),
             _ladder(center - span, lo, step0, 1.05),
             grid.mu]
    E = np.unique(np.concatenate([np.asarray(p, dtype=float) for p in parts]))
    # 4x refinement so linear interpolants of A are quadrature-grade
    mids = [E[:-1] + np.diff(E) * f for f in (0.25, 0.5, 0.75)]
    E = np.unique(np.concatenate([E] + mids))
    # midpoint insertion can round onto an existing float; drop zero cells
    E = E[np.concatenate([[True], np.diff(E) > 1e-13 * (hi - lo)])]

    sigma = _self_energy(grid.band, grid.gamma, E, grid.tol)
    A = -sigma.imag / math.pi / ((E - omega - sigma.real) ** 2 + sigma.imag ** 2)
    if A[0] > 1e-6 * A.max() or A[-1] > 1e-6 * A.max():
        raise WindowTooNarrow(
            "A(E) has not decayed to 1e-6 of its peak at the spectral window edge")
    area = float(np.trapezoid(A, E))
    # analytic mass of the (gamma/2pi)/(E-omega)^2 tails beyond the window
    tail = free_value(grid.gamma) * (1.0 / (hi - omega) + 1.0 / (omega - lo))
    defect = abs(1.0 - (area + tail))
    return SpectralFunction(E=E, A=A, normalization_defect=defect,
                            omega=omega, gamma=grid.gamma, window=(lo, hi))


def survival_amplitude_spectral(sf: SpectralFunction, t) -> np.ndarray:
    """f(t) = Int A(E) e^{-iEt} dE, piecewise-exact against the linear interpolant.

    Each cell integrates (linear A) * e^{-iEt} in closed form, so the cell
    size is limited by how well A is linear, not by the phase t*dE.  The
    analytic free-tail transform is added for |E - omega| beyond the window.
    Times beyond the resolution horizon of the mass-carrying region raise
    :class:`HorizonExceeded`.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    E, A = sf.E, sf.A
    core = A > 1e-3 * A.max()
    if core.sum() >= 2:
        d_core = np.diff(E)[core[:-1] & core[1:]]
        horizon = 2.0 * np.pi / (4.0 * d_core.max()) if d_core.size else np.inf
    else:
        horizon = np.inf
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    if np.any(t_arr > horizon):
        raise HorizonExceeded(
            f"t up to {t_arr.max():g} exceeds the spectral horizon {horizon:g}")

    w = np.diff(E)
    a = A[:-1]
    b = np.diff(A) / w
    lo, hi = sf.window
    Wp = hi - sf.omega
    Wm = sf.omega - lo
    pref = free_value(sf.gamma)
    out = np.empty(len(t_arr), dtype=complex)
    for i, tt in enumerate(t_arr):
        z = -1j * tt * w
        _, p1, p2 = phi_functions(z, 2)
        m0 = w * p1
        m1 = w ** 2 * (p1 - p2)
        cells = np.exp(-1j * tt * E[:-1]) * (a * m0 + b * m1)
        out[i] = cells.sum()
    # analytic tails: A ~ (gamma/2pi)/(E-omega)^2 outside the window
    for sgn, W in ((+1, Wp), (-1, Wm)):
        c_int, s_int = free_tail_moments(W, t_arr)
        out += pref * np.exp(-1j * t_arr * sf.omega) * (c_int - 1j * sgn * s_int)
    return out if np.ndim(t) else out[0]


def perturbative_decay(grid: FormFactorGrid, omega: float, t) -> np.ndarray:
    """Lowest-order decay probability 1 - s(t).

    1 - s(t) = Int dmu g2(mu) sin^2(xt/2) / (x/2)^2 with x = mu - omega.

    The free part integrates to gamma*t exactly and is added in closed form.
    The deviation (g2 - gamma/2pi) over the window is interpolated linearly
    on every grid cell split into eight, and each cell is integrated exactly
    against the kernel 2(1 - cos xt)/x^2 through its Si/Ci antiderivatives,
    so the cost does not grow with t.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    nodes = _refined_nodes(grid, _PERT_REFINE)
    dev = grid.interpolator()(nodes) - free_value(grid.gamma)
    x = nodes - omega
    slope = np.diff(dev) / np.diff(x)
    offset = dev[:-1] - slope * x[:-1]  # dev = offset + slope*x on each cell
    out = np.empty(len(t_arr))
    for i, tt in enumerate(t_arr):
        f0, f1 = kernel_antiderivatives(x, tt)
        cells = offset * np.diff(f0) + slope * np.diff(f1)
        out[i] = grid.gamma * tt + 2.0 * cells.sum()
    return out if np.ndim(t) else out[0]


def stage_rates(m: ValidatedModel):
    """(free rate, suppressed rate) = (gamma, 2 pi g2(omega))."""
    g2_line = renormalized_form_factor(m.band, m.gamma, m.omega, m.numerics.quad_tol)
    return m.gamma, 2.0 * math.pi * g2_line
