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
from .errors import EdgeProximity, HorizonExceeded, WindowTooNarrow
from .formfactor import FormFactorGrid, _ladder, free_value, renormalized_form_factor
from .model import ValidatedModel

__all__ = [
    "SpectralFunction",
    "self_energy",
    "spectral_function",
    "survival_amplitude_spectral",
    "perturbative_decay",
    "stage_rates",
]

_REFINE = 4               # Re Sigma quadrature nodes per form-factor grid cell
_PERT_REFINE = 8          # perturbative_decay interpolation nodes per grid cell
_LINE_POINTS = 1200       # uniform energies across the dressed line
_EDGE_CELLS = 6           # edge-cell spacings trimmed off each side of the grid window
_EDGE_CAP = 0.1           # largest trim, as a fraction of the half-window


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


def _usable_window(grid: FormFactorGrid) -> Tuple[float, float]:
    """The grid window less ``_EDGE_CELLS`` edge-cell spacings per side, each
    trim capped at ``_EDGE_CAP`` of the half-window so coarse grids keep it."""
    lo, hi = grid.window
    cap = _EDGE_CAP * 0.5 * (hi - lo)
    return (lo + min(_EDGE_CELLS * (grid.mu[1] - grid.mu[0]), cap),
            hi - min(_EDGE_CELLS * (grid.mu[-1] - grid.mu[-2]), cap))


def _subtracted_integral(nodes, g2n, E, g2E, dg2E, local):
    """Int (g2(mu) - g2(E)) / (E - mu) dmu over the window nodes."""
    denom = E - nodes
    tiny = np.abs(denom) < 1e-9 * local
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (g2n - g2E) / denom
    f = np.where(tiny, -dg2E, f)
    return np.trapezoid(f, nodes)


def _sigma_parts(grid: FormFactorGrid, Es: np.ndarray):
    """(Re Sigma, g2) at the energies ``Es``; see :func:`self_energy`."""
    lo, hi = grid.window
    spline = grid.interpolator()
    nodes = _refined_nodes(grid, _REFINE)
    g2n = spline(nodes)
    g2E = spline(Es)
    dg2E = spline.derivative()(Es)
    local = np.interp(Es, grid.mu[:-1], np.diff(grid.mu))
    re = np.empty_like(Es)
    free = free_value(grid.gamma)
    for i, E in enumerate(Es):
        val = _subtracted_integral(nodes, g2n, E, g2E[i], dg2E[i], local[i])
        val += (g2E[i] - free) * math.log(abs((E - lo) / (hi - E)))
        re[i] = val
    return re, g2E


def self_energy(grid: FormFactorGrid, E: float) -> complex:
    """Sigma(E + i0) over the renormalized continuum.

    Real part: principal value of Int g2(mu)/(E - mu) dmu, computed by
    subtracting the singularity on the grid window.  The window log term
    g2(E)*ln((E - lo)/(hi - E)) combines with the free-value tails outside
    the window into (g2(E) - gamma/2pi)*ln((E - lo)/(hi - E)), which makes
    the flat case give exactly Re Sigma = 0 at every E.
    Imaginary part: -pi * g2(E) from the interpolated grid.  Raises
    :class:`EdgeProximity` for E outside the grid window less its edge cells.
    """
    lo, hi = _usable_window(grid)
    if not lo <= E <= hi:
        raise EdgeProximity(
            f"E={E} is outside {(lo, hi)}, the grid window less its edge cells")
    re, g2E = _sigma_parts(grid, np.array([E], dtype=float))
    return complex(re[0], -math.pi * g2E[0])


def spectral_function(grid: FormFactorGrid, omega: float) -> SpectralFunction:
    """Normalized line shape A(E) = g2 / ((E - omega - Re Sigma)^2 + (pi g2)^2).

    The energy grid is dense across the dressed line (whose width can be far
    below the free linewidth when the decay is suppressed), marches
    geometrically out to the window edges, and is refined 4x everywhere so
    that piecewise-linear quadratures of A stay inside the normalization
    budget.  The unit-area check adds the analytic 1/(E-omega)^2 tail mass
    for the region beyond the window.
    """
    lo, hi = _usable_window(grid)
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
             grid.mu[(grid.mu > lo) & (grid.mu < hi)],
             [lo, hi]]
    E = np.unique(np.concatenate([np.asarray(p, dtype=float) for p in parts if len(p)]))
    E = E[(E >= lo) & (E <= hi)]
    # 4x refinement so linear interpolants of A are quadrature-grade
    mids = [E[:-1] + np.diff(E) * f for f in (0.25, 0.5, 0.75)]
    E = np.unique(np.concatenate([E] + mids))
    # midpoint insertion can round onto an existing float; drop zero cells
    E = E[np.concatenate([[True], np.diff(E) > 1e-13 * (hi - lo)])]

    re_sigma, g2E = _sigma_parts(grid, E)
    A = g2E / ((E - omega - re_sigma) ** 2 + (math.pi * g2E) ** 2)
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
        val = cells.sum()
        # analytic tails: A ~ (gamma/2pi)/(E-omega)^2 outside the window
        for sgn, W in ((+1, Wp), (-1, Wm)):
            c_int, s_int = free_tail_moments(W, tt)
            val += pref * np.exp(-1j * tt * sf.omega) * (c_int - 1j * sgn * s_int)
        out[i] = val
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
