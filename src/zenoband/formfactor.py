"""Renormalized form factor of the monitored atom.

Folding the detector continuum into the photon modes leaves the atom coupled
to a single effective continuum whose squared coupling density is

    g2(mu) = (gamma/2pi) * Int dk  eta_k / ((mu - k)^2 + (pi*eta_k)^2)
           = -Im Sigma(mu + i0)/pi.

Without a detector (eta = 0) the integrand collapses to a delta function and
g2 is the free value gamma/2pi for every mu; a finite band suppresses g2
inside the detection window and enhances it just outside, with the deviation
integrating to zero over the whole line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
# unused here, but bound: perfbench/spans.py wraps formfactor.quad under --trace 1
from scipy.integrate import quad  # noqa: F401
from scipy.interpolate import CubicSpline, PPoly

from ._phi import gauss_legendre
from .errors import QuadratureFailure, WindowTooNarrow
from .model import DetectorBand, _flat_band_log

__all__ = [
    "FormFactorGrid",
    "renormalized_form_factor",
    "form_factor_grid",
    "sum_rule_defect",
    "free_value",
]

# Band-edge rule for Sigma: Gauss-Legendre orders of the reported rule and of
# the coarser rule whose difference from it is the error estimate, the ratio
# of the ladder toward each energy and its smallest step relative to the
# panel it starts in, and the (energy x node) elements evaluated per block.
_ORDERS = (20, 16)
_LADDER_RATIO = 4.0
_LADDER_FLOOR = 1e-13
_BLOCK = 2 ** 14


def free_value(gamma: float) -> float:
    """Measurement-free coupling density gamma/2pi."""
    return gamma / (2.0 * math.pi)


def _split_cubic(x, y, edges=()):
    """(x, y, pieces): not-a-knot cubic splines of y on x, broken at each
    repeated x.  Each of the sorted ``edges`` (none in x) is first put in x
    twice, each copy with the value its own side's spline extrapolates to."""
    def pieces(x, y, cut):
        return [CubicSpline(a, b) for a, b in zip(np.split(x, cut), np.split(y, cut))]

    if len(edges):
        at = np.repeat(np.searchsorted(x, edges), 2)
        sides = pieces(x, y, at[::2])
        ends = [sp(e) for i, e in enumerate(edges) for sp in sides[i:i + 2]]
        x, y = np.insert(x, at, np.repeat(edges, 2)), np.insert(y, at, ends)
    return x, y, pieces(x, y, np.flatnonzero(np.diff(x) == 0.0) + 1)


@dataclass(frozen=True)
class FormFactorGrid:
    """Tabulated |g_mu|^2 with the window and quadrature tolerance it was built at.

    A repeated ``mu`` (a flat band's edge) holds g2's two one-sided values and
    is a zero-width interval of :meth:`interpolator`, the :func:`_split_cubic`
    line as one piecewise cubic (right-continuous there)."""

    mu: np.ndarray
    g2: np.ndarray
    window: Tuple[float, float]
    gamma: float
    band: DetectorBand
    tol: float

    def interpolator(self) -> PPoly:
        c = [a for sp in _split_cubic(self.mu, self.g2)[2] for a in (np.zeros((4, 1)), sp.c)]
        return PPoly(np.hstack(c[1:]), self.mu)


def renormalized_form_factor(band: DetectorBand, gamma: float, mu: float,
                             tol: float = 1e-10) -> float:
    """g2(mu) = -Im Sigma(mu + i0)/pi from the band-edge integral of :func:`_self_energy`.

    On the flat band this is the closed form
    (gamma/2pi^2) [arctan((mu - c + delta)/(eta/2)) - arctan((mu - c - delta)/(eta/2))]
    plus gamma/2pi outside the band, which it also takes exactly at the edge
    |mu - c| = delta, where the infinite-exponent limit is two-valued.

    Raises :class:`QuadratureFailure` if the error estimate exceeds the
    budget 20*tol*max(g2, gamma/2pi).
    """
    if band.center is None:
        band = replace(band, center=0.0)
    return float(-_self_energy(band, gamma, mu, tol)[0].imag / math.pi)


def _profile(x, n):
    """h = 1/(1 + x^n) and h' in band units; both 0 where x^n overflows."""
    p, sq, m = np.ones_like(x), x, n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m:  # x^(n-1) by repeated squaring, far cheaper than a float power
            if m & 1:
                p = p * sq
            sq, m = sq * sq, m >> 1
        h = 1.0 / (1.0 + p * x)
        dh = np.where(h > 0.0, -n * (p * h) * h, 0.0)
    return h, dh


def _edge_integral(n, beta, eps, order):
    """(beta/pi) Int dx h'(x) / (eps - x + i beta h(x)) at every offset ``eps``.

    x and ``eps`` are (k - center)/delta, and beta = eta/(2 delta).  The pole
    h'(eps)/(eps - x + i w), w = beta h(eps), is subtracted and its integral
    -i pi h'(eps) added back.  The rest keeps a feature of width w at
    x = eps, so each energy adds a geometric ladder toward eps, down to w, to
    panels shared by all energies: 0, both edges, and steps 1/n, 2/n, 4/n,
    ... away from each edge.  Where beta*|h'| ~ beta*n*exp(-n|y|) at
    distance y from an edge exceeds ~1, the denominator has further zeros
    ~1/n off the real axis, so the steps stay at 2/n out to
    n|y| = ln(beta*n) + 1/2 before doubling again; for n = 6 and beta <= 5.5
    that changes no breakpoint.  Past the last breakpoint X, x = +-X/u maps
    both tails onto u in (0, 1], where the subtracted poles cancel in pairs.
    """
    t, w = gauss_legendre(order)
    steep = 2.0 * max(1, math.ceil(0.5 * (math.log(max(beta * n, 1.0)) + 0.5)))
    steps = np.concatenate([[0.0, 1.0], np.arange(2.0, steep + 1.0, 2.0),
                            steep * 2.0 ** np.arange(1, 64)]) / n
    reach = max(4.0, 2.0 * np.abs(eps).max())
    half = np.concatenate([[0.0], 1.0 - steps[steps < 1.0],
                           1.0 + steps[:np.searchsorted(steps, reach) + 1]])
    br = np.unique(np.concatenate([-half, half]))
    X = br[-1]
    tail_x = np.concatenate([X / t, -X / t])
    tail_w = np.tile(X / t ** 2 * w, 2)
    hE, dhE = _profile(eps, n)
    wE = beta * hE
    p = np.searchsorted(br, eps) - 1
    top = br[p + 1] - br[p]  # the ladder starts at the width of eps's panel
    # no ladder where w underflows: nothing to resolve, and a node at eps is 0/0
    floor = np.where(wE > 0.0, np.clip(wE, _LADDER_FLOOR * top, top), top)
    rungs = np.ceil(np.log(top / floor) / math.log(_LADDER_RATIO))
    per_energy = (len(br) + 2 * rungs.max() + 4) * order  # nodes, at most
    step = max(1, int(_BLOCK // per_energy))
    out = np.empty(len(eps), dtype=complex)
    for s in range(0, len(eps), step):
        sl = slice(s, s + step)
        e = eps[sl, None]
        lad = np.maximum(top[sl, None] * _LADDER_RATIO ** -np.arange(rungs[sl].max() + 1),
                         floor[sl, None])
        ends = np.sort(np.concatenate([np.broadcast_to(br, (len(e), len(br))),
                                       np.clip(e - lad, -X, X), np.clip(e + lad, -X, X)],
                                      axis=1), axis=1)
        width = np.diff(ends, axis=1)[..., None]
        x = np.concatenate([(ends[:, :-1, None] + width * t).reshape(len(e), -1),
                            np.broadcast_to(tail_x, (len(e), len(tail_x)))], axis=1)
        wx = np.concatenate([(width * w).reshape(len(e), -1),
                             np.broadcast_to(tail_w, (len(e), len(tail_w)))], axis=1)
        h, dh = _profile(x, n)
        g = dh / (e - x + 1j * beta * h) - dhE[sl, None] / (e - x + 1j * wE[sl, None])
        out[sl] = (g * wx).sum(axis=1)
    return beta / math.pi * (out - 1j * math.pi * dhE)


def _self_energy(band: DetectorBand, gamma: float, E, tol: float = 1e-9) -> np.ndarray:
    """Sigma(E + i0) over the damped photon continuum at an array of energies.

    Integrating (gamma/2pi) Int dk 1/(E - k + i pi eta_k) by parts in k gives
    Sigma(E) = -i gamma/2 + (i gamma/2) Int dk eta'_k / (E - k + i pi eta_k),
    whose integrand lives at the band edges; g2 = -Im Sigma/pi.  The flat
    band's eta'_k is two delta functions: :func:`~zenoband.model._flat_band_log`.
    Power-law bands raise :class:`QuadratureFailure` where the two rules of
    ``_ORDERS`` differ by more than 20*tol*max(g2, gamma/2pi) in g2, or by a
    non-finite amount.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    E = np.atleast_1d(np.asarray(E, dtype=float))
    if band.eta == 0.0:
        return np.full(E.shape, -0.5j * gamma)
    if band.is_flat:
        z = _flat_band_log(E - band.center, band.eta, band.delta)
        # scaled part by part: a complex product makes Re = +-inf at an edge NaN
        return free_value(gamma) * z.real + 1j * free_value(gamma) * z.imag
    eps = (E - band.center) / band.delta
    beta = band.eta / (2.0 * band.delta)
    fine, coarse = (_edge_integral(band.n, beta, eps, order) for order in _ORDERS)
    err = np.abs(fine - coarse)
    bad = np.flatnonzero(~(err <= 20.0 * tol * np.maximum(1.0 - fine.real, 1.0)))
    if bad.size:
        i = bad[0]
        raise QuadratureFailure(f"self-energy at E={E[i]}: error estimate {err[i]:.3e} "
                                f"exceeds budget for tol={tol:.1e}")
    return 0.5j * gamma * (fine - 1.0)


def _ladder(start, stop, s0, ratio):
    """Geometric march from ``start`` toward ``stop`` with initial step s0."""
    pts, s, sgn = [start], s0, 1.0 if stop > start else -1.0
    while (stop - (pts[-1] + sgn * s)) * sgn > 0:
        pts.append(pts[-1] + sgn * s)
        s *= ratio
    return pts[1:]


def form_factor_grid(band: DetectorBand, gamma: float,
                     window: Optional[Tuple[float, float]] = None,
                     n_points: int = 400, tol: float = 1e-9) -> FormFactorGrid:
    """Tabulate g2 over ``window`` on a grid refined at the band edges.

    The grid clusters geometrically (ratio 1.2) into both band edges, where
    the curvature of g2 is largest, and covers the rest of the window
    uniformly; a flat band's edges, where g2 jumps, are held twice with the
    one-sided values of :func:`_split_cubic`.  ``window`` must span
    center +- 5*max(delta, eta); the default is center +- max(50*delta,
    10*eta, 550*gamma), the gamma term keeping even an unsuppressed
    Lorentzian line inside the window with its wings decayed to the 1e-6
    level needed by the spectral route.
    """
    if band.center is None:
        band = replace(band, center=0.0)
    c, delta = band.center, band.delta
    if window is None:
        half = max(50.0 * delta, 10.0 * band.eta, 550.0 * gamma)
        window = (c - half, c + half)
    lo, hi = window
    need = max(5.0 * delta, 5.0 * band.eta)
    if not (lo <= c - need and hi >= c + need):  # a NaN bound fails too
        raise WindowTooNarrow(
            f"window {window} must cover center +- {need:g}")

    # edge feature widths: eta/2 on a flat band (eta = 0 is free), delta/n on a power-law one
    flat = min(delta, band.eta / 2.0) if band.eta > 0.0 else delta
    scale = flat if band.is_flat else min(delta, 6.0 * delta / band.n)
    pts = {lo, hi, c, c - delta, c + delta}
    for edge in (c - delta, c + delta):
        for limit in (hi, lo):
            pts.update(_ladder(edge, limit, scale / 200.0, 1.2))
    base = np.asarray(sorted(pts))
    # top up with uniform coverage so large gaps between ladders are filled
    gaps = np.diff(base)
    add = np.rint(gaps / gaps.sum() * max(n_points - len(base), 0)).astype(int)
    fill = [np.linspace(base[i], base[i + 1], add[i] + 2)[1:-1] for i in range(len(gaps))]
    edges = c + np.array([-delta, delta] if band.is_flat else [])
    base = np.setdiff1d(np.concatenate([base] + fill), edges)
    mu, g2, _ = _split_cubic(base, -_self_energy(band, gamma, base, tol).imag / math.pi, edges)
    return FormFactorGrid(mu=mu, g2=g2, window=(lo, hi), gamma=gamma, band=band, tol=tol)


def sum_rule_defect(grid: FormFactorGrid, gamma: float) -> float:
    """Deviation integral Int_window (g2 - gamma/2pi) dmu on the grid.

    Over the whole line the deviations cancel exactly; the window integral is
    the residual carried by the tails outside and shrinks like 1/window.  It
    integrates :meth:`FormFactorGrid.interpolator`, less gamma/2pi on its
    constant coefficients so that a free line gives exactly 0.  Requires the
    grid to have reached its free-value asymptote at the edges (within 1e-3
    relative), otherwise :class:`WindowTooNarrow` is raised.
    """
    pref = free_value(gamma)
    edge_dev = max(abs(grid.g2[0] - pref), abs(grid.g2[-1] - pref))
    if edge_dev >= 1e-3 * pref:
        raise WindowTooNarrow(
            f"|g2 - gamma/2pi| = {edge_dev:.3e} at the window edge; "
            f"needs < {1e-3 * pref:.3e}")
    line = grid.interpolator()
    line.c[-1] -= pref
    return float(line.integrate(grid.mu[0], grid.mu[-1]))
