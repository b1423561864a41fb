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
from scipy.linalg import solve_banded

from ._phi import gauss_legendre
from .errors import QuadratureFailure, WindowTooNarrow
from .model import DetectorBand, _flat_band_log

__all__ = [
    "FormFactorGrid",
    "PiecewisePoly",
    "renormalized_form_factor",
    "form_factor_grid",
    "sum_rule_defect",
    "free_value",
]

# Band-edge rule for Sigma: Gauss-Legendre order pairs, cheap first, of a reported
# rule and a coarser one whose difference is its error estimate, the ratio of the
# ladder toward each energy and its smallest step relative to the panel it starts
# in (or |eps|, if larger), and the (energy x node) elements evaluated per block.
_ORDERS = ((12, 8), (20, 16))
_LADDER_RATIO = 4.0
_LADDER_FLOOR = 1e-13
_BLOCK = 2 ** 14


def free_value(gamma: float) -> float:
    """Measurement-free coupling density gamma/2pi."""
    return gamma / (2.0 * math.pi)


def __getattr__(name):  # formfactor.quad, which perfbench/spans.py wraps, binds on first access
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    return quad


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial in scipy ``PPoly``'s layout: c[k, i] multiplies
    (x - x[i])^(K-1-k) on [x[i], x[i+1]), K = len(c), and trailing axes of c
    are the value's.  The end cells extend past the ends; a repeated x is a
    zero-width cell, so the line is right-continuous there."""

    x: np.ndarray
    c: np.ndarray

    @classmethod
    def cubic(cls, x, y, cut=None) -> "PiecewisePoly":
        """Not-a-knot cubic splines of y on x by scipy ``CubicSpline``'s formulas, in
        pieces split before each index of ``cut`` (default: each repeated x); the
        cells across a cut are 0.  A piece of fewer than 4 points raises ValueError."""
        y = np.asarray(y, dtype=float)
        Y, h = y.reshape(len(x), -1), np.diff(x)
        cut = np.flatnonzero(h == 0.0) + 1 if cut is None else np.asarray(cut, dtype=int)
        s, e = np.r_[0, cut], np.r_[cut - 1, len(x) - 1]  # each piece's first and last node
        if np.any(e - s < 3):
            raise ValueError("a not-a-knot cubic piece needs at least 4 points")
        ab, b, H = np.zeros((3, len(x))), np.empty_like(Y), h[:, None]
        ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = h[:-1], 2 * (h[:-1] + h[1:]), h[1:]
        ds, de = x[s + 2] - x[s], x[e] - x[e - 2]  # the not-a-knot rows at the ends
        ab[1, s], ab[0, s + 1], ab[1, e], ab[2, e - 1] = h[s + 1], ds, h[e - 2], de
        ab[0, s[1:]] = ab[2, e[:-1]] = 0.0  # no coupling across a cut
        ds, de = ds[:, None], de[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # the cells across a cut
            m = np.diff(Y, axis=0) / H
            b[1:-1] = 3 * (H[1:] * m[:-1] + H[:-1] * m[1:])
            b[s] = ((H[s] + 2 * ds) * H[s + 1] * m[s] + H[s] ** 2 * m[s + 1]) / ds
            b[e] = (H[e - 1] ** 2 * m[e - 2] + (2 * de + H[e - 1]) * H[e - 2] * m[e - 1]) / de
            v = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
            t = (v[:-1] + v[1:] - 2 * m) / H
            c = np.stack((t / H, (m - v[:-1]) / H - t, v[:-1], Y[:-1]))
        c[:, cut - 1] = 0.0
        return cls(x, c.reshape(c.shape[:2] + y.shape[1:]))

    def __call__(self, x, nu=0, cell=None):
        """The value, or its ``nu``-th derivative, at x; each x in its own cell, or in ``cell``."""
        x = np.asarray(x, dtype=float)
        i = cell if cell is not None else np.clip(
            np.searchsorted(self.x, x, side="right") - 1, 0, len(self.x) - 2)
        K, dx = len(self.c), (x - self.x[i]).reshape(x.shape + (1,) * (self.c.ndim - 2))
        out, z = 0.0, 1.0
        for p in range(nu, K):  # in ascending powers, as scipy sums them
            out, z = out + self.c[K - 1 - p, i] * z * math.perm(p, nu), z * dx
        return out

    def antiderivative(self) -> "PiecewisePoly":
        """The integral from x[0]: each cell's own, plus the running sum of the cells before."""
        c = np.concatenate([(self.c.T / np.arange(len(self.c), 0, -1.0)).T,
                            np.zeros_like(self.c[:1])])
        cells = PiecewisePoly(self.x, c)(self.x[1:-1], cell=np.arange(len(self.x) - 2))
        c[-1, 1:] = np.cumsum(cells, axis=0)
        return PiecewisePoly(self.x, c)

    def integrate(self, a, b):
        """Int_a^b of the line, extrapolated past its ends like ``__call__``."""
        F = self.antiderivative()
        return F(b) - F(a)


def _split_cubic(x, y, edges=()):
    """(x, y, line): :meth:`PiecewisePoly.cubic` of y on x, broken at each
    repeated x.  Each of the sorted ``edges`` (none in x) is first put in x
    twice, each copy with the value its own side's spline extrapolates to."""
    if len(edges):
        at = np.searchsorted(x, edges)  # from the left side's last cell and the right side's first
        ends = PiecewisePoly.cubic(x, y, at)(np.repeat(edges, 2), cell=np.c_[at - 2, at].ravel())
        at, edges = np.repeat(at, 2), np.repeat(edges, 2)
        x, y = np.insert(x, at, edges), np.insert(y, at, ends)
    return x, y, PiecewisePoly.cubic(x, y)


@dataclass(frozen=True)
class FormFactorGrid:
    """Tabulated |g_mu|^2 with the window and quadrature tolerance it was built at.

    A repeated ``mu`` (a flat band's edge) holds g2's two one-sided values and
    is a zero-width interval of :meth:`interpolator`, the :func:`_split_cubic`
    line as one piecewise cubic (right-continuous there)."""

    mu: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray  # Sigma(mu + i0), at a flat band's edge its own value at both copies
    window: Tuple[float, float]
    gamma: float
    band: DetectorBand
    tol: float

    def interpolator(self) -> PiecewisePoly:
        return _split_cubic(self.mu, self.g2)[2]


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
    ... away from each edge.  Where beta*|h'| ~ beta*n*|x|^-n exceeds ~1
    outside an edge, the denominator has further zeros ~1/n off the real
    axis, so the steps stay at 2/n out to n ln|x| = ln(beta*n) + 1/2 before
    doubling again.  Past the last breakpoint X, x = +-X/u maps both tails
    onto u in (0, 1], where the subtracted poles cancel in pairs into
    2X(eps + iw)/((eps + iw)^2 u^2 - X^2); X is the first breakpoint past
    1 + max(4, 2|eps|, w), which keeps its pole off the interval.  Energies
    of one X and ladder length are summed together, so no value depends on
    its batch.
    """
    t, w = gauss_legendre(order)
    steep = 2.0 * max(1, math.ceil(0.5 * n * math.expm1((math.log(max(beta * n, 1.0)) + 0.5) / n)))
    steps = np.concatenate([[0.0, 1.0], np.arange(2.0, steep + 1.0, 2.0),
                            steep * 2.0 ** np.arange(1, 64)]) / n
    hE, dhE = _profile(eps, n)
    wE = beta * hE
    reach = np.searchsorted(steps, np.maximum(np.maximum(2.0 * np.abs(eps), wE), 4.0))
    half = np.concatenate([[0.0], 1.0 - steps[steps < 1.0],
                           1.0 + steps[:reach.max(initial=0) + 1]])
    br = np.unique(np.concatenate([-half, half]))
    p = np.searchsorted(br, eps) - 1
    top = br[p + 1] - br[p]  # the ladder starts at the width of eps's panel
    # no ladder where w underflows: nothing to resolve, and a node at eps is 0/0; nor
    # rungs below ~450 float spacings of eps, from which a node would round onto it
    floor = np.where(wE > 0.0, np.clip(wE, _LADDER_FLOOR * np.maximum(top, np.abs(eps)), top), top)
    rungs = np.ceil(np.log(top / floor) / math.log(_LADDER_RATIO)).astype(int)
    out = np.empty(len(eps), dtype=complex)
    layout = np.lexsort((rungs, reach))  # energies of one (X, rungs) share a row length
    cut = np.flatnonzero(np.diff(reach[layout]) | np.diff(rungs[layout])) + 1
    for at in filter(len, np.split(layout, cut)):  # an empty eps splits into one empty piece
        X, k = 1.0 + steps[reach[at[0]]], rungs[at[0]]
        own = br[np.abs(br) <= X]
        tail_x, tail_w = np.concatenate([X / t, -X / t]), np.tile(X / t ** 2 * w, 2)
        step = max(1, int(_BLOCK // ((len(own) + 2 * k + 4) * order)))
        for s in range(0, len(at), step):
            ix = at[s:s + step]
            e = eps[ix, None]
            lad = np.maximum(top[ix, None] * _LADDER_RATIO ** -np.arange(k + 1), floor[ix, None])
            ends = np.sort(np.concatenate([np.broadcast_to(own, (len(e), len(own))),
                                           np.clip(e - lad, -X, X), np.clip(e + lad, -X, X)],
                                          axis=1), axis=1)
            width = np.diff(ends, axis=1)[..., None]
            x = np.concatenate([(ends[:, :-1, None] + width * t).reshape(len(e), -1),
                                np.broadcast_to(tail_x, (len(e), len(tail_x)))], axis=1)
            wx = np.concatenate([(width * w).reshape(len(e), -1),
                                 np.broadcast_to(tail_w, (len(e), len(tail_w)))], axis=1)
            h, dh = _profile(x, n)
            d, a, b = e - x, beta * h, wE[ix, None]  # 1/(d + ia) = (d - ia)/(d^2 + a^2)
            q, qE = dh * wx / (d * d + a * a), dhE[ix, None] * wx / (d * d + b * b)
            out[ix] = ((q - qE) * d).sum(axis=1) - 1j * (q * a - qE * b).sum(axis=1)
    return beta / math.pi * (out - 1j * math.pi * dhE)


def _self_energy(band: DetectorBand, gamma: float, E, tol: float = 1e-9) -> np.ndarray:
    """Sigma(E + i0) over the damped photon continuum at an array of energies.

    Integrating (gamma/2pi) Int dk 1/(E - k + i pi eta_k) by parts in k gives
    Sigma(E) = -i gamma/2 + (i gamma/2) Int dk eta'_k / (E - k + i pi eta_k),
    whose integrand lives at the band edges; g2 = -Im Sigma/pi.  The flat
    band's eta'_k is two delta functions: :func:`~zenoband.model._flat_band_log`.
    On a power-law band each energy reports the finer rule of the first pair
    of ``_ORDERS`` whose two differ by at most 20*tol*max(g2, gamma/2pi) in
    g2; where none does, or not finitely, :class:`QuadratureFailure` is raised.
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
    todo, fine, err = np.arange(len(E)), np.empty(len(E), dtype=complex), np.empty(len(E))
    for pair in _ORDERS:
        fine[todo], coarse = (_edge_integral(band.n, beta, eps[todo], order) for order in pair)
        err[todo] = np.abs(fine[todo] - coarse)
        todo = todo[~(err[todo] <= 20.0 * tol * np.maximum(1.0 - fine[todo].real, 1.0))]
    if todo.size:
        i = todo[0]
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


def _default_window(band: DetectorBand, gamma: float, omega: float) -> Tuple[float, float]:
    """center +- max(50*delta, 10*eta, 550*gamma), widened to hold omega +- the same: the gamma
    term keeps even an unsuppressed line's wings to the 1e-6 the spectral route needs."""
    half = max(50.0 * band.delta, 10.0 * band.eta, 550.0 * gamma)
    return min(band.center, omega) - half, max(band.center, omega) + half


def form_factor_grid(band: DetectorBand, gamma: float,
                     window: Optional[Tuple[float, float]] = None,
                     n_points: int = 400, tol: float = 1e-9) -> FormFactorGrid:
    """Tabulate g2 over ``window`` on a grid refined at the band edges.

    The grid clusters geometrically (ratio 1.2) into both band edges, where
    the curvature of g2 is largest, and covers the rest of the window
    uniformly; a flat band's edges, where g2 jumps, are held twice with the
    one-sided values of :func:`_split_cubic`.  ``window`` must span
    center +- 5*max(delta, eta); the default is :func:`_default_window`'s.
    """
    if band.center is None:
        band = replace(band, center=0.0)
    c, delta = band.center, band.delta
    lo, hi = window or _default_window(band, gamma, c)
    need = max(5.0 * delta, 5.0 * band.eta)
    if not (lo <= c - need and hi >= c + need):  # a NaN bound fails too
        raise WindowTooNarrow(
            f"window {(lo, hi)} must cover center +- {need:g}")

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
    sigma = _self_energy(band, gamma, base, tol)
    mu, g2, _ = _split_cubic(base, -sigma.imag / math.pi, edges)
    sigma = _self_energy(band, gamma, mu, tol) if band.is_flat else sigma  # closed form
    return FormFactorGrid(mu=mu, g2=g2, sigma=sigma, window=(lo, hi), gamma=gamma,
                          band=band, tol=tol)


def sum_rule_defect(grid: FormFactorGrid) -> float:
    """Deviation integral Int_window (g2 - gamma/2pi) dmu on the grid, at its own gamma.

    Over the whole line the deviations cancel exactly; the window integral is
    the residual carried by the tails outside and shrinks like 1/window.  It
    integrates :meth:`FormFactorGrid.interpolator`, less gamma/2pi on its
    constant coefficients so that a free line gives exactly 0.  Requires the
    grid to have reached its free-value asymptote at the edges (within 1e-3
    relative), otherwise :class:`WindowTooNarrow` is raised.
    """
    pref = free_value(grid.gamma)
    edge_dev = max(abs(grid.g2[0] - pref), abs(grid.g2[-1] - pref))
    if edge_dev >= 1e-3 * pref:
        raise WindowTooNarrow(
            f"|g2 - gamma/2pi| = {edge_dev:.3e} at the window edge; "
            f"needs < {1e-3 * pref:.3e}")
    line = grid.interpolator()
    line.c[-1] -= pref
    return float(line.integrate(grid.mu[0], grid.mu[-1]))
