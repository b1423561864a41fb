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
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import quad

from ._phi import gauss_legendre
from .errors import BandEdge, QuadratureFailure, WindowTooNarrow
from .model import DetectorBand, _flat_band_log, detector_response

__all__ = [
    "FormFactorGrid",
    "renormalized_form_factor",
    "analytic_flat_band",
    "form_factor_grid",
    "sum_rule_defect",
    "free_value",
]

# Width (in units of pi*eta_mu) of the explicitly substituted peak region,
# and the relative peak width below which the peak is treated as a delta.
_PEAK_SPAN = 50.0
_DELTA_LIMIT = 1e-12

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


@dataclass(frozen=True)
class FormFactorGrid:
    """Tabulated |g_mu|^2 with the window it was built at."""

    mu: np.ndarray
    g2: np.ndarray
    window: Tuple[float, float]
    gamma: float
    band: DetectorBand

    def interpolator(self):
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.mu, self.g2)


def _integrand(band, gamma, mu):
    pref = gamma / (2.0 * math.pi)

    def f(k):
        e = detector_response(band, k)
        return pref * e / ((mu - k) ** 2 + (math.pi * e) ** 2)

    return f


def _quad_checked(f, a, b, tol, abs_scale, pieces, points=None):
    with warnings.catch_warnings():
        # ask for 10x more than needed; the accumulated-error budget at the
        # end of renormalized_form_factor is the authoritative check
        warnings.simplefilter("ignore")
        val, err = quad(f, a, b, points=points, limit=400,
                        epsabs=0.1 * tol * abs_scale, epsrel=0.1 * tol)
    pieces.append((val, err))
    return val


def renormalized_form_factor(band: DetectorBand, gamma: float, mu: float,
                             tol: float = 1e-10) -> float:
    """Evaluate g2(mu) by adaptive quadrature.

    The integrand has a peak of half-width pi*eta_mu at k = mu carrying unit
    weight; the domain is split there (with a rescaled inner variable when
    the peak is narrow) and at the band edges.  Where eta vanishes -- outside
    a flat band, or when the power-law peak is too narrow to resolve -- the
    peak degenerates to a delta function and contributes gamma/2pi exactly.

    Raises :class:`QuadratureFailure` if the accumulated error estimate
    exceeds the requested tolerance.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if band.center is None:
        band = replace(band, center=0.0)
    pref = free_value(gamma)
    if band.eta == 0.0:
        return pref

    c, delta = band.center, band.delta
    f = _integrand(band, gamma, mu)
    pieces = []

    if band.is_flat:
        inside = abs(mu - c) < delta
        pts = [mu] if inside else None
        total = _quad_checked(f, c - delta, c + delta, tol, pref, pieces, points=pts)
        if detector_response(band, mu) == 0.0:
            total += pref  # undamped modes outside the band keep their free weight
    else:
        eta_mu = detector_response(band, mu)
        w_peak = math.pi * eta_mu
        scale = max(abs(mu - c), delta)
        total = 0.0
        if w_peak < _DELTA_LIMIT * scale:
            total += pref
            peak_lo = peak_hi = mu
        else:
            # widen the rescaled window until it reaches the band-structure
            # scale, so the peak together with its whole 1/u^2 shoulder is
            # integrated in one well-conditioned variable
            span = max(_PEAK_SPAN, 2.0 * (abs(mu - c) + delta) / w_peak)
            peak_lo, peak_hi = mu - span * w_peak, mu + span * w_peak

            def fu(u):
                # offset form: mu - k is w_peak*u exactly, with no
                # cancellation against the large absolute energy
                x = w_peak * u
                e = detector_response(band, mu + x)
                return pref * w_peak * e / (x * x + (math.pi * e) ** 2)

            # decade ladder keeps every subinterval's scale ratio bounded, so
            # the unit-width peak can never hide between quadrature nodes
            ladder = {s * 10.0 ** m for m in range(0, 16) for s in (-1.0, 1.0)}
            upts = {0.0} | {u for u in ladder if -span < u < span}
            upts |= {(e - mu) / w_peak for e in (c - delta, c + delta)
                     if -span < (e - mu) / w_peak < span}
            total += _quad_checked(fu, -span, span, tol, pref, pieces,
                                   points=sorted(upts))
        breaks = sorted({c - delta, c + delta, peak_lo, peak_hi})
        segs = [(-np.inf, breaks[0])] + list(zip(breaks[:-1], breaks[1:])) + [(breaks[-1], np.inf)]
        for a, b in segs:
            if a == b or (peak_lo <= a and b <= peak_hi):
                continue  # empty, or covered by the substituted peak integral
            total += _quad_checked(f, a, b, tol, pref, pieces)

    err = sum(e for _, e in pieces)
    if err > 20.0 * tol * max(abs(total), pref):
        raise QuadratureFailure(
            f"form factor at mu={mu}: error estimate {err:.3e} exceeds budget "
            f"for tol={tol:.1e}")
    return float(total)


def analytic_flat_band(gamma: float, eta: float, delta: float, mu: float,
                       center: float = 0.0) -> float:
    """Closed form of g2(mu) for the flat infinite-exponent band.

    (gamma/2pi^2) * [arctan((mu - c + delta)/(eta/2))
                     - arctan((mu - c - delta)/(eta/2))]
    plus gamma/2pi outside the band, where the undamped modes contribute a
    delta-function term: -1/pi times the imaginary part of the flat-band
    self-energy.  Exactly at the band edge the infinite-exponent limit is
    two-valued; :class:`BandEdge` carries both one-sided values.
    """
    pref = free_value(gamma)
    d = mu - center
    if eta == 0.0:
        return pref
    g2 = -pref / math.pi * float(_flat_band_log(d, eta, delta).imag)
    if abs(d) == delta:
        raise BandEdge(
            f"mu - center = {d:+g} is exactly at the band edge (delta={delta})",
            inside=g2 - pref, outside=g2)
    return g2


def _profile(x, n):
    """h = 1/(1 + x^n) and h' in band units; both 0 where x^n overflows."""
    p, sq, m = np.ones_like(x), x, n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m:  # x^(n-1) by repeated squaring, far cheaper than a float power
            if m & 1:
                p = p * sq
            sq, m = sq * sq, m >> 1
        h = 1.0 / (1.0 + p * x)
        dh = np.where(h > 0.0, -n * p * h * h, 0.0)
    return h, dh


def _edge_integral(n, beta, eps, order):
    """(beta/pi) Int dx h'(x) / (eps - x + i beta h(x)) at every offset ``eps``.

    x and ``eps`` are (k - center)/delta, and beta = eta/(2 delta).  The pole
    h'(eps)/(eps - x + i w), w = beta h(eps), is subtracted and its integral
    -i pi h'(eps) added back.  The rest keeps a feature of width w at x = eps
    (the peak :func:`renormalized_form_factor` rescales), so each energy adds
    a geometric ladder toward eps, down to w, to panels shared by all
    energies: 0, both edges, and steps 1/n, 2/n, 4/n, ... away from each
    edge.  Past the last breakpoint X, x = +-X/u maps both tails onto
    u in (0, 1], where the subtracted poles cancel in pairs.
    """
    t, w = gauss_legendre(order)
    steps = np.concatenate([[0.0], 2.0 ** np.arange(64)]) / n
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
    floor = np.clip(wE, _LADDER_FLOOR * top, top)
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
    ``_ORDERS`` differ by more than 20*tol*max(g2, gamma/2pi) in g2.
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
    bad = np.flatnonzero(err > 20.0 * tol * np.maximum(1.0 - fine.real, 1.0))
    if bad.size:
        i = bad[0]
        raise QuadratureFailure(f"self-energy at E={E[i]}: error estimate {err[i]:.3e} "
                                f"exceeds budget for tol={tol:.1e}")
    return 0.5j * gamma * (fine - 1.0)


def _ladder(start, stop, s0, ratio):
    """Geometric march from ``start`` toward ``stop`` with initial step s0."""
    pts = []
    x, s = start, s0
    sgn = 1.0 if stop > start else -1.0
    while True:
        x = x + sgn * s
        if (stop - x) * sgn <= 0:
            break
        pts.append(x)
        s *= ratio
    return pts


def form_factor_grid(band: DetectorBand, gamma: float,
                     window: Optional[Tuple[float, float]] = None,
                     n_points: int = 400, tol: float = 1e-9) -> FormFactorGrid:
    """Tabulate g2 over ``window`` on a grid refined at the band edges.

    The grid clusters geometrically (ratio 1.2) into both band edges, where
    the curvature of g2 is largest, and covers the rest of the window
    uniformly.  ``window`` must span center +- 5*max(delta, eta); the default
    is center +- max(50*delta, 10*eta, 550*gamma), the gamma term keeping
    even an unsuppressed Lorentzian line inside the window with its wings
    decayed to the 1e-6 level needed by the spectral route.
    """
    if band.center is None:
        band = replace(band, center=0.0)
    c, delta = band.center, band.delta
    if window is None:
        half = max(50.0 * delta, 10.0 * band.eta, 550.0 * gamma)
        window = (c - half, c + half)
    lo, hi = window
    need = max(5.0 * delta, 5.0 * band.eta)
    if lo > c - need or hi < c + need:
        raise WindowTooNarrow(
            f"window {window} must cover center +- {need:g}")

    ratio = 1.2
    s_min = delta / 200.0
    pts = {lo, hi, c, c - delta, c + delta}
    for edge in (c - delta, c + delta):
        for limit in (hi, lo):
            pts.update(_ladder(edge, limit, s_min, ratio))
    base = np.asarray(sorted(pts))
    # top up with uniform coverage so large gaps between ladders are filled
    n_fill = max(n_points - len(base), 0)
    if n_fill:
        gaps = np.diff(base)
        add = np.rint(gaps / gaps.sum() * n_fill).astype(int)
        fill = [np.linspace(base[i], base[i + 1], add[i] + 2)[1:-1]
                for i in range(len(gaps)) if add[i] > 0]
        if fill:
            base = np.unique(np.concatenate([base] + fill))
    g2 = -_self_energy(band, gamma, base, tol).imag / math.pi
    return FormFactorGrid(mu=base, g2=g2, window=(lo, hi), gamma=gamma, band=band)


def sum_rule_defect(grid: FormFactorGrid, gamma: float) -> float:
    """Deviation integral Int_window (g2 - gamma/2pi) dmu on the grid.

    Over the whole line the deviations cancel exactly; the window integral is
    the residual carried by the tails outside and shrinks like 1/window.
    Requires the grid to have reached its free-value asymptote at the edges
    (within 1e-3 relative), otherwise :class:`WindowTooNarrow` is raised.
    """
    pref = free_value(gamma)
    edge_dev = max(abs(grid.g2[0] - pref), abs(grid.g2[-1] - pref))
    if edge_dev >= 1e-3 * pref:
        raise WindowTooNarrow(
            f"|g2 - gamma/2pi| = {edge_dev:.3e} at the window edge; "
            f"needs < {1e-3 * pref:.3e}")
    return float(np.trapezoid(grid.g2 - pref, grid.mu))
