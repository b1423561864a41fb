"""Renormalized form factor of the monitored atom.

Folding the detector continuum into the photon modes leaves the atom coupled
to a single effective continuum whose squared coupling density is

    g2(mu) = (gamma/2pi) * Int dk  eta_k / ((mu - k)^2 + (pi*eta_k)^2)
           = -Im Sigma(mu + i0)/pi.

Without a detector (eta = 0) the integrand collapses to a delta function and
g2 is the free value gamma/2pi for every mu; a finite band suppresses g2
inside the detection window and enhances it just outside, with the deviation
integrating to zero over the whole line.  The monitoring-regime report reads
its suppressed rate from the same Sigma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ._phi import _BLOCK, gauss_legendre
from .errors import QuadratureFailure, ValidationError, WindowTooNarrow
from .model import DetectorBand, ModelParams, NumericalControls, _profile, free_value

__all__ = [
    "FormFactorGrid",
    "PiecewisePoly",
    "ConditionReport",
    "self_energy",
    "qze_condition_report",
    "form_factor_grid",
    "sum_rule_defect",
    "free_value",
]

# Band-edge rule for Sigma: Gauss-Legendre order pairs (reported, coarser), cheap first; the
# ladder's ratio; the |beta h'(eps)| from which eps keeps its own ladder; most Newton steps; the
# |E - center|/delta from which Sigma is -i gamma/2 (the rest ~gamma beta/eps^2); grid points.
_ORDERS = ((12, 8), (20, 16))
_LADDER_RATIO = 4.0
_STEEP, _NEWTON, _FAR, _GRID_POINTS = 0.5, 8, 2.0 ** 100, 400

# Verdict thresholds; the underlying inequalities are asymptotic ("much
# smaller", "of order one"), so these are conventional defaults and the raw
# ratios are always reported alongside.
LINEWIDTH_RATIO_MAX = 0.1   # gamma/Delta
RESPONSE_RATIO_MAX = 1.0    # tau*Delta = Delta/eta


def _within_budget(err, g2, free, tol):
    """Sigma's error budget err = |dSigma|/pi <= 20 tol max(g2, free = gamma/2pi), in one unit."""
    return err <= 20.0 * tol * np.maximum(g2, free)


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
            v = _solve_tridiagonal(ab, b)
            # t/H, (m - v_i)/H - t, v_i, y_i with t = (v_i + v_i+1 - 2m)/H, on one buffer
            c = np.empty((4,) + m.shape)
            np.subtract(m, v[:-1], out=c[1])
            np.add(v[:-1], v[1:], out=c[0])
            m *= 2.0
            c[0] -= m
            c[0] /= H
            c[1] /= H
            c[1] -= c[0]
            c[0] /= H
            c[2], c[3] = v[:-1], Y[:-1]
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
        K, tail = len(self.c), (1,) * (self.c.ndim - 2)
        c = np.zeros((K + 1,) + self.c.shape[1:])
        np.divide(self.c, np.arange(K, 0, -1.0).reshape((K, 1) + tail), out=c[:-1])
        h = np.diff(self.x[:-1]).reshape((-1,) + tail)
        cells = c[0, :-1] * h  # each cell's integral but the last, by Horner in its width
        for row in c[1:-1, :-1]:
            cells += row
            cells *= h
        c[-1, 1:] = np.cumsum(cells, axis=0)
        return PiecewisePoly(self.x, c)


def _solve_tridiagonal(ab, b):
    """Solve A v = b for every column of the 2-D ``b``, in place, with A tridiagonal in
    LAPACK's (1, 1)-banded layout ``ab`` (super-, main and sub-diagonal rows).

    LU without pivoting, which the diagonal dominance of a spline's inner rows keeps
    stable.  The pivots d_i = A_ii - (A_i,i-1 / d_i-1) A_i-1,i converge by sweeps of all
    rows at once, each exact one row further and contracting the rest's error; the
    two substitutions run by recursive doubling, each until the products of the
    multipliers over a window fall below 2^-56.  A zero off-diagonal decouples the
    rows either side of it, as in one banded solve.
    """
    up, dg, lo = ab[0, 1:], ab[1], ab[2, :-1]
    d = dg.copy()
    for _ in range(len(d)):
        new = dg[1:] - lo / d[:-1] * up
        if np.array_equal(new, d[1:]):
            break
        d[1:] = new
    m = np.zeros_like(d)
    m[1:] = -lo / d[:-1]
    b = _linear_scan(m, b)
    # from the last row up, w_i = b_i - A_i,i+1 v_i+1 with v = w/d
    m[:-1], m[-1] = -up / d[1:], 0.0
    b = _linear_scan(m[::-1], b[::-1])[::-1]
    b /= d[:, None]
    return b


def _linear_scan(m, r):
    """r_i + m_i (r_i-1 + m_i-1 (r_i-2 + ...)) along axis 0 of ``r``, in place; m_0 = 0."""
    m, s = m.copy(), 1
    while s < len(m) and max(m.max(), -m.min()) > 2.0 ** -56:
        r[s:] += m[s:, None] * r[:-s]
        m[s:] *= m[:-s]
        s *= 2
    return r


def _split_cubic(x, y, edges):
    """(x, y) with each of the sorted ``edges`` (none in x) put in x twice, each copy
    with the value its own side's :meth:`PiecewisePoly.cubic` extrapolates to; the
    cubic of the result is broken there."""
    if len(edges):
        at = np.searchsorted(x, edges)  # from the left side's last cell and the right side's first
        ends = PiecewisePoly.cubic(x, y, at)(np.repeat(edges, 2), cell=np.c_[at - 2, at].ravel())
        at, edges = np.repeat(at, 2), np.repeat(edges, 2)
        x, y = np.insert(x, at, edges), np.insert(y, at, ends)
    return x, y


@dataclass(frozen=True)
class FormFactorGrid:
    """Tabulated |g_mu|^2 with the window and quadrature tolerance it was built at.

    ``line`` is g2's not-a-knot cubic in mu, fitted once and shared: read it,
    never write it.  A repeated ``mu`` (a flat band's edge) holds g2's two
    one-sided values and is a zero-width cell of it (right-continuous there)."""

    mu: np.ndarray
    g2: np.ndarray
    line: PiecewisePoly
    sigma: np.ndarray  # Sigma(mu + i0), at a flat band's edge its own value at both copies
    window: Tuple[float, float]
    gamma: float
    band: DetectorBand
    tol: float


def _zero(n, beta, eps, w):
    """(x* - eps, sigma): the zero x* of eps - x + i beta h(x) that Newton's steps reach
    from eps + iw, and its residue h'(x*)/(1 - i beta h'(x*)); NaN where they do not
    settle within w of eps + iw."""
    dz, done = 1j * w, np.zeros(len(eps), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON):
            z = eps + dz
            L = n * np.log(z)
            u = np.exp(np.where(L.real > 0.0, -L, L))  # z^-n or z^n, whichever is the smaller
            h = np.where(L.real > 0.0, u, 1.0) / (1.0 + u)
            dh = -n * u / ((1.0 + u) ** 2 * z)  # h' = -n h (1 - h)/z, without forming z^n
            slope = 1.0 - 1j * beta * dh
            # a step below 1e-8 w leaves ~1e-16 w: the energy stops there, whatever its batch
            step = np.where(done, 0.0, (1j * beta * h - dz) / slope)
            if not step.any():
                break
            dz, done = dz + step, done | (np.abs(step) <= 1e-8 * w)
        ok = (step == 0.0) & (np.abs(dz - 1j * w) < w) & (dz.imag > 0.0)
        return np.where(ok, dz, np.nan), np.where(ok, dh / slope, np.nan)


def _edge_integral(n, beta, eps, orders):
    """(beta/pi) Int dx h'(x) / (eps - x + i beta h(x)) at every offset ``eps``, one row
    per Gauss-Legendre order of ``orders``.

    x and ``eps`` are (k - center)/delta, and beta = eta/(2 delta).  Each energy
    subtracts one pole sigma/(x* - x), Im x* > 0, and adds back its integral
    -i pi sigma.  Where 0 < w = beta h(eps) < eps's panel width and
    |beta h'(eps)| < 1/2, the denominator's slope -1 + i beta h' stays off 0 near
    eps, so it has one zero there, within 0.45w of eps + iw: x* is that zero and
    sigma its residue (:func:`_zero`), and the rest has no feature at eps.
    Elsewhere x* = eps + iw and sigma = h'(eps), which the panels resolve where
    w >= the panel width, or 0.  All energies share the panels 0, both edges and
    steps 1/n, 2/n, 4/n, ... away from each edge; where beta*|h'| ~ beta*n*|x|^-n
    exceeds ~1 outside an edge, the denominator has further zeros ~1/n off the
    real axis, so the steps stay at 2/n out to n ln|x| = ln(beta*n) + 1/2.  Where
    these crowd eps's (|beta h'(eps)| >= 1/2) or Newton does not settle, eps adds
    eps +- its panel width and a geometric ladder toward it, down to w.  Past the
    last breakpoint X, x = +-X/u maps both tails onto u in (0, 1], where the
    subtracted poles cancel in pairs into 2X x*/(x*^2 u^2 - X^2); X is the first
    breakpoint past 1 + max(4, 2|eps|, w), which keeps that pole off the
    interval; the doubling steps run on until every energy has one.  All orders
    share the breakpoints, poles and ladders, and energies of one X and ladder
    length their nodes and profile; no value depends on its batch.
    """
    steep = 2.0 * max(1, math.ceil(0.5 * n * math.expm1((math.log(max(beta * n, 1.0)) + 0.5) / n)))
    hE, dhE = _profile(eps, n)
    wE = beta * hE
    need = np.maximum(np.maximum(2.0 * np.abs(eps), wE), 4.0)
    doublings = max(63, 1 + math.ceil(math.log2(need.max(initial=4.0) * n / steep)))
    steps = np.concatenate([[0.0, 1.0], np.arange(2.0, steep + 1.0, 2.0),
                            steep * 2.0 ** np.arange(1, doublings + 1)]) / n
    reach = np.searchsorted(steps, need)
    half = np.concatenate([[0.0], 1.0 - steps[steps < 1.0],
                           1.0 + steps[:reach.max(initial=0) + 1]])
    br = np.unique(np.concatenate([-half, half]))
    p = np.searchsorted(br, eps) - 1
    top = br[p + 1] - br[p]  # the width of eps's panel
    # each energy's pole x* = eps + off with residue res: eps + iw and h'(eps), or the zero
    off, res, crowded = 1j * wE, dhE + 0j, beta * np.abs(dhE) >= _STEEP
    fit = ~crowded & (wE > 0.0) & (wE < top)
    off[fit], res[fit] = _zero(n, beta, eps[fit], wE[fit])
    lone = crowded | ~np.isfinite(off)
    off[lone], res[lone] = 1j * wE[lone], dhE[lone]
    floor, rungs = np.minimum(wE, top), np.full(len(eps), -1)  # -1: the group's panels, no ladder
    rungs[lone] = np.ceil(np.log(top[lone] / floor[lone]) / math.log(_LADDER_RATIO))
    out = np.empty((len(orders), len(eps)), dtype=complex)
    layout = np.lexsort((rungs, reach))  # energies of one (X, rungs) share a row length
    cut = np.flatnonzero(np.diff(reach[layout]) | np.diff(rungs[layout])) + 1
    groups = filter(len, np.split(layout, cut))  # an empty eps splits into one empty piece
    for at, (o, order) in itertools.product(groups, enumerate(orders)):
        X, k, (t, w) = 1.0 + steps[reach[at[0]]], rungs[at[0]], gauss_legendre(order)
        own = br[np.abs(br) <= X]
        C, rung = len(own) + 2 * k + 1, _LADDER_RATIO ** -np.arange(k + 1)
        step = max(1, int(_BLOCK // ((C + 3) * order)))
        # a block's nodes and weights, reused: C cells', then both tails' (x = +-X/t), shared
        x, wx = np.empty((2, step if k >= 0 else 1, C + 2, order))
        x[:, C:], wx[:, C:] = np.stack([X / t, -X / t]), X / t ** 2 * w
        buf = np.empty((2, step, (C + 2) * order))
        for s in range(0, len(at), step):
            ix = at[s:s + step]
            e, m, y = eps[ix, None], len(ix), off.imag[ix, None]
            if k >= 0 or not s:  # each ladder's own nodes and profile, the group's panels' once
                rows = ix if k >= 0 else ix[:1]
                lad = np.maximum(top[rows, None] * rung, floor[rows, None])
                ends = np.sort(np.concatenate([np.broadcast_to(own, (len(rows), len(own))), np.clip(
                    eps[rows, None] + np.c_[-lad, lad], -X, X)], axis=1), axis=1)
                width, xm, wm = np.diff(ends, axis=1)[..., None], x[:len(rows)], wx[:len(rows)]
                np.add(ends[:, :-1, None], np.multiply(width, t, out=xm[:, :C]), out=xm[:, :C])
                np.multiply(width, w, out=wm[:, :C])
                xm, wm = xm.reshape(len(rows), -1), wm.reshape(len(rows), -1)
                a, q = _profile(xm, n)
                q *= wm
                a2 = np.square(np.multiply(a, beta, out=a))
            # h' wx/(d + ia) = q (d - ia)/(d^2 + a^2), d = eps - x, a = beta h, less the pole's
            # sigma wx/(x* - x) = sigma wx (p - iy)/(p^2 + y^2), x* = eps + c + iy, p = d + c
            d, r = np.subtract(e, xm, out=buf[0, :m]), buf[1, :m]
            np.add(np.multiply(d, d, out=r), a2, out=r)
            np.divide(q, r, out=r)
            if k >= 0:  # real sigma = h'(eps): the terms nearly cancel near eps, so node by node
                g = res.real[ix, None] * wm / (d * d + y * y)
                out[o, ix] = ((r - g) * d).sum(axis=1) - 1j * (r * a - g * y).sum(axis=1)
                continue
            main = (r * d).sum(axis=1) - 1j * (r * a).sum(axis=1)
            np.add(d, off.real[ix, None], out=d)
            np.add(np.multiply(d, d, out=r), y * y, out=r)
            np.divide(wm, r, out=r)
            out[o, ix] = main - res[ix] * ((r * d).sum(axis=1) - 1j * y[:, 0] * r.sum(axis=1))
    return beta / math.pi * (out - 1j * math.pi * res)


def _flat_band_log(d, eta: float, delta: float):
    """The flat band's Sigma(E + i0) in units of gamma/2pi at offset d = E - center:

        ln((d + delta + i eta/2)/(d - delta + i eta/2)) - ln|(d + delta)/(d - delta)|
        - i pi [|d| >= delta],

    one log term per band edge, where eta_k jumps.  -Im/pi is the suppression
    2 pi g2/gamma: (1/pi) [arctan((d + delta)/(eta/2)) - arctan((d - delta)/(eta/2))]
    inside the open band, plus 1 outside it.  Elementwise in d.
    """
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore"):  # Re Sigma diverges at the edges
        edges = np.log((d + delta + 0.5j * eta) / (d - delta + 0.5j * eta))
        bare = np.log(np.abs((d + delta) / (d - delta)))
    return edges - bare - 1j * np.pi * (np.abs(d) >= delta)


def self_energy(band: DetectorBand, gamma: float, E, tol: float = NumericalControls.quad_tol):
    """Sigma(E + i0) over the damped photon continuum: a complex at a scalar E, else an array.

    Integrating (gamma/2pi) Int dk 1/(E - k + i pi eta_k) by parts in k gives
    Sigma(E) = -i gamma/2 + (i gamma/2) Int dk eta'_k / (E - k + i pi eta_k),
    whose integrand lives at the band edges; g2 = -Im Sigma/pi, and a line at E
    decays at the rate -2 Im Sigma.  A band without a center is centred at 0.
    At eta = 0, and from |E - center| = ``_FAR`` delta on (an overflowed offset too),
    Sigma is -i gamma/2 on every band.  The flat band's eta'_k is two delta functions,
    closed form in :func:`_flat_band_log`, whose g2 takes the outer
    gamma/2pi exactly at an edge.  On a power-law band the pole subtracted at E is the
    denominator's own zero near E + i pi eta_E, with its residue, except where
    |pi eta'_E| >= 1/2 (:func:`_edge_integral`).  Each energy reports the finer rule of
    the first pair of ``_ORDERS`` whose two meet :func:`_within_budget`, |dSigma|/pi <=
    20*tol*max(g2, gamma/2pi), which bounds Re Sigma as well as g2; where none does, or
    not finitely, :class:`QuadratureFailure` is raised.  A non-finite E, or a tol that
    is not > 0, raises ValueError.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    E_arr = np.atleast_1d(np.asarray(E, dtype=float))
    if not np.isfinite(E_arr).all():
        raise ValueError("E must be finite")
    with np.errstate(over="ignore"):  # an offset past the float range is inf, and far
        d = E_arr - (band.center or 0.0)
    todo = np.flatnonzero((np.abs(d) < _FAR * band.delta) & (band.eta > 0.0))
    sigma = np.full(E_arr.shape, -0.5j * gamma)
    if band.is_flat:
        z = _flat_band_log(d[todo], band.eta, band.delta)
        # scaled part by part: a complex product makes Re = +-inf at an edge NaN
        sigma[todo] = free_value(gamma) * z.real + 1j * free_value(gamma) * z.imag
    elif todo.size:  # else every energy is far, or eta = 0
        near, eps, beta = todo, d[todo] / band.delta, band.eta / (2.0 * band.delta)
        fine, err, todo = np.zeros(len(eps), dtype=complex), np.zeros(len(eps)), np.arange(len(eps))
        for pair in _ORDERS:
            fine[todo], coarse = _edge_integral(band.n, beta, eps[todo], pair)
            err[todo] = np.abs(fine[todo] - coarse)
            todo = todo[~_within_budget(err[todo], 1.0 - fine[todo].real, 1.0, tol)]
        if todo.size:
            raise QuadratureFailure(f"self-energy at E={E_arr[near[todo[0]]]}: error estimate "
                                    f"{err[todo[0]]:.3e} exceeds budget for tol={tol:.1e}")
        sigma[near] = 0.5j * gamma * (fine - 1.0)
    return sigma if np.ndim(E) else complex(sigma[0])


@dataclass(frozen=True)
class ConditionReport:
    """Dimensionless regime ratios, the suppressed rate and the resulting verdict."""

    ratio_linewidth: float       # gamma/Delta
    ratio_response: float        # tau*Delta = Delta/eta
    suppression_estimate: float  # 2*pi*|g_Omega|^2/gamma = -2 Im Sigma(omega)/gamma
    verdict: str                 # "QZE-regime" | "weak-suppression" | "no-detection-overlap"


def qze_condition_report(m: ModelParams) -> ConditionReport:
    """Evaluate the two monitoring-regime ratios and classify the validated scenario ``m``.

    The suppression is the band's own decay rate over the free one,
    -2 Im Sigma(omega)/gamma from :func:`self_energy` at ``quad_tol``; on a
    centred flat band it is (2/pi) arctan(2 delta/eta).  A band that misses
    the atomic line entirely (|center - omega| > delta) is reported as
    ``no-detection-overlap`` regardless of the ratios.  Raises
    :class:`ValidationError` (code ``eta``) at eta = 0, where there is no
    measurement to report on, before Sigma is evaluated.
    """
    band = m.band
    if band.eta <= 0.0:
        raise ValidationError([("eta", "eta = 0: no measurement, condition report undefined")])
    ratio_lw = m.gamma / band.delta
    ratio_rs = band.delta / band.eta
    supp = -2.0 * self_energy(band, m.gamma, m.omega, m.numerics.quad_tol).imag / m.gamma
    if abs(m.omega - band.center) > band.delta:
        verdict = "no-detection-overlap"
    elif ratio_lw <= LINEWIDTH_RATIO_MAX and ratio_rs <= RESPONSE_RATIO_MAX:
        verdict = "QZE-regime"
    else:
        verdict = "weak-suppression"
    return ConditionReport(
        ratio_linewidth=float(ratio_lw),
        ratio_response=float(ratio_rs),
        suppression_estimate=float(supp),
        verdict=verdict,
    )


def _ladder(start, stop, s0, ratio):
    """Geometric march from ``start`` toward ``stop`` with initial step s0."""
    pts, s, sgn = [start], s0, 1.0 if stop > start else -1.0
    while (stop - (pts[-1] + sgn * s)) * sgn > 0:
        pts.append(pts[-1] + sgn * s)
        s *= ratio
    return pts[1:]


def _default_window(band: DetectorBand, gamma: float, omega: float) -> Tuple[float, float]:
    """center +- max(50*delta, 10*eta, 550*gamma), widened to hold omega +- the same: the gamma
    term holds the wings of a line no wider than the free one to the spectral route's 1e-6."""
    half = max(50.0 * band.delta, 10.0 * band.eta, 550.0 * gamma)
    return min(band.center, omega) - half, max(band.center, omega) + half


def form_factor_grid(band: DetectorBand, gamma: float,
                     window: Optional[Tuple[float, float]] = None,
                     tol: float = NumericalControls.quad_tol) -> FormFactorGrid:
    """Tabulate g2 over ``window`` on a grid refined at the band edges.

    The grid clusters geometrically (ratio 1.2) into both band edges, where
    the curvature of g2 is largest, and fills the gaps uniformly up to about
    ``_GRID_POINTS`` points; a flat band's edges, where g2 jumps, are held
    twice with the one-sided values of :func:`_split_cubic`.  ``window`` must span
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
    gaps = np.diff(base)  # large gaps between the ladders are topped up uniformly
    add = np.rint(gaps / gaps.sum() * max(_GRID_POINTS - len(base), 0)).astype(int)
    i = np.repeat(np.arange(len(gaps)), add)  # gap i's point j at j gap_i/(add_i + 1) + base_i
    fill = (np.arange(1, len(i) + 1) - np.searchsorted(i, i)) * (gaps / (add + 1))[i] + base[i]
    edges = c + np.array([-delta, delta] if band.is_flat else [])
    base = np.setdiff1d(np.r_[base, fill], edges)
    sigma = self_energy(band, gamma, base, tol)
    mu, g2 = _split_cubic(base, -sigma.imag / math.pi, edges)
    sigma = self_energy(band, gamma, mu, tol) if band.is_flat else sigma  # closed form
    return FormFactorGrid(mu=mu, g2=g2, line=PiecewisePoly.cubic(mu, g2), sigma=sigma,
                          window=(lo, hi), gamma=gamma, band=band, tol=tol)


def sum_rule_defect(grid: FormFactorGrid) -> float:
    """Deviation integral Int_window (g2 - gamma/2pi) dmu on the grid, at its own gamma.

    Over the whole line the deviations cancel exactly; the window integral is
    the residual carried by the tails outside and shrinks like 1/window.  It
    integrates the grid's ``line``, less gamma/2pi on a copy of its
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
    c = grid.line.c.copy()
    c[-1] -= pref
    return float(PiecewisePoly(grid.line.x, c).antiderivative()(grid.mu[-1]))
