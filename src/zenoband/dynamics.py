"""Single-excitation dynamics of the monitored atom.

The detector continua are eliminated exactly (flat, unbounded coupling),
leaving each photon mode with the complex energy k - i*pi*eta_k.  The atom
plus photon modes then form a linear arrowhead system

    dF/dt   = -i sum_j c_j F_j
    dF_j/dt = -i (k_j - i pi eta_{k_j}) F_j - i c_j F

propagated in a frame rotating at the transition energy.

Discretizing the photon line on a finite uniform grid alone is not good
enough: a sharp cutoff K distorts both the decay rate and the amplitude at
relative order gamma/K, and reaching the 1e-6 oracle against exp(-gamma*t)
that way costs millions of modes.  Instead the grid's couplings are tapered
smoothly to zero over the outer third of the window, and the exact remainder
of the continuum (taper ramp complement plus everything beyond K) enters as
a few hundred quadrature poles on contours rotated into the lower half
plane.  Those pseudo-modes reproduce the analytic tail self-energy to near
machine precision while decaying too fast to ring, at the price of one exact
counter-term on the atom diagonal (the arc-at-infinity mismatch of the two
rotated rays, -2i*theta*g^2).  The photon norm carried by the tapered tail
is restored by a closed-form channel so the probability bookkeeping still
closes to <1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from ._phi import free_tail_moments, phi_functions
from .errors import NoResponse, RevivalGuardViolated, ToleranceNotMet, WindowTooNarrow
from .model import ValidatedModel, detector_response

__all__ = [
    "DiscretizedModel",
    "ProbabilityTrace",
    "discretize_continuum",
    "propagate",
    "response_delay",
    "decay_rate_trace",
]

REVIVAL_MARGIN = 4.0     # discrete recurrence must lie beyond this many horizons
DEFECT_TOL = 1e-5        # largest norm defect propagate() accepts
_DELAY_XTOL = 1e-6       # response_delay bracket width, relative to the horizon
_THETA = math.pi / 4.0   # rotation angle of the beyond-K contour
_N_ARC = 48              # quadrature nodes on the taper-ramp contour (per side)
_N_RAY = 48              # quadrature nodes on the beyond-K ray (per side)
_SCHED = 32.0            # step-doubling schedule: h <= t/_SCHED until cruise


def _ramp_poly(u):
    """Analytic continuation of (1 - taper) for complex arguments."""
    return u ** 4 * (35.0 - 84.0 * u + 70.0 * u ** 2 - 20.0 * u ** 3)


def _taper(u):
    """C^3 ramp from 1 at u<=0 to 0 at u>=1 (order-7 smoothstep complement)."""
    return 1.0 - _ramp_poly(np.clip(u, 0.0, 1.0))


@dataclass(frozen=True)
class DiscretizedModel:
    """Truncated photon grid plus the contour representation of its tails.

    ``k_grid``/``mode_energy``/``coupling`` describe the physical core modes
    (energies absolute, mode_energy = k - i*pi*eta_k, couplings tapered).
    ``tail_poles``/``tail_weights`` are the complex quadrature poles carrying
    the exact out-of-window self-energy; they are bookkeeping-free and their
    probability content is restored analytically through the tail-norm
    channel (``tail_k``/``tail_profile``/``tail_j2``).
    """

    k_grid: np.ndarray
    mode_energy: np.ndarray
    coupling: np.ndarray
    horizon: float
    gamma: float
    omega: float
    cutoff: float
    taper_start: float
    atom_shift: complex          # arc counter-term, enters as diagonal energy
    tail_poles: np.ndarray       # offsets from omega, Im <= 0
    tail_weights: np.ndarray     # complex c^2 weights of the pseudo-modes
    tail_k: np.ndarray           # sampling of the ramp for the norm channel
    tail_profile: np.ndarray     # (1 - W) on tail_k
    tail_j2: float               # one-sided Int (1-W)/k^2 dk over [K0, inf)
    step: float


@dataclass(frozen=True)
class ProbabilityTrace:
    """Sampled probabilities with an independent bookkeeping channel.

    ``r`` is accumulated from the absorbed flux sum_j 2 pi eta_j |F_j|^2, not
    from 1 - s - eps, so ``norm_defect`` is a genuine consistency check.
    """

    t: np.ndarray
    s: np.ndarray
    eps: np.ndarray
    r: np.ndarray
    norm_defect: np.ndarray
    gamma: float
    amplitude: np.ndarray  # complex survival amplitude (rotating frame)


def _tail_contours(g2: float, K: float, K0: float):
    """Quadrature poles/weights for g2 * Int_{tail} (1-W(k)) / (E-k) dk.

    The taper ramp [K0, K] is integrated on a parabolic dip into the lower
    half plane; beyond K the two rays rotate by +-theta.  Mirror poles are
    -conj of the right-side ones with conjugate weights.  Deforming the two
    log-divergent rays in opposite senses leaves an exact E-independent arc
    mismatch of +2i*theta*g2, returned as the compensating atom shift.
    """
    span = K - K0
    x, wx = np.polynomial.legendre.leggauss(_N_ARC)
    x = 0.5 * (x + 1.0)
    wx = 0.5 * wx
    u = x - 1j * x * (1.0 - x)
    k_arc = K0 + span * u
    dk_arc = span * (1.0 - 1j * (1.0 - 2.0 * x))
    w_arc = g2 * _ramp_poly(u) * dk_arc * wx

    y, wy = np.polynomial.legendre.leggauss(_N_RAY)
    y = 0.5 * (y + 1.0)
    wy = 0.5 * wy
    s = K * y / (1.0 - y)
    ds = K / (1.0 - y) ** 2 * wy
    rot = np.exp(-1j * _THETA)
    k_ray = K + s * rot
    w_ray = g2 * rot * ds

    poles = np.concatenate([k_arc, k_ray])
    weights = np.concatenate([w_arc, w_ray])
    poles = np.concatenate([poles, -np.conj(poles)])
    weights = np.concatenate([weights, np.conj(weights)])
    atom_shift = -2j * _THETA * g2
    return poles, weights, atom_shift


def discretize_continuum(m: ValidatedModel) -> DiscretizedModel:
    """Build the propagation target from a validated scenario.

    Raises :class:`RevivalGuardViolated` when the grid spacing would place
    the discrete recurrence 2*pi/dk inside ``REVIVAL_MARGIN`` horizons, and
    :class:`WindowTooNarrow` when the cutoff is below the default
    10*max(delta, eta, gamma) rule without an explicit override.
    """
    num = m.numerics
    K, dk, T = num.cutoff, num.dk, num.horizon
    if 2.0 * math.pi / dk <= REVIVAL_MARGIN * T:
        raise RevivalGuardViolated(
            f"dk={dk:g} puts the recurrence 2pi/dk={2 * math.pi / dk:g} inside "
            f"{REVIVAL_MARGIN}*T={REVIVAL_MARGIN * T:g}")
    need = 10.0 * max(m.band.delta, m.band.eta, m.gamma)
    if K < need and not num.allow_narrow_window:
        raise WindowTooNarrow(
            f"cutoff K={K:g} below 10*max(delta, eta, gamma)={need:g}; "
            "set allow_narrow_window to override")

    g2 = m.gamma / (2.0 * math.pi)
    offs = np.arange(dk / 2.0, K, dk)
    offs = np.concatenate([-offs[::-1], offs])          # midpoint grid, symmetric
    k = m.omega + offs

    det = abs(m.band.center - m.omega)
    K0 = max(2.0 * K / 3.0, min(det + 3.0 * m.band.delta, 0.9 * K))
    W = _taper((np.abs(offs) - K0) / (K - K0))
    keep = W > 1e-300
    k, offs, W = k[keep], offs[keep], W[keep]
    coupling = np.sqrt(g2 * dk * W)
    eta = detector_response(m.band, k)
    mode_energy = k - 1j * math.pi * np.asarray(eta)

    poles, weights, atom_shift = _tail_contours(g2, K, K0)

    n_ramp = max(2000, int(np.ceil((K - K0) * T / 0.2)))
    tail_k = np.linspace(K0, K, n_ramp)
    tail_profile = 1.0 - _taper((tail_k - K0) / (K - K0))
    tail_j2 = float(np.trapezoid(tail_profile / tail_k ** 2, tail_k)) + 1.0 / K

    return DiscretizedModel(
        k_grid=k, mode_energy=mode_energy, coupling=coupling, horizon=T,
        gamma=m.gamma, omega=m.omega, cutoff=K, taper_start=K0,
        atom_shift=atom_shift, tail_poles=poles, tail_weights=weights,
        tail_k=tail_k, tail_profile=tail_profile, tail_j2=tail_j2,
        step=num.step,
    )


class _Krogstad:
    """Exponential RK4 (Krogstad stages) for du/dt = L u + N(u), diagonal L."""

    def __init__(self, L):
        self.L = L

    def set_step(self, h):
        self.h = h
        z = self.L * h
        self.E1 = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        p1h, p2h = phi_functions(z / 2.0, 2)
        p1, p2, p3 = phi_functions(z, 3)
        self.q1 = (h / 2.0) * p1h
        self.q2 = h * p2h
        self.hp1 = h * p1
        self.hp2 = h * p2
        self.f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * h * (p2 - 2.0 * p3)
        self.f3 = h * (-p2 + 4.0 * p3)

    def step(self, u, N):
        N1 = N(u)
        a = self.E2 * u + self.q1 * N1
        N2 = N(a)
        b = a + self.q2 * (N2 - N1)
        N3 = N(b)
        c = self.E1 * u + self.hp1 * N1 + 2.0 * self.hp2 * (N3 - N1)
        N4 = N(c)
        return self.E1 * u + self.f1 * N1 + self.f2 * (N2 + N3) + self.f3 * N4


def _tail_norm(dm: DiscretizedModel, t: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Closed-form photon norm in the tapered tail of the continuum.

    Integration by parts of the driven-mode amplitudes gives, per +-k pair,
    |f_k|^2 = (g2/k^2) |F(t) - F(0) e^{-i k t}|^2 + O(gamma/k^3), so

        eps_tail(t) = 2 g2 J2 (|F|^2 + 1) - 4 g2 Re[F(t) conj(F0)] Phi(t)

    with J2 the one-sided Int (1-W)/k^2 and Phi its cos(kt)-weighted version
    (ramp numerically, beyond-K part via Si).  Exact at t = 0, where Phi = J2.
    """
    g2 = dm.gamma / (2.0 * math.pi)
    kk, prof = dm.tail_k, dm.tail_profile
    wk = prof / kk ** 2
    out = np.empty(len(t))
    for i, tt in enumerate(t):
        ramp = np.trapezoid(wk * np.cos(kk * tt), kk)
        phi, _ = free_tail_moments(dm.cutoff, tt, head=ramp)
        f = F[i]
        out[i] = (2.0 * g2 * (abs(f) ** 2 + 1.0) * dm.tail_j2
                  - 4.0 * g2 * f.real * phi)
    return out


def propagate(dm: DiscretizedModel,
              sample_times: Optional[Sequence[float]] = None) -> ProbabilityTrace:
    """Propagate |x,0,0> and sample (s, eps, r) at the requested times.

    Deterministic for fixed inputs.  The step grows as t/32 from the fastest
    pseudo-mode timescale up to the cruise step, every scale being resolved
    while it is still active; requested times are filled from the step
    records by cubic interpolation.  Raises :class:`ToleranceNotMet` if the
    bookkeeping defect exceeds ``DEFECT_TOL`` at any sample time.
    """
    T = dm.horizon
    if sample_times is None:
        sample_times = np.linspace(0.0, T, 501)
    ts = np.asarray(sample_times, dtype=float)
    if np.any(ts < 0.0) or np.any(ts > T * (1 + 1e-12)):
        raise ValueError("sample_times must lie in [0, horizon]")

    n_core = len(dm.k_grid)
    c_core = dm.coupling
    eta2pi = 2.0 * (-dm.mode_energy.imag)  # = 2*pi*eta_j, the absorption rate
    L = np.concatenate([
        [-1j * dm.atom_shift],
        -1j * (dm.mode_energy - dm.omega),
        -1j * dm.tail_poles,
        [0.0],
    ]).astype(complex)
    cF = np.concatenate([c_core.astype(complex), dm.tail_weights])
    n_modes = len(cF)
    sl_modes = slice(1, 1 + n_modes)
    sl_core = slice(1, 1 + n_core)

    def N(u):
        out = np.empty_like(u)
        out[0] = -1j * np.dot(cF, u[sl_modes])
        out[sl_modes] = -1j * u[0]          # pseudo-mode rows couple with weight 1
        out[sl_core] = -1j * c_core * u[0]  # core rows carry the real couplings
        out[-1] = np.dot(eta2pi, np.abs(u[sl_core]) ** 2)
        return out

    u = np.zeros(2 + n_modes, dtype=complex)
    u[0] = 1.0
    stepper = _Krogstad(L)
    h0 = 0.25 / np.abs(L).max()
    h_cruise = dm.step
    h = min(h0, h_cruise)
    stepper.set_step(h)

    rec_t = [0.0]
    rec_F = [1.0 + 0.0j]
    rec_eps = [0.0]
    rec_r = [0.0]
    t = 0.0
    while t < T - 1e-12:
        if t / _SCHED >= 2.0 * h and 2.0 * h <= h_cruise:
            h = 2.0 * h
            stepper.set_step(h)
        u = stepper.step(u, N)
        t += h
        rec_t.append(t)
        rec_F.append(complex(u[0]))
        rec_eps.append(float(np.sum(np.abs(u[sl_core]) ** 2)))
        rec_r.append(float(u[-1].real))

    rec_t = np.asarray(rec_t)
    sp_re = CubicSpline(rec_t, np.real(rec_F))
    sp_im = CubicSpline(rec_t, np.imag(rec_F))
    sp_eps = CubicSpline(rec_t, rec_eps)
    sp_r = CubicSpline(rec_t, rec_r)

    F_s = sp_re(ts) + 1j * sp_im(ts)
    s = np.abs(F_s) ** 2
    eps = sp_eps(ts) + _tail_norm(dm, ts, F_s)
    r = sp_r(ts)
    defect = np.abs(1.0 - (s + eps + r))
    if defect.max() > DEFECT_TOL:
        raise ToleranceNotMet(
            f"norm defect {defect.max():.3e} exceeds {DEFECT_TOL:.1e}")
    return ProbabilityTrace(t=ts, s=s, eps=eps, r=r, norm_defect=defect,
                            gamma=dm.gamma, amplitude=F_s)


def response_delay(trace: ProbabilityTrace) -> float:
    """Delay d minimizing the mean-square gap between r(t) and 1 - s(t - d).

    Golden-section search on d in [0, T/2] over the overlap window [d, T].
    Raises :class:`NoResponse` when r never reaches 0.5 inside the horizon.
    """
    t, s, r = trace.t, trace.s, trace.r
    if r.max() < 0.5:
        raise NoResponse(f"r(t) peaks at {r.max():.3f} < 0.5; no usable response")
    s_of = CubicSpline(t, s)
    T = t[-1]

    def mse(d):
        sel = t >= d
        diff = r[sel] - (1.0 - s_of(t[sel] - d))
        return float(np.mean(diff ** 2))

    lo, hi = 0.0, T / 2.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = mse(x1), mse(x2)
    while hi - lo > _DELAY_XTOL * T:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = mse(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = mse(x2)
    return 0.5 * (lo + hi)


def decay_rate_trace(trace: ProbabilityTrace):
    """(t, ln s(t) / (gamma t)) with the t = 0 sample skipped.

    -1 marks free decay; a plateau at -2*pi*g2(omega)/gamma marks the
    suppressed stage.
    """
    if np.any(trace.s <= 0.0):
        raise ValueError("s(t) must stay positive for a decay-rate trace")
    sel = trace.t > 0.0
    t = trace.t[sel]
    return t, np.log(trace.s[sel]) / (trace.gamma * t)
