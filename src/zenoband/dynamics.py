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
closes to <1e-6.  Over the taper ramp that channel is a fixed rule of
64-node Gauss-Legendre panels, three nodes per period of cos(k*T), built
once with the grid.  The detector response r never feeds back into the
amplitudes, so it is not stepped: it is the time integral of the absorbed
flux sum_j 2 pi eta_j |F_j|^2, recorded after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from ._phi import free_tail_moments, gauss_legendre, phi_functions
from .errors import NoResponse, ToleranceNotMet, ValidationError
from .model import ValidatedModel, default_cutoff, detector_response

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
_MODE_BYTES = 400        # peak bytes per core mode of discretize + propagate (356-409 measured)
_MAX_CORE_BYTES = 2 ** 30  # largest core-mode footprint discretize_continuum builds
_DELAY_XTOL = 1e-6       # response_delay tolerance in d, relative to the horizon
_DELAY_NODES = 64        # Gauss-Legendre nodes of the response_delay objective
_THETA = math.pi / 4.0   # rotation angle of the beyond-K contour
_N_ARC = 48              # quadrature nodes on the taper-ramp contour (per side)
_N_RAY = 48              # quadrature nodes on the beyond-K ray (per side)
_SCHED = 32.0            # step-doubling schedule: h <= t/_SCHED until cruise
_TAIL_GL = 64            # Gauss-Legendre nodes per tail-norm ramp panel
_TAIL_PER_PERIOD = 3.0   # tail-norm ramp nodes per period of cos(k*T)


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
    channel: ``tail_k`` are Gauss-Legendre nodes on the taper ramp [K0, K]
    and ``tail_k_weights`` their weights times (1 - W)/k^2, so that
    Int_K0^K (1-W) cos(kt)/k^2 dk = cos(t*tail_k) @ tail_k_weights.
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
    tail_k: np.ndarray           # ramp quadrature nodes of the norm channel
    tail_k_weights: np.ndarray   # node weights times (1 - W)/k^2
    step: float


@dataclass(frozen=True)
class ProbabilityTrace:
    """Sampled probabilities with an independent bookkeeping channel.

    ``r`` is the antiderivative of the cubic spline through the absorbed flux
    sum_j 2 pi eta_j |F_j|^2 recorded after every step, the same records
    that give F and eps.  It is never formed from 1 - s - eps, so
    ``norm_defect`` is a genuine consistency check.
    """

    t: np.ndarray
    s: np.ndarray
    eps: np.ndarray
    r: np.ndarray
    norm_defect: np.ndarray
    gamma: float


def _tail_contours(g2: float, K: float, K0: float):
    """Quadrature poles/weights for g2 * Int_{tail} (1-W(k)) / (E-k) dk.

    The taper ramp [K0, K] is integrated on a parabolic dip into the lower
    half plane; beyond K the two rays rotate by +-theta.  Mirror poles are
    -conj of the right-side ones with conjugate weights.  Deforming the two
    log-divergent rays in opposite senses leaves an exact E-independent arc
    mismatch of +2i*theta*g2, returned as the compensating atom shift.
    """
    span = K - K0
    x, wx = gauss_legendre(_N_ARC)
    u = x - 1j * x * (1.0 - x)
    k_arc = K0 + span * u
    dk_arc = span * (1.0 - 1j * (1.0 - 2.0 * x))
    w_arc = g2 * _ramp_poly(u) * dk_arc * wx

    y, wy = gauss_legendre(_N_RAY)
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


def _core_bytes(K: float, dk: float) -> float:
    """Estimated peak memory of the ~2K/dk core modes, before any is allocated."""
    return 2.0 * K / dk * _MODE_BYTES


def discretize_continuum(m: ValidatedModel) -> DiscretizedModel:
    """Build the propagation target from a validated scenario.

    Three input checks run before anything is allocated, each raising
    :class:`ValidationError` with the code of the key to change: ``dk`` when
    the grid spacing would place the discrete recurrence 2*pi/dk inside
    ``REVIVAL_MARGIN`` horizons, ``cutoff`` when the cutoff is below
    :func:`~zenoband.model.default_cutoff` without an explicit override, and
    ``horizon`` when the core modes would need more than ``_MAX_CORE_BYTES``.
    They live here, not in :func:`~zenoband.model.validate_params`, because
    only the propagator uses K and dk.
    """
    num = m.numerics
    K, dk, T = num.cutoff, num.dk, num.horizon
    if 2.0 * math.pi / dk <= REVIVAL_MARGIN * T:
        raise ValidationError([("dk", (
            f"dk={dk:g} puts the recurrence 2pi/dk={2 * math.pi / dk:g} inside "
            f"{REVIVAL_MARGIN}*T={REVIVAL_MARGIN * T:g}"))])
    need = default_cutoff(m.gamma, m.band, m.omega)
    if K < need and not num.allow_narrow_window:
        raise ValidationError([("cutoff", (
            f"cutoff K={K:g} below the band-derived window {need:g}; "
            "set allow_narrow_window to override"))])

    if _core_bytes(K, dk) > _MAX_CORE_BYTES:
        raise ValidationError([("horizon", (
            f"horizon T={T:g} with dk={dk:g} and cutoff K={K:g} needs ~{2.0 * K / dk:.3g} "
            f"core modes, ~{_core_bytes(K, dk) / 2 ** 30:.3g} GiB over the "
            f"{_MAX_CORE_BYTES / 2 ** 30:g} GiB limit"))])

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

    # (1-W)/k^2 is smooth, so the cost is set by cos(kt) up to t = T
    panels = math.ceil(_TAIL_PER_PERIOD * (K - K0) * T / (2.0 * math.pi * _TAIL_GL))
    x, w = gauss_legendre(_TAIL_GL)
    width = (K - K0) / panels
    tail_k = (K0 + width * (np.arange(panels)[:, None] + x)).ravel()
    tail_k_weights = (np.tile(width * w, panels) * _ramp_poly((tail_k - K0) / (K - K0))
                      / tail_k ** 2)

    return DiscretizedModel(
        k_grid=k, mode_energy=mode_energy, coupling=coupling, horizon=T,
        gamma=m.gamma, omega=m.omega, cutoff=K, taper_start=K0,
        atom_shift=atom_shift, tail_poles=poles, tail_weights=weights,
        tail_k=tail_k, tail_k_weights=tail_k_weights,
        step=num.step,
    )


class _ArrowheadKrogstad:
    """Exponential RK4 (Krogstad stages) specialised to the arrowhead system.

    The state is the atom amplitude f and the mode amplitudes u.  The mode
    rows of the nonlinear part are always f*C with C = -i*[c_core, 1...1], so
    a stage's mode rows are E*u + f*v + d*w with a scalar d per stage and
    vectors v, w that depend on h alone.  The atom row only needs cF.x, so
    ``set_step`` precomputes cF*E, cF.v and cF.w; a step is three dot
    products, scalar arithmetic and one in-place update of u.
    """

    def __init__(self, dm: DiscretizedModel):
        # rows: atom, then core modes and tail pseudo-modes
        self.L = -1j * np.concatenate([[dm.atom_shift], dm.mode_energy - dm.omega,
                                       dm.tail_poles])
        self.cF = np.concatenate([dm.coupling.astype(complex), dm.tail_weights])
        self.C = -1j * np.concatenate([dm.coupling, np.ones(len(dm.tail_poles))])

    def set_step(self, h):
        # Drop the old rows, then build one stage family at a time, so that
        # few full-length temporaries are alive at once.
        self.ab = self.cd = self.E1 = self.F = None
        C, cF = self.C, self.cF
        z = self.L * h
        E2, q1, q2 = phi_functions(z / 2.0, 2)
        q1 *= h / 2.0
        q2 *= h
        self.ab = (cF * E2[1:], np.dot(cF, q1[1:] * C), np.dot(cF, q2[1:] * C))
        atom_ab = (E2[0], q1[0], q2[0])
        del E2, q1, q2
        E1, p1, p2, p3 = phi_functions(z, 3)
        del z
        fs = (h * (p1 - 3.0 * p2 + 4.0 * p3), 2.0 * h * (p2 - 2.0 * p3), h * (-p2 + 4.0 * p3))
        p1 *= h
        p2 *= 2.0 * h
        self.cd = (cF * E1[1:], np.dot(cF, p1[1:] * C), np.dot(cF, p2[1:] * C))
        self.atom = (E1[0],) + atom_ab + (p1[0], p2[0]) + tuple(f[0] for f in fs)
        del p1, p2, p3
        self.E1 = E1[1:]
        self.F = tuple(f[1:] * C for f in fs)

    def step(self, f, u):
        """Advance by one step, ``u`` in place; returns the new f."""
        e1, e2, q1, q2, hp1, hp2, f1, f2, f3 = self.atom
        (ab_E, ab_v, ab_w), (cd_E, cd_v, cd_w) = self.ab, self.cd
        x_ab, x_cd = np.dot(ab_E, u), np.dot(cd_E, u)
        n1 = -1j * np.dot(self.cF, u)
        a0 = e2 * f + q1 * n1
        n2 = -1j * (x_ab + f * ab_v)
        b0 = a0 + q2 * (n2 - n1)
        n3 = -1j * (x_ab + f * ab_v + (a0 - f) * ab_w)
        c0 = e1 * f + hp1 * n1 + hp2 * (n3 - n1)
        n4 = -1j * (x_cd + f * cd_v + (b0 - f) * cd_w)
        u *= self.E1
        for coef, F in zip((f, a0 + b0, c0), self.F):
            u += coef * F
        return e1 * f + f1 * n1 + f2 * (n2 + n3) + f3 * n4


def _tail_norm(dm: DiscretizedModel, t: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Closed-form photon norm in the tapered tail of the continuum.

    Integration by parts of the driven-mode amplitudes gives, per +-k pair,
    |f_k|^2 = (g2/k^2) |F(t) - F(0) e^{-i k t}|^2 + O(gamma/k^3), so

        eps_tail(t) = 2 g2 J2 (|F|^2 + 1) - 4 g2 Re[F(t) conj(F0)] Phi(t)

    with J2 the one-sided Int (1-W)/k^2 and Phi its cos(kt)-weighted version
    (ramp by the Gauss-Legendre rule of ``tail_k``, beyond K via Si).  Exact
    at t = 0, where Phi = J2.
    """
    g2 = dm.gamma / (2.0 * math.pi)
    kk, wk = dm.tail_k, dm.tail_k_weights
    ramp = np.array([np.cos(tt * kk) @ wk for tt in t])  # no (times x nodes) matrix
    phi = ramp + free_tail_moments(dm.cutoff, t)[0]
    j2 = wk.sum() + 1.0 / dm.cutoff
    return 2.0 * g2 * (np.abs(F) ** 2 + 1.0) * j2 - 4.0 * g2 * F.real * phi


def propagate(dm: DiscretizedModel,
              sample_times: Optional[Sequence[float]] = None) -> ProbabilityTrace:
    """Propagate |x,0,0> and sample (s, eps, r) at the requested times.

    Deterministic for fixed inputs.  The step starts at the fastest
    pseudo-mode timescale, h0 = min(0.25/max|L|, step), and doubles once
    h <= t/64, so every scale is resolved while it is still active; since it
    doubles only while 2h <= step, it cruises at the largest h0*2^j <= step,
    generally below step.  Requested times are filled from the step records
    by cubic interpolation, and r by integrating the interpolated flux.
    Raises :class:`ToleranceNotMet` if the bookkeeping defect exceeds
    ``DEFECT_TOL`` at any sample time.
    """
    T = dm.horizon
    if sample_times is None:
        sample_times = np.linspace(0.0, T, 501)
    ts = np.asarray(sample_times, dtype=float)
    if np.any(ts < 0.0) or np.any(ts > T * (1 + 1e-12)):
        raise ValueError("sample_times must lie in [0, horizon]")

    stepper = _ArrowheadKrogstad(dm)
    h = min(0.25 / np.abs(stepper.L).max(), dm.step)
    stepper.set_step(h)

    f = 1.0 + 0.0j
    u = np.zeros(len(stepper.cF), dtype=complex)
    uc = u[:len(dm.k_grid)]
    eta2pi = 2.0 * (-dm.mode_energy.imag)  # = 2*pi*eta_j, the absorption rate
    rec = [(0.0, f.real, f.imag, 0.0, 0.0)]  # t, Re F, Im F, eps, absorbed flux J
    t = 0.0
    while t < T - 1e-12:
        if t / _SCHED >= 2.0 * h and 2.0 * h <= dm.step:
            h = 2.0 * h
            stepper.set_step(h)
        f = stepper.step(f, u)
        t += h
        abs2 = uc.real ** 2 + uc.imag ** 2
        rec.append((t, f.real, f.imag, abs2.sum(), np.dot(eta2pi, abs2)))

    rec = np.array(rec)
    spline = CubicSpline(rec[:, 0], rec[:, 1:])
    re_F, im_F, eps, _ = spline(ts).T
    r = spline.antiderivative()(ts)[:, 3]  # r = Int J dt
    F_s = re_F + 1j * im_F
    s = np.abs(F_s) ** 2
    eps = eps + _tail_norm(dm, ts, F_s)
    defect = np.abs(1.0 - (s + eps + r))
    if defect.max() > DEFECT_TOL:
        raise ToleranceNotMet(
            f"norm defect {defect.max():.3e} exceeds {DEFECT_TOL:.1e}")
    return ProbabilityTrace(t=ts, s=s, eps=eps, r=r, norm_defect=defect, gamma=dm.gamma)


def response_delay(trace: ProbabilityTrace) -> float:
    """Delay d minimizing the mean-square gap between r(t) and 1 - s(t - d).

    Bounded Brent search on d in [0, T/2].  The objective is
    (1/(T - d)) Int_d^T (r(t) - 1 + s(t - d))^2 dt on cubic splines of the
    samples, by fixed Gauss-Legendre nodes on [d, T], so it is continuous in
    d.  Raises :class:`NoResponse` when r never reaches 0.5 inside the
    horizon.
    """
    t, s, r = trace.t, trace.s, trace.r
    if r.max() < 0.5:
        raise NoResponse(f"r(t) peaks at {r.max():.3f} < 0.5; no usable response")
    s_of, r_of = CubicSpline(t, s), CubicSpline(t, r)
    u, w = gauss_legendre(_DELAY_NODES)
    T = t[-1]

    def mse(d):
        tt = d + (T - d) * u
        return float(w @ (r_of(tt) - 1.0 + s_of(tt - d)) ** 2)

    res = minimize_scalar(mse, bounds=(0.0, T / 2.0), method="bounded",
                          options={"xatol": _DELAY_XTOL * T})
    return float(res.x)


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
