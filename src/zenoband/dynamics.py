"""Single-excitation dynamics of the monitored atom.

The detector continua are eliminated exactly (flat, unbounded coupling),
leaving each photon mode with the complex energy k - i*pi*eta_k.  The free
photon line is flat and unbounded too, so its self-energy is exactly
-i*gamma/2: the atom row carries that Markov term, and only what the band
changes goes on a grid.  Each cell of a uniform grid of half-width K around
the band centre holds a damped photon mode F_j (weight c^2 = g2*dk) and an
undamped ghost G_j at the same k (weight -c^2).  The pair adds
g2*dk [1/(E - k + i pi eta_k) - 1/(E - k)] to the self-energy, which
vanishes with eta_k at the window edge.  In a frame rotating at omega

    dF/dt   = -(gamma/2) F - i c sum_j (F_j - G_j)
    dF_j/dt = -i (k_j - i pi eta_{k_j}) F_j - i c F,    dG_j/dt = -i k_j G_j - i c F

conserves s + eps + r, with the photon norm eps = sum |F_j|^2 -
sum |G_j|^2 + gamma Int |F|^2 and the detector response
r = Int sum_j 2 pi eta_j |F_j|^2, so the norm defect checks the stepping and
the records.  r never feeds back into the amplitudes, so it is not stepped:
r and the Markov outflow integrate fluxes recorded after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._phi import gauss_legendre, phi_functions
from .errors import NoResponse, ToleranceNotMet
from .formfactor import PiecewisePoly
from .model import ValidatedModel, detector_response

__all__ = [
    "DiscretizedModel",
    "ProbabilityTrace",
    "discretize_continuum",
    "propagate",
    "response_delay",
    "decay_rate_trace",
]

DEFECT_TOL = 1e-5        # largest norm defect propagate() accepts
_DELAY_XTOL = 1e-6       # response_delay tolerance in d, relative to the horizon
_DELAY_NODES = 64        # Gauss-Legendre nodes of the response_delay objective
_RAMP = 32               # steps at each size below step (twice that at the first)


@dataclass(frozen=True)
class DiscretizedModel:
    """The atom's Markov term plus the band's photon/ghost pairs on a grid.

    ``k_grid``/``mode_energy``/``coupling`` are the damped photon modes, one
    per cell of the grid of half-width ``cutoff`` around the band centre
    (energies absolute, mode_energy = k - i*pi*eta_k, coupling c =
    sqrt(g2*dk)).  Each has an undamped ghost at the same k, which the
    ``tail_*`` properties read from these fields.  ``atom_shift`` =
    -i*gamma/2 is the free line's self-energy.  At eta = 0 there are no modes.
    """

    k_grid: np.ndarray
    mode_energy: np.ndarray
    coupling: np.ndarray
    horizon: float
    gamma: float
    omega: float
    cutoff: float
    atom_shift: complex          # the Markov term, enters as diagonal energy
    step: float

    @property
    def tail_poles(self) -> np.ndarray:  # the ghosts' energies, offsets from omega
        return self.k_grid - self.omega

    @property
    def tail_weights(self) -> np.ndarray:  # the ghosts' weights in the self-energy
        return -self.coupling ** 2

    @property
    def tail_k(self) -> np.ndarray:  # the ghosts' absolute energies: k_grid itself
        return self.k_grid


@dataclass(frozen=True)
class ProbabilityTrace:
    """Sampled probabilities with an independent bookkeeping channel.

    ``r`` integrates the recorded absorbed flux and is never formed from
    1 - s - eps, so ``norm_defect`` is a genuine consistency check.
    """

    t: np.ndarray
    s: np.ndarray
    eps: np.ndarray
    r: np.ndarray
    norm_defect: np.ndarray
    gamma: float


def discretize_continuum(m: ValidatedModel) -> DiscretizedModel:
    """Build the propagation target from a validated scenario.

    It only builds: :func:`~zenoband.model.validate_params` has already checked
    the recurrence 2pi/dk >= T + STRIP_BUDGET/s, the window rule on K and the
    memory the modes need.  The cells' boundaries sit at center + j*dk.
    """
    num = m.numerics
    K, dk = num.cutoff, num.dk
    g2 = m.gamma / (2.0 * math.pi)
    # K on a cell boundary (a flat band's K = delta = m*dk) takes m cells, not m + 1
    cells = math.ceil(K / dk * (1.0 - 1e-12)) if m.band.eta > 0.0 else 0
    k = m.omega + ((m.band.center - m.omega) + dk * (np.arange(-cells, cells) + 0.5))
    return DiscretizedModel(
        k_grid=k, mode_energy=k - 1j * math.pi * detector_response(m.band, k),
        coupling=np.full(len(k), math.sqrt(g2 * dk)), horizon=num.horizon, gamma=m.gamma,
        omega=m.omega, cutoff=K, atom_shift=-0.5j * m.gamma, step=num.step,
    )


class _ArrowheadKrogstad:
    """Exponential RK4 (Krogstad stages) specialised to the arrowhead system.

    The state is the atom amplitude f and the mode amplitudes u, photons
    then ghosts.  The mode rows of the nonlinear part are always f*C with
    C = -i*c, so a stage's mode rows are E*u + f*v + d*w with a scalar d per
    stage and vectors v, w that depend on h alone.  The atom row only needs
    cF.x, so ``set_step`` precomputes cF*E, cF.v and cF.w from one phi table,
    at h/2, doubled to h; a step is three dot products, scalar arithmetic
    and one in-place update of u.
    """

    def __init__(self, dm: DiscretizedModel):
        # rows: atom, then photon modes and ghosts; the atom row reads c*(F_j - G_j)
        self.L = -1j * np.concatenate([[dm.atom_shift], dm.mode_energy - dm.omega,
                                       dm.k_grid - dm.omega])
        self.cF = np.concatenate([dm.coupling, -dm.coupling]).astype(complex)
        self.C = -1j * np.concatenate([dm.coupling, dm.coupling])

    def set_step(self, h):
        # Drop the old rows, then build one stage family at a time, so that
        # few full-length temporaries are alive at once.
        self.ab = self.cd = self.E1 = self.F = None
        C, cF = self.C, self.cF
        E2, q1, q2, q3 = phi_functions(self.L * (h / 2.0), 3)
        self.ab = (cF * E2[1:], h / 2.0 * np.dot(cF, q1[1:] * C), h * np.dot(cF, q2[1:] * C))
        atom = (E2[0], h / 2.0 * q1[0], h * q2[0])
        # The full step's phi_j from the half step's, by doubling:
        # 2^j phi_j(z) = e^{z/2} phi_j(z/2) + sum_{i=1..j} phi_i(z/2)/(j-i)!
        # e^z keeps its own exp: squaring e^{z/2} drifts s by 3e-14 in a run.
        e = np.add(E2, 1.0, out=E2)  # e^{z/2} + 1, in place: the half step's rows are built
        p3x4 = (e * q3 + q2 + 0.5 * q1) * 0.5  # 4 phi3
        p2 = (e * q2 + q1) * 0.25
        p1 = e * q1 * 0.5
        del E2, e, q1, q2, q3
        E1 = np.exp(self.L * h)
        self.cd = (cF * E1[1:], h * np.dot(cF, p1[1:] * C), 2.0 * h * np.dot(cF, p2[1:] * C))
        f3 = p3x4 - p2  # 4 phi3 - phi2
        fs = (p1 - 2.0 * p2 + f3, p2 - f3, f3)  # phi1 - 3 phi2 + 4 phi3, 2 phi2 - 4 phi3, f3
        self.atom = atom + (E1[0], h * p1[0], 2.0 * h * p2[0]) + tuple(h * f[0] for f in fs)
        del p1, p2, p3x4, f3
        self.E1 = E1[1:]
        hC = h * C
        self.F = tuple(np.multiply(f[1:], hC, out=f[1:]) for f in fs)  # in place

    def step(self, f, u):
        """Advance by one step, ``u`` in place; returns the new f."""
        e2, q1, q2, e1, hp1, hp2, f1, f2, f3 = self.atom
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


def _step_schedule(max_rate: float, step: float, T: float):
    """Record times and the runs (h, count) of :func:`propagate`'s steps.

    64 steps at h0 = step/2^J, the largest such value <= 0.25/max_rate, 32
    at each doubled size below step, then step, cut at the first record >= T.
    Below step, h <= t/32, so every transient is resolved while it is
    active; the ramp ends at t = 32*step.
    """
    sizes = [step]
    while sizes[-1] > 0.25 / max_rate:
        sizes.append(sizes[-1] / 2.0)
    h = sizes[::-1]
    counts = [2 * _RAMP] + [_RAMP] * (len(h) - 2) + [math.ceil(T / step) + 1]
    counts = counts[-len(h):]  # no ramp when step <= 0.25/max_rate already
    times = np.concatenate([[0.0], np.cumsum(np.repeat(h, counts))])
    end = int(np.searchsorted(times, T * (1.0 - 1e-12)))
    counts = np.diff(np.minimum(np.cumsum([0] + counts), end))
    return times[:end + 1], [(hi, int(c)) for hi, c in zip(h, counts) if c]


def propagate(dm: DiscretizedModel,
              sample_times: Optional[Sequence[float]] = None) -> ProbabilityTrace:
    """Propagate |x,0,0> and sample (s, eps, r) at the requested times.

    Deterministic for fixed inputs.  The step ramps up from the fastest
    row's timescale and cruises at ``step`` (:func:`_step_schedule`).
    Requested times are filled from the step records by cubic
    interpolation, and r and the Markov term's share of eps by integrating
    the interpolated fluxes.  Raises :class:`ToleranceNotMet` if the
    bookkeeping defect exceeds ``DEFECT_TOL`` at any sample time.
    """
    T = dm.horizon
    ts = np.linspace(0.0, T, 501) if sample_times is None else np.asarray(sample_times, float)
    if np.any(ts < 0.0) or np.any(ts > T * (1 + 1e-12)):
        raise ValueError("sample_times must lie in [0, horizon]")

    stepper = _ArrowheadKrogstad(dm)
    times, runs = _step_schedule(np.abs(stepper.L).max(), dm.step, T)

    f = 1.0 + 0.0j
    u = np.zeros(len(stepper.cF), dtype=complex)
    n = len(dm.k_grid)
    photons, ghosts = u[:n].view(float), u[n:].view(float)  # Re and Im interleaved
    rate = np.repeat(2.0 * (-dm.mode_energy.imag), 2)  # 2*pi*eta_j, the absorption rate
    rec = np.zeros((len(times), 5))  # Re F, Im F, mode norm, absorbed flux, gamma |F|^2
    rec[0, 0] = 1.0
    i = 0
    for h, count in runs:
        stepper.set_step(h)
        for i in range(i + 1, i + count + 1):
            f = stepper.step(f, u)
            # one pass each and no temporaries; einsum is not BLAS, so starts no threads
            rec[i, :4] = (f.real, f.imag, np.dot(photons, photons) - np.dot(ghosts, ghosts),
                          np.einsum("i,i,i", rate, photons, photons))
    rec[:, 4] = dm.gamma * (rec[:, 0] ** 2 + rec[:, 1] ** 2)

    re_F, im_F, eps = PiecewisePoly.cubic(times, rec[:, :3])(ts).T
    r, markov = PiecewisePoly.cubic(times, rec[:, 3:]).antiderivative()(ts).T  # r = Int J dt
    s, eps = re_F ** 2 + im_F ** 2, eps + markov
    defect = np.abs(1.0 - (s + eps + r))
    if defect.max() > DEFECT_TOL:
        raise ToleranceNotMet(f"norm defect {defect.max():.3e} exceeds {DEFECT_TOL:.1e}")
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
    s_of, r_of = PiecewisePoly.cubic(t, s), PiecewisePoly.cubic(t, r)
    u, w = gauss_legendre(_DELAY_NODES)
    T = t[-1]

    def mse(d):
        tt = d + (T - d) * u
        return float(w @ (r_of(tt) - 1.0 + s_of(tt - d)) ** 2)

    return float(_fminbound(mse, 0.0, T / 2.0, _DELAY_XTOL * T))


def _fminbound(f, a, b, xatol):
    """Bounded Brent minimization of f on [a, b], step for step scipy's ``fminbound``:
    a parabola through the best three points where its minimum falls well inside
    the bracket, else a golden-section step; at most 500 evaluations."""
    g = 0.5 * (3.0 - math.sqrt(5.0))
    x = w = v = a + g * (b - a)  # the best point, the second best and the one before
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(499):
        xm, tol = 0.5 * (a + b), math.sqrt(2.2e-16) * abs(x) + xatol / 3.0
        if not abs(x - xm) > 2.0 * tol - 0.5 * (b - a):
            break
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = -p if q > 0.0 else p, abs(q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, (p + 0.0) / q
            if min(x + d - a, b - (x + d)) < 2.0 * tol:
                d = tol if xm >= x else -tol
        else:
            e = a - x if x >= xm else b - x
            d = g * e
        u = x + math.copysign(max(abs(d), tol), d)
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


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
