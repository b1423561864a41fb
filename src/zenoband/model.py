"""Physical scenario: atom + detection band, and the rules it must meet.

A scenario is a two-level atom with decay rate ``gamma`` and transition
energy ``omega``, whose emitted photon is absorbed by a detector that
responds only inside an energy band of half-width ``delta`` around
``center``, on a timescale ``1/eta``.  All energies are quoted in the same
unit as ``gamma``; every default threshold below is expressed as a multiple
of ``gamma`` so that scenarios related by a common rescaling of
``(gamma, omega, eta, delta)`` behave identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._phi import gauss_legendre
from .errors import ValidationError

__all__ = [
    "DetectorBand",
    "NumericalControls",
    "ModelParams",
    "validate_params",
    "default_cutoff",
    "detector_response",
]

SIGMA_BUDGET = 5e-8         # |Sigma| the window may drop at omega + 4i/T, in units of gamma
_LADDER = 1.05              # ratio between the windows default_cutoff tries
_RUNGS = 6                  # windows per _window_defect call: ~60 KB of temporaries
REVIVAL_MARGIN = 4.0        # flat bands and eta = 0: recurrence beyond this many horizons
STRIP_BUDGET = 20.7         # the pair kernel's recurrence images are down by exp(-20.7) ~ 1e-9
FLAT_CELLS = 128            # least grid cells per flat-band half-width (edge error ~1/m^2)
_MODE_BYTES = 560           # peak bytes per cell (photon + ghost) of discretize + propagate (547-550 measured)
_STEP_BYTES = 380           # peak bytes per step record of propagate (368 measured)
_MAX_CORE_BYTES = 2 ** 30   # largest footprint of modes and step records a validated model may need


@dataclass(frozen=True)
class DetectorBand:
    """Detection band: coupling density eta_k of photon modes to the detector.

    ``n`` is the (even, >= 2) falloff exponent of the power-law profile;
    ``n = None`` selects the flat infinite-exponent band, which is exactly
    eta/2pi inside ``|k - center| < delta`` and zero outside.  ``center``
    defaults to the atomic transition energy when the scenario is validated.
    """

    eta: float
    delta: float
    n: Optional[int] = 6
    center: Optional[float] = None

    @property
    def is_flat(self) -> bool:
        return self.n is None

    @property
    def strip(self) -> float:
        """delta sin(pi/n), how far eta_k's poles lie off the real k axis; 0 if flat or eta = 0."""
        return self.delta * np.sin(np.pi / self.n) if self.eta > 0.0 and not self.is_flat else 0.0


@dataclass(frozen=True)
class NumericalControls:
    """Numerical knobs; ``None`` fields are filled from the scenario scales.

    cutoff   -- half-width K of the photon window around the band centre
                (default: ``default_cutoff``)
    dk       -- uniform spacing of the photon grid (default: 2pi/(T + STRIP_BUDGET/s))
    horizon  -- propagation horizon T (default 5/gamma)
    step     -- the propagator's cruise step, reached by doubling from
                step/2^J <= 0.25/max|L| (default: 0.4/sqrt(2pi delta gamma) within
                [0.01, 0.04]/gamma; 0.01/gamma on a flat band or a strip under gamma/2)
    quad_tol -- relative tolerance of form-factor quadratures
    allow_narrow_window -- accept a cutoff below ``default_cutoff`` at the model's T,
                which validate_params otherwise refuses (code ``cutoff``)
    """

    cutoff: Optional[float] = None
    dk: Optional[float] = None
    horizon: Optional[float] = None
    step: Optional[float] = None
    quad_tol: float = 1e-9
    allow_narrow_window: bool = False


@dataclass(frozen=True)
class ModelParams:
    """A scenario, as written or as :func:`validate_params` returns it, defaults resolved."""

    gamma: float
    omega: float = 0.0
    band: DetectorBand = DetectorBand(eta=0.0, delta=1.0)
    numerics: NumericalControls = NumericalControls()


def free_value(gamma: float) -> float:
    """Measurement-free coupling density gamma/2pi."""
    return gamma / (2.0 * np.pi)


def _window_defect(gamma, band: DetectorBand, omega: float, K, eps: complex):
    """|Sigma(omega + eps)|, Im eps > 0, that window K drops: the band damping beyond it.

    (gamma/2pi) |Int_{|k - c| > K} [1/(eps - k) - 1/(eps - k + i pi eta_k)] dk|, k from
    omega, c the band centre, by Gauss-Legendre in u = K/|k - c|.  ``K`` is a window or
    a 1-D array of them, giving a float or an array; a window's value does not depend
    on the others.
    """
    u, w = gauss_legendre(64)
    Ks = np.atleast_1d(np.asarray(K, dtype=float))
    k = band.center - omega + np.array([[1.0], [-1.0]]) * (Ks[:, None, None] / u)  # both sides
    damp = 1j * np.pi * detector_response(band, omega + k)
    wk = Ks[:, None] * w / u ** 2
    with np.errstate(over="ignore"):  # an overflowed term divides to 0
        terms = damp / ((eps - k) * (eps - k + damp))
        D = np.array([free_value(gamma) * abs((m @ v).sum()) for m, v in zip(terms, wk)])
    return D if np.ndim(K) else float(D[0])


def default_cutoff(gamma, band: DetectorBand, omega: float, horizon: float) -> float:
    """Smallest half-width K around the band centre the propagator accepts without an override.

    The first K up the ladder delta * ``_LADDER``**j (each rung the last times
    ``_LADDER``) whose :func:`_window_defect` at omega + 4i/T (T = ``horizon``) is not
    above ``SIGMA_BUDGET``*gamma; _RUNGS rungs at a time.
    """
    K = band.delta
    while True:
        Ks = np.cumprod(np.r_[K, np.full(_RUNGS - 1, _LADDER)])
        D = _window_defect(gamma, band, omega, Ks, 4j / horizon)
        stop = np.flatnonzero(~(D > SIGMA_BUDGET * gamma))  # a NaN stops too
        if stop.size:
            return float(Ks[stop[0]])
        K = Ks[-1] * _LADDER


def validate_params(p: ModelParams) -> ModelParams:
    """``p`` with ``band.center`` and every ``numerics`` field resolved, once it meets every rule.

    Every rule a model must meet, each violation a ``(code, message)`` pair
    whose code is the key to change.  The raw fields come first and raise
    before any default is resolved: gamma > 0, omega finite, eta >= 0,
    delta > 0, n even and >= 2, center finite, cutoff/dk/horizon/step > 0
    where set, quad_tol in (0, 1), cutoff >= delta, delta > ``FLAT_CELLS`` float spacings
    at center, and center - omega finite (code ``center``).  Then the resolved numerics:
    dk (recurrence 2*pi/dk beyond T + ``STRIP_BUDGET``/s, or ``REVIVAL_MARGIN``*T
    with no strip s), cutoff (K >= :func:`default_cutoff` at this T unless
    ``allow_narrow_window``) and horizon, dk or step (~2K/dk cells, none at eta = 0,
    and ~T/step step records within ``_MAX_CORE_BYTES``).  Each stage raises one
    :class:`ValidationError`.  A validated scenario validates to itself.
    """
    band, num, violations = p.band, p.numerics, []
    if not np.isfinite(p.gamma) or p.gamma <= 0.0:
        violations.append(("gamma", f"gamma must be > 0, got {p.gamma}"))
    if not np.isfinite(p.omega):
        violations.append(("omega", f"omega must be finite, got {p.omega}"))
    if not np.isfinite(band.eta) or band.eta < 0.0:
        violations.append(("eta", f"eta must be >= 0, got {band.eta}"))
    if not np.isfinite(band.delta) or band.delta <= 0.0:
        violations.append(("delta", f"delta must be > 0, got {band.delta}"))
    if band.n is not None and (band.n < 2 or band.n % 2 != 0):
        violations.append(("n", f"band exponent must be even and >= 2, got {band.n}"))
    if band.center is not None and not np.isfinite(band.center):
        violations.append(("center", f"center must be finite, got {band.center}"))
    for name in ("cutoff", "dk", "horizon", "step"):
        v = getattr(num, name)
        if v is not None and (not np.isfinite(v) or v <= 0.0):
            violations.append((name, f"{name} must be > 0, got {v}"))
    if not (0.0 < num.quad_tol < 1.0):
        violations.append(("quad_tol", f"quad_tol must be in (0, 1), got {num.quad_tol}"))

    if band.center is None:
        band = replace(band, center=p.omega)
    if not violations and num.cutoff is not None and num.cutoff < band.delta:
        violations.append(
            ("cutoff", f"cutoff K={num.cutoff} is below the half-bandwidth delta={band.delta}")
        )
    if not violations and not (FLAT_CELLS * np.spacing(abs(band.center) + band.delta) < band.delta
                               and np.isfinite(abs(band.center - p.omega) + band.delta)):
        violations.append(("center", f"floats cannot resolve the band edges {band.center:g} +- "
                           f"{band.delta:g} ({FLAT_CELLS} spacings apart) at omega={p.omega:g}"))

    if violations:
        raise ValidationError(violations)

    T = num.horizon if num.horizon is not None else 5.0 / p.gamma
    need = default_cutoff(p.gamma, band, p.omega, T)
    K = num.cutoff if num.cutoff is not None else need
    # Off the Markov term only the pair kernel g2 (e^{-pi eta_k tau} - 1) recurs at 2pi/dk.  It is
    # analytic in the strip s = delta sin(pi/n) of eta_k's poles, so its images are down by
    # e^-STRIP_BUDGET once 2pi/dk clears T by STRIP_BUDGET/s (Trefethen and Weideman, SIAM Rev. 56,
    # 385 (2014)).  Flat bands (s = 0) and eta = 0 keep REVIVAL_MARGIN horizons, 1.25 times over.
    s = band.strip
    reach = T + STRIP_BUDGET / s if s else REVIVAL_MARGIN * T  # the least 2pi/dk
    guard = 2.0 * np.pi / (1.25 * reach)  # a flat band's dk = delta/m, edges on cell boundaries
    flat_dk = band.delta / max(FLAT_CELLS, np.ceil(band.delta / guard))
    dk = num.dk or (2.0 * np.pi / reach if s else flat_dk if band.eta > 0.0 else guard)
    # The Krogstad step is exact in the linear part, so the band's smoothness limits it, not the
    # stiff rows (Hochbruck and Ostermann, Acta Numer. 19, 209 (2010)).  A flat band's edges and
    # a strip under gamma/2 keep the floor.
    floor, top = 0.01 / p.gamma, 0.04 / p.gamma
    wide = min(max(0.4 / np.sqrt(2.0 * np.pi * band.delta * p.gamma), floor), top)
    step = num.step or (wide if band.eta == 0.0 or s >= 0.5 * p.gamma else floor)

    if dk > 2.0 * np.pi / reach:
        violations.append(("dk", (
            f"dk={dk:g} puts the recurrence 2pi/dk={2 * np.pi / dk:g} inside "
            f"{'T + STRIP_BUDGET/s' if s else f'{REVIVAL_MARGIN:g}*T'}={reach:g}")))
    if K < need and not num.allow_narrow_window:
        violations.append(("cutoff", (
            f"cutoff K={K:g} below the band-derived window {need:g}; "
            "set allow_narrow_window to override")))
    modes = 2.0 * K / dk if band.eta > 0.0 else 0.0
    records = T / step  # the ramp below step adds 32 per halving, well inside the margin
    core, rec = modes * _MODE_BYTES, records * _STEP_BYTES
    if core + rec > _MAX_CORE_BYTES:
        if core > rec:
            own = 2.0 * np.pi * s / STRIP_BUDGET if s else band.delta / FLAT_CELLS  # band's alone
            key = "dk" if (num.dk or own) < (2.0 * np.pi / T if s else guard) else "horizon"
        else:
            key = "step" if num.step is not None else "horizon"
        violations.append((key, (
            f"horizon T={T:g} with dk={dk:g} and cutoff K={K:g} needs ~{modes:.3g} core modes "
            f"and ~{records:.3g} step records of step={step:g}, ~{(core + rec) / 2 ** 30:.3g} "
            f"GiB over the {_MAX_CORE_BYTES / 2 ** 30:g} GiB limit")))
    if violations:
        raise ValidationError(violations)

    return replace(p, band=band, numerics=replace(num, cutoff=K, dk=dk, horizon=T, step=step))


def detector_response(band: DetectorBand, k):
    """Coupling density eta_k of the photon mode at energy ``k``.

    Power-law profile: (eta/2pi) h((k - center)/delta), h of :func:`_profile`.
    Flat profile:      (eta/2pi) inside the open band, 0 outside.
    Accepts scalars or arrays.
    """
    if band.center is None:
        raise ValidationError([("center", "band center unresolved; validate the scenario first")])
    x = np.atleast_1d((np.asarray(k, dtype=float) - band.center) / band.delta)
    peak = band.eta / (2.0 * np.pi)
    out = np.where(np.abs(x) < 1.0, peak, 0.0) if band.is_flat else peak * _profile(x, band.n)[0]
    return out if np.ndim(k) else float(out[0])


def _profile(x, n):
    """h = 1/(1 + x^n) and h' on the array x, n even; both 0 where x^n overflows."""
    p, sq, m = x, x, (n - 1) >> 1  # x^(n-1) = x (x^2)^((n-2)/2) by repeated squaring
    with np.errstate(over="ignore", invalid="ignore"):
        while m:
            sq = sq * sq
            p, m = p * sq if m & 1 else p, m >> 1
        h = p * x
        np.divide(1.0, np.add(h, 1.0, out=h), out=h)
        dh = p * h
        np.multiply(np.multiply(dh, -n, out=dh), h, out=dh)
        dh[h == 0.0] = 0.0  # h underflows only where x^n overflows, and there dh is inf * 0
    return h, dh
