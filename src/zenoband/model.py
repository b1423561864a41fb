"""Physical scenario: atom + detection band, validation and regime report.

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

from .errors import ValidationError

__all__ = [
    "DetectorBand",
    "NumericalControls",
    "ModelParams",
    "ValidatedModel",
    "ConditionReport",
    "validate_params",
    "default_cutoff",
    "detector_response",
    "qze_condition_report",
]

# Verdict thresholds; the underlying inequalities are asymptotic ("much
# smaller", "of order one"), so these are conventional defaults and the raw
# ratios are always reported alongside.
LINEWIDTH_RATIO_MAX = 0.1   # gamma/Delta
RESPONSE_RATIO_MAX = 1.0    # tau*Delta = Delta/eta
BAND_TAIL_TOL = 1e-4        # pi*eta_k/gamma below which a photon mode counts as free


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

    def violations(self):
        out = []
        if not np.isfinite(self.eta) or self.eta < 0.0:
            out.append(("eta", f"eta must be >= 0, got {self.eta}"))
        if not np.isfinite(self.delta) or self.delta <= 0.0:
            out.append(("delta", f"delta must be > 0, got {self.delta}"))
        if self.n is not None and (self.n < 2 or self.n % 2 != 0):
            out.append(("n", f"band exponent must be even and >= 2, got {self.n}"))
        if self.center is not None and not np.isfinite(self.center):
            out.append(("center", f"center must be finite, got {self.center}"))
        return out


@dataclass(frozen=True)
class NumericalControls:
    """Numerical knobs; ``None`` fields are filled from the scenario scales.

    cutoff   -- half-width K of the retained photon energies around omega
    dk       -- uniform spacing of the photon grid
    horizon  -- propagation horizon T
    step     -- cap on the propagator's step, which cruises at the largest
                h0*2^j <= step (h0 = min(0.25/max|L|, step)), not at step
    quad_tol -- relative tolerance of form-factor quadratures
    allow_narrow_window -- waive the K >= default_cutoff(...) window rule
    """

    cutoff: Optional[float] = None
    dk: Optional[float] = None
    horizon: Optional[float] = None
    step: Optional[float] = None
    quad_tol: float = 1e-9
    allow_narrow_window: bool = False

    def violations(self):
        out = []
        for name in ("cutoff", "dk", "horizon", "step"):
            v = getattr(self, name)
            if v is not None and (not np.isfinite(v) or v <= 0.0):
                out.append((name, f"{name} must be > 0, got {v}"))
        if not (0.0 < self.quad_tol < 1.0):
            out.append(("quad_tol", f"quad_tol must be in (0, 1), got {self.quad_tol}"))
        return out


@dataclass(frozen=True)
class ModelParams:
    """User-facing scenario description (unvalidated)."""

    gamma: float
    omega: float = 0.0
    band: DetectorBand = DetectorBand(eta=0.0, delta=1.0)
    numerics: NumericalControls = NumericalControls()


@dataclass(frozen=True)
class ValidatedModel:
    """Immutable validated scenario with all defaults resolved."""

    gamma: float
    omega: float
    band: DetectorBand          # center resolved
    numerics: NumericalControls  # cutoff/dk/horizon/step resolved


@dataclass(frozen=True)
class ConditionReport:
    """Dimensionless regime ratios and the resulting verdict."""

    ratio_linewidth: float       # gamma/Delta
    ratio_response: float        # tau*Delta = Delta/eta
    suppression_estimate: float  # 2*pi*|g_Omega|^2/gamma, flat-band analytic
    verdict: str                 # "QZE-regime" | "weak-suppression" | "no-detection-overlap"


def default_cutoff(gamma, band: DetectorBand, omega: float) -> float:
    """Smallest photon window K the propagator accepts without an override.

    Ten half-bandwidths (and ten linewidths), widened to reach ten response
    widths ``10*eta`` only as far as the band still damps its modes: beyond
    ``K_band = 1.5*delta*(eta/(2*gamma*BAND_TAIL_TOL))**(1/n)`` the taper start
    2K/3 sits where pi*eta_k/gamma has fallen to ``BAND_TAIL_TOL``, and the
    modes there are free, which the contour tail poles carry exactly.  The
    flat band damps nothing outside the band, so ``K_band = 0`` there.
    """
    k_band = 0.0
    if not band.is_flat:
        k_band = 1.5 * band.delta * (band.eta / (2.0 * gamma * BAND_TAIL_TOL)) ** (1.0 / band.n)
    base = max(10.0 * band.delta, min(10.0 * band.eta, k_band), 10.0 * gamma)
    # Tail machinery in the propagator needs a minimum absolute window, and a
    # detuned band must still sit well inside the un-tapered core.
    base = max(base, 300.0 * gamma)
    off = abs(band.center - omega)
    if off > 0.0:
        base = max(base, off + 10.0 * max(band.delta, gamma))
    return base


def _default_dk(gamma, band: DetectorBand, horizon: float) -> float:
    # Revival guard with a 1.25 safety factor on top of 2*pi/dk > 4*T, a cap
    # that keeps discrete-comb corrections below the propagation tolerance,
    # and enough points across the band profile.
    guard = 2.0 * np.pi / (4.0 * horizon) / 1.25
    return min(guard, 0.15 * gamma, band.delta / 8.0)


def validate_params(p: ModelParams) -> ValidatedModel:
    """Validate a scenario and fill defaulted numerics.

    Raises :class:`ValidationError` carrying every violation found, each
    ``(code, message)`` pair naming its key.
    """
    violations = []
    if not np.isfinite(p.gamma) or p.gamma <= 0.0:
        violations.append(("gamma", f"gamma must be > 0, got {p.gamma}"))
    if not np.isfinite(p.omega):
        violations.append(("omega", f"omega must be finite, got {p.omega}"))
    violations += p.band.violations()
    violations += p.numerics.violations()

    band = p.band
    if band.center is None:
        band = replace(band, center=p.omega)

    num = p.numerics
    if not violations and num.cutoff is not None and num.cutoff < band.delta:
        violations.append(
            ("cutoff", f"cutoff K={num.cutoff} is below the half-bandwidth delta={band.delta}")
        )

    if violations:
        raise ValidationError(violations)

    horizon = num.horizon if num.horizon is not None else 5.0 / p.gamma
    cutoff = num.cutoff if num.cutoff is not None else default_cutoff(p.gamma, band, p.omega)
    dk = num.dk if num.dk is not None else _default_dk(p.gamma, band, horizon)
    step = num.step if num.step is not None else 0.01 / p.gamma
    num = replace(num, cutoff=cutoff, dk=dk, horizon=horizon, step=step)
    return ValidatedModel(gamma=p.gamma, omega=p.omega, band=band, numerics=num)


def detector_response(band: DetectorBand, k):
    """Coupling density eta_k of the photon mode at energy ``k``.

    Power-law profile: (eta/2pi) / (1 + ((k - center)/delta)^n).
    Flat profile:      (eta/2pi) inside the open band, 0 outside.
    Accepts scalars or arrays.
    """
    if band.center is None:
        raise ValidationError([("center", "band center unresolved; validate the scenario first")])
    k = np.asarray(k, dtype=float)
    x = (k - band.center) / band.delta
    peak = band.eta / (2.0 * np.pi)
    if band.is_flat:
        out = np.where(np.abs(x) < 1.0, peak, 0.0)
    else:
        with np.errstate(over="ignore"):
            out = peak / (1.0 + x ** band.n)
    return out if out.ndim else float(out)


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


def qze_condition_report(m: ValidatedModel) -> ConditionReport:
    """Evaluate the two monitoring-regime ratios and classify the scenario.

    The suppression estimate is the flat-band closed form 2 pi g2(omega)/gamma
    of :func:`_flat_band_log`, which reduces to (2/pi) * arctan(2*delta/eta)
    for a centered band.  A band that misses the atomic line entirely
    (|center - omega| > delta) is reported as ``no-detection-overlap``
    regardless of the ratios.  Raises :class:`ValidationError` (code ``eta``)
    at eta = 0, where there is no measurement to report on.
    """
    band = m.band
    if band.eta <= 0.0:
        raise ValidationError([("eta", "eta = 0: no measurement, condition report undefined")])
    ratio_lw = m.gamma / band.delta
    ratio_rs = band.delta / band.eta
    d = m.omega - band.center
    supp = -_flat_band_log(d, band.eta, band.delta).imag / np.pi
    if abs(d) > band.delta:
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
