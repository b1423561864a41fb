"""Exception types shared across the package."""


class ZenobandError(Exception):
    """Base class for all package errors."""


class ValidationError(ZenobandError):
    """A scenario failed validation.

    Carries the full list of violations as ``(code, message)`` pairs so a
    caller can report every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(msg for _, msg in self.violations))


class NonPositiveRate(ValidationError):
    """gamma <= 0."""


class OddExponent(ValidationError):
    """Band profile exponent n is odd (or < 2)."""


class BadWindow(ValidationError):
    """Photon cutoff K is smaller than the detection half-bandwidth."""


class ConfigError(ZenobandError):
    """Malformed scenario config file (unknown key, bad value, ...)."""


class NoDetector(ZenobandError):
    """Operation requires eta > 0 (detector response time undefined)."""


class QuadratureFailure(ZenobandError):
    """Adaptive quadrature did not reach the requested tolerance."""


class BandEdge(ZenobandError):
    """Flat-band value requested exactly at |mu - center| = Delta.

    The strict infinite-exponent limit is two-valued there; both one-sided
    values are attached.
    """

    def __init__(self, msg, inside, outside):
        super().__init__(msg)
        self.inside = inside
        self.outside = outside


class WindowTooNarrow(ZenobandError):
    """Grid/window does not cover enough of the relevant energy range."""


class RevivalGuardViolated(ZenobandError):
    """Grid spacing would put the discrete-continuum recurrence inside the horizon."""


class ToleranceNotMet(ZenobandError):
    """Propagation finished but the bookkeeping defect exceeds the tolerance."""


class NoResponse(ZenobandError):
    """Detector response probability never reached the level needed for a delay fit."""


class HorizonExceeded(ZenobandError):
    """Requested time is beyond what the spectral grid can resolve."""
