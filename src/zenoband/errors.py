"""Exception types shared across the package.

One rule sorts them: a check on the inputs, made before any numerics run,
raises :class:`ValidationError` naming the key (or :class:`ConfigError` for
a malformed config); a failure found while computing has its own class.
"""


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

    def __reduce__(self):
        # rebuilt from the violations, not from the joined message in args,
        # so the error survives the pickling of a process-pool sweep
        return type(self), (self.violations,)


class ConfigError(ZenobandError):
    """Malformed scenario config file (unknown key, bad value, ...)."""


class QuadratureFailure(ZenobandError):
    """Adaptive quadrature did not reach the requested tolerance."""


class WindowTooNarrow(ZenobandError):
    """Grid/window does not cover enough of the relevant energy range."""


class ToleranceNotMet(ZenobandError):
    """A finished result fails its own check: a norm defect, a line's area or its transform at 0."""


class NoResponse(ZenobandError):
    """Detector response probability never reached the level needed for a delay fit."""


class HorizonExceeded(ZenobandError):
    """Requested time is beyond what the spectral grid can resolve."""
