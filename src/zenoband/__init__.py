"""Quantum Zeno effect of an exponentially decaying atom under continuous
monitoring by a finite-bandwidth photodetector.

The library covers four layers:

* :mod:`zenoband.model` -- the scenario type, its validation and the
  detector response;
* :mod:`zenoband.formfactor` -- the self-energy Sigma(E + i0) over the
  band-renormalized continuum, whose -Im/pi is the form factor |g_mu|^2 and
  whose -2 Im at omega is the suppressed decay rate (the flat band in closed
  form), dense grids, the sum-rule check and the monitoring-regime
  condition report;
* :mod:`zenoband.dynamics` -- propagation of the single-excitation
  amplitudes on a discretized photon continuum, giving the survival, error,
  and response probabilities s, eps, r;
* :mod:`zenoband.spectral` -- the independent spectral-function route to
  s(t) and the lowest-order perturbative decay law.

:mod:`zenoband.scenario` and :mod:`zenoband.cli` orchestrate config-driven
runs that reproduce the paper-style figure data as CSV files.
"""

from .errors import (
    ConfigError,
    HorizonExceeded,
    NoResponse,
    QuadratureFailure,
    ToleranceNotMet,
    ValidationError,
    WindowTooNarrow,
    ZenobandError,
)
from .model import (
    DetectorBand,
    ModelParams,
    NumericalControls,
    detector_response,
    validate_params,
)
from .formfactor import (
    ConditionReport,
    FormFactorGrid,
    PiecewisePoly,
    form_factor_grid,
    free_value,
    qze_condition_report,
    self_energy,
    sum_rule_defect,
)
from .dynamics import (
    DiscretizedModel,
    ProbabilityTrace,
    decay_rate_trace,
    discretize_continuum,
    propagate,
    response_delay,
)
from .spectral import (
    SpectralFunction,
    perturbative_decay,
    spectral_function,
    survival_amplitude_spectral,
)
from .scenario import ScenarioConfig, load_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
