"""Quantum Zeno effect of an exponentially decaying atom under continuous
monitoring by a finite-bandwidth photodetector.

The library covers four layers:

* :mod:`zenoband.model` -- scenario types, validation, detector response,
  and the monitoring-regime condition report;
* :mod:`zenoband.formfactor` -- the renormalized form factor |g_mu|^2 (the
  flat band in closed form), dense grids, and the sum-rule check;
* :mod:`zenoband.dynamics` -- propagation of the single-excitation
  amplitudes on a discretized photon continuum, giving the survival, error,
  and response probabilities s, eps, r;
* :mod:`zenoband.spectral` -- the independent self-energy/spectral-function
  route to s(t), the lowest-order perturbative decay law, and the two-stage
  rates.

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
    ConditionReport,
    DetectorBand,
    ModelParams,
    NumericalControls,
    ValidatedModel,
    detector_response,
    qze_condition_report,
    validate_params,
)
from .formfactor import (
    FormFactorGrid,
    PiecewisePoly,
    form_factor_grid,
    free_value,
    renormalized_form_factor,
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
    self_energy,
    spectral_function,
    stage_rates,
    survival_amplitude_spectral,
)
from .scenario import ScenarioConfig, load_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
