"""A seeded survey of the scenarios the CLI can produce: every valid config
ends in a result inside the gates, or in a ValidationError raised before any
grid is built.

The draw is ROADMAP item 17's distribution at gamma = 1, omega = 0: n from
{2, 6, 24, 96, 400, 1600, flat}, 2 pi delta log-uniform on [2 pi, 1000],
eta/(2 pi delta) log-uniform on [0.01, 10], T from {2, 5, 10}, and the centre
from five classes (centred, inside, at an edge, outside, far).  The seed is
fixed and never re-drawn: a config that fails is marked strict xfail, naming
the ROADMAP item that fixes it (21, 24 or 25).  None of this draw fails.
"""

import math

import numpy as np
import pytest

from zenoband import (DetectorBand, ModelParams, NumericalControls, ValidationError,
                      discretize_continuum, form_factor_grid, propagate, spectral_function,
                      survival_amplitude_spectral, validate_params)
from zenoband.dynamics import SAMPLES
from zenoband.formfactor import _default_window

SEED, CONFIGS = 17, 24
MAX_MODES = 40_000      # configs past this many photon modes are skipped: ~1 s each
NORM_GATE, ROUTE_GATE = 1e-5, 1e-3
CENTRES = ("centred", "inside", "edge", "outside", "far")


def draw(rng):
    """One config: (band, horizon, centre class); the same number of draws every time."""
    n = (2, 6, 24, 96, 400, 1600, None)[rng.integers(7)]
    delta = math.exp(rng.uniform(math.log(2 * math.pi), math.log(1000.0))) / (2 * math.pi)
    eta = 2 * math.pi * delta * math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
    kind, side, u = CENTRES[rng.integers(5)], rng.choice([-1.0, 1.0]), rng.uniform()
    offset = {"centred": 0.0, "inside": (1.8 * u - 0.9) * delta, "edge": delta + 4.0 * u - 2.0,
              "outside": (1.2 + 3.8 * u) * delta, "far": delta * 10.0 ** (1.0 + u)}[kind]
    center = offset if kind == "inside" else side * offset
    horizon = (2.0, 5.0, 10.0)[rng.integers(3)]
    return DetectorBand(eta=eta, delta=delta, n=n, center=center), horizon, kind


def cases():
    rng = np.random.default_rng(SEED)
    for i in range(CONFIGS):
        band, horizon, kind = draw(rng)
        yield pytest.param(band, horizon, id=f"{i:02d}-n{band.n or 'flat'}-{kind}-T{horizon:g}")


@pytest.mark.parametrize("band,horizon", cases())
def test_config_meets_the_gates_or_is_refused(band, horizon):
    try:
        m = validate_params(ModelParams(gamma=1.0, band=band,
                                        numerics=NumericalControls(horizon=horizon)))
    except ValidationError:
        return
    modes = 2.0 * m.numerics.cutoff / m.numerics.dk if band.eta > 0.0 else 0.0
    if modes > MAX_MODES:
        pytest.skip(f"~{modes:.0f} photon modes")
    t = np.linspace(0.0, horizon, SAMPLES)
    trace = propagate(discretize_continuum(m), t)
    grid = form_factor_grid(m.band, m.gamma, _default_window(m.band, m.gamma, m.omega),
                            tol=m.numerics.quad_tol)
    s = np.abs(survival_amplitude_spectral(spectral_function(grid, m.omega), t)) ** 2
    assert trace.norm_defect.max() <= NORM_GATE
    assert np.abs(s - trace.s).max() <= ROUTE_GATE
