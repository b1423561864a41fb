#!/usr/bin/env python3
# Zeno vs anti-Zeno: monitoring suppresses the decay when the detection band
# sits on the atomic line, and enhances it when the line falls outside the
# band (where the form factor exceeds its free value).

import math

from zenoband import (
    DetectorBand,
    ModelParams,
    NumericalControls,
    decay_rate_trace,
    discretize_continuum,
    free_value,
    propagate,
    qze_condition_report,
    self_energy,
    validate_params,
)

gamma = 1.0
delta = 100.0 / (2 * math.pi)
eta = 100.0

for name, center in (("centered band (Zeno)", None),
                     ("band detuned by 5 Delta (anti-Zeno)", 5 * delta)):
    band = DetectorBand(eta=eta, delta=delta, n=6, center=center)
    m = validate_params(ModelParams(gamma=gamma, band=band,
                                    numerics=NumericalControls(horizon=5.0)))
    rep = qze_condition_report(m)
    g2 = -self_energy(m.band, gamma, m.omega, 1e-9).imag / math.pi
    trace = propagate(discretize_continuum(m))
    t, rate = decay_rate_trace(trace)
    print(f"{name}:")
    print(f"  verdict: {rep.verdict}")
    print(f"  g2(omega)/free = {g2 / free_value(gamma):.4f}  "
          f"-> predicted late rate {2 * math.pi * g2 / gamma:.4f} * gamma")
    print(f"  measured late rate |ln s/(gamma t)| = {abs(rate[-1]):.4f}")
    print(f"  s(5/gamma) = {trace.s[-1]:.4f}  vs free e^-5 = {math.exp(-5):.4f}\n")
