#!/usr/bin/env python3
# The Zeno effect for an exactly exponential decay: with a fast in-band
# detector the decay rate drops from gamma to 2*pi*|g_Omega|^2 = -2 Im Sigma(omega)
# once t >~ 1/Delta.  ln s(t)/(gamma t) visualizes the two stages.

import math

import numpy as np

from zenoband import (
    DetectorBand,
    ModelParams,
    NumericalControls,
    decay_rate_trace,
    discretize_continuum,
    propagate,
    self_energy,
    validate_params,
)

print("{2piDelta/gamma, eta/gamma}   suppressed/free rate")
models = {}
for tpd, eta in ((100.0, 100.0), (100.0, 10.0), (1000.0, 1000.0)):
    delta = tpd / (2 * math.pi)
    m = validate_params(ModelParams(
        gamma=1.0, band=DetectorBand(eta=eta, delta=delta, n=6),
        numerics=NumericalControls(horizon=5.0)))
    supp = -2.0 * self_energy(m.band, m.gamma, m.omega, m.numerics.quad_tol).imag
    models[(tpd, eta)] = (m, supp)
    print(f"      {{{tpd:6g}, {eta:6g}}}            {supp / m.gamma:.4f}")

tpd, eta = 100.0, 100.0
m, supp = models[(tpd, eta)]
delta = m.band.delta
samples = np.unique(np.concatenate([
    [0.0], np.geomspace(1e-2 / delta, 5.0, 161), np.linspace(0.0, 5.0, 501)]))
trace = propagate(discretize_continuum(m), samples)
t, rate = decay_rate_trace(trace)

print(f"\ndecay rate trace for {{{tpd:g}, {eta:g}}} "
      f"(free = -1, suppressed = {-supp:.4f}):")
print("   t*Delta    ln s/(gamma t)")
for x in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 79.0):
    i = np.argmin(np.abs(t - x / delta))
    print(f"   {t[i] * delta:7.2f}    {rate[i]:+.4f}")
print("\nthe atom decays at the free rate until t ~ 1/Delta, then at the")
print("suppressed rate set by the renormalized form factor at the line.")
