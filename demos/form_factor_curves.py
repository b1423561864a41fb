#!/usr/bin/env python3
# The renormalized form factor |g_mu|^2: how a finite detection band reshapes
# the atom's coupling density -- suppressed inside the band, enhanced just
# outside, returning to the free value gamma/2pi far away, with the
# deviations integrating to zero (sum rule).

import math

import numpy as np

from zenoband import DetectorBand, form_factor_grid, free_value, sum_rule_defect

gamma, delta = 1.0, 1.0
free = free_value(gamma)

print("eta/2piDelta   g2(0)/free   max g2/free (outside)   sum-rule defect")
for ratio in (0.01, 0.1, 1.0):
    band = DetectorBand(eta=ratio * 2 * math.pi * delta, delta=delta, n=6, center=0.0)
    grid = form_factor_grid(band, gamma, window=(-80 * delta, 80 * delta), tol=1e-9)
    center = grid.g2[np.argmin(np.abs(grid.mu))] / free
    outside = (np.abs(grid.mu) > delta) & (np.abs(grid.mu) < 4 * delta)
    peak = grid.g2[outside].max() / free
    defect = sum_rule_defect(grid)
    print(f"   {ratio:5.2f}        {center:.4f}            {peak:.4f}            "
          f"{defect:+.2e}")

print("\nprofile for eta/2piDelta = 1 (mu in units of Delta):")
band = DetectorBand(eta=2 * math.pi * delta, delta=delta, n=6, center=0.0)
grid = form_factor_grid(band, gamma, window=(-80 * delta, 80 * delta), tol=1e-9)
for x in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 40.0):
    i = np.argmin(np.abs(grid.mu - x * delta))
    bar = "#" * int(round(40 * grid.g2[i] / free))
    print(f"  mu = {x:5.1f} Delta   g2/free = {grid.g2[i] / free:6.4f}  {bar}")
