import math
import tracemalloc

import numpy as np
import pytest
from conftest import phi_reference
from scipy.special import sici as scipy_sici

from zenoband._phi import (free_tail_moments, kernel_antiderivatives,
                          kernel_oscillation_weights, kernel_smooth_cells, kernel_smooth_parts,
                          phase_blocks, phi_functions, sici)

# Largest relative gap of phi_1..phi_3 to the frozen reference formula,
# about 3x the largest measured: 4.4e-16 (all on the disc), 1.1e-15 and
# 1.0e-14 (sample_points near |z| = 0.5, where both formulas cancel most).
PHI_BOUNDS = (1.5e-15, 3.5e-15, 3.5e-14)


def sample_points():
    radii = np.array([1e-12, 1e-3, 0.2, 0.4999999, 0.5, 0.5000001, 0.8, 3.0, 40.0])
    angles = np.linspace(0.0, 2.0 * math.pi, 13)  # includes +-pure imaginary and negative real
    z = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    extra = [0.0, 0.3j, -0.3j, 2.0j, -0.49, -0.51, -30.0, -700.0, -1e5, -1e5 + 1e3j]
    return np.concatenate([extra, z])


def rel_gaps(z, nmax):
    got = phi_functions(z, nmax)
    assert len(got) == nmax + 1
    return [np.max(np.abs(new - ref) / np.abs(ref)) for new, ref in
            zip(got[1:], phi_reference(z, nmax))]


@pytest.mark.parametrize("nmax", [1, 2, 3])
def test_matches_reference_formula(nmax):
    z = sample_points()
    assert (np.abs(z) < 0.5).any() and (np.abs(z) >= 0.5).any()
    for gap, bound in zip(rel_gaps(z, nmax), PHI_BOUNDS):
        assert gap <= bound


@pytest.mark.parametrize("z", [
    0.49 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 50)) * np.linspace(0.0, 1.0, 50),
    np.exp(1j * np.linspace(0.5 * math.pi, 1.5 * math.pi, 50)) * np.geomspace(0.5, 1e4, 50),
    1e-14 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 7)),
], ids=["all-on-disc", "all-off-disc", "tiny"])
def test_single_region_arrays(z):
    for gap, bound in zip(rel_gaps(z, 3), PHI_BOUNDS):
        assert gap <= bound


def test_keeps_shape():
    z = np.array([[0.1, 3.0], [-2.0j, 0.2j]])
    assert all(p.shape == (2, 2) for p in phi_functions(z, 3))
    assert all(p.shape == (0,) for p in phi_functions(np.zeros(0), 2))


def test_scalar_argument():
    for z in (0.25j, -3.0):
        got = phi_functions(z, 3)
        assert all(np.ndim(p) == 0 for p in got)
        for new, ref, bound in zip(got[1:], phi_reference(z, 3), PHI_BOUNDS):
            assert abs(complex(new) - complex(ref)) <= bound * abs(complex(ref))


def test_phi0_is_exp():
    z = sample_points()
    assert phi_functions(z, 2)[0].tobytes() == np.exp(z).tobytes()


@pytest.mark.parametrize("nmax", [1, 3, 4])
def test_mixed_table_is_its_parts_bit_for_bit(nmax):
    # each rule runs on its own elements only, so an element's value does not
    # depend on what shares its table
    z = sample_points()
    on_disc = np.abs(z) < 0.5
    mixed = phi_functions(z, nmax)
    for part in (on_disc, ~on_disc):
        for whole, alone in zip(mixed, phi_functions(z[part], nmax)):
            assert whole[part].tobytes() == alone.tobytes()


def kernel_series(y, t):
    """The four antiderivatives of kernel_antiderivatives as power series in y = x t."""
    terms = range(1, 30)
    si = sum((-1) ** k * y ** (2 * k + 1) / ((2 * k + 1) * math.factorial(2 * k + 1))
             for k in range(30))
    one_minus_cos_over_y = sum((-1) ** (k + 1) * y ** (2 * k - 1) / math.factorial(2 * k)
                               for k in terms)
    cin = sum((-1) ** (k + 1) * y ** (2 * k) / (2 * k * math.factorial(2 * k)) for k in terms)
    y_minus_sin = sum((-1) ** (k + 1) * y ** (2 * k + 1) / math.factorial(2 * k + 1)
                      for k in terms)
    # y^2/2 - y sin y + 1 - cos y = sum_{m>=2} (-1)^m (2m - 1) y^2m / (2m)!
    cubic = sum((-1) ** m * (2 * m - 1) * y ** (2 * m) / math.factorial(2 * m)
                for m in range(2, 30))
    return (t * (si - one_minus_cos_over_y), cin, y_minus_sin / t, cubic / t ** 2)


@pytest.mark.parametrize("t", [1e-6, 0.3, 700.0])
def test_kernel_antiderivatives_match_small_argument_series(t):
    # |y| = 1 is where the closed forms take over from the series
    y = np.array([1e-8, -1e-8, 1e-4, -1e-2, 1e-2, 0.3, -0.9999999, 0.9999999, 1.0000001,
                  -1.0000001, 1.5])
    got = kernel_antiderivatives(y / t, t)
    for j, (g, want) in enumerate(zip(got, zip(*(kernel_series(v, t) for v in y)))):
        np.testing.assert_allclose(g, np.array(want), rtol=1e-13, atol=0.0, err_msg=f"k = {j}")


@pytest.mark.parametrize("t", [0.3, 3.0, 700.0])
def test_kernel_antiderivatives_differentiate_to_kernel(t):
    y = np.array([-40.0, -3.0, -0.7, -1e-3, 2e-3, 0.4, 1.3, 9.0, 250.0])
    x = y / t
    h = 1e-5 * np.abs(x)
    up, dn = kernel_antiderivatives(x + h, t), kernel_antiderivatives(x - h, t)
    one_minus_cos = 2.0 * np.sin(y / 2.0) ** 2
    for j in range(4):  # x^j (1 - cos)/x^2; the closed forms for j >= 2 cancel at small |y|
        got = (up[j] - dn[j]) / (2.0 * h) / x ** (j - 2.0)
        np.testing.assert_allclose(got, one_minus_cos, rtol=1e-6, atol=1e-10 if j >= 2 else 0.0)


def test_kernel_antiderivatives_vanish_and_are_continuous_at_zero():
    t = 4.0
    assert all(np.all(f == 0.0) for f in kernel_antiderivatives(np.array([0.0, 0.0]), t))
    f0, f1, f2, f3 = kernel_antiderivatives(np.array([-1e-8, -0.3e-8, 0.3e-8, 1e-8]) / t, t)
    assert all(np.all(np.isfinite(f)) for f in (f0, f1, f2, f3))
    assert np.abs(f0).max() < 1e-8 * t and np.abs(f1).max() < 1e-14
    assert np.abs(f2).max() < 1e-22 and np.abs(f3).max() < 1e-30
    assert all(np.all(f == 0.0) for f in kernel_antiderivatives(np.array([-2.0, 0.0, 5.0]), 0.0))


@pytest.mark.parametrize("t", [0.05, 3.0, 700.0])
def test_kernel_far_parts_sum_to_the_antiderivatives(t):
    # past |x t| = 40 each antiderivative is its smooth part plus the oscillatory sum that
    # kernel_oscillation_weights gives a node whose jump is 1 (2.2e-16 measured)
    y = np.array([-5000.0, -300.0, -40.0, 40.0, 40.2, 40.3, 64.8, 1e3, 2.5e4])
    x = y / t
    want, smooth = kernel_antiderivatives(x, t), kernel_smooth_parts(x, t)
    for k in range(4):
        jumps = np.zeros((4, len(x)))
        jumps[k] = 1.0
        C, S = kernel_oscillation_weights(x, jumps)
        p = np.arange(C.shape[1])
        osc = (t ** -(2.0 * p + 1) * (np.sin(np.abs(y))[:, None] * S
                                      + np.cos(np.abs(y))[:, None] * C / t)).sum(axis=1)
        np.testing.assert_allclose(smooth[k] + osc, want[k], rtol=1e-15, atol=0.0)


def test_kernel_smooth_cells_drop_t():
    # a one-signed cell's smooth parts differ by the same at any t; one across 0 reads 0
    x = np.array([-30.0, -20.0, -19.0, -0.5, 2.0, 7.0, 7.0, 9.0, 400.0])
    one = x[:-1] * x[1:] > 0.0
    for t in (0.5, 3.0):
        for d, s in zip(kernel_smooth_cells(x), kernel_smooth_parts(x, t)):
            np.testing.assert_allclose(d[one], np.diff(s)[one], rtol=1e-13, atol=1e-13)
            assert np.all(d[~one] == 0.0)
    assert all(np.all(d == 0.0) for d in kernel_smooth_cells(np.array([-1.0, 0.0, 0.0, 1.0])))


# sici against scipy's, by branch: (Si absolute, Ci relative to max(1, |Ci|)), 3x the
# largest gap measured on sici_points (8.9e-16 / 4.4e-16, 4.4e-16 / 4.7e-16 and
# 2.2e-16 / 6.1e-17, the last 1.9e-17 since the asymptotic branch sums 13 terms from
# 40.25) under a ceiling of 4e-15
SICI_BOUNDS = {"series": (2.7e-15, 1.4e-15), "taylor": (1.4e-15, 1.5e-15),
               "asymptotic": (6.7e-16, 1.9e-16)}
SICI_BRANCHES = {"series": (0.0, 3.75), "taylor": (3.75, 40.25), "asymptotic": (40.25, np.inf)}


def sici_points():
    """Log-spaced over 1e-12..1e8, and dense across every switch of branch or of
    Taylor centre (3.75, 4.25, ..., 40.25), on both sides down to one float spacing."""
    switches = np.arange(8, 82) / 2.0 - 0.25
    near = (switches[:, None] + np.linspace(-1e-3, 1e-3, 41)).ravel()
    return np.concatenate([np.logspace(-12, 8, 4001), near, np.nextafter(switches, 0.0),
                           switches, np.nextafter(switches, np.inf)])


@pytest.mark.parametrize("half_angles", [False, True], ids=["own-trig", "half-angle-trig"])
@pytest.mark.parametrize("branch", list(SICI_BRANCHES))
def test_sici_matches_scipy(branch, half_angles):
    x = sici_points()
    lo, hi = SICI_BRANCHES[branch]
    x = x[(x >= lo) & (x < hi)]
    assert len(x) > 1000
    if half_angles:  # sin x and cos x as kernel_antiderivatives passes them
        xv = 2.0 * np.sin(x / 2.0)
        si, ci = sici(x, xv * np.cos(x / 2.0), 1.0 - xv * xv / 2.0)
    else:
        si, ci = sici(x)
    want_si, want_ci = scipy_sici(x)
    bound_si, bound_ci = SICI_BOUNDS[branch]
    assert np.abs(si - want_si).max() <= bound_si
    assert (np.abs(ci - want_ci) / np.maximum(1.0, np.abs(want_ci))).max() <= bound_ci


def test_sici_keeps_shape():
    x = np.array([[0.5, 10.0, 100.0], [1e-6, 4.0, 1e4]])
    si, ci = sici(x)
    assert si.shape == ci.shape == (2, 3)
    np.testing.assert_array_equal(np.stack(sici(x.ravel())), np.stack([si.ravel(), ci.ravel()]))


def test_free_tail_moments_at_zero_and_large_times():
    W = 7.3
    c0, s0 = free_tail_moments(W, np.array([0.0]))
    assert c0[0] == 1.0 / W and s0[0] == 0.0  # Int_W^inf dE/E^2 and 0
    t = np.array([1e-9, 0.5, 3.0, 1e3, 1e5, 1e6])  # W t up to 7.3e6
    si, ci = scipy_sici(W * t)
    want = (np.cos(W * t) / W - t * (np.pi / 2.0 - si), np.sin(W * t) / W - t * ci)
    for got, w in zip(free_tail_moments(W, t), want):
        # t (pi/2 - Si) cancels to ~cos(Wt)/W, so a gap in Si counts t times
        assert np.all(np.abs(got - w) <= 1e-15 * (1.0 + t))


PHASE_NODES = np.array(sorted(np.random.default_rng(7).uniform(-2.0, 2.0, 400), key=abs))


# phase_blocks against the direct exp.  The uniform run chains rows through its
# recurring steps: 2.6e-15 measured, bound ~3x (2.4e-13 with no direct exp but the
# first).  Every step of the other two is unique, so each row is the direct exp itself.
@pytest.mark.parametrize("times,bound", [
    (np.linspace(0.0, 5.0, 5001), 8e-15),
    (np.geomspace(1e-3, 5.0, 2001), 0.0),
    (np.unique(np.random.default_rng(8).uniform(0.0, 5.0, 20000)), 0.0),
], ids=["uniform", "geometric", "random"])
def test_phase_blocks_match_direct_exp(times, bound):
    x = PHASE_NODES
    start = np.searchsorted(np.abs(x), 1.0 / np.maximum(times, 1e-300))  # as survival's far nodes
    seen, gap = [], 0.0
    for j, Z in phase_blocks(times, x, start):
        k = start[j].min()
        assert Z.shape == (len(j), len(x) - k)
        seen.extend(j)
        gap = max(gap, np.abs(Z - np.exp(-1j * np.outer(times[j], x[k:]))).max(initial=0.0))
    assert sorted(seen) == list(range(len(times)))
    assert gap <= bound


# 20,000 distinct steps on 2,000 nodes: once each (every row a direct exp), and 1,000
# steps twice each, so that a table is kept for each while at most 32 are held, 1 MB.
# Measured peaks 1.7 MB each: one block, the kept tables and the per-time index arrays;
# keeping every table would take 32 MB for the second, and grow with the steps.
@pytest.mark.parametrize("steps", [np.arange(1, 20001), np.repeat(np.arange(1, 1001), 2)],
                         ids=["20000-once", "1000-twice"])
def test_phase_blocks_memory_is_bounded(steps):
    x = np.random.default_rng(9).uniform(-1e4, 1e4, 2000)
    t = np.concatenate([[0.0], np.cumsum(steps * 2.0 ** -30)])  # exact, so the steps recur
    tracemalloc.start()
    try:
        for _ in phase_blocks(t, x):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
