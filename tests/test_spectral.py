import dataclasses
import math

import numpy as np
import pytest

from conftest import (flat_sigma_oracle, g2_quad_oracle, perturbative_reference, re_sigma_oracle,
                      spectral_reference, survival_cellwise_reference)
from zenoband import formfactor, scenario, spectral
from zenoband.formfactor import PiecewisePoly
from zenoband import (
    DetectorBand,
    HorizonExceeded,
    ModelParams,
    QuadratureFailure,
    SpectralFunction,
    ToleranceNotMet,
    discretize_continuum,
    form_factor_grid,
    free_value,
    perturbative_decay,
    propagate,
    self_energy,
    spectral_function,
    sum_rule_defect,
    survival_amplitude_spectral,
    validate_params,
)

GAMMA = 1.0
FIG_DELTA = 100.0 / (2 * math.pi)
FLAT_BAND = DetectorBand(eta=100.0, delta=FIG_DELTA, n=None, center=0.0)


@pytest.fixture(scope="module")
def free_grid():
    band = DetectorBand(eta=0.0, delta=1.0, n=6, center=0.0)
    return form_factor_grid(band, GAMMA, tol=1e-9)


@pytest.fixture(scope="module")
def solid_grid():
    # fig 3 solid curve: 2piDelta/gamma = 100, eta/gamma = 100
    band = DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=0.0)
    return form_factor_grid(band, GAMMA, tol=1e-9)


class TestSelfEnergy:
    def test_free_case_is_wigner_weisskopf(self, free_grid):
        for E in (0.0, 0.3, -2.0, 40.0):
            sig = self_energy(free_grid.band, GAMMA, E, free_grid.tol)
            assert sig.real == pytest.approx(0.0, abs=1e-9)
            assert sig.imag == pytest.approx(-GAMMA / 2, rel=1e-9)

    def test_imaginary_part_is_sokhotski_plemelj(self, solid_grid):
        # Im Sigma = -pi g2 against the scalar quad oracle, within a tol = 1e-10 budget
        tol = 1e-10
        for E in (0.0, 5.0, -12.0):
            g2 = g2_quad_oracle(solid_grid.band, GAMMA, E)
            sig = self_energy(solid_grid.band, GAMMA, E, solid_grid.tol)
            budget = 20.0 * tol * max(g2, free_value(GAMMA))
            assert sig.imag == pytest.approx(-math.pi * g2, abs=math.pi * budget)

    @pytest.mark.parametrize("two_pi_delta,eta", [(100.0, 100.0), (100.0, 10.0),
                                                  (1000.0, 1000.0)])
    def test_real_part_matches_quad_oracle(self, two_pi_delta, eta):
        band = DetectorBand(eta=eta, delta=two_pi_delta / (2 * math.pi), n=6, center=0.0)
        for E in (0.0, 5.0, 20.0, 40.0, 100.0, 200.0):
            want = re_sigma_oracle(band, GAMMA, E)
            assert self_energy(band, GAMMA, E).real == pytest.approx(want, abs=1e-12)

    def test_flat_band_matches_closed_form(self):
        d = FLAT_BAND.delta
        near = [s * d + o * 1e-6 * d for s in (-1.0, 1.0) for o in (-1.0, -0.3, 0.3, 1.0)]
        for E in [0.0, 3.0, -9.0, 40.0, -300.0, 900.0] + near:
            want = flat_sigma_oracle(GAMMA, FLAT_BAND.eta, d, E)
            assert self_energy(FLAT_BAND, GAMMA, E) == pytest.approx(want, rel=1e-12)

    def test_suppressed_line_width_pinned_by_form_factor(self, solid_grid):
        g2_line = g2_quad_oracle(solid_grid.band, GAMMA, 0.0)
        sig = self_energy(solid_grid.band, GAMMA, 0.0, solid_grid.tol)
        assert sig.imag == pytest.approx(-math.pi * g2_line, rel=1e-5)

    def test_line_width_matches_regression_constant(self, solid_grid):
        # eta/2piDelta = 1 at band center: g2(omega) depends only on gamma
        # and the ratios, so the pinned n=6 constant applies here too
        from test_formfactor import G2_REGRESSION_N6_RATIO1

        sig = self_energy(solid_grid.band, GAMMA, 0.0, solid_grid.tol)
        assert sig.imag == pytest.approx(-math.pi * G2_REGRESSION_N6_RATIO1, rel=1e-4)


def full_width_at_half_maximum(sf):
    """Width of the line at half its peak, each crossing interpolated linearly."""
    half = sf.A.max() / 2
    i, j = np.flatnonzero(sf.A >= half)[[0, -1]]
    left = np.interp(half, sf.A[i - 1:i + 1], sf.E[i - 1:i + 1])
    right = np.interp(half, sf.A[j + 1:j - 1:-1], sf.E[j + 1:j - 1:-1])
    return right - left


class TestSpectralFunction:
    def test_free_case_is_unit_lorentzian(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        assert sf.normalization_defect < 1e-4
        assert np.all(sf.A >= 0.0)
        assert full_width_at_half_maximum(sf) == pytest.approx(GAMMA, rel=0.02)

    def test_monitored_line_is_narrowed(self, solid_grid):
        sf = spectral_function(solid_grid, 0.0)
        assert sf.normalization_defect < 1e-4
        width = full_width_at_half_maximum(sf)
        supp = -2.0 * self_energy(solid_grid.band, GAMMA, 0.0, 1e-9).imag
        assert width == pytest.approx(supp, rel=0.05)
        assert width < GAMMA

    def test_coarse_grid_keeps_its_window(self, monkeypatch):
        # At 200 points the edge cells are ~73 wide; trimming six of them
        # used to shrink the window to +-110, where A(E) has not decayed.
        band = DetectorBand(eta=20.0, delta=3.0, n=6, center=1.0)
        t = np.linspace(0.0, 5.0, 51)

        def survival(points):
            monkeypatch.setattr(formfactor, "_GRID_POINTS", points)
            sf = spectral_function(form_factor_grid(band, GAMMA), 0.0)
            return np.abs(survival_amplitude_spectral(sf, t)) ** 2

        assert np.abs(survival(200) - survival(800)).max() < 1e-4

    def test_line_shape_honours_grid_tolerance(self, solid_grid):
        with pytest.raises(QuadratureFailure):
            spectral_function(dataclasses.replace(solid_grid, tol=1e-16), 0.0)


class TestSurvivalAmplitude:
    def test_normalization_at_t_zero(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        f0 = survival_amplitude_spectral(sf, 0.0)
        assert abs(f0) == pytest.approx(1.0, abs=5e-8)

    def test_free_survival_is_exponential(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        t = np.linspace(0.0, 5.0, 101)
        s = np.abs(survival_amplitude_spectral(sf, t)) ** 2
        assert np.abs(s - np.exp(-GAMMA * t)).max() < 1e-7

    def test_flat_band_matches_oracle_line(self):
        # Filon transform of the closed-form line shape on a grid refined 8x.
        # Each edge is a repeated energy: Re Sigma's log cusp takes A to 0
        # only within ~exp(-2 pi delta/gamma) of it, so each side's value is
        # the cubic through that side's four nearest closed-form nodes.
        sf = spectral_function(form_factor_grid(FLAT_BAND, GAMMA), 0.0)
        t = np.linspace(0.0, 5.0, 101)
        edges = np.array([-1.0, 1.0]) * FLAT_BAND.delta
        E = np.setdiff1d(np.concatenate(
            [sf.E] + [sf.E[:-1] + np.diff(sf.E) * (j / 8) for j in range(1, 8)]), edges)
        sig = np.array([flat_sigma_oracle(GAMMA, FLAT_BAND.eta, FLAT_BAND.delta, e) for e in E])
        A = -sig.imag / math.pi / ((E - sig.real) ** 2 + sig.imag ** 2)
        at = np.searchsorted(E, edges)
        ends = [np.polyfit(E[side] - e, A[side], 3)[-1] for i, e in zip(at, edges)
                for side in (slice(i - 4, i), slice(i, i + 4))]
        at = np.repeat(at, 2)
        E, A = np.insert(E, at, np.repeat(edges, 2)), np.insert(A, at, ends)
        oracle = SpectralFunction(E=E, A=A, line=PiecewisePoly.cubic(E, A),  # omega = 0
                                  sigma_omega=flat_sigma_oracle(GAMMA, FLAT_BAND.eta,
                                                                FLAT_BAND.delta, 0.0),
                                  normalization_defect=0.0, omega=0.0, gamma=GAMMA,
                                  window=sf.window)
        s = np.abs(survival_amplitude_spectral(sf, t)) ** 2
        s_oracle = np.abs(survival_amplitude_spectral(oracle, t)) ** 2
        assert np.abs(s - s_oracle).max() < 3e-6

    @pytest.mark.parametrize("band,bound", [
        (None, 1e-12),
        (FLAT_BAND, 2e-12),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=2, center=0.0), 1e-12),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=2.0 * FIG_DELTA), 1e-12),
    ], ids=["solid", "flat", "n2", "detuned-2delta"])
    def test_matches_cellwise_reference(self, band, bound, solid_grid):
        grid = solid_grid if band is None else form_factor_grid(band, GAMMA, tol=1e-9)
        sf = spectral_function(grid, 0.0)
        core = sf.A > 1e-3 * sf.A.max()
        horizon = 2 * math.pi / np.diff(sf.E)[core[:-1] & core[1:]].max()
        # 215 times, not a multiple of the rows in one block of phases; the
        # geometric run covers t < 1, where many nodes sit near |t x| = 1
        t = np.concatenate([[0.0, 1e-12, 1e-8, 1e-5, 1e-3], np.geomspace(1e-2, 1.0, 60),
                            np.linspace(0.0, horizon, 151)[1:]])
        want = survival_cellwise_reference(sf, t)
        assert np.abs(survival_amplitude_spectral(sf, t) - want).max() <= bound
        f = survival_amplitude_spectral(sf, t[-7])
        assert np.ndim(f) == 0 and abs(f - want[-7]) <= bound

    # |f(0) - (area + tails)|: 9e-14 to 4e-12 measured on the Fig. 3, flat and anti-Zeno sets,
    # 2.1e-10 on the centred n = 1600 band; the last band, n = 1600 far off the line, misses
    # by 1.4e-5 (route gap 7.3e-5, normalization defect 2.4e-9)
    @pytest.mark.parametrize("band,misses", [
        (dict(eta=100.0, delta=FIG_DELTA), False), (dict(eta=10.0, delta=FIG_DELTA), False),
        (dict(eta=1000.0, delta=1000.0 / (2 * math.pi)), False),
        (dict(eta=100.0, delta=15.9155, n=None), False),
        (dict(eta=100.0, delta=15.9155, n=None, center=39.0), False),
        (dict(eta=12.4, delta=8.5, n=12, center=13.3), False),
        (dict(eta=100.0, delta=15.9155, n=400), False),
        (dict(eta=100.0, delta=15.9155, n=1600), False),
        (dict(eta=1.736, delta=1.417, n=1600, center=-126.5), True)],
        ids=["solid", "dotted", "broken", "flat", "flat-39", "anti-zeno", "n400", "n1600",
             "n1600-far"])
    def test_checks_itself_at_t_zero(self, band, misses):
        m = validate_params(ModelParams(gamma=GAMMA, band=DetectorBand(**band)))
        sf = spectral_function(form_factor_grid(m.band, GAMMA, formfactor._default_window(
            m.band, GAMMA, 0.0)), 0.0)
        t = np.linspace(0.01, 5.0, 50)  # without 0: the transform adds it
        if misses:
            with pytest.raises(ToleranceNotMet, match="at t = 0 by 1.38"):
                survival_amplitude_spectral(sf, t)
            return
        mass = spectral._mass(sf.line, GAMMA, sf.window[1], -sf.window[0])
        assert abs(survival_amplitude_spectral(sf, 0.0) - mass) <= 1e-9
        np.testing.assert_allclose(survival_amplitude_spectral(sf, t),
                                   survival_amplitude_spectral(sf, np.r_[0.0, t])[1:],
                                   rtol=0.0, atol=1e-15)

    def test_horizon_guard(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        with pytest.raises(HorizonExceeded):
            survival_amplitude_spectral(sf, 1e6)


class TestPerturbativeDecay:
    def test_free_case_is_exactly_linear(self, free_grid):
        # eta = 0 leaves g2 = gamma/2pi on the line: every cell and node weight is 0
        t = np.r_[0.2, 4.0, np.linspace(0.0, 5.0, 501)]
        assert np.array_equal(perturbative_decay(free_grid, 0.0, t), GAMMA * t)

    def test_two_stage_slopes(self, solid_grid):
        delta = FIG_DELTA
        early = perturbative_decay(solid_grid, 0.0, 0.02 / delta)
        assert early == pytest.approx(GAMMA * 0.02 / delta, rel=0.02)
        supp = -2.0 * self_energy(solid_grid.band, GAMMA, 0.0, 1e-9).imag
        t_late = 40.0 / delta
        late = perturbative_decay(solid_grid, 0.0, t_late)
        assert late == pytest.approx(supp * t_late, rel=0.05)

    def test_late_slope_is_suppressed_rate(self, solid_grid):
        # 16 samples per kernel period would need 5.09M nodes at t = 1000
        late = perturbative_decay(solid_grid, 0.0, np.array([500.0, 1000.0]))
        supp = -2.0 * self_energy(solid_grid.band, GAMMA, 0.0, 1e-9).imag
        assert (late[1] - late[0]) / 500.0 == pytest.approx(supp, rel=1e-5)

    # bounds ~3x the measured gaps (5.6e-9, 5.1e-8, 1.1e-9, 1.7e-9), mostly
    # the reference's own at t = 0.05, where a kernel period spans few cells
    @pytest.mark.parametrize("band,bound", [
        (None, 2e-8),
        (FLAT_BAND, 1.5e-7),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=2, center=0.0), 4e-9),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=5.0 * FIG_DELTA), 6e-9),
    ], ids=["solid", "flat", "n2", "detuned-5delta"])
    def test_matches_dense_sampling(self, band, bound, solid_grid):
        grid = solid_grid if band is None else form_factor_grid(band, GAMMA, tol=1e-9)
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 5.0])
        got = perturbative_decay(grid, 0.0, t)
        want = [perturbative_sampled(grid, 0.0, tt, 1024) for tt in t]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)

    def test_small_time_curvature_is_the_line_integral(self):
        # 1 - s = gamma t + t^2 Int (g2 - gamma/2pi) dmu + O(t^4): measured
        # within 7.7e-8 (rounding, then the t^4 term); the closed kernel
        # moments alone were ~1e-14 off here, 500x the t^2 term at t = 1e-8
        grid = form_factor_grid(DetectorBand(eta=100.0, delta=FIG_DELTA, n=6,
                                             center=5.0 * FIG_DELTA), GAMMA, tol=1e-9)
        line = grid.line
        lo, hi = line.x[0], line.x[-1]
        want = float(line.antiderivative()(hi)) - free_value(GAMMA) * (hi - lo)
        t = np.array([1e-8, 1e-7, 1e-6])
        got = (perturbative_decay(grid, 0.0, t) - GAMMA * t) / t ** 2
        np.testing.assert_allclose(got, want, rtol=1e-6)

    # The CLI's grids against Gauss-Legendre quadrature of the kernel itself.  Bounds are
    # ~3x the relative gaps of the transform with Si/Ci on every node (1.5e-14, 4.0e-15,
    # 8.4e-15, 1.8e-16); on the band far off the line that transform was 1.6e-10 off,
    # and the bound is ~3x the 1.3e-13 that Si/Ci on the near nodes alone reach
    @pytest.mark.parametrize("kw,bound", [
        (dict(eta=100.0, delta=FIG_DELTA), 5e-14),
        (dict(eta=10.0, delta=FIG_DELTA), 1.2e-14),
        (dict(eta=1000.0, delta=10.0 * FIG_DELTA), 2.5e-14),
        (dict(eta=100.0, delta=15.9155, n=None, center=39.0), 6e-16),
        (dict(eta=100.0, delta=15.9155, center=1000.0), 4e-13),
    ], ids=["solid", "dotted", "broken", "flat-detuned", "far"])
    def test_matches_the_quadrature_reference(self, kw, bound):
        m = validate_params(ModelParams(gamma=GAMMA, band=DetectorBand(**kw)))
        grid = form_factor_grid(m.band, GAMMA, scenario._default_window(m.band, GAMMA, m.omega),
                                tol=m.numerics.quad_tol)
        t = np.array([0.05, 0.3, 1.1, 2.5, 5.0])
        want = perturbative_reference(grid, m.omega, t)
        np.testing.assert_allclose(perturbative_decay(grid, m.omega, t), want, rtol=bound, atol=0.0)


class TestTimeBatches:
    # Both transforms work on the sorted distinct times, so the order of t and its
    # repeats change no bit; a batch of other times agrees only to ~1e-15.
    @pytest.mark.parametrize("transform", ["survival", "perturbative"])
    def test_shuffled_repeats_match_the_sorted_call(self, transform, solid_grid):
        sf = spectral_function(solid_grid, 0.0)
        f = {"survival": lambda t: survival_amplitude_spectral(sf, t),
             "perturbative": lambda t: perturbative_decay(solid_grid, 0.0, t)}[transform]
        t = np.linspace(0.0, 5.0, 301)
        mixed = np.random.default_rng(4).permutation(np.concatenate([t, t[::7], [0.0, 0.0]]))
        got, want = f(mixed), f(np.sort(mixed))
        assert got.shape == mixed.shape
        assert np.array_equal(got[np.argsort(mixed, kind="stable")], want)
        one = f(mixed[5])
        assert np.ndim(one) == 0 and abs(one - got[5]) <= 1e-14

    def test_nan_time_is_refused(self, solid_grid):
        sf = spectral_function(solid_grid, 0.0)
        for f in (lambda t: survival_amplitude_spectral(sf, t),
                  lambda t: perturbative_decay(solid_grid, 0.0, t)):
            with pytest.raises(ValueError, match="t must be >= 0"):
                f(np.array([1.0, np.nan]))


def perturbative_sampled(grid, omega, t, per_period):
    """Frozen trapezoid form of Eq. 11: uniform samples of the sinc^2 kernel, t > 0.

    The grid's own nodes join the samples with their tabulated g2, so a
    repeated mu (a flat band's edge) is a zero-width cell across the jump.
    """
    lo, hi = grid.window
    spacing = (2.0 * np.pi / t) / per_period
    unif = np.setdiff1d(np.linspace(lo, hi, int(np.ceil((hi - lo) / spacing)) + 1), grid.mu)
    at = np.searchsorted(unif, grid.mu)
    nodes = np.insert(unif, at, grid.mu)
    g2dev = np.insert(grid.line(unif), at, grid.g2) - free_value(grid.gamma)
    x = nodes - omega
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.sin(x * t / 2.0) ** 2 / (x / 2.0) ** 2
    kern = np.where(np.abs(x) < 1e-30, t ** 2, kern)
    return grid.gamma * t + np.trapezoid(g2dev * kern, nodes)


class TestStageRates:
    def test_no_detector_rates_equal(self):
        m = validate_params(ModelParams(gamma=2.0, band=DetectorBand(eta=0.0, delta=1.0, n=6)))
        free, supp = m.gamma, -2.0 * self_energy(m.band, m.gamma, m.omega, m.numerics.quad_tol).imag
        assert free == supp == 2.0

    def test_flat_band_half_rate(self):
        m = validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=2.0, delta=1.0, n=None)))
        free, supp = m.gamma, -2.0 * self_energy(m.band, m.gamma, m.omega, m.numerics.quad_tol).imag
        assert supp / free == pytest.approx(0.5, abs=1e-6)

    def test_flat_band_strong_monitoring_closed_form(self):
        # {2piDelta/gamma, eta/gamma} = {1000, 1000}: 2Delta/eta = 1/pi
        delta = 1000.0 / (2 * math.pi)
        m = validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=1000.0, delta=delta, n=None)))
        free, supp = m.gamma, -2.0 * self_energy(m.band, m.gamma, m.omega, m.numerics.quad_tol).imag
        want = (2.0 / math.pi) * math.atan(1.0 / math.pi)
        assert supp / free == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("eta,delta,n", [
        (1.0, 1.0, 6), (10.0, 1.0, 6), (3.0, 0.5, 2), (5.0, 2.0, 12),
        (2.0, 1.0, None), (50.0, 10.0, None),
    ])
    def test_centered_monitoring_never_enhances(self, eta, delta, n):
        m = validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=eta, delta=delta, n=n)))
        free, supp = m.gamma, -2.0 * self_energy(m.band, m.gamma, m.omega, m.numerics.quad_tol).imag
        assert supp <= free + 1e-12


class TestCrossMethod:
    @staticmethod
    def gap(band, grid, dk_scale=1.0):
        m = validate_params(ModelParams(gamma=GAMMA, band=band))
        # dk_scale > 1 builds a grid coarser than validate_params accepts
        coarse = dataclasses.replace(m.numerics, dk=dk_scale * m.numerics.dk)
        m = dataclasses.replace(m, numerics=coarse)
        ts = np.linspace(0.0, 5.0, 101)
        s_dyn = propagate(discretize_continuum(m), ts).s
        sf = spectral_function(grid, 0.0)
        s_spec = np.abs(survival_amplitude_spectral(sf, ts)) ** 2
        return np.abs(s_dyn - s_spec).max()

    def test_solid_set_routes_agree(self, solid_grid):
        band = DetectorBand(eta=100.0, delta=FIG_DELTA, n=6)
        assert self.gap(band, solid_grid) < 3e-7

    # bounds ~3x the measured gaps.  The flat band's 4.4e-6 is the O(1/m^2)
    # error of its edges on the photon grid at dk = delta/128 (1.8e-5 at
    # delta/64, 1.4e-6 at delta/256).  n = 2 reads 1.5e-7 at the rule's K =
    # 3,092; a window capped at 1,000 drops 48 times the Sigma budget (3.4e-6).
    # At 0.37 delta only the grid's offset puts the flat band's edges on cell
    # boundaries (2.3e-4 without it); at 2.5 delta a grid centred on omega does.
    @pytest.mark.parametrize("band,bound", [
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=2.0 * FIG_DELTA), 5e-7),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=None, center=0.0), 1.5e-5),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=5.0 * FIG_DELTA), 6e-7),
        (DetectorBand(eta=1.5, delta=FIG_DELTA, n=6, center=0.0), 5e-7),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=2, center=0.0), 5e-7),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=None, center=2.5 * FIG_DELTA), 1.5e-6),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=None, center=0.37 * FIG_DELTA), 2e-5),
        # steep bands: dk = 2 pi/(T + 20.7/s), s = delta sin(pi/n)
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=24, center=0.0), 2e-6),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=96, center=0.0), 5e-6),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=400, center=0.0), 6e-7),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=1600, center=0.0), 1.2e-6),
    ], ids=["detuned-2delta", "flat", "detuned-5delta", "fig1", "n2", "flat-detuned-2.5delta",
            "flat-detuned-0.37delta", "n24", "n96", "n400", "n1600"])
    def test_routes_agree(self, band, bound):
        assert self.gap(band, form_factor_grid(band, GAMMA, tol=1e-9)) < bound

    def test_strip_budget_holds_the_gap(self):
        # The dk rule is not slack either: on n = 24 (s = 2.08, 2 pi/dk = T + 10.0) the
        # gap rises from 6.8e-7 to 4.4e-5 at 2 dk, where the recurrence still clears T
        # but by 5.0/s, and to 2.3e-2 at 3 dk, where it falls inside T.
        band = DetectorBand(eta=100.0, delta=FIG_DELTA, n=24, center=0.0)
        grid = form_factor_grid(band, GAMMA, tol=1e-9)
        base = self.gap(band, grid)
        for scale in (2.0, 3.0):
            assert self.gap(band, grid, dk_scale=scale) >= 10.0 * base


class TestSpectralReference:
    """The spectral route against A from direct Sigma, with no skeleton and no spline."""

    # max |ds| over 101 times in [0, 5] measured 4.05e-8 (solid, at t = 0.55) and
    # 2.49e-8 (dotted); at t = 5, 1.2e-10 and 2.29e-8.  A at sf's own energies is
    # direct Sigma's to 1e-15, so the gaps are the cubic spline of A between them:
    # across |E - omega| < 1 its area exceeds A's by 1.25e-8 and 1.52e-8
    @pytest.mark.parametrize("eta, bound, bound_T", [(100.0, 1.2e-7, 4e-10),
                                                     (10.0, 7.5e-8, 7e-8)],
                             ids=["solid", "dotted"])
    def test_survival_against_direct_sigma(self, eta, bound, bound_T):
        band = DetectorBand(eta=eta, delta=FIG_DELTA, n=6, center=0.0)
        sf = spectral_function(form_factor_grid(band, GAMMA, tol=1e-9), 0.0)
        ts = np.linspace(0.0, 5.0, 101)
        gap = np.abs(np.abs(survival_amplitude_spectral(sf, ts)) ** 2
                     - np.abs(spectral_reference(band, sf, ts)) ** 2)
        assert gap.max() <= bound
        assert gap[-1] <= bound_T


class TestSigmaReuse:
    # centred, omega is one of the grid's energies; detuned by 2 delta, it is not.  Each set
    # evaluates the grid's ~400 energies, the ladders' ~290 out to the window and the line's
    # skeleton, each once, where it evaluated ~1,900 before the skeleton took the line.  The
    # counts include the 18 and 30 energies that escalate to the second order pair.  The
    # breakpoints, poles and ladders serve both orders of a pair: each self_energy call runs
    # _zero's pole search at most once per pair, not once per order
    @pytest.mark.parametrize("center,count", [(None, 1498), (2.0 * FIG_DELTA, 1730)],
                             ids=["centred", "detuned"])
    def test_spectral_product_evaluates_each_energy_once(self, monkeypatch, center, count):
        edge_integral, seen = formfactor._edge_integral, []
        zero, sigma, searches = formfactor._zero, formfactor.self_energy, []

        def logged(n, beta, eps, orders):
            seen.extend((order, e) for order in orders for e in eps)
            return edge_integral(n, beta, eps, orders)

        def zero_logged(*args):
            searches[-1] += 1
            return zero(*args)

        def sigma_logged(*args):
            searches.append(0)
            return sigma(*args)

        monkeypatch.setattr(formfactor, "_edge_integral", logged)
        monkeypatch.setattr(formfactor, "_zero", zero_logged)
        for module in (formfactor, spectral):  # form_factor_grid's calls and _sigma's
            monkeypatch.setattr(module, "self_energy", sigma_logged)
        m = validate_params(ModelParams(gamma=GAMMA, band=DetectorBand(
            eta=100.0, delta=FIG_DELTA, n=6, center=center)))
        scenario.product_spectral(m)
        assert len(seen) == count and len(set(seen)) == len(seen)
        assert max(searches) == len(formfactor._ORDERS)


class TestSharedFits:
    # each data set is fitted once, the g2 line by form_factor_grid and A's by
    # spectral_function, and every reader shares that fit
    def test_lines_are_read_never_written(self, solid_grid):
        sf = spectral_function(solid_grid, 0.3)
        assert np.array_equal(sf.line.x, sf.E - sf.omega)
        t = np.linspace(0.0, 5.0, 11)
        before = [(line.x.copy(), line.c.copy()) for line in (solid_grid.line, sf.line)]
        defect = sum_rule_defect(solid_grid)
        perturbative_decay(solid_grid, 0.3, t)
        survival_amplitude_spectral(sf, t)
        assert sum_rule_defect(solid_grid) == defect
        for line, (x, c) in zip((solid_grid.line, sf.line), before):
            assert np.array_equal(line.x, x) and np.array_equal(line.c, c)

    # a power-law band fits the g2 line and A's; a flat band adds, for each, the fit
    # that extrapolates both sides' values to its edges
    @pytest.mark.parametrize("band,fits", [
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6), 2), (FLAT_BAND, 4)],
        ids=["power-law", "flat"])
    def test_spectral_product_fits_each_line_once(self, monkeypatch, band, fits):
        cubic, sizes = PiecewisePoly.cubic.__func__, []

        def logged(cls, x, y, cut=None):
            sizes.append(len(x))
            return cubic(cls, x, y, cut)

        monkeypatch.setattr(PiecewisePoly, "cubic", classmethod(logged))
        scenario.product_spectral(validate_params(ModelParams(gamma=GAMMA, band=band)))
        assert len(sizes) == fits


class TestSkeleton:
    """Sigma across the dressed line from the skeleton, against direct Sigma."""

    @staticmethod
    def gap(band):
        """A's largest gap to direct Sigma's A, relative to its peak, on the spectral
        product's window at omega = 0."""
        grid = form_factor_grid(band, GAMMA, formfactor._default_window(band, GAMMA, 0.0))
        sf = spectral_function(grid, 0.0)
        E = sf.E
        sigma = self_energy(band, GAMMA, E, grid.tol)
        A = -sigma.imag / math.pi / ((E - sf.omega - sigma.real) ** 2 + sigma.imag ** 2)
        return np.abs(sf.A - A).max() / A.max()

    # bounds ~3x the measured gaps.  The 2.5 delta band's edge c - delta = 23.9 lies inside
    # the line region [-27.3, 27.5]; the anti-Zeno line (centre 13.3) spans both edges.
    # Their 1.0e-14 and 1.7e-14 are the interpolant's, as direct Sigma is smooth to rounding
    # there (test_direct_sigma_is_smooth).  From n = 400 on, the strip delta sin(pi/n) cuts
    # the line into panels of more nodes than it has energies, so Sigma is evaluated
    # directly, bit for bit.
    @pytest.mark.parametrize("band,bound", [
        (DetectorBand(eta=10.0, delta=FIG_DELTA, n=6, center=0.0), 1e-15),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=2.5 * FIG_DELTA), 3e-14),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=5.0 * FIG_DELTA), 1.2e-15),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=2, center=0.0), 1.1e-15),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=24, center=0.0), 2e-15),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=96, center=0.0), 2.2e-15),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=400, center=0.0), 0.0),
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=1600, center=0.0), 0.0),
        (DetectorBand(eta=12.4, delta=8.5, n=12, center=13.3), 5e-14),
    ], ids=["dotted", "detuned-2.5delta", "detuned-5delta", "n2", "n24", "n96", "n400",
            "n1600", "anti-zeno"])
    def test_matches_direct_sigma(self, band, bound):
        gap = self.gap(band)
        assert gap == 0.0 if bound == 0.0 else 0.0 < gap <= bound

    # 201 energies 0.002 apart: a rule whose panels or pole changed in steps with E would leave
    # steps in Sigma, which fourth differences magnify (~5e-11 with a ladder per energy).  Less
    # an order-40 rule, which carries Sigma's own curvature; bounds ~3x the measured 1.7e-15
    # and 2.3e-15
    @pytest.mark.parametrize("band,at,bound", [
        (DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=2.5 * FIG_DELTA), 4.0, 5e-15),
        (DetectorBand(eta=12.4, delta=8.5, n=12, center=13.3), 1.0, 7e-15),
    ], ids=["detuned-2.5delta", "anti-zeno"])
    def test_direct_sigma_is_smooth(self, band, at, bound):
        E = at + 0.002 * np.arange(-100, 101)
        eps, beta = (E - band.center) / band.delta, band.eta / (2.0 * band.delta)
        smooth = 0.5j * GAMMA * (formfactor._edge_integral(band.n, beta, eps, (40,))[0] - 1.0)
        assert np.abs(np.diff(self_energy(band, GAMMA, E) - smooth, 4)).max() <= bound

    @pytest.mark.parametrize("direction", [1.0, 1j, (1.0 - 1j) / math.sqrt(2.0)],
                             ids=["re", "im", "both"])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_held_out_check_is_self_energys_budget(self, monkeypatch, direction, factor):
        # one panel of the dotted set, off the band edges and the grid.  Its held-out Sigma
        # misses by `factor` times self_energy's budget |dSigma|/pi <= 20 tol max(g2,
        # gamma/2pi); the skeleton keeps the panel exactly where self_energy accepts a rule
        # pair apart by the same miss, whether the miss is in Re Sigma, g2 or both
        band = DetectorBand(eta=10.0, delta=FIG_DELTA, n=6, center=0.0)
        grid = form_factor_grid(band, GAMMA)
        lo, hi = 0.3, 0.3 + 0.9 * band.strip
        theta = np.pi / (spectral._SKELETON - 1) * np.array(spectral._HELD_OUT)
        held = (lo + hi) / 2.0 + (hi - lo) / 2.0 * np.cos(theta)
        direct = self_energy(band, GAMMA, held, grid.tol)
        budget = 20.0 * grid.tol * np.maximum(-direct.imag, math.pi * free_value(GAMMA))
        miss = factor * direction * budget  # in Sigma, pi times the g2 budget
        calls, inner = [], spectral.self_energy

        def shifted(band, gamma, E, tol):
            if len(E):  # the redo call runs on no energies when every panel holds
                calls.append(len(E))
            return inner(band, gamma, E, tol) + (E[:, None] == held) @ miss

        monkeypatch.setattr(spectral, "self_energy", shifted)
        spectral._sigma(grid, np.linspace(lo, hi, 102)[1:-1], lo, hi)
        edge_integral, accepted = formfactor._edge_integral, []
        for e, m in zip(held, miss):
            def apart(n, beta, eps, orders, m=m):  # Sigma = (i gamma/2)(fine - 1)
                fine, coarse = edge_integral(n, beta, eps, orders)
                return fine, fine - m / (0.5j * GAMMA)
            monkeypatch.setattr(formfactor, "_edge_integral", apart)
            try:
                self_energy(band, GAMMA, e, grid.tol)
                accepted.append(True)
            except QuadratureFailure:
                accepted.append(False)
        # the panel's 24 nodes and 3 held-out energies, then its 100 energies if it fails
        assert calls == ([27] if factor < 1.0 else [27, 100])
        assert accepted == [factor < 1.0] * 3

    def test_failing_panels_evaluate_directly(self, monkeypatch):
        # four nodes cannot carry Sigma across any panel of the dotted set to the budget:
        # every panel fails its held-out energies, and a second call evaluates all 1,198
        # line energies, so A is direct Sigma's bit for bit
        monkeypatch.setattr(spectral, "_SKELETON", 4)
        monkeypatch.setattr(spectral, "_HELD_OUT", (0.5, 1.5, 2.5))
        sizes, direct = [], spectral.self_energy

        def logged(band, gamma, E, tol):
            sizes.append(len(E))
            return direct(band, gamma, E, tol)

        monkeypatch.setattr(spectral, "self_energy", logged)
        assert self.gap(DetectorBand(eta=10.0, delta=FIG_DELTA, n=6, center=0.0)) == 0.0
        assert sizes[-1] == spectral._LINE_POINTS - 2
