import dataclasses
import math

import numpy as np
import pytest

from conftest import flat_sigma_oracle, g2_quad_oracle, re_sigma_oracle
from zenoband import (
    DetectorBand,
    HorizonExceeded,
    ModelParams,
    QuadratureFailure,
    SpectralFunction,
    discretize_continuum,
    form_factor_grid,
    free_value,
    perturbative_decay,
    propagate,
    self_energy,
    spectral_function,
    stage_rates,
    survival_amplitude_spectral,
    validate_params,
)

GAMMA = 1.0
FIG_DELTA = 100.0 / (2 * math.pi)
FLAT_BAND = DetectorBand(eta=100.0, delta=FIG_DELTA, n=None, center=0.0)


@pytest.fixture(scope="module")
def free_grid():
    band = DetectorBand(eta=0.0, delta=1.0, n=6, center=0.0)
    return form_factor_grid(band, GAMMA, n_points=400, tol=1e-9)


@pytest.fixture(scope="module")
def solid_grid():
    # fig 3 solid curve: 2piDelta/gamma = 100, eta/gamma = 100
    band = DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=0.0)
    return form_factor_grid(band, GAMMA, tol=1e-9)


class TestSelfEnergy:
    def test_free_case_is_wigner_weisskopf(self, free_grid):
        for E in (0.0, 0.3, -2.0, 40.0):
            sig = self_energy(free_grid, E)
            assert sig.real == pytest.approx(0.0, abs=1e-9)
            assert sig.imag == pytest.approx(-GAMMA / 2, rel=1e-9)

    def test_imaginary_part_is_sokhotski_plemelj(self, solid_grid):
        # Im Sigma = -pi g2 against the scalar quad oracle, within a tol = 1e-10 budget
        tol = 1e-10
        for E in (0.0, 5.0, -12.0):
            g2 = g2_quad_oracle(solid_grid.band, GAMMA, E)
            sig = self_energy(solid_grid, E)
            budget = 20.0 * tol * max(g2, free_value(GAMMA))
            assert sig.imag == pytest.approx(-math.pi * g2, abs=math.pi * budget)

    @pytest.mark.parametrize("two_pi_delta,eta", [(100.0, 100.0), (100.0, 10.0),
                                                  (1000.0, 1000.0)])
    def test_real_part_matches_quad_oracle(self, two_pi_delta, eta):
        band = DetectorBand(eta=eta, delta=two_pi_delta / (2 * math.pi), n=6, center=0.0)
        grid = form_factor_grid(band, GAMMA)
        for E in (0.0, 5.0, 20.0, 40.0, 100.0, 200.0):
            want = re_sigma_oracle(band, GAMMA, E)
            assert self_energy(grid, E).real == pytest.approx(want, abs=1e-12)

    def test_flat_band_matches_closed_form(self):
        grid = form_factor_grid(FLAT_BAND, GAMMA)
        d = FLAT_BAND.delta
        near = [s * d + o * 1e-6 * d for s in (-1.0, 1.0) for o in (-1.0, -0.3, 0.3, 1.0)]
        for E in [0.0, 3.0, -9.0, 40.0, -300.0, 900.0] + near:
            want = flat_sigma_oracle(GAMMA, FLAT_BAND.eta, d, E)
            assert self_energy(grid, E) == pytest.approx(want, rel=1e-12)

    def test_suppressed_line_width_pinned_by_form_factor(self, solid_grid):
        g2_line = g2_quad_oracle(solid_grid.band, GAMMA, 0.0)
        sig = self_energy(solid_grid, 0.0)
        assert sig.imag == pytest.approx(-math.pi * g2_line, rel=1e-5)

    def test_line_width_matches_regression_constant(self, solid_grid):
        # eta/2piDelta = 1 at band center: g2(omega) depends only on gamma
        # and the ratios, so the pinned n=6 constant applies here too
        from test_formfactor import G2_REGRESSION_N6_RATIO1

        sig = self_energy(solid_grid, 0.0)
        assert sig.imag == pytest.approx(-math.pi * G2_REGRESSION_N6_RATIO1, rel=1e-4)


class TestSpectralFunction:
    def test_free_case_is_unit_lorentzian(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        assert sf.normalization_defect < 1e-4
        assert np.all(sf.A >= 0.0)
        half = sf.A.max() / 2
        above = sf.E[sf.A >= half]
        assert above.max() - above.min() == pytest.approx(GAMMA, rel=0.02)

    def test_monitored_line_is_narrowed(self, solid_grid):
        sf = spectral_function(solid_grid, 0.0)
        assert sf.normalization_defect < 1e-4
        half = sf.A.max() / 2
        above = sf.E[sf.A >= half]
        width = above.max() - above.min()
        _, supp = stage_rates(validate_params(ModelParams(
            gamma=GAMMA, band=DetectorBand(eta=100.0, delta=FIG_DELTA, n=6))))
        assert width == pytest.approx(supp, rel=0.05)
        assert width < GAMMA

    def test_coarse_grid_keeps_its_window(self):
        # At 200 points the edge cells are ~73 wide; trimming six of them
        # used to shrink the window to +-110, where A(E) has not decayed.
        band = DetectorBand(eta=20.0, delta=3.0, n=6, center=1.0)
        t = np.linspace(0.0, 5.0, 51)

        def survival(n_points):
            sf = spectral_function(form_factor_grid(band, GAMMA, n_points=n_points), 0.0)
            return np.abs(survival_amplitude_spectral(sf, t)) ** 2

        assert np.abs(survival(200) - survival(800)).max() < 1e-4

    def test_line_shape_honours_grid_tolerance(self, solid_grid):
        with pytest.raises(QuadratureFailure):
            spectral_function(dataclasses.replace(solid_grid, tol=1e-16), 0.0)


class TestSurvivalAmplitude:
    def test_normalization_at_t_zero(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        f0 = survival_amplitude_spectral(sf, 0.0)
        assert abs(f0) == pytest.approx(1.0, abs=2e-4)

    def test_free_survival_is_exponential(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        t = np.linspace(0.0, 5.0, 101)
        s = np.abs(survival_amplitude_spectral(sf, t)) ** 2
        assert np.abs(s - np.exp(-GAMMA * t)).max() < 1e-4

    def test_flat_band_matches_oracle_line(self):
        # Filon transform of the closed-form line shape on a grid refined 8x
        sf = spectral_function(form_factor_grid(FLAT_BAND, GAMMA), 0.0)
        t = np.linspace(0.0, 5.0, 101)
        E = np.unique(np.concatenate(
            [sf.E] + [sf.E[:-1] + np.diff(sf.E) * (j / 8) for j in range(1, 8)]))
        A = np.zeros_like(E)  # Re Sigma diverges at the edges, where A vanishes
        for i, e in enumerate(E):
            if abs(e) != FLAT_BAND.delta:
                sig = flat_sigma_oracle(GAMMA, FLAT_BAND.eta, FLAT_BAND.delta, e)
                A[i] = -sig.imag / math.pi / ((e - sig.real) ** 2 + sig.imag ** 2)
        oracle = SpectralFunction(E=E, A=A, normalization_defect=0.0, omega=0.0,
                                  gamma=GAMMA, window=sf.window)
        s = np.abs(survival_amplitude_spectral(sf, t)) ** 2
        s_oracle = np.abs(survival_amplitude_spectral(oracle, t)) ** 2
        assert np.abs(s - s_oracle).max() < 2e-5

    def test_horizon_guard(self, free_grid):
        sf = spectral_function(free_grid, 0.0)
        with pytest.raises(HorizonExceeded):
            survival_amplitude_spectral(sf, 1e6)


class TestPerturbativeDecay:
    def test_free_case_is_exactly_linear(self, free_grid):
        t = np.array([0.0, 0.2, 1.0, 4.0])
        got = perturbative_decay(free_grid, 0.0, t)
        np.testing.assert_allclose(got, GAMMA * t, rtol=1e-9, atol=1e-12)

    def test_two_stage_slopes(self, solid_grid):
        delta = FIG_DELTA
        early = perturbative_decay(solid_grid, 0.0, 0.02 / delta)
        assert early == pytest.approx(GAMMA * 0.02 / delta, rel=0.02)
        _, supp = stage_rates(validate_params(ModelParams(
            gamma=GAMMA, band=DetectorBand(eta=100.0, delta=FIG_DELTA, n=6))))
        t_late = 40.0 / delta
        late = perturbative_decay(solid_grid, 0.0, t_late)
        assert late == pytest.approx(supp * t_late, rel=0.05)

    def test_late_slope_is_suppressed_rate(self, solid_grid):
        # 16 samples per kernel period would need 5.09M nodes at t = 1000
        late = perturbative_decay(solid_grid, 0.0, np.array([500.0, 1000.0]))
        _, supp = stage_rates(validate_params(ModelParams(
            gamma=GAMMA, band=DetectorBand(eta=100.0, delta=FIG_DELTA, n=6))))
        assert (late[1] - late[0]) / 500.0 == pytest.approx(supp, rel=1e-5)

    def test_matches_dense_sampling(self, solid_grid):
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 5.0])
        got = perturbative_decay(solid_grid, 0.0, t)
        want = [perturbative_sampled(solid_grid, 0.0, tt, 64) for tt in t]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-5)


def perturbative_sampled(grid, omega, t, per_period):
    """Frozen trapezoid form of Eq. 11: uniform samples of the sinc^2 kernel, t > 0."""
    lo, hi = grid.window
    spacing = (2.0 * np.pi / t) / per_period
    n_unif = int(np.ceil((hi - lo) / spacing)) + 1
    nodes = np.unique(np.concatenate([np.linspace(lo, hi, n_unif), grid.mu]))
    g2dev = grid.interpolator()(nodes) - free_value(grid.gamma)
    x = nodes - omega
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.sin(x * t / 2.0) ** 2 / (x / 2.0) ** 2
    kern = np.where(np.abs(x) < 1e-30, t ** 2, kern)
    return grid.gamma * t + np.trapezoid(g2dev * kern, nodes)


class TestStageRates:
    def test_no_detector_rates_equal(self):
        m = validate_params(ModelParams(gamma=2.0, band=DetectorBand(eta=0.0, delta=1.0, n=6)))
        free, supp = stage_rates(m)
        assert free == supp == 2.0

    def test_flat_band_half_rate(self):
        m = validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=2.0, delta=1.0, n=None)))
        free, supp = stage_rates(m)
        assert supp / free == pytest.approx(0.5, abs=1e-6)

    def test_flat_band_strong_monitoring_closed_form(self):
        # {2piDelta/gamma, eta/gamma} = {1000, 1000}: 2Delta/eta = 1/pi
        delta = 1000.0 / (2 * math.pi)
        m = validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=1000.0, delta=delta, n=None)))
        free, supp = stage_rates(m)
        want = (2.0 / math.pi) * math.atan(1.0 / math.pi)
        assert supp / free == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("eta,delta,n", [
        (1.0, 1.0, 6), (10.0, 1.0, 6), (3.0, 0.5, 2), (5.0, 2.0, 12),
        (2.0, 1.0, None), (50.0, 10.0, None),
    ])
    def test_centered_monitoring_never_enhances(self, eta, delta, n):
        m = validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=eta, delta=delta, n=n)))
        free, supp = stage_rates(m)
        assert supp <= free + 1e-12


class TestCrossMethod:
    @staticmethod
    def gap(band, grid):
        m = validate_params(ModelParams(gamma=GAMMA, band=band))
        ts = np.linspace(0.0, 5.0, 101)
        s_dyn = propagate(discretize_continuum(m), ts).s
        sf = spectral_function(grid, 0.0)
        s_spec = np.abs(survival_amplitude_spectral(sf, ts)) ** 2
        return np.abs(s_dyn - s_spec).max()

    def test_solid_set_routes_agree(self, solid_grid):
        band = DetectorBand(eta=100.0, delta=FIG_DELTA, n=6)
        assert self.gap(band, solid_grid) < 1e-3

    @pytest.mark.parametrize("band", [
        DetectorBand(eta=100.0, delta=FIG_DELTA, n=6, center=2.0 * FIG_DELTA),
        DetectorBand(eta=100.0, delta=FIG_DELTA, n=None, center=0.0),
    ], ids=["detuned-2delta", "flat"])
    def test_routes_agree(self, band):
        assert self.gap(band, form_factor_grid(band, GAMMA, tol=1e-9)) < 1e-3
