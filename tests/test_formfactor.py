import math

import numpy as np
import pytest

from conftest import flat_sigma_oracle, g2_oracle, g2_quad_oracle
from zenoband import formfactor
from zenoband import (
    DetectorBand,
    QuadratureFailure,
    WindowTooNarrow,
    form_factor_grid,
    renormalized_form_factor,
    sum_rule_defect,
)

GAMMA = 1.0
FREE = GAMMA / (2 * math.pi)

# Pinned before the build by two independent routes (adaptive quadrature vs
# 16M-point trapezoid); they agreed to 2e-12.  PowerLaw n=6, eta/2piDelta=1,
# mu at band center, gamma=1, delta=1.
G2_REGRESSION_N6_RATIO1 = 5.2819008194262e-02


def pl_band(ratio, delta=1.0, n=6, center=0.0):
    """Power-law band from the dimensionless ratio eta/(2 pi Delta)."""
    return DetectorBand(eta=ratio * 2 * math.pi * delta, delta=delta, n=n, center=center)


class TestRenormalizedFormFactor:
    def test_no_detector_gives_free_value_exactly(self):
        band = DetectorBand(eta=0.0, delta=1.0, n=6, center=0.0)
        assert renormalized_form_factor(band, GAMMA, 0.3) == FREE
        band_flat = DetectorBand(eta=0.0, delta=1.0, n=None, center=0.0)
        assert renormalized_form_factor(band_flat, GAMMA, -2.0) == FREE

    @pytest.mark.parametrize("ratio_2d_eta", [0.1, 1.0, 10.0])
    def test_flat_band_matches_arctan_limit(self, ratio_2d_eta):
        delta = 1.0
        eta = 2.0 * delta / ratio_2d_eta
        band = DetectorBand(eta=eta, delta=delta, n=None, center=0.0)
        got = renormalized_form_factor(band, GAMMA, 0.0, tol=1e-10)
        want = (GAMMA / math.pi ** 2) * math.atan(ratio_2d_eta)
        assert got == pytest.approx(want, rel=1e-8)

    def test_regression_value_power_law(self):
        band = pl_band(1.0)
        got = renormalized_form_factor(band, GAMMA, 0.0, tol=1e-11)
        assert got == pytest.approx(G2_REGRESSION_N6_RATIO1, rel=1e-9)

    @pytest.mark.parametrize("ratio", [0.01, 1.0])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 1.5, 3.0, 10.0])
    def test_against_brute_force_oracle(self, ratio, mu):
        band = pl_band(ratio)
        got = renormalized_form_factor(band, GAMMA, mu, tol=1e-9)
        want = g2_oracle(band, GAMMA, mu)
        assert got == pytest.approx(want, rel=1e-5)

    def test_flat_band_quadrature_matches_analytic_everywhere(self):
        band = DetectorBand(eta=1.7, delta=1.0, n=None, center=0.0)
        for mu in (0.0, 0.4, 0.99, 1.01, 2.5, -6.0):
            got = renormalized_form_factor(band, GAMMA, mu, tol=1e-10)
            want = -flat_sigma_oracle(GAMMA, 1.7, 1.0, mu).imag / math.pi
            assert got == pytest.approx(want, rel=1e-6)

    def test_unreachable_tolerance_raises_quadrature_failure(self):
        band = pl_band(1.0)
        with pytest.raises(QuadratureFailure, match="E=-2.6312"):
            renormalized_form_factor(band, GAMMA, -2.6312, tol=1e-16)
        # one decade looser, the same point meets its error budget
        assert renormalized_form_factor(band, GAMMA, -2.6312, tol=1e-15) > 0.0

    @pytest.mark.parametrize("mu", [-51.375, 51.375])
    def test_narrow_edge_band_value_at_tight_tolerance(self, mu):
        # pi*eta_mu ~ 3e-11 < 1e-12*|mu| here, so g2_quad_oracle takes its delta branch
        band = DetectorBand(eta=100.0, delta=100.0 / (2 * math.pi), n=24, center=0.0)
        tol = 1e-10
        got = renormalized_form_factor(band, GAMMA, mu, tol)
        want = g2_quad_oracle(band, GAMMA, mu)
        assert got == pytest.approx(want, abs=20.0 * tol * max(want, FREE))

    def test_non_finite_error_estimate_raises(self, monkeypatch):
        # a NaN estimate compares False against any budget; it must still raise
        edge_integral = formfactor._edge_integral

        def coarse_nan(n, beta, eps, order):
            out = edge_integral(n, beta, eps, order)
            if order == formfactor._ORDERS[1]:
                out[3] = np.nan
            return out

        monkeypatch.setattr(formfactor, "_edge_integral", coarse_nan)
        with pytest.raises(QuadratureFailure, match="nan"):
            formfactor._self_energy(pl_band(1.0), GAMMA, np.linspace(-2.0, 2.0, 9))

    def test_positive_everywhere(self):
        band = pl_band(1.0)
        for mu in np.linspace(-8, 8, 17):
            assert renormalized_form_factor(band, GAMMA, mu, tol=1e-8) > 0.0

    def test_scale_covariance(self):
        # g2 scales like gamma, with energies scaling together
        band1 = pl_band(1.0, delta=1.0)
        band7 = pl_band(1.0, delta=7.0)
        v1 = renormalized_form_factor(band1, 1.0, 0.5, tol=1e-10)
        v7 = renormalized_form_factor(band7, 7.0, 3.5, tol=1e-10)
        assert v7 == pytest.approx(7.0 * v1, rel=1e-8)


def flat_g2(eta, delta, mu, center=0.0):
    """g2 of the flat band, whose closed form renormalized_form_factor evaluates."""
    return renormalized_form_factor(DetectorBand(eta=eta, delta=delta, n=None, center=center),
                                    GAMMA, mu)


class TestAnalyticFlatBand:
    def test_center_value_is_arctan(self):
        got = flat_g2(3.0, 1.0, 0.0)
        assert got == pytest.approx((GAMMA / math.pi ** 2) * math.atan(2.0 / 3.0), rel=1e-14)

    def test_free_limit_small_eta(self):
        got = flat_g2(1e-12, 1.0, 0.0)
        assert got == pytest.approx(FREE, rel=1e-9)
        assert flat_g2(0.0, 1.0, 0.5) == FREE

    def test_half_suppression_at_eta_twice_delta(self):
        # arctan(1) = pi/4 makes the suppression factor exactly one half
        got = flat_g2(2.0, 1.0, 0.0)
        assert got == pytest.approx(GAMMA / (4 * math.pi), rel=1e-14)
        assert got / FREE == pytest.approx(0.5, rel=1e-14)

    def test_band_edge_is_two_valued(self):
        # the one-sided limits differ by the free value; exactly at
        # |mu - center| = delta the outside one is returned
        at_edge = flat_g2(1.0, 1.0, 3.0, center=2.0)
        outside, inside = flat_g2(1.0, 1.0, 3.0 + 1e-12, 2.0), flat_g2(1.0, 1.0, 3.0 - 1e-12, 2.0)
        assert at_edge == pytest.approx(outside, rel=1e-10)
        assert at_edge - inside == pytest.approx(FREE, rel=1e-10)

    def test_outside_band_exceeds_free(self):
        assert flat_g2(1.0, 1.0, 1.5) > FREE

    def test_free_limit_monotone_inside_band(self):
        etas = np.geomspace(4.0, 1e-4, 25)
        vals = np.array([flat_g2(e, 1.0, 0.3) for e in etas])
        assert np.all(np.diff(vals) > 0.0)       # toward free value as eta drops
        assert np.all(vals < FREE)


@pytest.fixture(scope="module")
def grids():
    return {r: form_factor_grid(pl_band(r), GAMMA, n_points=300, tol=1e-8)
            for r in (0.01, 0.1, 1.0)}


class TestFormFactorGrid:
    def test_positivity(self, grids):
        for g in grids.values():
            assert np.all(g.g2 > 0.0)

    def test_free_asymptote_at_edges(self, grids):
        for g in grids.values():
            for v in (g.g2[0], g.g2[-1]):
                assert v == pytest.approx(FREE, rel=1e-3)

    def test_shallow_dip_for_weak_monitoring(self, grids):
        g = grids[0.01]
        center = g.g2[np.argmin(np.abs(g.mu))]
        assert 0.95 * FREE < center < FREE

    def test_deep_suppression_and_enhancement_for_strong_monitoring(self, grids):
        g = grids[1.0]
        center = g.g2[np.argmin(np.abs(g.mu))]
        assert center < 0.5 * FREE
        shoulder = (np.abs(g.mu) > 1.0) & (np.abs(g.mu) < 3.0)
        assert g.g2[shoulder].max() > FREE

    def test_dip_deepens_with_monitoring_strength(self, grids):
        centers = [grids[r].g2[np.argmin(np.abs(grids[r].mu))] for r in (0.01, 0.1, 1.0)]
        assert centers[0] > centers[1] > centers[2]

    def test_no_detector_grid_is_flat(self):
        band = DetectorBand(eta=0.0, delta=1.0, n=6, center=0.0)
        g = form_factor_grid(band, GAMMA, n_points=50, tol=1e-8)
        np.testing.assert_allclose(g.g2, FREE, rtol=1e-14)

    @pytest.mark.parametrize("band", [
        pl_band(1.0), pl_band(0.01), pl_band(1.0, n=2), pl_band(1.0, n=24),
        pl_band(1.0, center=2.0),
    ], ids=["n6", "weak", "n2", "n24", "detuned-2delta"])
    def test_matches_scalar_reference(self, band):
        tol = 1e-9
        g = form_factor_grid(band, GAMMA, n_points=300, tol=tol)
        for mu, g2 in zip(g.mu[::15], g.g2[::15]):
            want = g2_quad_oracle(band, GAMMA, mu)
            assert g2 == pytest.approx(want, abs=20.0 * tol * max(want, FREE))

    def test_unreachable_tolerance_raises_quadrature_failure(self):
        with pytest.raises(QuadratureFailure, match="self-energy at E="):
            form_factor_grid(pl_band(1.0), GAMMA, n_points=100, tol=1e-16)

    def test_narrow_edge_band_builds_at_tight_tolerance(self):
        # the per-point scalar quadrature used to miss its budget at mu ~ -51.4
        band = DetectorBand(eta=100.0, delta=100.0 / (2 * math.pi), n=24)
        g = form_factor_grid(band, GAMMA, tol=1e-10, n_points=800)
        assert np.all(g.g2 > 0.0)

    def test_window_must_cover_band(self):
        with pytest.raises(WindowTooNarrow):
            form_factor_grid(pl_band(1.0), GAMMA, window=(-3.0, 3.0))

    @pytest.mark.parametrize("window", [(math.nan, 100.0), (-100.0, math.nan)])
    def test_nan_window_bound_is_too_narrow(self, window):
        # a NaN bound passed the coverage check and the edge ladders never ended
        with pytest.raises(WindowTooNarrow):
            form_factor_grid(DetectorBand(eta=1.0, delta=10.0, center=0.0), GAMMA, window=window)


class TestSteepBands:
    # 2 pi Delta = 100 as in Fig. 3; n up to 3200 approaches the flat band
    @pytest.mark.parametrize("eta", [1.0, 100.0, 1000.0])
    @pytest.mark.parametrize("n", [96, 400, 1600, 3200])
    def test_grid_matches_scalar_reference(self, n, eta):
        band = DetectorBand(eta=eta, delta=100.0 / (2 * math.pi), n=n, center=0.0)
        tol = 1e-9
        g = form_factor_grid(band, GAMMA, tol=tol)
        assert np.all(np.isfinite(g.g2))
        for mu, g2 in zip(g.mu[::20], g.g2[::20]):
            want = g2_quad_oracle(band, GAMMA, mu)
            assert g2 == pytest.approx(want, abs=20.0 * tol * max(want, FREE))

    def test_values_where_eta_underflows(self):
        # eta_E is 0.0 beyond ~2.4 delta for n = 800; at 2.6 delta (a panel
        # breakpoint) a ladder node would round onto E and give 0/0
        band = DetectorBand(eta=100.0, delta=100.0 / (2 * math.pi), n=800, center=0.0)
        tol, mu = 1e-9, np.linspace(-3.0, 3.0, 61) * band.delta
        g2 = -formfactor._self_energy(band, GAMMA, mu, tol).imag / math.pi
        for m, v in zip(mu[::4], g2[::4]):
            want = g2_quad_oracle(band, GAMMA, m)
            assert v == pytest.approx(want, abs=20.0 * tol * max(want, FREE))

    @pytest.mark.parametrize("E", [0.0, 10.0, 30.0])
    def test_converges_to_flat_band(self, E):
        # |Sigma_n - Sigma_flat| ~ c/n with c = 0.47, 1.2, 0.35 at E = 0, 10, 30
        delta = 100.0 / (2 * math.pi)
        want = flat_sigma_oracle(GAMMA, 100.0, delta, E)
        ns = (24, 96, 400, 1600)
        gaps = [abs(formfactor._self_energy(DetectorBand(eta=100.0, delta=delta, n=n,
                                                         center=0.0), GAMMA, E)[0] - want)
                for n in ns]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(gap * n < 1.5 for gap, n in zip(gaps, ns))


class TestSumRule:
    def test_no_detector_defect_is_zero(self):
        band = DetectorBand(eta=0.0, delta=1.0, n=6, center=0.0)
        g = form_factor_grid(band, GAMMA, n_points=50, tol=1e-8)
        assert sum_rule_defect(g, GAMMA) == pytest.approx(0.0, abs=1e-15)

    def test_flat_band_deviation_cancels_analytically(self):
        # in-band deficit against out-of-band arctan surplus, via the
        # analytic profile on a dense grid: residual shrinks like 1/window
        eta, delta = 1.0, 1.0
        residuals = []
        for X in (50.0, 100.0, 200.0):
            edge_hug = np.array([-1.0 - 1e-9, -1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9]) * delta
            tail = np.geomspace(5.0, X, 4001)
            mu = np.unique(np.concatenate([
                np.linspace(-5.0, 5.0, 10001),
                tail, -tail,
                edge_hug,  # localize the delta-term jump at the band edges
            ]))
            mu = mu[np.abs(np.abs(mu) - delta) > 1e-10]
            g2 = np.array([flat_g2(eta, delta, m) for m in mu])
            residuals.append(abs(np.trapezoid(g2 - FREE, mu)))
        # piecewise integration of the arctan profile gives
        # |defect(X)| -> gamma*eta*delta/(pi^2 X) for X >> delta
        assert residuals[0] == pytest.approx(GAMMA * eta * delta / (math.pi ** 2 * 50.0),
                                             rel=0.02)
        assert residuals[1] == pytest.approx(residuals[0] / 2, rel=0.15)
        assert residuals[2] == pytest.approx(residuals[0] / 4, rel=0.15)

    def test_power_law_window_scaling(self):
        # analytic tail estimate: |defect(X)| ~ gamma*eta*delta/(3*pi*X)
        band = pl_band(1.0, delta=1.0)
        d50 = abs(sum_rule_defect(
            form_factor_grid(band, GAMMA, window=(-50, 50), n_points=400, tol=1e-9), GAMMA))
        d100 = abs(sum_rule_defect(
            form_factor_grid(band, GAMMA, window=(-100, 100), n_points=500, tol=1e-9), GAMMA))
        want50 = GAMMA * band.eta / (150.0 * math.pi)
        assert d50 == pytest.approx(want50, rel=0.05)
        assert d100 == pytest.approx(d50 / 2, rel=0.1)

    def test_default_grid_meets_analytic_tail(self):
        # n = 6, eta = 100, 2 pi Delta = 100 on the default 400-point +-1000
        # window: the far cells are coarse for the 1/mu^2 tail, where a
        # trapezoid is ~4% off gamma*eta*delta/(3 pi X)
        band = DetectorBand(eta=100.0, delta=100.0 / (2 * math.pi), n=6, center=0.0)
        g = form_factor_grid(band, GAMMA, window=(-1000.0, 1000.0), n_points=400, tol=1e-9)
        want = -GAMMA * band.eta * band.delta / (3 * math.pi * 1000.0)
        assert sum_rule_defect(g, GAMMA) == pytest.approx(want, rel=0.01)

    def test_narrow_window_rejected(self):
        # wide enough to build the grid, but the edges have not reached the
        # free-value asymptote within 1e-3 relative
        band = pl_band(1.0)
        g = form_factor_grid(band, GAMMA, window=(-40.0, 40.0), n_points=300, tol=1e-8)
        with pytest.raises(WindowTooNarrow):
            sum_rule_defect(g, GAMMA)
