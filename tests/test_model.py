import math
import pickle

import numpy as np
import pytest

from zenoband import (
    DetectorBand,
    ModelParams,
    NumericalControls,
    ValidationError,
    detector_response,
    discretize_continuum,
    qze_condition_report,
    validate_params,
)
from zenoband.model import BAND_TAIL_TOL, default_cutoff


def band(eta=1.0, delta=1.0, n=6, center=0.0):
    return DetectorBand(eta=eta, delta=delta, n=n, center=center)


class TestDetectorResponse:
    def test_band_center_value(self):
        b = band(eta=3.0)
        assert detector_response(b, 0.0) == pytest.approx(3.0 / (2 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 6, 12])
    def test_half_value_at_edge(self, n):
        b = band(eta=2.0, n=n)
        assert detector_response(b, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)

    def test_two_bandwidths_n6(self):
        b = band(eta=1.0, n=6)
        want = (1.0 / (2 * math.pi)) / 65.0
        assert detector_response(b, 2.0) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("flat", [False, True])
    def test_symmetric_about_center(self, flat):
        b = DetectorBand(eta=1.3, delta=0.7, n=None if flat else 8, center=2.5)
        x = np.linspace(0.0, 5.0, 97)
        left = detector_response(b, 2.5 - x)
        right = detector_response(b, 2.5 + x)
        np.testing.assert_allclose(left, right, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("flat", [False, True])
    def test_monotone_falloff(self, flat):
        b = DetectorBand(eta=1.0, delta=1.0, n=None if flat else 6, center=0.0)
        x = np.linspace(0.0, 8.0, 300)
        vals = detector_response(b, x)
        assert np.all(np.diff(vals) <= 1e-18)

    def test_flat_band_indicator(self):
        b = DetectorBand(eta=2.0, delta=1.5, n=None, center=0.0)
        assert detector_response(b, 0.3) == pytest.approx(1.0 / math.pi)
        assert detector_response(b, 1.5) == 0.0
        assert detector_response(b, -4.0) == 0.0


class TestValidateParams:
    def test_fig1_parameters_valid(self):
        delta = 100.0 / (2 * math.pi)
        p = ModelParams(gamma=1.0, omega=0.0, band=DetectorBand(eta=1.5, delta=delta, n=6))
        m = validate_params(p)
        assert m.band.center == 0.0
        assert m.numerics.horizon == pytest.approx(5.0)
        # default cutoff covers at least ten half-bandwidths
        assert m.numerics.cutoff >= 10 * delta
        # revival guard dk <= pi/(2T)
        assert m.numerics.dk <= math.pi / (2 * m.numerics.horizon)

    def test_measurement_free_allowed(self):
        m = validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=0.0, delta=1.0, n=6)))
        assert m.band.eta == 0.0

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=1.0, delta=1.0, n=5)))
        assert [c for c, _ in exc.value.violations] == ["n"]

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(ModelParams(gamma=0.0))
        assert [c for c, _ in exc.value.violations] == ["gamma"]

    def test_cutoff_below_delta_rejected(self):
        p = ModelParams(gamma=1.0, band=DetectorBand(eta=1.0, delta=10.0, n=6),
                        numerics=NumericalControls(cutoff=5.0))
        with pytest.raises(ValidationError) as exc:
            validate_params(p)
        assert [c for c, _ in exc.value.violations] == ["cutoff"]

    def test_violations_collected(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(ModelParams(gamma=-1.0, band=DetectorBand(eta=1.0, delta=1.0, n=3)))
        codes = {c for c, _ in exc.value.violations}
        assert {"gamma", "n"} <= codes

    def test_validation_error_survives_pickling(self):
        # sweep workers hand their errors back to the parent through pickle
        with pytest.raises(ValidationError) as exc:
            validate_params(ModelParams(gamma=-1.0, band=DetectorBand(eta=1.0, delta=1.0, n=3)))
        back = pickle.loads(pickle.dumps(exc.value))
        assert type(back) is ValidationError
        assert back.violations == exc.value.violations
        assert str(back) == str(exc.value)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValidationError) as exc:
            validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=1.0, delta=10.0,
                                                                      center=center)))
        assert [c for c, _ in exc.value.violations] == ["center"]

    def test_center_defaults_to_omega(self):
        m = validate_params(ModelParams(gamma=1.0, omega=7.0,
                                        band=DetectorBand(eta=1.0, delta=1.0, n=6)))
        assert m.band.center == 7.0


class TestConditionReport:
    def fig3_solid(self):
        delta = 100.0 / (2 * math.pi)
        return validate_params(ModelParams(
            gamma=1.0, band=DetectorBand(eta=100.0, delta=delta, n=6)))

    def test_fig3_solid_is_qze_regime(self):
        rep = qze_condition_report(self.fig3_solid())
        assert rep.ratio_linewidth == pytest.approx(2 * math.pi / 100.0, rel=1e-12)
        assert rep.ratio_response == pytest.approx(100.0 / (2 * math.pi) / 100.0, rel=1e-12)
        assert rep.verdict == "QZE-regime"

    def test_fig1_is_weak_suppression(self):
        delta = 100.0 / (2 * math.pi)
        m = validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=1.5, delta=delta, n=6)))
        rep = qze_condition_report(m)
        assert rep.ratio_response == pytest.approx(10.61, abs=0.01)
        assert rep.verdict == "weak-suppression"

    def test_no_detector(self):
        m = validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=0.0, delta=1.0, n=6)))
        with pytest.raises(ValidationError) as exc:
            qze_condition_report(m)
        assert exc.value.violations == [
            ("eta", "eta = 0: no measurement, condition report undefined")]

    def test_suppression_estimate_centered(self):
        rep = qze_condition_report(self.fig3_solid())
        delta = 100.0 / (2 * math.pi)
        want = (2.0 / math.pi) * math.atan(2 * delta / 100.0)
        assert rep.suppression_estimate == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 7.0, 4096.0])
    def test_scale_invariance(self, scale):
        delta = 100.0 / (2 * math.pi)
        m = validate_params(ModelParams(
            gamma=scale, omega=0.0,
            band=DetectorBand(eta=100.0 * scale, delta=delta * scale, n=6)))
        rep = qze_condition_report(m)
        ref = qze_condition_report(self.fig3_solid())
        assert rep.ratio_linewidth == pytest.approx(ref.ratio_linewidth, rel=1e-12)
        assert rep.ratio_response == pytest.approx(ref.ratio_response, rel=1e-12)
        assert rep.suppression_estimate == pytest.approx(ref.suppression_estimate, rel=1e-12)
        assert rep.verdict == ref.verdict

    def test_detuned_band_reports_no_overlap(self):
        delta = 100.0 / (2 * math.pi)
        m = validate_params(ModelParams(
            gamma=1.0, omega=0.0,
            band=DetectorBand(eta=100.0, delta=delta, n=6, center=5 * delta)))
        rep = qze_condition_report(m)
        assert rep.verdict == "no-detection-overlap"
        # out-of-band line sees enhancement, not suppression
        assert rep.suppression_estimate > 1.0


def ten_width_cutoff(gamma, b, omega):
    """The rule before the band-derived window: ten widths of delta, eta, gamma."""
    base = max(10.0 * max(b.delta, b.eta, gamma), 300.0 * gamma)
    off = abs(b.center - omega)
    return max(base, off + 10.0 * max(b.delta, gamma)) if off > 0.0 else base


class TestCutoffRule:
    @pytest.mark.parametrize("n", [2, 6, None], ids=["n2", "n6", "flat"])
    def test_between_floor_and_ten_width_rule(self, n):
        for gamma in (1.0, 2.5):
            for eta in (0.0, 0.5, 10.0, 100.0, 1e3, 1e4, 1e5):
                for delta in (0.1, 1.0, 100 / (2 * math.pi), 1e3 / (2 * math.pi), 1e3):
                    for det in (0.0, 2.0 * delta, -7.0 * delta):
                        b = band(eta=eta, delta=delta, n=n, center=det)
                        K = default_cutoff(gamma, b, 0.0)
                        assert K <= ten_width_cutoff(gamma, b, 0.0)
                        assert K >= max(300.0 * gamma, 10.0 * max(delta, gamma))

    def test_band_sets_the_window_where_damping_fades(self):
        # broken Fig. 3 set: K0 = 2K/3 sits where pi*eta_k/gamma = BAND_TAIL_TOL
        b = band(eta=1000.0, delta=1000 / (2 * math.pi))
        K = default_cutoff(1.0, b, 0.0)
        assert 3000.0 < K < 3200.0
        assert math.pi * detector_response(b, 2.0 * K / 3.0) == pytest.approx(BAND_TAIL_TOL,
                                                                              rel=1e-2)

    def test_flat_band_window_ignores_eta(self):
        Ks = {default_cutoff(1.0, band(eta=eta, delta=50.0, n=None), 0.0)
              for eta in (0.0, 1.0, 100.0, 1e4, 1e6)}
        assert Ks == {500.0}

    def test_explicit_cutoff_at_the_rule_edge(self):
        b = DetectorBand(eta=1e3, delta=20.0, n=6)
        K = default_cutoff(1.0, validate_params(ModelParams(gamma=1.0, band=b)).band, 0.0)
        assert K > max(300.0, 10.0 * 20.0)  # the band term sets this window

        def at(cutoff):
            return validate_params(ModelParams(gamma=1.0, band=b,
                                               numerics=NumericalControls(cutoff=cutoff)))
        with pytest.raises(ValidationError) as exc:
            discretize_continuum(at(K * (1.0 - 1e-9)))
        assert [c for c, _ in exc.value.violations] == ["cutoff"]
        assert discretize_continuum(at(K)).cutoff == K
