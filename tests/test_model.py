import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import g2_quad_oracle
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
from zenoband import model
from zenoband.model import _LADDER, _RUNGS, SIGMA_BUDGET, _window_defect, default_cutoff


def band(eta=1.0, delta=1.0, n=6, center=0.0):
    return DetectorBand(eta=eta, delta=delta, n=n, center=center)


def scalar_ladder(gamma, b, omega, horizon):
    """The window rule one rung per call: K *= _LADDER while D(K) is above the budget."""
    K = b.delta
    while _window_defect(gamma, b, omega, K, 4j / horizon) > SIGMA_BUDGET * gamma:
        K *= _LADDER
    return K


def with_raw(key, value):
    """A valid scenario with one raw field set: omega, delta or a numerics field."""
    p = ModelParams(gamma=1.0, band=DetectorBand(eta=1.0, delta=1.0))
    if key == "omega":
        return replace(p, omega=value)
    if key == "delta":
        return replace(p, band=replace(p.band, delta=value))
    return replace(p, numerics=replace(p.numerics, **{key: value}))


RAW_REFUSALS = ([("omega", v) for v in (math.nan, math.inf)]
                + [("delta", v) for v in (0.0, -1.0, math.nan)]
                + [(key, v) for key in ("cutoff", "dk", "horizon", "step")
                   for v in (0.0, -1.0, math.inf, math.nan)]
                + [("quad_tol", v) for v in (0.0, 1.0, -1e-9, 2.0, math.nan)])


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
        # the default cutoff is the window rule's at this T
        assert m.numerics.cutoff == default_cutoff(1.0, m.band, 0.0, 5.0)
        # the recurrence 2*pi/dk clears T by STRIP_BUDGET/s, s = delta sin(pi/6)
        assert 2 * math.pi / m.numerics.dk == pytest.approx(5.0 + 20.7 / (0.5 * delta), rel=1e-12)

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

    @pytest.mark.parametrize("band", [
        DetectorBand(eta=100.0, delta=100 / (2 * math.pi)),
        DetectorBand(eta=10.0, delta=100 / (2 * math.pi)),
        DetectorBand(eta=1000.0, delta=1000 / (2 * math.pi)),
        DetectorBand(eta=100.0, delta=100 / (2 * math.pi), n=None),
        DetectorBand(eta=100.0, delta=100 / (2 * math.pi), center=2.5 * 100 / (2 * math.pi)),
    ], ids=["solid", "dotted", "broken", "flat", "detuned"])
    def test_validated_scenario_validates_to_itself(self, band):
        m = validate_params(ModelParams(gamma=1.0, band=band))
        assert type(m) is ModelParams
        assert validate_params(m) == m

    @pytest.mark.parametrize("key, value", RAW_REFUSALS + [("center", None)],
                             ids=[f"{k}={v}" for k, v in RAW_REFUSALS] + ["center-unresolved"])
    def test_input_refused_naming_its_key(self, key, value):
        # each raw field is refused before any default is resolved, and
        # detector_response refuses a band whose center was never resolved
        with pytest.raises(ValidationError) as exc:
            if key == "center":
                detector_response(DetectorBand(eta=1.0, delta=1.0), 0.0)
            else:
                validate_params(with_raw(key, value))
        assert [c for c, _ in exc.value.violations] == [key]
        assert key in str(exc.value)

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
        # the n = 6 band's own rate 2 pi g2(omega)/gamma, where the flat band's arctan
        # (2/pi) atan(2 delta/eta) would read 0.1962
        m = self.fig3_solid()
        rep = qze_condition_report(m)
        assert rep.suppression_estimate == pytest.approx(
            2 * math.pi * g2_quad_oracle(m.band, 1.0, 0.0), rel=1e-9)
        assert f"{rep.suppression_estimate:.6g}" == "0.331872"

    def test_flat_band_suppression_is_the_arctan(self):
        delta = 100.0 / (2 * math.pi)
        m = validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=100.0, delta=delta,
                                                                     n=None)))
        want = (2.0 / math.pi) * math.atan(2 * delta / 100.0)
        assert qze_condition_report(m).suppression_estimate == pytest.approx(want, rel=1e-12)

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


class TestCutoffRule:
    @pytest.mark.parametrize("n", [2, 6, None], ids=["n2", "n6", "flat"])
    def test_first_rung_within_the_budget(self, n):
        # K = delta * _LADDER**j for the least j with D(K) <= SIGMA_BUDGET*gamma at 4i/T
        for gamma in (1.0, 2.5):
            eps = 4j * gamma / 5.0
            for eta in (0.0, 0.5, 10.0, 100.0, 1e3, 1e4, 1e5):
                for delta in (0.1, 1.0, 100 / (2 * math.pi), 1e3 / (2 * math.pi), 1e3):
                    for det in (0.0, 2.0 * delta, -7.0 * delta):
                        b = band(eta=eta, delta=delta, n=n, center=det)
                        K = default_cutoff(gamma, b, 0.0, 5.0 / gamma)
                        assert _window_defect(gamma, b, 0.0, K, eps) <= SIGMA_BUDGET * gamma
                        if K > delta:
                            D = _window_defect(gamma, b, 0.0, K / _LADDER, eps)
                            assert D > SIGMA_BUDGET * gamma
                        else:
                            assert K == delta

    # The rule before this one stopped at 10*max(delta, eta, gamma), where n = 2
    # at eta = 100 kept D = 48 B, and floored a detuned band at its offset plus
    # 10*max(delta, gamma): K = 2,010 for delta = 1 at 2000.
    def test_band_sets_the_window_by_its_sigma_defect(self):
        # the broken Fig. 3 set, n = 2 and a narrow band far off the line
        for b, top in ((band(eta=1000.0, delta=1000 / (2 * math.pi)), 1400.0),
                       (band(eta=30.0, delta=100 / (2 * math.pi), n=2), 2100.0),
                       (band(eta=100.0, delta=100 / (2 * math.pi), n=2), 3100.0),
                       (band(eta=100.0, delta=1.0, center=2000.0), 1.8)):
            K = default_cutoff(1.0, b, 0.0, 5.0)
            assert b.delta < K <= top
            assert _window_defect(1.0, b, 0.0, K, 0.8j) <= SIGMA_BUDGET
            assert _window_defect(1.0, b, 0.0, K / _LADDER, 0.8j) > SIGMA_BUDGET

    @pytest.mark.parametrize("n", [2, 6, 96, 400, None], ids=["n2", "n6", "n96", "n400", "flat"])
    def test_batched_ladder_is_the_scalar_ladder(self, n):
        # default_cutoff evaluates _RUNGS rungs per call; K is the one-rung-per-call K, bit for bit
        for eta in (0.0, 0.5, 30.0, 100.0, 1e4):
            for delta in (1.0, 100 / (2 * math.pi), 1e3 / (2 * math.pi)):
                for det in (0.0, 0.5 * delta, -7.0 * delta):
                    for T in (1.0, 5.0, 20.0):
                        b = band(eta=eta, delta=delta, n=n, center=det)
                        assert default_cutoff(1.0, b, 0.0, T) == scalar_ladder(1.0, b, 0.0, T)

    def test_window_defect_of_an_array_is_each_windows_own(self):
        for n in (2, 6, None):
            b = band(eta=100.0, delta=100 / (2 * math.pi), n=n, center=3.0)
            Ks = b.delta * _LADDER ** np.arange(40)
            D = _window_defect(1.0, b, 0.0, Ks, 0.8j)
            assert D.shape == Ks.shape
            assert np.array_equal(D, [_window_defect(1.0, b, 0.0, K, 0.8j) for K in Ks])

    def test_ladder_calls_and_memory(self, monkeypatch):
        # n = 2 at eta = 100 climbs 108 rungs to K ~ 3,100: 19 calls of 6 rungs, where the
        # one-rung ladder made 109; each call's temporaries stay under ~64 KB
        b = band(eta=100.0, delta=100 / (2 * math.pi), n=2)
        default_cutoff(1.0, band(), 0.0, 5.0)  # the Gauss-Legendre rule is cached
        tracemalloc.start()
        try:
            K = default_cutoff(1.0, b, 0.0, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rungs = round(math.log(K / b.delta) / math.log(_LADDER)) + 1
        assert rungs > 100
        assert peak < 96 * 1024
        calls = []

        def counted(*args):
            calls.append(np.size(args[3]))
            return _window_defect(*args)
        monkeypatch.setattr(model, "_window_defect", counted)
        assert default_cutoff(1.0, b, 0.0, 5.0) == K
        assert len(calls) == -(-rungs // _RUNGS) and set(calls) == {_RUNGS}

    def test_narrow_broken_set_window_is_refused_before_allocation(self):
        # cutoff 1200 on the broken set drops 1.0e-7 of Sigma, over the budget
        b = DetectorBand(eta=1000.0, delta=1000 / (2 * math.pi))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                validate_params(ModelParams(gamma=1.0, band=b,
                                            numerics=NumericalControls(cutoff=1200.0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c for c, _ in exc.value.violations] == ["cutoff"]
        assert peak < 2 ** 20

    def test_flat_band_window_ignores_eta(self):
        Ks = {default_cutoff(1.0, band(eta=eta, delta=50.0, n=None), 0.0, 5.0)
              for eta in (0.0, 1.0, 100.0, 1e4, 1e6)}
        assert Ks == {50.0}  # eta_k is 0 beyond the band, so K = delta

    def test_explicit_cutoff_at_the_rule_edge(self):
        b = DetectorBand(eta=1e4, delta=20.0, n=6)
        K = default_cutoff(1.0, validate_params(ModelParams(gamma=1.0, band=b)).band, 0.0, 5.0)
        assert K > max(300.0, 10.0 * 20.0)  # the band term sets this window

        def at(cutoff):
            return validate_params(ModelParams(gamma=1.0, band=b,
                                               numerics=NumericalControls(cutoff=cutoff)))
        with pytest.raises(ValidationError) as exc:
            discretize_continuum(at(K * (1.0 - 1e-9)))
        assert [c for c, _ in exc.value.violations] == ["cutoff"]
        assert discretize_continuum(at(K)).model.numerics.cutoff == K
