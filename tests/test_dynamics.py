import math

import numpy as np
import pytest
from conftest import krogstad_reference
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar
from scipy.special import sici

from zenoband import (
    DetectorBand,
    ModelParams,
    NoResponse,
    NumericalControls,
    ProbabilityTrace,
    ValidationError,
    decay_rate_trace,
    discretize_continuum,
    propagate,
    response_delay,
    validate_params,
)
from zenoband import dynamics
from zenoband.dynamics import _core_bytes, _tail_norm, _taper

FIG1_DELTA = 100.0 / (2 * math.pi)


def model(eta=0.0, delta=1.0, n=6, flat=False, center=None, **num):
    band = DetectorBand(eta=eta, delta=delta, n=None if flat else n, center=center)
    return validate_params(ModelParams(gamma=1.0, band=band,
                                       numerics=NumericalControls(**num)))


@pytest.fixture(scope="module")
def free_trace():
    m = model(eta=0.0)
    return propagate(discretize_continuum(m))


class TestDiscretize:
    def test_revival_guard_arithmetic(self):
        # horizon 5 and margin 4 force dk <= 2*pi/20 ~ 0.314
        m = model(eta=1.0, delta=10.0)
        assert m.numerics.dk <= 2 * math.pi / (4 * m.numerics.horizon)
        dm = discretize_continuum(m)
        assert 2 * math.pi / m.numerics.dk > 4 * dm.horizon

    def test_revival_guard_violation(self):
        m = model(eta=1.0, delta=10.0, dk=0.5)  # 2*pi/0.5 = 12.6 < 4*T = 20
        with pytest.raises(ValidationError) as err:
            discretize_continuum(m)
        assert [code for code, _ in err.value.violations] == ["dk"]

    def test_memory_estimate_rejects_long_horizon(self):
        # broken Fig. 3 set at horizon 1e4: dk ~ 1.26e-4 on K ~ 3122 gives
        # ~5e7 core modes; only the estimate is evaluated, nothing is built
        m = model(eta=1000.0, delta=1000.0 / (2 * math.pi), horizon=1e4)
        K, dk = m.numerics.cutoff, m.numerics.dk
        assert 2 * K / dk > 4e7
        assert _core_bytes(K, dk) > dynamics._MAX_CORE_BYTES
        # the Fig. 3 horizon of the same set stays far inside the limit
        m5 = model(eta=1000.0, delta=1000.0 / (2 * math.pi))
        assert _core_bytes(m5.numerics.cutoff, m5.numerics.dk) < 0.05 * dynamics._MAX_CORE_BYTES

    def test_memory_guard_raises_before_building(self, monkeypatch):
        # a limit below this small grid's estimate must refuse it, naming horizon
        m = model(eta=1.0, delta=10.0)
        monkeypatch.setattr(dynamics, "_MAX_CORE_BYTES",
                            0.5 * _core_bytes(m.numerics.cutoff, m.numerics.dk))
        with pytest.raises(ValidationError) as err:
            discretize_continuum(m)
        assert [code for code, _ in err.value.violations] == ["horizon"]

    def test_fig1_cutoff_covers_ten_bandwidths(self):
        m = model(eta=1.5, delta=FIG1_DELTA)
        assert m.numerics.cutoff >= 10 * FIG1_DELTA
        dm = discretize_continuum(m)
        assert dm.k_grid.max() >= 10 * FIG1_DELTA

    def test_narrow_window_needs_override(self):
        m = model(eta=1.0, delta=30.0, cutoff=150.0)
        with pytest.raises(ValidationError) as err:
            discretize_continuum(m)
        assert [code for code, _ in err.value.violations] == ["cutoff"]
        m2 = model(eta=1.0, delta=30.0, cutoff=150.0, allow_narrow_window=True)
        assert discretize_continuum(m2).cutoff == 150.0

    def test_mode_energies_are_damped(self):
        m = model(eta=2.0, delta=5.0)
        dm = discretize_continuum(m)
        assert np.all(dm.mode_energy.imag <= 0.0)
        assert np.all(dm.tail_poles.imag <= 1e-15)
        # in-band damping is pi*eta_k, eta/2 at band center
        j = np.argmin(np.abs(dm.k_grid))
        assert -dm.mode_energy.imag[j] == pytest.approx(math.pi * 2.0 / (2 * math.pi), rel=1e-3)

    def test_couplings_follow_taper(self):
        m = model(eta=0.0)
        dm = discretize_continuum(m)
        g2dk = dm.gamma / (2 * math.pi) * m.numerics.dk
        inner = np.abs(dm.k_grid) < dm.taper_start
        np.testing.assert_allclose(dm.coupling[inner] ** 2, g2dk, rtol=1e-12)
        outer = np.abs(dm.k_grid) > dm.taper_start
        assert np.all(dm.coupling[outer] ** 2 < g2dk)


class TestPropagate:
    def test_initial_condition(self, free_trace):
        assert free_trace.s[0] == 1.0
        assert free_trace.eps[0] == 0.0
        assert free_trace.r[0] == 0.0

    def test_measurement_free_oracle(self, free_trace):
        err = np.abs(free_trace.s - np.exp(-free_trace.t))
        assert err.max() < 1e-6

    def test_free_norm_defect(self, free_trace):
        assert free_trace.norm_defect.max() < 1e-6

    def test_no_detector_leaves_r_zero(self, free_trace):
        assert np.all(free_trace.r == 0.0)

    def test_probabilities_in_unit_range(self, free_trace):
        for arr in (free_trace.s, free_trace.eps, free_trace.r):
            assert arr.min() >= -1e-9
            assert arr.max() <= 1.0 + 1e-9

    def test_sample_times_must_be_inside_horizon(self):
        m = model(eta=0.0)
        dm = discretize_continuum(m)
        with pytest.raises(ValueError):
            propagate(dm, np.array([0.0, 2 * dm.horizon]))

    def test_grid_doubling_stability(self):
        # halved spacing and doubled cutoff move s(t) by less than 1e-4
        kw = dict(eta=3.0, delta=5.0)
        base = model(**kw)
        fine = model(**kw, dk=base.numerics.dk / 2, cutoff=2 * base.numerics.cutoff)
        ts = np.linspace(0.0, 5.0, 101)
        s0 = propagate(discretize_continuum(base), ts).s
        s1 = propagate(discretize_continuum(fine), ts).s
        assert np.abs(s0 - s1).max() < 1e-4

    def test_step_halving_stability(self):
        kw = dict(eta=3.0, delta=5.0)
        base = model(**kw)
        tight = model(**kw, step=base.numerics.step / 2)
        ts = np.linspace(0.0, 5.0, 101)
        s0 = propagate(discretize_continuum(base), ts).s
        s1 = propagate(discretize_continuum(tight), ts).s
        assert np.abs(s0 - s1).max() < 1e-6

    def test_flat_band_half_suppression_rate(self):
        # eta = 2*delta: late-time decay rate is half the free rate
        m = model(eta=10.0, delta=5.0, flat=True)
        tr = propagate(discretize_continuum(m))
        t, rate = decay_rate_trace(tr)
        assert rate[-1] == pytest.approx(-0.5, abs=0.02)

    def test_deterministic_rerun(self):
        m = model(eta=1.5, delta=FIG1_DELTA)
        dm = discretize_continuum(m)
        ts = np.linspace(0.0, 5.0, 41)
        a = propagate(dm, ts)
        b = propagate(dm, ts)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.r, b.r)


class TestSymmetries:
    """Invariances of the model that the propagator must keep (2 pi Delta = 100)."""

    # measured: s, eps and r agree to <= 5.6e-16
    @pytest.mark.parametrize("flat", [False, True], ids=["n6", "flat"])
    @pytest.mark.parametrize("eta", [10.0, 100.0])
    def test_detuning_mirror(self, eta, flat):
        up, down = (propagate(discretize_continuum(
            model(eta=eta, delta=FIG1_DELTA, flat=flat, center=sign * 2.5 * FIG1_DELTA)))
            for sign in (1.0, -1.0))
        for a, b in ((up.s, down.s), (up.eps, down.eps), (up.r, down.r)):
            assert np.abs(a - b).max() <= 1e-12

    # (gamma, eta, Delta, center) -> lam * (...) maps t -> t/lam; measured:
    # lam = 2 and 0.5 exact, lam = 3 to 6.9e-15, lam = 1e-3 to 1.2e-11
    @pytest.mark.parametrize("lam", [2.0, 0.5, 3.0, 1e-3])
    @pytest.mark.parametrize("detuning", [0.0, 2.5], ids=["centred", "detuned"])
    def test_time_rescaling(self, lam, detuning):
        def trace(scale):
            band = DetectorBand(eta=100.0 * scale, delta=FIG1_DELTA * scale,
                                center=detuning * FIG1_DELTA * scale)
            return propagate(discretize_continuum(
                validate_params(ModelParams(gamma=scale, band=band))))

        ref, scaled = trace(1.0), trace(lam)
        np.testing.assert_allclose(scaled.t * lam, ref.t, rtol=1e-12, atol=0.0)
        for a, b in ((scaled.s, ref.s), (scaled.eps, ref.eps), (scaled.r, ref.r)):
            assert np.abs(a - b).max() <= 1e-10


class TestStructuredStepper:
    """The arrowhead stepper against a generic ERK4 that builds N(x) in full."""

    # The stepped flux row differs from the integrated flux records by the
    # spline's quadrature error: measured 0, 1.8e-9 and 3.7e-10.
    @pytest.mark.parametrize("kw, r_gap", [
        (dict(eta=0.0), 0.0),
        (dict(eta=1.5, delta=FIG1_DELTA, horizon=1.0), 5e-9),
        (dict(eta=2.0, delta=5.0, center=15.0), 1e-9),  # band detuned by 3 delta
    ], ids=["eta0", "fig1", "detuned"])
    def test_matches_generic_erk4(self, kw, r_gap):
        dm = discretize_continuum(model(**kw))
        ts = np.linspace(0.0, dm.horizon, 201)
        tr = propagate(dm, ts)
        s, eps, r, r_row = krogstad_reference(dm, ts)
        assert np.abs(tr.s - s).max() <= 1e-12
        assert np.abs(tr.eps - eps).max() <= 1e-12
        assert np.abs(tr.r - r).max() <= 1e-12
        assert np.abs(r - r_row).max() <= r_gap


class TestTailNorm:
    @staticmethod
    def reference(dm, t, F):
        """The tail norm with its ramp moments from adaptive oscillatory quadrature."""
        g2 = dm.gamma / (2.0 * math.pi)
        K0, K = dm.taper_start, dm.cutoff

        def profile(k):  # (1 - W)/k^2 on the ramp
            return (1.0 - _taper((k - K0) / (K - K0))) / k ** 2

        j2 = quad(profile, K0, K, epsabs=0.0, epsrel=1e-12)[0] + 1.0 / K
        out = np.empty(len(t))
        for i, tt in enumerate(t):
            phi = j2
            if tt > 0.0:
                ramp = quad(profile, K0, K, weight="cos", wvar=tt,
                            epsabs=0.0, epsrel=1e-12, limit=200)[0]
                phi = ramp + math.cos(K * tt) / K - tt * (math.pi / 2.0 - sici(K * tt)[0])
            out[i] = (2.0 * g2 * (abs(F[i]) ** 2 + 1.0) * j2
                      - 4.0 * g2 * F[i].real * phi)
        return out

    # measured 1.5e-18 (eta0) and 1.6e-19 (broken); the ramp trapezoid this
    # rule replaced was ~1e-9 off
    @pytest.mark.parametrize("kw", [dict(eta=0.0), dict(eta=1000.0, delta=1000 / (2 * math.pi))],
                             ids=["eta0", "broken"])
    def test_matches_oscillatory_quad(self, kw):
        dm = discretize_continuum(model(**kw))
        t = np.linspace(0.0, dm.horizon, 41)
        F = np.exp(-(0.5 + 0.3j) * t)
        np.testing.assert_allclose(_tail_norm(dm, t, F), self.reference(dm, t, F),
                                   rtol=0, atol=1e-15)


class TestDecayRateTrace:
    def test_free_decay_is_minus_one(self, free_trace):
        t, rate = decay_rate_trace(free_trace)
        np.testing.assert_allclose(rate, -1.0, atol=2e-6)

    def test_skips_t_zero(self, free_trace):
        t, rate = decay_rate_trace(free_trace)
        assert t.min() > 0.0
        assert len(t) == len(free_trace.t) - 1


class TestResponseDelay:
    def synthetic(self, d0):
        t = np.linspace(0.0, 10.0, 2001)
        s = np.exp(-t)
        r = np.where(t > d0, 1.0 - np.exp(-(t - d0)), 0.0)
        eps = 1.0 - s - r
        return ProbabilityTrace(t=t, s=s, eps=eps, r=r,
                                norm_defect=np.zeros_like(t), gamma=1.0)

    @pytest.mark.parametrize("d0", [0.3, 0.8, 2.0])
    def test_recovers_constructed_shift(self, d0):
        assert response_delay(self.synthetic(d0)) == pytest.approx(d0, abs=0.02)

    def test_searches_agree(self):
        # the objective is continuous in d, so bounded Brent on a dense
        # trapezoid form of it lands on the golden-section minimum
        tr = propagate(discretize_continuum(model(eta=2.0, delta=5.0)),
                       np.linspace(0.0, 5.0, 501))
        s_of, r_of = CubicSpline(tr.t, tr.s), CubicSpline(tr.t, tr.r)
        T = tr.t[-1]

        def gap(d):
            t = np.linspace(d, T, 20001)
            return np.trapezoid((r_of(t) - 1.0 + s_of(t - d)) ** 2, t) / (T - d)

        brent = minimize_scalar(gap, bounds=(0.0, T / 2.0), method="bounded",
                                options={"xatol": 1e-7}).x
        assert response_delay(tr) == pytest.approx(brent, abs=1e-3)

    def test_no_response_when_r_stays_low(self, free_trace):
        with pytest.raises(NoResponse):
            response_delay(free_trace)

    def test_fig1_delay_close_to_response_time(self):
        m = model(eta=1.5, delta=FIG1_DELTA)
        tr = propagate(discretize_continuum(m))
        d = response_delay(tr)
        tau = 1.0 / 1.5
        assert 0.5 * tau <= d <= 2.0 * tau
