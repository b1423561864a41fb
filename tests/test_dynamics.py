import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import eig_reference, krogstad_reference, sigma_quad_oracle
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from zenoband import (
    DetectorBand,
    ModelParams,
    NoResponse,
    NumericalControls,
    ProbabilityTrace,
    ToleranceNotMet,
    ValidationError,
    decay_rate_trace,
    discretize_continuum,
    propagate,
    response_delay,
    validate_params,
)
from zenoband import dynamics
from zenoband import model as model_rules
from zenoband._phi import gauss_legendre
from zenoband.dynamics import _ArrowheadKrogstad
from zenoband.model import _window_defect

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
        # s = 10 sin(pi/6) = 5: the recurrence 2*pi/dk is T + STRIP_BUDGET/s = 9.14,
        # and a given dk is refused only beyond that default
        m = model(eta=1.0, delta=10.0)
        reach = m.numerics.horizon + model_rules.STRIP_BUDGET / 5.0
        assert 2 * math.pi / m.numerics.dk == pytest.approx(reach, rel=1e-12)
        assert model(eta=1.0, delta=10.0, dk=m.numerics.dk).numerics.dk == m.numerics.dk
        with pytest.raises(ValidationError):
            model(eta=1.0, delta=10.0, dk=m.numerics.dk * (1.0 + 1e-9))

    def test_revival_guard_violation(self):
        with pytest.raises(ValidationError) as err:
            model(eta=1.0, delta=10.0, dk=1.0)  # 2*pi/1 = 6.3 < T + 20.7/5 = 9.14
        assert [code for code, _ in err.value.violations] == ["dk"]

    def test_memory_estimate_rejects_long_horizon(self):
        # broken Fig. 3 set at horizon 1e4: dk ~ 6.28e-4 on K ~ 1362 gives
        # ~4.3e6 core modes; validation refuses it before anything is built
        with pytest.raises(ValidationError) as err:
            model(eta=1000.0, delta=1000.0 / (2 * math.pi), horizon=1e4)
        assert [code for code, _ in err.value.violations] == ["horizon"]
        assert "~4.34e+06 core modes" in str(err.value)
        # the Fig. 3 horizon of the same set stays far inside the limit
        m5 = model(eta=1000.0, delta=1000.0 / (2 * math.pi))
        core_bytes = 2 * m5.numerics.cutoff / m5.numerics.dk * model_rules._MODE_BYTES
        assert core_bytes < 0.05 * model_rules._MAX_CORE_BYTES

    def test_memory_guard_raises_before_building(self, monkeypatch):
        # a limit below this small grid's estimate must refuse it, naming horizon
        m = model(eta=1.0, delta=10.0)
        core_bytes = 2 * m.numerics.cutoff / m.numerics.dk * model_rules._MODE_BYTES
        monkeypatch.setattr(model_rules, "_MAX_CORE_BYTES", 0.5 * core_bytes)
        with pytest.raises(ValidationError) as err:
            model(eta=1.0, delta=10.0)
        assert [code for code, _ in err.value.violations] == ["horizon"]

    @pytest.mark.parametrize("n", [6, 24, 400, 1600])
    def test_band_strip_sets_dk(self, n):
        # dk = 2 pi/(T + STRIP_BUDGET/s) with s = delta sin(pi/n), which never exceeds
        # the strip's own 2 pi s/STRIP_BUDGET
        m = model(eta=100.0, delta=FIG1_DELTA, n=n)
        s = FIG1_DELTA * math.sin(math.pi / n)
        reach = m.numerics.horizon + model_rules.STRIP_BUDGET / s
        assert m.numerics.dk == pytest.approx(2 * math.pi / reach, rel=1e-12)
        assert m.numerics.dk < 2 * math.pi * s / model_rules.STRIP_BUDGET

    @pytest.mark.parametrize("center", [0.0, 0.37, -2.37, 2.5])
    def test_flat_band_edges_are_cell_boundaries(self, center):
        m = model(eta=100.0, delta=FIG1_DELTA, flat=True, center=center * FIG1_DELTA)
        dk = m.numerics.dk
        assert FIG1_DELTA / dk == pytest.approx(model_rules.FLAT_CELLS, abs=1e-9)
        k = discretize_continuum(m).k_grid
        boundaries = np.append(k - dk / 2.0, k[-1] + dk / 2.0)
        for edge in (m.band.center - FIG1_DELTA, m.band.center + FIG1_DELTA):
            assert np.abs(boundaries - edge).min() <= 1e-12 * FIG1_DELTA

    def test_steep_narrow_band_is_refused_before_allocation(self):
        # n = 2e6 on delta = 1: s = 1.6e-6 asks for dk ~ 4.8e-7 on K = delta,
        # ~4.2e6 cells or ~2.2 GiB; the band's spacing is the key named
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                model(eta=1.0, delta=1.0, n=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [code for code, _ in err.value.violations] == ["dk"]
        assert "~4.19e+06 core modes" in str(err.value)
        assert peak < 2 ** 20

    def test_long_free_horizon_is_refused_before_allocation(self):
        # eta = 0 builds no modes, but T = 1e7 at its resolved step 0.04 is 2.5e8 step
        # records (~88 GiB of records and splines); the horizon is the key named
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                model(eta=0.0, horizon=1e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [code for code, _ in err.value.violations] == ["horizon"]
        assert "~2.5e+08 step records" in str(err.value)
        assert peak < 2 ** 20

    def test_fine_step_is_refused_naming_step(self):
        # 5e7 steps on the default T = 5: a step set that fine is the key to change
        with pytest.raises(ValidationError) as err:
            model(eta=0.0, step=1e-7)
        assert [code for code, _ in err.value.violations] == ["step"]

    def test_step_record_estimate_covers_propagate(self):
        # 20,000 steps of the bare atom: propagate's peak is its step records
        # and their splines, 368 B a step measured
        dm = discretize_continuum(model(eta=0.0, horizon=200.0))
        tracemalloc.start()
        try:
            propagate(dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dm.model.numerics.horizon / dm.model.numerics.step * model_rules._STEP_BYTES

    @pytest.mark.parametrize("center", [0.0, 3.0 * FIG1_DELTA, -2.37 * FIG1_DELTA])
    def test_grid_spans_the_window_around_the_band(self, center):
        # cutoff is the half-width around the band centre, rounded up to whole cells
        m = model(eta=1.5, delta=FIG1_DELTA, center=center)
        dk, K = m.numerics.dk, m.numerics.cutoff
        k = discretize_continuum(m).k_grid
        lo, hi = k[0] - dk / 2.0 - center, k[-1] + dk / 2.0 - center
        assert hi == pytest.approx(-lo, abs=1e-9)
        assert K <= hi < K + dk

    def test_no_modes_without_a_band(self):
        dm = discretize_continuum(model(eta=0.0, delta=1e6))
        assert len(dm.k_grid) == len(dm.tail_poles) == 0
        assert _ArrowheadKrogstad(dm).L[0] == -0.5  # the atom row: the Markov term -gamma/2

    def test_narrow_window_needs_override(self):
        with pytest.raises(ValidationError) as err:
            model(eta=1.0, delta=30.0, cutoff=100.0)
        assert [code for code, _ in err.value.violations] == ["cutoff"]
        m2 = model(eta=1.0, delta=30.0, cutoff=100.0, allow_narrow_window=True)
        assert discretize_continuum(m2).model.numerics.cutoff == 100.0

    def test_resolved_violations_are_reported_together(self):
        with pytest.raises(ValidationError) as err:
            model(eta=1.0, delta=30.0, cutoff=100.0, dk=1.5)  # 2*pi/1.5 = 4.2 < 5 + 20.7/15
        assert [code for code, _ in err.value.violations] == ["dk", "cutoff"]

    def test_mode_energies_are_damped(self):
        m = model(eta=2.0, delta=5.0)
        dm = discretize_continuum(m)
        assert np.all(dm.mode_energy.imag <= 0.0)
        assert np.all(dm.tail_poles.imag <= 1e-15)
        # in-band damping is pi*eta_k, eta/2 at band center
        j = np.argmin(np.abs(dm.k_grid))
        assert -dm.mode_energy.imag[j] == pytest.approx(math.pi * 2.0 / (2 * math.pi), rel=1e-3)

    def test_ghosts_pair_the_photon_modes(self):
        # one undamped ghost of weight -c^2 at each photon mode's k
        m = model(eta=2.0, delta=5.0, center=1.5)
        dm = discretize_continuum(m)
        g2dk = dm.model.gamma / (2 * math.pi) * m.numerics.dk
        np.testing.assert_allclose(dm.coupling ** 2, g2dk, rtol=1e-12)
        assert dm.tail_k is dm.k_grid
        np.testing.assert_array_equal(dm.mode_energy.real, dm.k_grid)
        np.testing.assert_allclose(dm.tail_poles, dm.k_grid - dm.model.omega, rtol=0, atol=1e-12)


class TestWindowDefect:
    """The window rule's premise: the discretized Sigma misses the exact one by D(K) alone.

    The model's own self-energy, Markov term plus photon modes plus ghosts,
    is compared with ``sigma_quad_oracle`` at omega + x + iy across the line,
    y = max(4/T, STRIP_BUDGET*dk/2pi), and D is taken at the grid's own
    half-width (K rounded up to whole cells).  At that height the photon
    line's own aliases, ~e^{-2 pi y/dk} where the modes near omega are barely
    damped (the 3-delta detuned band), are at most e^-STRIP_BUDGET; at 4/T
    alone, on the band's coarser grid, they missed by 1.5e-3.  Two grid terms
    the window does not set are taken out: the midpoint alias (gamma/2)(tan(pi
    (eps - (c - omega))/dk) - i) of the undamped ghost line, and the flat
    band's Euler-Maclaurin edge term (dk^2/24) sum [d/dk g2/(eps - k + i pi
    eta_k)] over the jumps (~2e-7).
    """

    @staticmethod
    def sigma_d(dm, eps):
        return (-0.5j * dm.model.gamma
                + np.sum(dm.coupling ** 2 / (eps - (dm.mode_energy - dm.model.omega)))
                + np.sum(-dm.coupling ** 2 / (eps - dm.tail_poles)))

    # measured <= 5.6e-10 (the 3-delta detuned band, whose line leaves the
    # photon grid's own alias), <= 5.9e-11 elsewhere.  The K100, K60 and
    # K1200 windows are below the rule's K (136, 97, 1,362 and 143); K150 is
    # above it, except for the detuned band.
    @pytest.mark.parametrize("kw", [
        dict(eta=100.0, delta=FIG1_DELTA),
        dict(eta=100.0, delta=FIG1_DELTA, cutoff=150.0),
        dict(eta=100.0, delta=FIG1_DELTA, cutoff=100.0),
        dict(eta=10.0, delta=FIG1_DELTA),
        dict(eta=10.0, delta=FIG1_DELTA, cutoff=150.0),
        dict(eta=10.0, delta=FIG1_DELTA, cutoff=60.0),
        dict(eta=1000.0, delta=10 * FIG1_DELTA),
        dict(eta=1000.0, delta=10 * FIG1_DELTA, cutoff=1200.0),
        dict(eta=100.0, delta=FIG1_DELTA, center=3 * FIG1_DELTA),
        dict(eta=100.0, delta=FIG1_DELTA, center=3 * FIG1_DELTA, cutoff=150.0),
        dict(eta=100.0, delta=FIG1_DELTA, center=3 * FIG1_DELTA, cutoff=100.0),
        dict(eta=1000.0, delta=FIG1_DELTA, n=2),
        dict(eta=100.0, delta=FIG1_DELTA, flat=True),
        dict(eta=100.0, delta=FIG1_DELTA, flat=True, center=0.37 * FIG1_DELTA),
        dict(eta=0.0),
    ], ids=["solid", "solid-K150", "solid-K100", "dotted", "dotted-K150", "dotted-K60",
            "broken", "broken-K1200", "detuned-3delta", "detuned-3delta-K150",
            "detuned-3delta-K100", "n2", "flat", "flat-detuned", "eta0"])
    def test_sigma_misses_by_the_window_defect(self, kw):
        m = model(**kw, allow_narrow_window=True)
        dm, b, dk = discretize_continuum(m), m.band, m.numerics.dk
        y = max(4.0 / m.numerics.horizon, model_rules.STRIP_BUDGET * dk / (2.0 * math.pi))
        for x in (-2.0, 0.0, 1.5):
            eps = x + 1j * y
            miss = self.sigma_d(dm, eps) - sigma_quad_oracle(b, 1.0, 0.0, eps)
            if len(dm.k_grid):
                miss -= 0.5 * (np.tan(math.pi * (eps - b.center) / dk) - 1j)
            if b.is_flat:
                for edge, side in ((b.center + b.delta, 1.0), (b.center - b.delta, -1.0)):
                    jump = 1.0 / (eps - edge) ** 2 - 1.0 / (eps - edge + 0.5j * b.eta) ** 2
                    miss -= side * dk ** 2 / 24.0 * jump / (2.0 * math.pi)
            D = _window_defect(1.0, b, 0.0, len(dm.k_grid) * dk / 2.0, eps)
            assert abs(abs(miss) - D) <= 1e-9

    def test_default_window_is_within_a_wider_one(self):
        # Each band at the rule's K (D <= SIGMA_BUDGET) against 1.5 K.  Measured
        # max |ds|, |deps|, |dr|: 8.9e-8/4.0e-7/4.7e-7 (solid), 4.1e-8/4.1e-7/4.2e-7
        # (dotted), 1.2e-7/4.0e-7/4.7e-7 (broken), 3.7e-8/3.1e-7/3.2e-7 and
        # 4.7e-8/3.2e-7/3.4e-7 (n = 2), 4.1e-7 at most (3-delta detuned) and
        # 2.1e-7 at most (delta = 1 detuned by 2000, K = 1.8).
        for kw in (dict(eta=100.0, delta=FIG1_DELTA), dict(eta=10.0, delta=FIG1_DELTA),
                   dict(eta=1000.0, delta=10 * FIG1_DELTA),
                   dict(eta=30.0, delta=FIG1_DELTA, n=2), dict(eta=100.0, delta=FIG1_DELTA, n=2),
                   dict(eta=100.0, delta=FIG1_DELTA, center=3 * FIG1_DELTA),
                   dict(eta=100.0, delta=1.0, center=2000.0)):
            m = model(**kw)
            a = propagate(discretize_continuum(m))
            b = propagate(discretize_continuum(model(**kw, cutoff=1.5 * m.numerics.cutoff)))
            for x, y in ((a.s, b.s), (a.eps, b.eps), (a.r, b.r)):
                assert np.abs(x - y).max() <= 1e-6, kw


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

    def test_vanishing_band_cancels_pair_by_pair(self):
        # eta = 1e-6 builds 40 photon/ghost pairs that must cancel, leaving
        # exp(-gamma t): measured 8.6e-9, norm defect 1.2e-11
        dm = discretize_continuum(model(eta=1e-6, delta=FIG1_DELTA))
        tr = propagate(dm)
        assert len(dm.k_grid) == len(dm.tail_poles) == 40
        assert np.abs(tr.s - np.exp(-tr.t)).max() <= 3e-8
        assert tr.norm_defect.max() <= 1e-10

    # The dk rule is not lossy: halving dk moves nothing past 1e-7.  Measured
    # max |ds|, |deps|, |dr|: 2.1e-9/2.0e-9/3.9e-11 (solid), 3.6e-9/1.6e-8/1.4e-8
    # (dotted), 4.7e-8/4.5e-9/8.6e-10 (broken), 1.4e-9/5.5e-11/9.2e-12 (n = 2),
    # 2.7e-8/4.0e-8/3.4e-8 (n = 24), 2.4e-10/2.7e-10/3.2e-11 (detuned 2 delta).
    @pytest.mark.parametrize("kw", [
        dict(eta=100.0, delta=FIG1_DELTA), dict(eta=10.0, delta=FIG1_DELTA),
        dict(eta=1000.0, delta=10 * FIG1_DELTA), dict(eta=100.0, delta=FIG1_DELTA, n=2),
        dict(eta=100.0, delta=FIG1_DELTA, n=24),
        dict(eta=100.0, delta=FIG1_DELTA, center=2 * FIG1_DELTA),
    ], ids=["solid", "dotted", "broken", "n2", "n24", "detuned-2delta"])
    def test_default_dk_is_within_a_finer_one(self, kw):
        m = model(**kw)
        a = propagate(discretize_continuum(m))
        b = propagate(discretize_continuum(model(**kw, dk=m.numerics.dk / 2)))
        for x, y in ((a.s, b.s), (a.eps, b.eps), (a.r, b.r)):
            assert np.abs(x - y).max() <= 1e-7

    def test_long_horizon_fill_stays_finite(self):
        # e^{gamma T/2} overflows at T = 1500/gamma, so the fill scales the records by
        # e^{rho t/2} with rho = 600/T < gamma: s is still exp(-gamma t), to 2.8e-16
        tr = propagate(discretize_continuum(model(eta=0.0, horizon=1500.0)))
        assert np.all(np.isfinite(tr.s)) and np.abs(tr.s - np.exp(-tr.t)).max() <= 1e-15

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
            propagate(dm, np.array([0.0, 2 * m.numerics.horizon]))

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

    def test_solid_fig3_work_is_pinned(self, monkeypatch):
        # The step schedule of the solid Fig. 3 set, so that a faster
        # propagate cannot come from fewer or larger steps unnoticed.  The
        # band's recurrence rule sets dk here (330 photon modes and as many ghosts)
        # and its width the step (0.04); the ramp depends on max|L| ~ K: 64 steps
        # at step/32, 32 each at step/16 ... step/2, then 93 at step from
        # t = 32*step to T = 5.
        steps, sizes = [0], []
        step, set_step = _ArrowheadKrogstad.step, _ArrowheadKrogstad.set_step

        def counting_step(self, f, u):
            steps[0] += 1
            return step(self, f, u)

        def recording_set_step(self, h):
            sizes.append(h)
            set_step(self, h)

        monkeypatch.setattr(_ArrowheadKrogstad, "step", counting_step)
        monkeypatch.setattr(_ArrowheadKrogstad, "set_step", recording_set_step)
        dm = discretize_continuum(model(eta=100.0, delta=FIG1_DELTA))
        assert len(dm.k_grid) == len(dm.tail_poles) == 330
        assert dm.model.numerics.step == 0.04
        propagate(dm)
        assert steps[0] == 285 and len(sizes) == 6
        assert sizes == [dm.model.numerics.step / 2 ** j for j in (5, 4, 3, 2, 1, 0)]

    def test_cruise_step_is_step_and_the_gate_judges_it(self):
        # The schedule cruises at step itself, never at a shorter h0*2^j, so a
        # step too coarse for the norm gate is refused rather than shortened:
        # on the broken Fig. 3 set the defect is 3.3e-6 at 0.02 and 2.2e-5 at 0.04.
        kw = dict(eta=1000.0, delta=1000.0 / (2 * math.pi))
        assert propagate(discretize_continuum(model(**kw, step=0.02))).norm_defect.max() < 1e-5
        with pytest.raises(ToleranceNotMet):
            propagate(discretize_continuum(model(**kw, step=0.04)))


class TestSymmetries:
    """Invariances of the model that the propagator must keep (2 pi Delta = 100)."""

    # measured: s, eps and r agree to <= 8.9e-16
    @pytest.mark.parametrize("flat", [False, True], ids=["n6", "flat"])
    @pytest.mark.parametrize("eta", [10.0, 100.0])
    def test_detuning_mirror(self, eta, flat):
        up, down = (propagate(discretize_continuum(
            model(eta=eta, delta=FIG1_DELTA, flat=flat, center=sign * 2.5 * FIG1_DELTA)))
            for sign in (1.0, -1.0))
        for a, b in ((up.s, down.s), (up.eps, down.eps), (up.r, down.r)):
            assert np.abs(a - b).max() <= 1e-12

    # +-0.37 delta and +-2.37 delta shift the grid off omega's cells; measured
    # s, eps and r agree to <= 1.3e-15, and 1e-9 is the benchmark's mirror gate
    @pytest.mark.parametrize("detuning", [0.37, 2.37])
    def test_flat_band_detuning_mirror_off_grid(self, detuning):
        up, down = (propagate(discretize_continuum(
            model(eta=100.0, delta=FIG1_DELTA, flat=True, center=sign * detuning * FIG1_DELTA)))
            for sign in (1.0, -1.0))
        for a, b in ((up.s, down.s), (up.eps, down.eps), (up.r, down.r)):
            assert np.abs(a - b).max() <= 1e-9

    # (gamma, eta, Delta, center) -> lam * (...) maps t -> t/lam; measured:
    # lam = 2 and 0.5 exact, lam = 3 to 2.7e-14, lam = 1e-3 to 2.6e-14
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
    """The arrowhead stepper against a generic ERK4 that builds N(x) in full, and
    against the eigenvectors of the same generator, which take no steps."""

    # The stepped flux row differs from the integrated flux records by the
    # spline's quadrature error: measured 0, 5.4e-10 and 9.1e-10 at step = 0.01/gamma,
    # and 0, 5.4e-9 and 9.1e-9 at the resolved step 0.04/gamma.
    @pytest.mark.parametrize("kw, r_gap", [
        (dict(eta=0.0, step=0.01), 0.0),
        (dict(eta=1.5, delta=FIG1_DELTA, horizon=1.0, step=0.01), 5e-9),
        (dict(eta=2.0, delta=5.0, center=15.0, step=0.01), 1e-9),  # band detuned by 3 delta
        (dict(eta=0.0), 0.0),
        (dict(eta=1.5, delta=FIG1_DELTA, horizon=1.0), 1.6e-8),
        (dict(eta=2.0, delta=5.0, center=15.0), 2.7e-8),
    ], ids=["eta0", "fig1", "detuned", "eta0-resolved", "fig1-resolved", "detuned-resolved"])
    def test_matches_generic_erk4(self, kw, r_gap):
        dm = discretize_continuum(model(**kw))
        ts = np.linspace(0.0, dm.model.numerics.horizon, 201)
        tr = propagate(dm, ts)
        s, eps, r, r_row = krogstad_reference(dm, ts)
        assert np.abs(tr.s - s).max() <= 1e-12
        assert np.abs(tr.eps - eps).max() <= 1e-12
        assert np.abs(tr.r - r).max() <= 1e-12
        assert np.abs(r - r_row).max() <= r_gap

    # propagate's stepping and interpolation error in s, against the same modes with
    # no steps: measured 1.45e-9 (solid) and 3.69e-10 (dotted) at step = 0.01/gamma,
    # with the reference itself within 7.3e-11 and 8.2e-12 (step/4 reads that close),
    # and 9.27e-8 and 7.47e-9 at the resolved step 0.04/gamma
    @pytest.mark.parametrize("eta, step, bound", [
        (100.0, 0.01, 4.5e-9), (10.0, 0.01, 1.1e-9), (100.0, None, 2.8e-7), (10.0, None, 2.2e-8),
    ], ids=["solid", "dotted", "solid-resolved", "dotted-resolved"])
    def test_stepping_error_against_eig(self, eta, step, bound):
        dm = discretize_continuum(model(eta=eta, delta=FIG1_DELTA, step=step))
        ts = np.linspace(0.0, dm.model.numerics.horizon, 101)
        assert np.abs(propagate(dm, ts).s - eig_reference(dm, ts)).max() <= bound


class TestCruiseStep:
    """The step validate_params resolves from the band, and the stepping error it leaves."""

    # max |ds| at the resolved step (0.04/gamma at 2 pi Delta = 100, 0.0231/gamma at 300)
    # over 101 times on [0, 2], in units of 1e-9; columns eta = 1, 30, 300 centred, then
    # the same detuned by 2.5 delta.  The reference is eig_reference up to 600 rows, and
    # past them a run at step/16: n = 2's wide windows (1,365 to 14,373 rows) and
    # 2 pi Delta = 300, n = 6, eta = 300 (749 and 785 rows).
    MEASURED = {
        (100, 2): (17.7, 5.88, 52.5, 8.58, 16.7, 61.9),
        (100, 6): (2.85, 15.3, 138, 2.51, 15.7, 106),
        (100, 24): (102, 1080, 1630, 994, 3290, 3560),
        (100, 96): (276, 2590, 4630, 3920, 5710, 7650),
        (300, 2): (8.31, 11.0, 34.3, 2.95, 20.0, 62.4),
        (300, 6): (7.93, 19.3, 50.3, 0.718, 6.8, 25.7),
        (300, 24): (17.4, 183, 293, 374, 2190, 2270),
        (300, 96): (341, 1140, 1220, 4630, 10400, 13300),
    }

    # 2 pi Delta = 300 at eta = 1 and 300 only, which keeps the matrix to ~8 s
    @pytest.mark.parametrize("two_pi_delta, n, eta, detuning", [
        (tpd, n, eta, det) for (tpd, n) in MEASURED for det in (0.0, 2.5)
        for eta in ((1.0, 30.0, 300.0) if tpd == 100 else (1.0, 300.0))])
    def test_stepping_error_matrix(self, two_pi_delta, n, eta, detuning):
        delta = two_pi_delta / (2.0 * math.pi)
        kw = dict(eta=eta, delta=delta, n=n, center=detuning * delta, horizon=2.0)
        dm = discretize_continuum(model(**kw))
        ts = np.linspace(0.0, 2.0, 101)
        if 1 + 2 * len(dm.k_grid) <= 600:
            ref = eig_reference(dm, ts)
        else:
            ref = propagate(discretize_continuum(model(**kw, step=dm.model.numerics.step / 16)), ts).s
        measured = self.MEASURED[two_pi_delta, n][(1.0, 30.0, 300.0).index(eta) + 3 * (detuning > 0)]
        assert np.abs(propagate(dm, ts).s - ref).max() <= 3e-9 * measured

    @pytest.mark.parametrize("kw, step", [
        (dict(eta=0.0), 0.04),
        (dict(eta=100.0, delta=FIG1_DELTA), 0.04),
        (dict(eta=100.0, delta=3 * FIG1_DELTA), 0.4 / math.sqrt(300.0)),
        (dict(eta=1000.0, delta=10 * FIG1_DELTA), 0.4 / math.sqrt(1000.0)),
        (dict(eta=1e4, delta=100 * FIG1_DELTA), 0.01),
        (dict(eta=100.0, delta=FIG1_DELTA, flat=True), 0.01),
        (dict(eta=100.0, delta=FIG1_DELTA, n=400), 0.01),  # strip 0.125 < gamma/2
        (dict(eta=100.0, delta=FIG1_DELTA, n=96), 0.04),   # strip 0.52
    ], ids=["eta0", "solid", "300", "broken", "floor", "flat", "n400", "n96"])
    def test_rule_in_the_band_scales(self, kw, step):
        # step*gamma is a function of the band's scales in units of gamma, whatever
        # gamma is, and the band's position does not enter it
        for lam in (1.0, 1e-3, 0.5, 3.0):
            for detuning in (0.0, 2.5, -2.5):
                band = DetectorBand(eta=lam * kw["eta"], delta=lam * kw.get("delta", 1.0),
                                    n=None if kw.get("flat") else kw.get("n", 6),
                                    center=lam * detuning * kw.get("delta", 1.0))
                m = validate_params(ModelParams(gamma=lam, band=band))
                assert m.numerics.step * lam == pytest.approx(step, rel=1e-12)

    def test_a_given_step_is_kept(self):
        assert model(eta=100.0, delta=FIG1_DELTA, step=0.013).numerics.step == 0.013
        assert model(eta=100.0, delta=FIG1_DELTA, n=400, step=0.08).numerics.step == 0.08

    # perfbench jitters 2 pi Delta/gamma by up to +-10% and eta/gamma by up to +-3%
    @pytest.mark.parametrize("two_pi_delta, eta", [(100.0, 100.0), (100.0, 10.0), (1000.0, 1000.0)],
                             ids=["solid", "dotted", "broken"])
    def test_seeded_fig3_sets_keep_the_floor(self, two_pi_delta, eta):
        for jd in (1 / 1.1, 1.0, 1.1):
            for je in (1 / 1.03, 1.03):
                m = model(eta=eta * je, delta=two_pi_delta * jd / (2.0 * math.pi))
                assert 0.01 <= m.numerics.step <= 0.04


class TestDecayRateTrace:
    def test_free_decay_is_minus_one(self, free_trace):
        t, rate = decay_rate_trace(free_trace)
        np.testing.assert_allclose(rate, -1.0, atol=2e-6)

    def test_skips_t_zero(self, free_trace):
        t, rate = decay_rate_trace(free_trace)
        assert t.min() > 0.0
        assert len(t) == len(free_trace.t) - 1

    @pytest.mark.parametrize("s_last", [0.0, -1e-12])
    def test_refuses_non_positive_s(self, free_trace, s_last):
        s = free_trace.s.copy()
        s[-1] = s_last
        with pytest.raises(ValueError, match=r"s\(t\) must stay positive"):
            decay_rate_trace(dataclasses.replace(free_trace, s=s))


class TestResponseDelay:
    def synthetic(self, d0):
        t = np.linspace(0.0, 10.0, 2001)
        s = np.exp(-t)
        r = np.where(t > d0, 1.0 - np.exp(-(t - d0)), 0.0)
        eps = 1.0 - s - r
        return ProbabilityTrace(t=t, s=s, eps=eps, r=r,
                                norm_defect=np.zeros_like(t), gamma=1.0)

    @pytest.mark.parametrize("d0", [0.0, 0.3, 0.8, 2.0])  # 0: the search's lower bound
    def test_recovers_constructed_shift(self, d0):
        assert response_delay(self.synthetic(d0)) == pytest.approx(d0, abs=0.02)

    def test_searches_agree(self):
        # the objective is continuous in d, so scipy's bounded Brent on a dense
        # trapezoid form of it lands where the bracket search does
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

    @pytest.mark.parametrize("eta,two_pi_delta,band", [
        (1.5, 100.0, {}), (100.0, 100.0, {}), (10.0, 100.0, {}), (1000.0, 1000.0, {}),
        (100.0, 100.0, {"flat": True}), (100.0, 100.0, {"center": 2.5 * 100.0 / (2 * math.pi)})],
        ids=["1.5-100.0", "100.0-100.0", "10.0-100.0", "1000.0-1000.0", "flat", "detuned"])
    def test_matches_scipy_bounded_brent(self, eta, two_pi_delta, band):
        # the fig1 band, the three Fig. 3 sets, a flat band and a band 2.5 delta off the
        # line at the evolve samples: scipy's bounded Brent on the objective built from
        # scipy's splines lands where response_delay's bracket search does, to 1e-6 T
        # twice over and to its 4-decimal summary digit
        m = model(eta=eta, delta=two_pi_delta / (2 * math.pi), **band)
        T = m.numerics.horizon
        tr = propagate(discretize_continuum(m), np.linspace(0.0, T, 501))
        s_of, r_of = CubicSpline(tr.t, tr.s), CubicSpline(tr.t, tr.r)
        u, w = gauss_legendre(dynamics._DELAY_NODES)

        def mse(d):
            tt = d + (T - d) * u
            return float(w @ (r_of(tt) - 1.0 + s_of(tt - d)) ** 2)

        xatol = 1e-6 * T
        want = minimize_scalar(mse, bounds=(0.0, T / 2.0), method="bounded",
                               options={"xatol": xatol}).x
        got = response_delay(tr)
        assert abs(got - want) <= 2.0 * xatol
        assert f"{got:.4f}" == f"{want:.4f}"

    def test_no_response_when_r_stays_low(self, free_trace):
        with pytest.raises(NoResponse):
            response_delay(free_trace)

    def test_fig1_delay_close_to_response_time(self):
        m = model(eta=1.5, delta=FIG1_DELTA)
        tr = propagate(discretize_continuum(m))
        d = response_delay(tr)
        tau = 1.0 / 1.5
        assert 0.5 * tau <= d <= 2.0 * tau
