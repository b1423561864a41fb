import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zenoband
import zenoband.cli
from zenoband import (ConfigError, DetectorBand, ModelParams, ValidationError,
                      discretize_continuum, validate_params)
from zenoband.cli import main
from zenoband.scenario import (FIG_DEFAULTS, _points, load_scenario, read_csv, run_scenario,
                               write_csv)


def run_cli(argv):
    return main(argv)


# The exit-code table of the zenoband.cli docstring: 1 for a config error,
# 2 for a numerical failure.
EXIT_CODES = {
    "ConfigError": 1, "ValidationError": 1,
    "ZenobandError": 2, "QuadratureFailure": 2, "WindowTooNarrow": 2,
    "ToleranceNotMet": 2, "NoResponse": 2, "HorizonExceeded": 2,
}
EXPORTED_ERRORS = sorted(
    (obj for obj in vars(zenoband).values()
     if isinstance(obj, type) and issubclass(obj, zenoband.ZenobandError)),
    key=lambda cls: cls.__name__)


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        t = np.linspace(0, 1, 11)
        write_csv(path, ["t", "v"], [t, t ** 2])
        header, cols = read_csv(path)
        assert header == ["t", "v"]
        np.testing.assert_array_equal(cols[0], t)
        np.testing.assert_array_equal(cols[1], t ** 2)

    def test_no_temp_files_left(self, tmp_path):
        write_csv(tmp_path / "x.csv", ["a"], [np.arange(3.0)])
        assert os.listdir(tmp_path) == ["x.csv"]

    def test_header_is_mandatory_first_line(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["mu", "g2"], [np.arange(2.0), np.arange(2.0)])
        assert path.read_text().splitlines()[0] == "mu,g2"


class TestScenarioProducts:
    def test_report_product(self, tmp_path):
        cfg = load_scenario(overrides={"gamma": "1", "eta": "100",
                                       "delta": repr(100 / (2 * math.pi)), "n": "6"},
                            products=("report",), out_dir=str(tmp_path))
        files, lines = run_scenario(cfg)
        assert (tmp_path / "report.txt").exists()
        assert any("QZE-regime" in s for s in lines)

    def test_evolve_free_decay_spot_value(self, tmp_path):
        cfg = load_scenario(overrides={"gamma": "1", "eta": "0", "delta": "1", "n": "6"},
                            products=("evolve",), out_dir=str(tmp_path))
        run_scenario(cfg)
        header, cols = read_csv(tmp_path / "evolve.csv")
        t, s = cols[0], cols[1]
        i = np.argmin(np.abs(t - 1.0))
        assert s[i] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_evolve_vanishing_band_is_free_decay(self, tmp_path):
        # eta -> 0 through the CLI: the grid's photon/ghost pairs cancel (8.6e-9 measured)
        rc = run_cli(["evolve", "--out", str(tmp_path), "--override", "gamma=1",
                      "--override", "eta=1e-6", "--override", f"delta={100 / (2 * math.pi)!r}"])
        assert rc == 0
        header, (t, s, eps, r, defect) = read_csv(tmp_path / "evolve.csv")
        assert np.abs(s - np.exp(-t)).max() <= 3e-8
        assert defect.max() <= 1e-10

    def test_spectral_runs_a_band_far_off_the_line(self, tmp_path):
        # a band centred at 1000 with omega = 0: the spectral window holds the band and
        # the line, each +- 1000, and the routes agree through the CLI: measured 4.1e-6
        # over the 501 samples, set by the step (6.3e-8 at step/4), not by dk
        ov = ["--override", "eta=100", "--override", "delta=15.9155", "--override", "center=1000"]
        assert run_cli(["spectral", "--out", str(tmp_path)] + ov) == 0
        assert run_cli(["evolve", "--out", str(tmp_path)] + ov) == 0
        _, (t, s_spec) = read_csv(tmp_path / "survival_spectral.csv")
        _, (t_dyn, s_dyn, *_) = read_csv(tmp_path / "evolve.csv")
        np.testing.assert_array_equal(t, t_dyn)
        assert np.abs(s_spec - s_dyn).max() <= 1e-5

    def test_evolve_csv_reingested_invariants(self, tmp_path):
        cfg = load_scenario(overrides={"gamma": "1", "eta": "2", "delta": "5", "n": "6"},
                            products=("evolve",), out_dir=str(tmp_path))
        run_scenario(cfg)
        header, (t, s, eps, r, defect) = read_csv(tmp_path / "evolve.csv")
        assert header == ["t", "s", "eps", "r", "norm_defect"]
        assert s[0] == 1.0 and eps[0] == 0.0 and r[0] == 0.0
        for a in (s, eps, r):
            assert a.min() >= -1e-9 and a.max() <= 1 + 1e-9
        np.testing.assert_allclose(s + eps + r, 1.0, atol=1e-6)
        assert defect.max() < 1e-6

    def test_reruns_are_byte_identical(self, tmp_path):
        ov = {"gamma": "1", "eta": "0", "delta": "1", "n": "6"}
        cfg1 = load_scenario(overrides=ov, products=("evolve",),
                             out_dir=str(tmp_path / "a"))
        cfg2 = load_scenario(overrides=ov, products=("evolve",),
                             out_dir=str(tmp_path / "b"))
        run_scenario(cfg1)
        run_scenario(cfg2)
        a = (tmp_path / "a" / "evolve.csv").read_bytes()
        b = (tmp_path / "b" / "evolve.csv").read_bytes()
        assert a == b

    def test_formfactor_csv_columns(self, tmp_path):
        cfg = load_scenario(overrides={"gamma": "1", "eta": "6.28", "delta": "1", "n": "6"},
                            products=("formfactor",), out_dir=str(tmp_path))
        run_scenario(cfg)
        header, (mu, g2, rel) = read_csv(tmp_path / "formfactor.csv")
        assert header == ["mu", "g2", "g2_over_free"]
        assert np.all(g2 > 0)
        np.testing.assert_allclose(rel, g2 / (1.0 / (2 * math.pi)), rtol=1e-12)

    def test_flat_formfactor_csv_holds_each_edge_twice(self, tmp_path):
        cfg = load_scenario(overrides={"eta": "1", "delta": "15.9155", "flat": "true"},
                            products=("formfactor",), out_dir=str(tmp_path))
        run_scenario(cfg)
        header, (mu, g2, rel) = read_csv(tmp_path / "formfactor.csv")
        assert np.all(np.diff(mu) >= 0.0)
        for edge in (-15.9155, 15.9155):  # the inside and the outside value
            jump = np.diff(g2[mu == edge]) * np.sign(edge)
            assert jump == pytest.approx([1.0 / (2 * math.pi)], rel=0.01)

    def test_sweep_creates_subdirectories(self, tmp_path):
        cfg_text = "gamma = 1\ndelta = 15.9\nn = 6\nproducts = report\nsweep_eta = 50, 100\n"
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(cfg_text)
        cfg = load_scenario(path=str(cfg_file), out_dir=str(tmp_path / "out"))
        files, lines = run_scenario(cfg)
        assert (tmp_path / "out" / "eta50" / "report.txt").exists()
        assert (tmp_path / "out" / "eta100" / "report.txt").exists()

    def test_sweep_tag_collision_is_config_error(self, tmp_path):
        # both values format as "eta10"; the second point would overwrite the first
        cfg = load_scenario(overrides={"delta": "15.9", "products": "report",
                                       "sweep_eta": "10.000001, 10.000002"},
                            out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match=r"10\.000001.*10\.000002.*eta10"):
            run_scenario(cfg)
        assert not (tmp_path / "out").exists()  # raised before any point ran

    def test_fig3_point_is_validated_on_its_sets(self):
        # fig3 replaces eta and delta, so a cutoff below the default delta = 1
        # but above every set's delta (gamma = 0.005: 0.080, 0.080, 0.80) is
        # valid for fig3 alone, and invalid once a product runs the base band;
        # the narrow window waives each set's default window (>= 300 gamma)
        ov = {"gamma": "0.005", "cutoff": "0.9", "allow_narrow_window": "true"}
        [(_, _, model, fig3)] = _points(load_scenario(
            overrides=ov, products=("fig3",), defaults=FIG_DEFAULTS["fig3"]))
        assert model is None
        assert [m.numerics.cutoff for m in fig3] == [0.9] * 3
        with pytest.raises(ValidationError) as exc:
            _points(load_scenario(overrides=ov, products=("fig3", "report"),
                                  defaults=FIG_DEFAULTS["fig3"]))
        assert [c for c, _ in exc.value.violations] == ["cutoff"]

    @pytest.mark.parametrize("product,names", [
        ("formfactor", ["formfactor.csv"]),
        ("evolve", ["evolve.csv"]),
        ("spectral", ["spectral.csv", "perturbative.csv", "survival_spectral.csv"]),
        ("report", ["report.txt"]),
        ("fig1", ["fig1.csv"]),
        ("fig2", ["fig2_ratio0p01.csv", "fig2_ratio0p1.csv", "fig2_ratio1.csv"]),
        ("fig3", ["fig3_100_100.csv", "fig3_100_10.csv", "fig3_1000_1000.csv"]),
    ])
    def test_product_returns_its_files_and_writes_none(self, tmp_path, monkeypatch, product,
                                                       names):
        # the explicit eta and delta pin fig3's sets to this cheap band too
        monkeypatch.chdir(tmp_path)
        [(_, _, model, fig3)] = _points(load_scenario(
            overrides={"eta": "2", "delta": "5", "horizon": "1"}, products=(product,)))
        func = getattr(zenoband.scenario, f"product_{product}")
        files, lines = func(fig3 if product == "fig3" else model)
        assert list(files) == names
        assert lines and all(line.startswith(product) for line in lines)
        assert os.listdir(tmp_path) == []
        for name, body in files.items():
            if name.endswith(".csv"):
                header, cols = body
                assert len(header) == len(cols) and len({len(c) for c in cols}) == 1
            else:
                assert body and all(isinstance(line, str) for line in body)

    def test_sweep_pool_is_sized_to_the_points(self, tmp_path, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(zenoband.scenario, "ProcessPoolExecutor", SerialPool)
        cfg = load_scenario(overrides={"delta": "15.9", "products": "report",
                                       "sweep_eta": "50, 100"},
                            out_dir=str(tmp_path / "out"), threads=8)
        files, _ = run_scenario(cfg)
        assert sizes == [2]
        assert len(files) == 2


class TestCli:
    def test_report_exit_zero(self, tmp_path, capsys):
        rc = run_cli(["report", "--out", str(tmp_path),
                      "--override", "gamma=1", "--override", "eta=100",
                      "--override", f"delta={100 / (2 * math.pi)!r}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QZE-regime" in out
        assert "report.txt" in out

    def test_unknown_key_exit_one(self, tmp_path, capsys):
        rc = run_cli(["report", "--out", str(tmp_path), "--override", "bogus=1"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_report_without_detector_exit_one(self, tmp_path, capsys):
        # the default config has eta = 0: a scenario error, not a numerical one
        rc = run_cli(["report", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "eta" in err

    def test_sweep_threads_below_one_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("delta = 15.9\nproducts = report\nsweep_eta = 50, 100\n")
        rc = run_cli(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                      "--threads", "0"])
        assert rc == 1
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # raised before any point ran

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        rc = run_cli(["report", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1

    def test_odd_exponent_exit_one(self, tmp_path, capsys):
        rc = run_cli(["evolve", "--out", str(tmp_path), "--override", "n=5",
                      "--override", "eta=1", "--override", "delta=1"])
        assert rc == 1

    def test_revival_guard_exit_one(self, tmp_path, capsys):
        # dk chosen to put the recurrence 2*pi/dk = 6.3 inside T + 20.7/s = 9.14:
        # an input check, named by its key
        rc = run_cli(["evolve", "--out", str(tmp_path),
                      "--override", "eta=1", "--override", "delta=10",
                      "--override", "dk=1.0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dk=1 ")

    def test_sweep_numerical_failure_crosses_the_pool(self, tmp_path, capsys):
        # quad_tol passes validation; the quadrature fails inside the two workers
        rc = run_cli(["sweep", "--out", str(tmp_path / "out"), "--threads", "2",
                      "--override", "products=formfactor", "--override", "eta=1",
                      "--override", "delta=1", "--override", "quad_tol=1e-16",
                      "--override", "sweep_eta=1,2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure [QuadratureFailure]")
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("product", ["evolve", "fig3"])
    def test_invalid_sweep_value_writes_nothing(self, tmp_path, capsys, product, threads):
        # every point is validated before the first one runs
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"gamma = 1\ndelta = 15.9\nproducts = {product}\nhorizon = 1\n"
                            "sweep_eta = 1, -2\n")
        rc = run_cli(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                      "--threads", str(threads)])
        assert rc == 1
        assert capsys.readouterr().err == "config error: eta must be >= 0, got -2.0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("overrides,err", [
        # dk = 0.5 puts 2*pi/dk = 12.6 inside T + 20.7/s = 46.4 at T = 5 and delta = 1,
        # which formfactor never uses
        (["products=formfactor,evolve", "sweep_eta=1,2", "dk=0.5"], "config error: dk=0.5 "),
        # the second point's band needs a window K >= 338.6 at T = 1
        (["products=evolve", "eta=1", "cutoff=300", "horizon=1", "sweep_delta=10,100"],
         "config error: cutoff K=300 below the band-derived window 338.635;"),
    ], ids=["dk", "window"])
    def test_window_rules_refuse_a_sweep_before_it_runs(self, tmp_path, capsys, overrides,
                                                        err, threads):
        argv = ["sweep", "--out", str(tmp_path / "out"), "--threads", str(threads)]
        for ov in overrides:
            argv += ["--override", ov]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith(err)
        assert not (tmp_path / "out").exists()

    def test_report_at_eta_zero_writes_nothing(self, tmp_path, capsys):
        # the eta = 0 point's evolve would run first if report refused it only itself
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("gamma = 1\ndelta = 15.9\nproducts = evolve, report\nhorizon = 1\n"
                            "sweep_eta = 0, 3\n")
        rc = run_cli(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: eta = 0: no measurement")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("center", ["nan", "inf"])
    def test_non_finite_center_exit_one(self, tmp_path, capsys, center):
        rc = run_cli(["report", "--out", str(tmp_path / "out"), "--override", "eta=1",
                      "--override", "delta=10", "--override", f"center={center}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: center must be finite")
        assert not (tmp_path / "out").exists()

    def test_quadrature_failure_exit_two(self, tmp_path, capsys):
        rc = run_cli(["formfactor", "--out", str(tmp_path), "--override", "eta=1",
                      "--override", "delta=1", "--override", "quad_tol=1e-16"])
        assert rc == 2
        assert "QuadratureFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("product,name,nth", [
        ("formfactor", "renormalized_form_factor", 1),
        ("fig2", "renormalized_form_factor", 3),
        ("spectral", "survival_amplitude_spectral", 1),
    ])
    def test_late_failure_writes_no_csv(self, tmp_path, capsys, monkeypatch, product, name, nth):
        # a point computes everything it writes before the first write: a raising
        # g2(omega), here that of fig2's last band, or survival leaves no CSV behind
        real, calls = getattr(zenoband.scenario, name), []

        def failing(*args):
            calls.append(args)
            if len(calls) == nth:
                raise zenoband.QuadratureFailure("boom")
            return real(*args)

        monkeypatch.setattr(zenoband.scenario, name, failing)
        rc = run_cli([product, "--out", str(tmp_path / "out"), "--override", "eta=100",
                      "--override", f"delta={100 / (2 * math.pi)!r}"])
        assert rc == 2 and len(calls) == nth
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_point_whose_later_product_fails_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                            threads):
        # formfactor finishes before evolve's propagate raises: the point writes no file
        def failing(*args):
            raise zenoband.ToleranceNotMet("boom")

        monkeypatch.setattr(zenoband.scenario, "propagate", failing)
        rc = run_cli(["sweep", "--out", str(tmp_path / "out"), "--threads", str(threads),
                      "--override", "products=formfactor,evolve", "--override", "delta=15.9155",
                      "--override", "sweep_eta=1,2"])
        assert rc == 2
        assert capsys.readouterr().err == "numerical failure [ToleranceNotMet]: boom\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        # report.txt is a directory: the rename fails, and its temp file goes with it
        (tmp_path / "out" / "report.txt").mkdir(parents=True)
        rc = run_cli(["report", "--out", str(tmp_path / "out"), "--override", "eta=100",
                      "--override", "delta=15.9155"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp.*"))

    @pytest.mark.parametrize("command,extra", [
        ("fig1", ["horizon=1"]), ("fig2", []), ("fig3", ["horizon=1"])])
    def test_figure_commands_take_a_flat_band(self, tmp_path, capsys, command, extra):
        # the figure defaults leave n to DetectorBand, so flat = true does not clash with it
        argv = [command, "--out", str(tmp_path), "--override", "flat=true"]
        for ov in extra:
            argv += ["--override", ov]
        assert run_cli(argv) == 0

    @pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
    def test_exit_code_table(self, tmp_path, capsys, monkeypatch, cls):
        assert cls.__name__ in EXIT_CODES, "add the new error class to the exit-code table"
        if issubclass(cls, zenoband.ValidationError):
            exc = cls([("x", "boom")])
        else:
            exc = cls("boom")

        def fail(cfg):
            raise exc

        monkeypatch.setattr(zenoband.cli, "run_scenario", fail)
        rc = run_cli(["report", "--out", str(tmp_path)])
        prefix = ("config error: " if EXIT_CODES[cls.__name__] == 1
                  else f"numerical failure [{cls.__name__}]: ")
        assert rc == EXIT_CODES[cls.__name__]
        assert capsys.readouterr().err == f"{prefix}boom\n"

    def test_steep_narrow_band_evolve_writes_nothing(self, tmp_path, capsys):
        # the band's spacing needs ~4.2e6 cells (~2.2 GiB): an input check
        rc = run_cli(["evolve", "--out", str(tmp_path / "out"), "--override", "n=2000000",
                      "--override", "eta=1", "--override", "delta=1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "GiB over the 1 GiB limit" in err
        assert not (tmp_path / "out").exists()

    def test_long_free_horizon_evolve_writes_nothing(self, tmp_path, capsys):
        # no band, no modes, but T = 1e7 needs ~1e9 step records: an input check
        rc = run_cli(["evolve", "--out", str(tmp_path / "out"), "--override", "eta=0",
                      "--override", "horizon=1e7"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "GiB over the 1 GiB limit" in err
        assert "~1e+09 step records" in err
        assert not (tmp_path / "out").exists()

    def test_steep_band_formfactor_is_finite(self, tmp_path, capsys):
        rc = run_cli(["formfactor", "--out", str(tmp_path), "--override", "n=3200",
                      "--override", "eta=100", "--override", f"delta={100 / (2 * math.pi)!r}"])
        assert rc == 0
        header, (mu, g2, rel) = read_csv(tmp_path / "formfactor.csv")
        assert np.all(np.isfinite(g2)) and np.all(g2 > 0.0)

    def test_steep_band_spectral_exit_zero(self, tmp_path, capsys):
        rc = run_cli(["spectral", "--out", str(tmp_path), "--override", "gamma=1",
                      "--override", "n=1600", "--override", "eta=100",
                      "--override", f"delta={100 / (2 * math.pi)!r}"])
        assert rc == 0
        header, cols = read_csv(tmp_path / "spectral.csv")
        assert all(np.all(np.isfinite(c)) for c in cols)

    def test_fig1_with_cheap_override(self, tmp_path, capsys):
        rc = run_cli(["fig1", "--out", str(tmp_path),
                      "--override", "delta=5", "--override", "eta=2"])
        assert rc == 0
        header, (t, oms, eps, r) = read_csv(tmp_path / "fig1.csv")
        assert header == ["t", "one_minus_s", "eps", "r"]
        assert r[-1] > 0.5

    @pytest.mark.parametrize("product", ["evolve", "fig1"])
    def test_summary_shows_resolved_window(self, tmp_path, capsys, product):
        rc = run_cli([product, "--out", str(tmp_path), "--override", "gamma=1",
                      "--override", "delta=20", "--override", "eta=10000"])
        assert rc == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith(f"{product}:"))
        m = validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=1e4, delta=20.0)))
        dm = discretize_continuum(m)
        assert 300.0 < dm.cutoff < 10 * 1e4  # the band, not 10*eta, set the window
        assert line.endswith(f", cutoff={dm.cutoff:.6g}, core_modes={len(dm.k_grid)}")

    def test_fig2_emits_three_ordered_curves(self, tmp_path):
        rc = run_cli(["fig2", "--out", str(tmp_path)])
        assert rc == 0
        centers = []
        for tag in ("0p01", "0p1", "1"):
            header, (mu, g2, rel) = read_csv(tmp_path / f"fig2_ratio{tag}.csv")
            centers.append(rel[np.argmin(np.abs(mu))])
        # in-band dip deepens as eta/(2 pi Delta) grows
        assert centers[0] > centers[1] > centers[2]
        assert centers[0] < 1.0

    def test_fig3_eta_zero_override_is_flat(self, tmp_path):
        rc = run_cli(["fig3", "--out", str(tmp_path), "--override", "eta=0",
                      "--override", "delta=5"])
        assert rc == 0
        header, (t, rate, ref_free, ref_sup) = read_csv(tmp_path / "fig3_100_100.csv")
        assert header == ["t", "lns_over_gamma_t", "ref_free", "ref_suppressed"]
        np.testing.assert_allclose(rate, -1.0, atol=1e-4)
        np.testing.assert_allclose(ref_sup, -1.0, atol=1e-9)


# A fresh interpreter runs evolve (with its response-delay search) and a flat band's
# spectral product (split lines, jumps, area), then reads, patches and restores
# formfactor.quad the way perfbench/spans.py does.
IMPORT_GRAPH = """
import sys
import zenoband.cli
band = ["--override", "eta=100", "--override", "delta=15.9155"]
assert zenoband.cli.main(["evolve", "--out", sys.argv[1]] + band) == 0
assert zenoband.cli.main(["spectral", "--out", sys.argv[1], "--override", "flat=true"] + band) == 0
heavy = [m for m in ("scipy.interpolate", "scipy.optimize", "scipy.integrate") if m in sys.modules]
assert not heavy, heavy
import scipy.integrate
from zenoband import formfactor
assert formfactor.quad is scipy.integrate.quad
saved = getattr(formfactor, "quad")
setattr(formfactor, "quad", len)
assert formfactor.quad is len
setattr(formfactor, "quad", saved)
assert formfactor.quad is scipy.integrate.quad
assert not hasattr(formfactor, "no_such_name")
"""


class TestImportGraph:
    def test_products_import_no_interpolate_optimize_or_integrate(self, tmp_path):
        root = os.path.dirname(os.path.dirname(zenoband.__file__))  # the tested package
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        r = subprocess.run([sys.executable, "-c", IMPORT_GRAPH, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert "response_delay=0.1041" in r.stdout
        assert {p.name for p in tmp_path.iterdir()} == {
            "evolve.csv", "spectral.csv", "perturbative.csv", "survival_spectral.csv"}
