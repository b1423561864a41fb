import math
import os

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
        # valid for fig3 alone, and invalid once a product runs the base band
        ov = {"gamma": "0.005", "cutoff": "0.9"}
        [(_, _, model, fig3)] = _points(load_scenario(
            overrides=ov, products=("fig3",), defaults=FIG_DEFAULTS["fig3"]))
        assert model is None
        assert [m.numerics.cutoff for m in fig3] == [0.9] * 3
        with pytest.raises(ValidationError) as exc:
            _points(load_scenario(overrides=ov, products=("fig3", "report"),
                                  defaults=FIG_DEFAULTS["fig3"]))
        assert [c for c, _ in exc.value.violations] == ["cutoff"]

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
        # dk chosen to violate the revival guard: an input check, named by its key
        rc = run_cli(["evolve", "--out", str(tmp_path),
                      "--override", "eta=1", "--override", "delta=10",
                      "--override", "dk=0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dk=0.5 ")

    def test_sweep_validation_error_crosses_the_pool(self, tmp_path, capsys):
        # dk breaks the revival guard, which discretize_continuum checks inside
        # each of the two workers, before any numerics
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("delta = 15.9\nproducts = evolve\ndk = 0.5\nsweep_eta = 1, 2\n")
        rc = run_cli(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                      "--threads", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dk=0.5 ")
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
                      "--override", "delta=20", "--override", "eta=1000"])
        assert rc == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith(f"{product}:"))
        m = validate_params(ModelParams(gamma=1.0, band=DetectorBand(eta=1000.0, delta=20.0)))
        dm = discretize_continuum(m)
        assert 300.0 < dm.cutoff < 10 * 1000.0  # the band, not 10*eta, set the window
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
