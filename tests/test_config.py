import pytest

from zenoband import ConfigError, DetectorBand, ModelParams
from zenoband.config import model_params_from_dict, parse_kv_text
from zenoband.scenario import load_scenario


GOOD = """
# fig 1 scenario
gamma = 1.0
omega = 0
eta = 1.5
delta = 15.915494309189535
n = 6
horizon = 5
quad_tol = 1e-9
"""


def test_parse_and_build():
    p = model_params_from_dict(parse_kv_text(GOOD))
    assert p.gamma == 1.0
    assert p.band.eta == 1.5
    assert p.band.n == 6
    assert p.numerics.horizon == 5.0


def test_absent_keys_take_the_dataclass_defaults():
    assert model_params_from_dict({"gamma": "1"}) == ModelParams(gamma=1.0)
    flat_off = model_params_from_dict({"gamma": "1", "flat": "false"})
    assert flat_off.band.n == DetectorBand(eta=0.0, delta=1.0).n


def test_unknown_key_is_error():
    kv = parse_kv_text("gamma = 1\nspacing = 0.1\n")
    with pytest.raises(ConfigError, match="spacing"):
        model_params_from_dict(kv)


def test_flat_and_n_exclusive():
    with pytest.raises(ConfigError):
        model_params_from_dict({"gamma": "1", "flat": "true", "n": "6"})


def test_flat_profile():
    p = model_params_from_dict({"gamma": "1", "eta": "2", "delta": "1", "flat": "yes"})
    assert p.band.is_flat


def test_duplicate_key_is_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("gamma = 1\ngamma = 2\n")


def test_bad_number_is_error():
    with pytest.raises(ConfigError, match="eta"):
        model_params_from_dict({"gamma": "1", "eta": "fast"})


def test_missing_gamma_is_error():
    with pytest.raises(ConfigError, match="gamma"):
        model_params_from_dict({"eta": "1"})


def test_malformed_line_is_error():
    with pytest.raises(ConfigError, match="line 1"):
        parse_kv_text("gamma 1\n")


def test_load_from_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(GOOD)
    p = load_scenario(path).params
    assert p.band.delta == pytest.approx(15.915494309189535)


@pytest.mark.parametrize("call, match", [
    (lambda: parse_kv_text("= 1\n"), "line 1: empty key or value"),
    (lambda: parse_kv_text("gamma = 1\neta =\n"), "line 2: empty key or value in 'eta ='"),
    (lambda: model_params_from_dict({"gamma": "1", "flat": "maybe"}),
     "key 'flat': expected a boolean, got 'maybe'"),
    (lambda: model_params_from_dict({"gamma": "1", "allow_narrow_window": "2"}),
     "key 'allow_narrow_window': expected a boolean, got '2'"),
], ids=["empty-key", "empty-value", "flat", "allow_narrow_window"])
def test_malformed_entry_is_refused_naming_it(call, match):
    with pytest.raises(ConfigError, match=match):
        call()
