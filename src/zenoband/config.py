"""Flat key-value scenario config files.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Model keys: gamma, omega, eta, delta, n, flat, center, cutoff, dk, horizon,
step, quad_tol, allow_narrow_window.  Unknown keys are an error so that a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

from typing import Optional

from .errors import ConfigError
from .model import DetectorBand, ModelParams, NumericalControls

MODEL_KEYS = {
    "gamma", "omega", "eta", "delta", "n", "flat", "center",
    "cutoff", "dk", "horizon", "step", "quad_tol", "allow_narrow_window",
}

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_kv_text(text: str) -> dict:
    """Parse the flat key-value format into a string->string dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _as_float(key, value) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None


def _as_bool(key, value) -> bool:
    try:
        return _BOOL[value.lower()]
    except KeyError:
        raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}") from None


def model_params_from_dict(kv: dict) -> ModelParams:
    """Build :class:`ModelParams` from parsed key-value pairs (model keys only)."""
    unknown = sorted(set(kv) - MODEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if "gamma" not in kv:
        raise ConfigError("missing required key 'gamma'")
    if "flat" in kv and "n" in kv:
        raise ConfigError("keys 'n' and 'flat' are mutually exclusive")

    n: Optional[int] = 6
    if "flat" in kv:
        n = None if _as_bool("flat", kv["flat"]) else 6
    elif "n" in kv:
        try:
            n = int(kv["n"])
        except ValueError:
            raise ConfigError(f"key 'n': expected an integer, got {kv['n']!r}") from None

    band = DetectorBand(
        eta=_as_float("eta", kv.get("eta", "0")),
        delta=_as_float("delta", kv.get("delta", "1")),
        n=n,
        center=_as_float("center", kv["center"]) if "center" in kv else None,
    )
    numerics = NumericalControls(
        **{k: _as_float(k, kv[k]) for k in ("cutoff", "dk", "horizon", "step") if k in kv},
        quad_tol=_as_float("quad_tol", kv.get("quad_tol", "1e-9")),
        allow_narrow_window=_as_bool("allow_narrow_window", kv["allow_narrow_window"])
        if "allow_narrow_window" in kv else False,
    )
    return ModelParams(
        gamma=_as_float("gamma", kv["gamma"]),
        omega=_as_float("omega", kv.get("omega", "0")),
        band=band,
        numerics=numerics,
    )
