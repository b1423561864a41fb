"""Flat key-value scenario config files.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Model keys: gamma, omega, eta, delta, n, flat, center, cutoff, dk, horizon,
step, quad_tol, allow_narrow_window.  Unknown keys are an error so that a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .model import ModelParams

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
    """Build :class:`ModelParams` from parsed key-value pairs (model keys only).

    Only the keys present are passed on; every other field keeps the default
    of :class:`ModelParams`, its default band and its numerical controls.
    """
    unknown = sorted(set(kv) - MODEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if "gamma" not in kv:
        raise ConfigError("missing required key 'gamma'")
    if "flat" in kv and "n" in kv:
        raise ConfigError("keys 'n' and 'flat' are mutually exclusive")

    band = {k: _as_float(k, kv[k]) for k in ("eta", "delta", "center") if k in kv}
    if "flat" in kv:
        if _as_bool("flat", kv["flat"]):
            band["n"] = None
    elif "n" in kv:
        try:
            band["n"] = int(kv["n"])
        except ValueError:
            raise ConfigError(f"key 'n': expected an integer, got {kv['n']!r}") from None
    numerics = {k: _as_float(k, kv[k])
                for k in ("cutoff", "dk", "horizon", "step", "quad_tol") if k in kv}
    if "allow_narrow_window" in kv:
        numerics["allow_narrow_window"] = _as_bool("allow_narrow_window",
                                                   kv["allow_narrow_window"])
    p = ModelParams(**{k: _as_float(k, kv[k]) for k in ("gamma", "omega") if k in kv})
    return replace(p, band=replace(p.band, **band), numerics=replace(p.numerics, **numerics))
