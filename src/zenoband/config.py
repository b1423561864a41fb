"""Flat key-value scenario config files.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
The model keys are the fields of :class:`~zenoband.model.ModelParams`,
:class:`~zenoband.model.DetectorBand` and
:class:`~zenoband.model.NumericalControls`, plus ``flat`` (``n = None``).
Unknown keys are an error so that a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .errors import ConfigError
from .model import DetectorBand, ModelParams, NumericalControls

# model key -> the dataclass whose field it sets
_OWNER = {f.name: cls for cls in (ModelParams, DetectorBand, NumericalControls)
          for f in fields(cls) if f.name not in ("band", "numerics")}
MODEL_KEYS = {*_OWNER, "flat"}

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


def _parse(key, value):
    """A config value as its field's type: n an integer, flags booleans, else a number."""
    if key in ("flat", "allow_narrow_window"):
        try:
            return _BOOL[value.lower()]
        except KeyError:
            raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}") from None
    try:
        return int(value) if key == "n" else float(value)
    except ValueError:
        kind = "an integer" if key == "n" else "a number"
        raise ConfigError(f"key {key!r}: expected {kind}, got {value!r}") from None


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

    values = {k: _parse(k, v) for k, v in kv.items()}
    if values.pop("flat", False):
        values["n"] = None
    part = {cls: {k: v for k, v in values.items() if _OWNER[k] is cls}
            for cls in (ModelParams, DetectorBand, NumericalControls)}
    p = ModelParams(**part[ModelParams])
    return replace(p, band=replace(p.band, **part[DetectorBand]),
                   numerics=replace(p.numerics, **part[NumericalControls]))
