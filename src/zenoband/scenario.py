"""Scenario orchestration: products, figure reproductions, sweeps, CSV output.

A run is a list of points, one per combination of sweep values (a single
run is the one point of an empty sweep), all validated before any product
starts.  Each product is a pure function of its point; outputs are plot-ready CSV
files written atomically (temp file + rename) with deterministic formatting,
so reruns with the same config are byte-identical.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import MODEL_KEYS, model_params_from_dict, parse_kv_text
from .errors import ConfigError, NoResponse, WindowTooNarrow
from .formfactor import form_factor_grid, free_value, renormalized_form_factor, sum_rule_defect
from .model import DetectorBand, ModelParams, ValidatedModel, validate_params, qze_condition_report
from .dynamics import discretize_continuum, propagate, response_delay, decay_rate_trace
from .spectral import perturbative_decay, spectral_function, stage_rates, survival_amplitude_spectral

__all__ = [
    "ScenarioConfig",
    "load_scenario",
    "run_scenario",
    "PRODUCTS",
    "FIG_DEFAULTS",
    "FIG2_RATIOS",
    "FIG3_SETS",
    "write_csv",
    "read_csv",
]

PRODUCTS = ("formfactor", "evolve", "spectral", "report", "fig1", "fig2", "fig3")

# Sweep key -> subdirectory tag prefix, eta outermost; each sets the band
# field of its prefix, and "det" sets center = omega + value.
SWEEP_KEYS = {"sweep_eta": "eta", "sweep_delta": "delta", "sweep_detuning": "det"}
SCENARIO_KEYS = {"products", "out", *SWEEP_KEYS}

# Figure defaults in units of gamma = 1 (band half-width from 2*pi*Delta/gamma),
# keyed by the CLI command that starts from them.
FIG_DEFAULTS = {
    "fig1": {"gamma": "1", "delta": repr(100.0 / (2.0 * math.pi)), "eta": "1.5", "n": "6"},
    "fig2": {"gamma": "1", "delta": repr(100.0 / (2.0 * math.pi)), "n": "6"},
    "fig3": {"gamma": "1", "n": "6"},
}
FIG2_RATIOS = (0.01, 0.1, 1.0)  # eta / (2 pi Delta)
FIG3_SETS = ((100.0, 100.0), (100.0, 10.0), (1000.0, 1000.0))  # {2piDelta/gamma, eta/gamma}


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: model parameters plus what to run and where.

    ``sweeps`` pairs each :data:`SWEEP_KEYS` key the config sets with its
    values.  ``explicit`` records which model keys the user actually wrote (config
    file or --override); figure products keep their cited parameter sets for
    everything the user did not explicitly pin.
    """

    params: ModelParams
    products: Tuple[str, ...]
    out_dir: str = "out"
    sweeps: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    threads: int = 1
    explicit: frozenset = frozenset()


def load_scenario(path=None, overrides: Optional[Dict[str, str]] = None,
                  products: Sequence[str] = (), out_dir: Optional[str] = None,
                  threads: int = 1, defaults: Optional[Dict[str, str]] = None) -> ScenarioConfig:
    """Assemble a scenario from defaults, a config file, and CLI overrides."""
    explicit_kv: Dict[str, str] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            explicit_kv.update(parse_kv_text(fh.read()))
    explicit_kv.update(overrides or {})
    kv = dict(defaults or {})
    kv.update(explicit_kv)
    # every key left after the scenario keys must be a model key
    model_kv = {k: v for k, v in kv.items() if k not in SCENARIO_KEYS}
    model_kv.setdefault("gamma", "1")
    params = model_params_from_dict(model_kv)

    def _floats(key):
        try:
            vals = tuple(float(x) for x in kv[key].split(",") if x.strip())
        except ValueError:
            raise ConfigError(f"key {key!r}: expected comma-separated numbers") from None
        if not vals:
            raise ConfigError(f"key {key!r}: sweep list is empty")
        return vals

    prods = tuple(products) or tuple(
        p.strip() for p in kv.get("products", "").split(",") if p.strip())
    bad = [p for p in prods if p not in PRODUCTS]
    if bad:
        raise ConfigError(f"unknown product(s): {', '.join(bad)}")
    return ScenarioConfig(
        params=params,
        products=prods,
        out_dir=out_dir or kv.get("out", "out"),
        sweeps=tuple((key, _floats(key)) for key in SWEEP_KEYS if key in kv),
        threads=threads,
        explicit=frozenset(explicit_kv) & MODEL_KEYS,
    )


def _write_lines(path, lines: Iterable[str]) -> str:
    """Stream ``lines`` to a temp file, then rename it onto ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)
    return path


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """Atomically write plot-ready CSV with a mandatory header row."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("csv columns must have equal length")
    rows = (",".join(repr(float(c[i])) for c in cols) for i in range(n))
    return _write_lines(path, itertools.chain([",".join(header)], rows))


def read_csv(path):
    """Read back a CSV written by :func:`write_csv` as (header, columns)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, [data[:, i] for i in range(data.shape[1])]


def _evolve_samples(m) -> np.ndarray:
    return np.linspace(0.0, m.numerics.horizon, 501)


def _fig3_samples(m) -> np.ndarray:
    T = m.numerics.horizon
    log_part = np.geomspace(1e-2 / m.band.delta, T, 121)
    return np.unique(np.concatenate([[0.0], log_part, np.linspace(0.0, T, 501)]))


def product_report(m: ValidatedModel, out_dir: str):
    rep = qze_condition_report(m)
    lines = [
        f"gamma/Delta = {rep.ratio_linewidth:.6g}",
        f"tau*Delta   = {rep.ratio_response:.6g}",
        f"suppression estimate 2*pi*|g_Omega|^2/gamma = {rep.suppression_estimate:.6g}",
        f"verdict: {rep.verdict}",
    ]
    path = _write_lines(os.path.join(out_dir, "report.txt"), lines)
    return [path], [f"report: {rep.verdict} (gamma/Delta={rep.ratio_linewidth:.4g}, "
                    f"tau*Delta={rep.ratio_response:.4g}, "
                    f"suppression~{rep.suppression_estimate:.4g})"]


def _formfactor_csv(m, band: DetectorBand, path: str):
    """Write the g2 grid of ``band`` to ``path``; return (path, grid, g2(omega))."""
    tol = m.numerics.quad_tol
    grid = form_factor_grid(band, m.gamma, tol=tol)
    path = write_csv(path, ["mu", "g2", "g2_over_free"],
                     [grid.mu, grid.g2, grid.g2 / free_value(m.gamma)])
    return path, grid, renormalized_form_factor(band, m.gamma, m.omega, tol)


def product_formfactor(m: ValidatedModel, out_dir: str):
    path, grid, g2_line = _formfactor_csv(m, m.band, os.path.join(out_dir, "formfactor.csv"))
    summary = (f"formfactor: g2(omega)={g2_line:.6e}, "
               f"suppression={2 * math.pi * g2_line / m.gamma:.6f}")
    try:
        summary += f", sum_rule_defect={sum_rule_defect(grid, m.gamma):.3e}"
    except WindowTooNarrow:
        summary += ", sum_rule_defect=n/a (window too narrow)"
    return [path], [summary]


def _window(dm) -> str:
    """The resolved photon window, for the summary lines."""
    return f"cutoff={dm.cutoff:.6g}, core_modes={len(dm.k_grid)}"


def _propagated(m: ValidatedModel):
    """(discretization, trace at the evolve samples, response delay or None)."""
    dm = discretize_continuum(m)
    trace = propagate(dm, _evolve_samples(m))
    try:  # eta = 0 leaves r identically 0, which raises NoResponse
        delay = response_delay(trace)
    except NoResponse:
        delay = None
    return dm, trace, delay


def product_evolve(m: ValidatedModel, out_dir: str):
    dm, trace, delay = _propagated(m)
    path = write_csv(os.path.join(out_dir, "evolve.csv"),
                     ["t", "s", "eps", "r", "norm_defect"],
                     [trace.t, trace.s, trace.eps, trace.r, trace.norm_defect])
    delay_txt = "n/a" if delay is None else f"{delay:.4f}"
    return [path], [f"evolve: s(T)={trace.s[-1]:.6f}, r(T)={trace.r[-1]:.6f}, "
                    f"max_norm_defect={trace.norm_defect.max():.3e}, "
                    f"response_delay={delay_txt}, {_window(dm)}"]


def product_spectral(m: ValidatedModel, out_dir: str):
    grid = form_factor_grid(m.band, m.gamma, tol=m.numerics.quad_tol)
    sf = spectral_function(grid, m.omega)
    paths = [write_csv(os.path.join(out_dir, "spectral.csv"), ["E", "A"], [sf.E, sf.A])]
    t = _evolve_samples(m)
    pert = perturbative_decay(grid, m.omega, t)
    paths.append(write_csv(os.path.join(out_dir, "perturbative.csv"),
                           ["t", "one_minus_s_pert"], [t, pert]))
    s_spec = np.abs(survival_amplitude_spectral(sf, t)) ** 2
    paths.append(write_csv(os.path.join(out_dir, "survival_spectral.csv"),
                           ["t", "s"], [t, s_spec]))
    free, supp = stage_rates(m)
    return paths, [(f"spectral: normalization_defect={sf.normalization_defect:.3e}, "
                    f"rates free={free:.6g} suppressed={supp:.6g}")]


def product_fig1(m: ValidatedModel, out_dir: str):
    dm, trace, delay = _propagated(m)
    path = write_csv(os.path.join(out_dir, "fig1.csv"),
                     ["t", "one_minus_s", "eps", "r"],
                     [trace.t, 1.0 - trace.s, trace.eps, trace.r])
    delay_txt = "n/a"
    if delay is not None:
        tau = 1.0 / m.band.eta
        delay_txt = f"{delay:.4f} (tau={tau:.4f}, delay/tau={delay / tau:.3f})"
    return [path], [f"fig1: r(T)={trace.r[-1]:.4f}, response_delay={delay_txt}, {_window(dm)}"]


def product_fig2(m: ValidatedModel, out_dir: str):
    paths, lines = [], []
    for ratio in FIG2_RATIOS:
        band = replace(m.band, eta=ratio * 2.0 * math.pi * m.band.delta)
        tag = f"{ratio:g}".replace(".", "p")
        path, _, g2_line = _formfactor_csv(m, band, os.path.join(out_dir, f"fig2_ratio{tag}.csv"))
        paths.append(path)
        lines.append(f"fig2 eta/2piDelta={ratio:g}: g2(omega)/free="
                     f"{g2_line / free_value(m.gamma):.6f}")
    return paths, lines


def _fig3_models(params: ModelParams, pinned) -> Tuple[ValidatedModel, ...]:
    """The validated FIG3_SETS models: cited eta/delta, except where ``pinned``."""
    gamma, band = params.gamma, params.band
    bands = (replace(band, eta=band.eta if "eta" in pinned else eta * gamma,
                     delta=band.delta if "delta" in pinned else tpd * gamma / (2 * math.pi))
             for tpd, eta in FIG3_SETS)  # tpd = 2 pi Delta / gamma
    return tuple(validate_params(replace(params, band=b)) for b in bands)


def product_fig3(models: Sequence[ValidatedModel], out_dir: str):
    """One curve per FIG3_SETS entry, from its validated model in ``models``."""
    paths, lines = [], []
    for (two_pi_delta, eta), m in zip(FIG3_SETS, models):
        trace = propagate(discretize_continuum(m), _fig3_samples(m))
        t_pos, rate = decay_rate_trace(trace)
        _, supp = stage_rates(m)
        ref_s = -supp / m.gamma
        tag = f"{int(two_pi_delta)}_{int(eta)}"
        paths.append(write_csv(os.path.join(out_dir, f"fig3_{tag}.csv"),
                               ["t", "lns_over_gamma_t", "ref_free", "ref_suppressed"],
                               [t_pos, rate, np.full_like(t_pos, -1.0),
                                np.full_like(t_pos, ref_s)]))
        lines.append(f"fig3 {{2piDelta/gamma,eta/gamma}}={{{two_pi_delta:g},{eta:g}}}: "
                     f"late rate={rate[-1]:.4f}, suppressed ref={ref_s:.4f}")
    return paths, lines


_PRODUCT_FUNCS = {
    "report": product_report,
    "formfactor": product_formfactor,
    "evolve": product_evolve,
    "spectral": product_spectral,
    "fig1": product_fig1,
    "fig2": product_fig2,
    "fig3": product_fig3,
}


def _concat(results) -> Tuple[List[str], List[str]]:
    """Join (files, lines) pairs in order."""
    files, lines = [], []
    for f, s in results:
        files += f
        lines += s
    return files, lines


def _run_point(point):
    products, out_dir, model, fig3 = point
    return _concat(_PRODUCT_FUNCS[prod](fig3 if prod == "fig3" else model, out_dir)
                   for prod in products)


def _points(cfg: ScenarioConfig):
    """Every ``(products, out_dir, model, fig3 models)`` point, eta outermost.

    ``out_dir`` is second: perfbench names each sweep operation by its
    basename.  The models are the validated parameters the products run:
    ``model`` is the point's own (None if fig3 is the only product), and
    fig3, which replaces eta and delta, runs one per FIG3_SETS entry.
    Raises :class:`ConfigError` on a subdirectory tag collision and
    :class:`ValidationError` on an invalid point, before any point runs.
    """
    axes = []
    for key, values in cfg.sweeps:
        prefix = SWEEP_KEYS[key]
        tagged = {}
        for v in values:
            tag = f"{prefix}{v:g}"
            if tag in tagged:
                raise ConfigError(f"{key} values {tagged[tag]!r} and {v!r} both "
                                  f"write to the subdirectory tag {tag!r}")
            tagged[tag] = v
        axes.append([(tag, prefix, v) for tag, v in tagged.items()])
    prods = set(cfg.products)
    points = []
    for combo in itertools.product(*axes):
        swept = {prefix: v for _, prefix, v in combo}
        if "det" in swept:
            swept["center"] = cfg.params.omega + swept.pop("det")
        params = replace(cfg.params, band=replace(cfg.params.band, **swept))
        model = validate_params(params) if prods - {"fig3"} else None
        fig3 = _fig3_models(params, cfg.explicit | set(swept)) if "fig3" in prods else ()
        sub = "_".join(tag for tag, _, _ in combo)
        points.append((cfg.products, os.path.join(cfg.out_dir, sub) if sub else cfg.out_dir,
                       model, fig3))
    return points


def run_scenario(cfg: ScenarioConfig) -> Tuple[List[str], List[str]]:
    """Execute every requested product at every point; returns (output files, summary lines)."""
    if not cfg.products:
        raise ConfigError("no products requested")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be at least 1, got {cfg.threads}")
    points = _points(cfg)
    workers = min(cfg.threads, len(points))  # a fork pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _concat(pool.map(_run_point, points))
    return _concat(map(_run_point, points))
