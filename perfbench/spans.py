"""In-memory span tracer that wraps zenoband's public functions from outside.

Every public function of the six layers (``__all__`` of ``model``,
``formfactor``, ``dynamics``, ``spectral``, ``scenario``, and the names of
``cli`` without a leading underscore) is replaced by a timing wrapper at each module attribute that refers to it, i.e.
under the name its caller looks it up (``zenoband.scenario.propagate``,
``zenoband.spectral.self_energy``, ...).  ``scenario._run_point`` and
``scenario._write_text`` are wrapped too: the first is what the sweep pool
runs, the second is the report writer.  ``formfactor.quad`` is wrapped to
count integrand evaluations; ``formfactor.detector_response`` is left alone,
because it runs once per integrand evaluation and a span there would cost
more than the quadrature.

A span is ``(id, name, layer, start, end, parent, op)``.  Sweep workers are
forked with the tracer's state, so their spans nest under the parent's
``run_scenario`` span; each worker spills its spans and counters to a file
after every point, and :meth:`Tracer.collect` merges them back.  The same
``_run_point`` wrapper records each worker's peak RSS, which the untraced
runs use for ``peak_rss_mb``.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("model", "formfactor", "dynamics", "spectral", "scenario", "cli")


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.home_pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self.peaks = {}
        self.stack = []
        self.op = None
        self._ids = itertools.count()
        self._worker_pid = None
        self._restore = []

    # ------------------------------------------------------------- records

    def _reset_if_forked(self):
        pid = os.getpid()
        if pid != self.home_pid and self._worker_pid != pid:
            self._worker_pid = pid
            self.spans, self.counts, self.peaks = [], Counter(), {}

    def _peak(self, key, value):
        if value > self.peaks.get(key, float("-inf")):
            self.peaks[key] = value

    def _span(self, fn, name, layer, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = f"{os.getpid()}.{next(self._ids)}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, name, layer, t0, t1, parent, self.op))
            if on_result is not None:
                on_result(self, args, result)
            return result
        return wrapper

    # ------------------------------------------------------------- patching

    def _patch(self, module, attr, new):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install_worker_probe(self):
        """Wrap ``scenario._run_point`` so pool workers spill what they record."""
        scenario = importlib.import_module("zenoband.scenario")
        inner = scenario._run_point

        @functools.wraps(inner)
        def run_point(args):
            if os.getpid() == self.home_pid:
                return inner(args)
            self._reset_if_forked()
            saved = self.op
            if self.op is not None:
                self.op = f"{self.op}/{os.path.basename(args[1])}"
            try:
                return inner(args)
            finally:
                self.op = saved
                self._spill()

        self._patch(scenario, "_run_point", run_point)

    def install(self):
        """Wrap every public layer function at every site it is looked up."""
        mods = {name: importlib.import_module(f"zenoband.{name}") for name in LAYERS}
        public = {}
        for layer, mod in mods.items():
            names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    public[fn] = (layer, name)
        for name in ("_write_text", "_run_point"):  # private, so they may go away
            if hasattr(mods["scenario"], name):
                public[getattr(mods["scenario"], name)] = ("scenario", name)
        public.pop(mods["model"].detector_response, None)  # see module docstring

        sites = [m for n, m in sorted(sys.modules.items())
                 if n == "zenoband" or n.startswith("zenoband.")]
        wrapped = {}
        for site in sites:
            for attr, value in list(vars(site).items()):
                if inspect.isfunction(value) and value in public:
                    layer, name = public[value]
                    if value not in wrapped:
                        wrapped[value] = self._span(value, f"{layer}.{name}", layer,
                                                    _HOOKS.get(name))
                    self._patch(site, attr, wrapped[value])
        ff = mods["formfactor"]
        quad = ff.quad

        def counting_quad(f, *args, **kwargs):
            def g(x, *a):
                self.counts["formfactor.integrand_calls"] += 1
                return f(x, *a)
            return quad(g, *args, **kwargs)

        self._patch(ff, "quad", counting_quad)

    def uninstall(self):
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    # ------------------------------------------------------------- workers

    def _spill(self):
        os.makedirs(self.spill_dir, exist_ok=True)
        self._peak("rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        path = os.path.join(self.spill_dir, f"w{os.getpid()}-{time.perf_counter_ns()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": dict(self.counts), "peaks": self.peaks}, fh)
        os.replace(path + ".tmp", path)
        self.spans, self.counts = [], Counter()
        self.peaks = {"rss_kb": self.peaks["rss_kb"]}

    def collect(self):
        """Merge worker spills into this process; return {worker pid: peak RSS kB}."""
        worker_rss = {}
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "w*.json"))):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(s) for s in data["spans"])
            self.counts.update(data["counts"])
            for key, value in data["peaks"].items():
                if key == "rss_kb":
                    worker_rss[data["pid"]] = max(worker_rss.get(data["pid"], 0), value)
                else:
                    self._peak(key, value)
        return worker_rss


# Counters recorded from results, keyed by function name.
def _on_discretize(tr, args, dm):
    tr.counts["dynamics.core_modes"] += len(dm.k_grid)
    tr.counts["dynamics.tail_poles"] += len(dm.tail_poles)
    tr.counts["dynamics.tail_samples"] += len(dm.tail_k)


def _on_propagate(tr, args, trace):
    tr.counts["dynamics.sample_times"] += len(trace.t)
    tr._peak("dynamics.norm_defect_max", float(trace.norm_defect.max()))


def _on_grid(tr, args, grid):
    tr.counts["formfactor.grid_points"] += len(grid.mu)


def _on_spectral_function(tr, args, sf):
    tr.counts["spectral.energies"] += len(sf.E)
    tr._peak("spectral.normalization_defect", float(sf.normalization_defect))


def _on_survival(tr, args, amp):
    tr.counts["spectral.survival_cells"] += (len(args[0].E) - 1) * np.size(amp)


def _on_write(tr, args, path):
    tr.counts["scenario.csv_bytes"] += os.path.getsize(path)


_HOOKS = {
    "discretize_continuum": _on_discretize,
    "propagate": _on_propagate,
    "form_factor_grid": _on_grid,
    "spectral_function": _on_spectral_function,
    "survival_amplitude_spectral": _on_survival,
    "write_csv": _on_write,
    "_write_text": _on_write,
}


# ------------------------------------------------------------- analysis

def self_times(spans):
    """Wall time attributed to each span, excluding its children.

    Each instant is shared equally by the innermost spans running at that
    instant, so parallel sweep workers split the wall clock between them and
    the attributed times of all spans add up to the time any span was open.
    A parent's self time is its duration minus the part its children cover.
    """
    index = {s[0]: i for i, s in enumerate(spans)}
    depth = []
    for s in spans:
        d, p = 0, s[5]
        while p in index:
            d, p = d + 1, spans[index[p]][5]
        depth.append(d)
    events = []
    for i, s in enumerate(spans):
        events.append((s[3], 1, depth[i], i))    # starts: parents first
        events.append((s[4], 0, -depth[i], i))   # ends: children first
    events.sort()
    out = [0.0] * len(spans)
    open_children = Counter()
    running, leaves = set(), set()
    prev = None
    for t, is_start, _, i in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for j in leaves:
                out[j] += share
        prev = t
        p = index.get(spans[i][5])
        if is_start:
            running.add(i)
            leaves.add(i)
            if p in running:
                open_children[p] += 1
                leaves.discard(p)
        else:
            running.discard(i)
            leaves.discard(i)
            if p in running:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(tracer: Tracer):
    """Per-layer busy times, counters and self times from one traced pass."""
    spans = tracer.spans
    busy = defaultdict(float)
    calls = Counter()
    for s in spans:
        busy[s[1]] += s[4] - s[3]
        calls[s[1]] += 1
    own = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        own[s[2]] += t
    c = tracer.counts
    points = calls["formfactor.renormalized_form_factor"]
    m = {
        "dynamics.propagate_s": busy["dynamics.propagate"],
        "dynamics.discretize_s": busy["dynamics.discretize_continuum"],
        "dynamics.delay_s": busy["dynamics.response_delay"],
        "dynamics.core_modes": c["dynamics.core_modes"],
        "dynamics.tail_poles": c["dynamics.tail_poles"],
        "dynamics.tail_samples": c["dynamics.tail_samples"],
        "dynamics.sample_times": c["dynamics.sample_times"],
        "dynamics.norm_defect_max": tracer.peaks.get("dynamics.norm_defect_max", 0.0),
        "formfactor.grid_s": busy["formfactor.form_factor_grid"],
        "formfactor.grid_points": c["formfactor.grid_points"],
        "formfactor.integrand_calls": c["formfactor.integrand_calls"],
        "formfactor.calls_per_point": c["formfactor.integrand_calls"] / points if points else 0.0,
        "formfactor.point_s": (busy["formfactor.renormalized_form_factor"] / points
                               if points else 0.0),
        "spectral.function_s": busy["spectral.spectral_function"],
        "spectral.energies": c["spectral.energies"],
        "spectral.survival_s": busy["spectral.survival_amplitude_spectral"],
        "spectral.survival_cells": c["spectral.survival_cells"],
        "spectral.perturbative_s": busy["spectral.perturbative_decay"],
        "spectral.normalization_defect": tracer.peaks.get("spectral.normalization_defect", 0.0),
        "scenario.load_s": busy["scenario.load_scenario"],
        "scenario.self_s": own["scenario"],
        "scenario.csv_s": busy["scenario.write_csv"] + busy["scenario._write_text"],
        "scenario.csv_bytes": c["scenario.csv_bytes"],
        "scenario.points": calls["scenario._run_point"],
        "model.validate_s": busy["model.validate_params"],
        "model.validate_calls": calls["model.validate_params"],
        "cli.self_s": own["cli"],
    }
    for layer in ("model", "formfactor", "dynamics", "spectral"):
        m[f"{layer}.self_s"] = own[layer]
    return m, dict(own)
