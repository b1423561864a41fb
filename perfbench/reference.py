"""The other solution route for the cross-route check, computed untimed.

fig3-evolve (mode propagation) is checked against the spectral route and
fig3-spectral against mode propagation.  The reference only has to be far
more accurate than the 1e-3 gate, so it runs at cheaper settings than the
product: a 1e-7 quadrature tolerance, and a propagation cutoff capped at
2000 gamma (the modes beyond it are free and ride on the contour tail poles;
the capped window moves s by < 1e-6 on the Fig. 3 sets).  Results are cached
under ``.bench_cache`` keyed by the inputs and the program's source, so a
seed is computed once per checkout.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

REF_QUAD_TOL = 1e-7
REF_CUTOFF_CAP = 2000.0
REF_CUTOFF_FLOOR = 300.0


def _source_digest(src_dir: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()


def _model(params, numerics=None):
    from zenoband import DetectorBand, ModelParams, NumericalControls, validate_params

    band = DetectorBand(eta=params["eta"], delta=params["delta"], n=6)
    return validate_params(ModelParams(gamma=params["gamma"], band=band,
                                       numerics=numerics or NumericalControls()))


def spectral_survival(params, t: np.ndarray) -> np.ndarray:
    from zenoband import form_factor_grid, spectral_function, survival_amplitude_spectral

    m = _model(params)
    grid = form_factor_grid(m.band, m.gamma, tol=REF_QUAD_TOL)
    return np.abs(survival_amplitude_spectral(spectral_function(grid, m.omega), t)) ** 2


def propagated_survival(params, t: np.ndarray) -> np.ndarray:
    from zenoband import NumericalControls, discretize_continuum, propagate

    K = 10.0 * max(params["delta"], params["eta"], params["gamma"])
    K = max(REF_CUTOFF_FLOOR * params["gamma"], min(K, REF_CUTOFF_CAP * params["gamma"]))
    m = _model(params, NumericalControls(cutoff=K, allow_narrow_window=True))
    return propagate(discretize_continuum(m), t).s


class Reference:
    """``reference(op, t)`` for :func:`checks.check_outputs`, with a disk cache."""

    def __init__(self, workload: str, src_dir: str, cache_dir: str):
        self.route = propagated_survival if workload == "fig3-spectral" else spectral_survival
        self.cache_dir = cache_dir
        self.digest = _source_digest(src_dir)

    def __call__(self, op, t: np.ndarray) -> np.ndarray:
        key = hashlib.sha256(repr((self.route.__name__, sorted(op.params.items()),
                                   self.digest)).encode() + t.tobytes()).hexdigest()
        path = os.path.join(self.cache_dir, f"{key[:32]}.npy")
        if os.path.exists(path):
            return np.load(path)
        s = self.route(op.params, t)
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            np.save(fh, s)
        os.replace(tmp, path)
        return s
