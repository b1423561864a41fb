"""Seeded workload generator: config files plus the CLI calls that use them.

The program only ever sees the generated config files; the seed stays on the
benchmark side.  Every workload is a list of CLI calls, and every call is a
list of operations (one CLI call, or one sweep point).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import List, Tuple

# Fig. 3 parameter sets {2 pi Delta / gamma, eta / gamma} of the paper.
FIG3_SETS = ((100.0, 100.0), (100.0, 10.0), (1000.0, 1000.0))
# Log-uniform jitter factors [1/j, j].  eta sets the mode count (the default
# cutoff is 10*eta on two of the sets) and the spectral window, so its jitter
# is kept small and a seed moves the work by at most 3%; Delta sets the
# suppression 2*arctan(2*Delta/eta)/pi and carries the +-10% physics jitter.
FIG3_DELTA_JITTER = 1.10
FIG3_ETA_JITTER = 1.03
SWEEP_TWO_PI_DELTA = 100.0
SWEEP_ETA_RANGE = (0.5, 30.0)
SWEEP_N_ETA = 5
SWEEP_DET_RANGE = (2.0, 4.0)  # d / Delta
SWEEP_THREADS = 2

WORKLOADS = ("fig3-evolve", "fig3-spectral", "sweep-small")


@dataclass(frozen=True)
class Op:
    """One operation: its id and the output files (relative to the pass dir)."""

    op_id: str
    files: Tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Call:
    """One CLI call; ``argv`` holds ``{out}`` where the pass directory goes."""

    name: str
    argv: Tuple[str, ...]
    ops: Tuple[Op, ...]

    def resolved(self, pass_dir: str) -> List[str]:
        return [a.replace("{out}", os.path.join(pass_dir, self.name)) for a in self.argv]


def _g4(x: float) -> float:
    """Four significant digits, so config text and sweep tags are exact."""
    return float(f"{x:.4g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _write_config(path: str, lines: List[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def fig3_sets(seed: int):
    """The three Fig. 3 sets with both ratios jittered from ``seed``."""
    rng = random.Random(f"fig3:{seed}")
    out = []
    for two_pi_delta, eta in FIG3_SETS:
        tpd = _g4(two_pi_delta * _log_uniform(rng, 1 / FIG3_DELTA_JITTER, FIG3_DELTA_JITTER))
        e = _g4(eta * _log_uniform(rng, 1 / FIG3_ETA_JITTER, FIG3_ETA_JITTER))
        out.append({"tag": f"set{int(two_pi_delta)}_{int(eta)}", "gamma": 1.0,
                    "delta": tpd / (2.0 * math.pi), "eta": e, "two_pi_delta": tpd})
    return out


def sweep_grid(seed: int):
    """(etas, detunings, delta) of the sweep-small workload."""
    rng = random.Random(f"sweep:{seed}")
    etas = sorted(_g4(_log_uniform(rng, *SWEEP_ETA_RANGE)) for _ in range(SWEEP_N_ETA))
    delta = SWEEP_TWO_PI_DELTA / (2.0 * math.pi)
    d = _g4(rng.uniform(*SWEEP_DET_RANGE) * delta)
    return [0.0] + etas, [0.0, d, -d], delta


def generate(workload: str, seed: int, input_dir: str) -> List[Call]:
    """Write the workload's config files under ``input_dir``; return its calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(input_dir, exist_ok=True)
    if workload == "sweep-small":
        etas, dets, delta = sweep_grid(seed)
        cfg = _write_config(os.path.join(input_dir, "sweep.cfg"), [
            "gamma = 1",
            f"delta = {delta!r}",
            "n = 6",
            "products = evolve",
            "sweep_eta = " + ", ".join(f"{e:g}" for e in etas),
            "sweep_detuning = " + ", ".join(f"{d:g}" for d in dets),
        ])
        ops = tuple(
            Op(f"eta{e:g}_det{d:g}", (f"eta{e:g}_det{d:g}/evolve.csv",),
               {"gamma": 1.0, "eta": e, "detuning": d, "delta": delta})
            for e in etas for d in dets)
        return [Call("sweep", ("sweep", "--config", cfg, "--out", "{out}",
                               "--threads", str(SWEEP_THREADS)), ops)]

    product = workload.split("-", 1)[1]
    files = {"evolve": ("evolve.csv",),
             "spectral": ("spectral.csv", "perturbative.csv", "survival_spectral.csv")}[product]
    calls = []
    for p in fig3_sets(seed):
        cfg = _write_config(os.path.join(input_dir, f"{p['tag']}.cfg"), [
            "gamma = 1",
            f"eta = {p['eta']:g}",
            f"delta = {p['delta']!r}",
            "n = 6",
        ])
        calls.append(Call(p["tag"], (product, "--config", cfg, "--out", "{out}"),
                          (Op(p["tag"], files, p),)))
    return calls


def warmup_call(input_dir: str) -> Call:
    """A sub-second evolve call that loads every lazily imported module."""
    cfg = _write_config(os.path.join(input_dir, "warmup.cfg"),
                        ["gamma = 1", "eta = 1.5", "delta = 15.9", "horizon = 1"])
    return Call("warmup", ("evolve", "--config", cfg, "--out", "{out}"),
                (Op("warmup", ("evolve.csv",)),))
