"""Output checks behind ``failed``/``attempted``, and their self-test.

Every check returns the measured number with its verdict, so the traced run
can report the numbers and a corrupted output is seen to fail (``selftest``).
The gates are the ones the project already states: the 1e-6 exp(-gamma t)
oracle, the 1e-3 cross-route bound and the 1e-5 norm defect.  Mirrored
detunings give the same s up to round-off, so their gate sits far above
round-off and far below the oracle.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from workloads import Call, Op

ORACLE_TOL = 1e-6
ROUTE_TOL = 1e-3
NORM_DEFECT_TOL = 1e-5
MIRROR_TOL = 1e-9
ROUTE_STRIDE = 10  # compare the routes on every 10th sample time


class BadOutput(Exception):
    """An output file is missing or malformed."""


def parse_csv(data: bytes) -> Dict[str, np.ndarray]:
    """Columns of a CSV written by the program (header row, then numbers)."""
    try:
        lines = data.decode("utf-8").splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], ndmin=2)
    except (UnicodeDecodeError, IndexError, ValueError) as exc:
        raise BadOutput(f"unparsable csv: {exc}") from None
    if rows.shape[0] < 2 or rows.shape[1] != len(header) or not np.all(np.isfinite(rows)):
        raise BadOutput(f"csv has shape {rows.shape} for header {header}")
    return {h: rows[:, i] for i, h in enumerate(header)}


def norm_defect(cols) -> float:
    return float(np.max(cols["norm_defect"]))


def oracle_error(cols, gamma: float) -> float:
    """max |s - exp(-gamma t)| of a measurement-free (eta = 0) run."""
    return float(np.max(np.abs(cols["s"] - np.exp(-gamma * cols["t"]))))


def mirror_gap(plus, minus) -> float:
    """max |s(+d) - s(-d)| of two runs that differ only in the detuning sign."""
    if not np.array_equal(plus["t"], minus["t"]):
        raise BadOutput("mirrored runs are sampled at different times")
    return float(np.max(np.abs(plus["s"] - minus["s"])))


def route_gap(cols, s_ref: np.ndarray) -> float:
    """max |s - s_ref|, with s_ref given at every ROUTE_STRIDE-th sample time."""
    return float(np.max(np.abs(cols["s"][::ROUTE_STRIDE] - s_ref)))


class Verdict:
    """Failed operations plus the largest value each check measured."""

    def __init__(self):
        self.failed = set()
        self.values: Dict[str, float] = {}
        self.notes: List[str] = []

    def record(self, name: str, value: float, ok: bool, ops: Sequence[str], what: str):
        self.values[name] = max(self.values.get(name, 0.0), value)
        if not ok:
            self.failed.update(ops)
            self.notes.append(f"{what}: {name}={value:.3e} for {', '.join(ops)}")

    def fail(self, ops: Sequence[str], why: str):
        self.failed.update(ops)
        self.notes.append(f"{why} ({', '.join(ops)})")


def check_outputs(workload: str, calls, pass_dirs: Sequence[str], exit_codes,
                  reference: Optional[Callable] = None) -> Verdict:
    """Check every pass's outputs; an op fails on a non-zero exit or a failed check.

    ``exit_codes[i][call.name]`` is the exit code of ``call`` in pass ``i``.
    ``reference(op, t)`` gives the other route's s at times ``t``.  Ops are
    identified as ``pass<i>/<op_id>``.
    """
    v = Verdict()
    first: Dict[str, bytes] = {}
    for i, pass_dir in enumerate(pass_dirs):
        for call in calls:
            if call.name not in exit_codes[i]:
                continue  # not run in this pass
            ids = [f"pass{i}/{op.op_id}" for op in call.ops]
            if exit_codes[i][call.name] != 0:
                v.fail(ids, f"{call.name} exited {exit_codes[i][call.name]}")
                continue
            for op, op_ref in zip(call.ops, ids):
                for rel in op.files:
                    path = os.path.join(pass_dir, call.name, rel)
                    key = os.path.join(call.name, rel)
                    try:
                        with open(path, "rb") as fh:
                            data = fh.read()
                    except OSError:
                        v.fail([op_ref], f"missing {key}")
                        continue
                    if key not in first:
                        first[key] = data
                    elif data != first[key]:
                        v.fail([op_ref], f"{key} differs from the first pass")
    # Content checks on the first copy; every later one is byte-identical to it.
    def all_ids(op_id):
        return [f"pass{i}/{op_id}" for i, codes in enumerate(exit_codes)
                if any(op_id == op.op_id for call in calls if call.name in codes
                       for op in call.ops)]

    parsed = {}
    for call in calls:
        for op in call.ops:
            try:
                parsed[op.op_id] = {rel: parse_csv(first[os.path.join(call.name, rel)])
                                    for rel in op.files}
            except KeyError:
                continue  # already failed above
            except BadOutput as exc:
                v.fail(all_ids(op.op_id), str(exc))

    for call in calls:
        for op in call.ops:
            out = parsed.get(op.op_id)
            if out is None:
                continue
            ids = all_ids(op.op_id)
            if "evolve.csv" in op.files[0]:
                cols = out[op.files[0]]
                d = norm_defect(cols)
                v.record("norm_defect_max", d, d <= NORM_DEFECT_TOL, ids, "norm defect")
                if workload == "sweep-small" and op.params["eta"] == 0.0:
                    e = oracle_error(cols, op.params["gamma"])
                    v.record("oracle_err", e, e <= ORACLE_TOL, ids, "exp(-gamma t) oracle")
            if reference is not None and workload.startswith("fig3"):
                cols = out["survival_spectral.csv" if workload == "fig3-spectral" else "evolve.csv"]
                try:
                    s_ref = reference(op, cols["t"][::ROUTE_STRIDE])
                except Exception as exc:  # the other route is program code too
                    v.fail(ids, f"reference route failed: {type(exc).__name__}: {exc}")
                    continue
                if not np.all(np.isfinite(s_ref)):
                    v.fail(ids, "reference route returned non-finite s")
                    continue
                g = route_gap(cols, s_ref)
                v.record("route_gap", g, g <= ROUTE_TOL, ids, "cross-route gap")

    if workload == "sweep-small":
        ops = {(op.params["eta"], op.params["detuning"]): op for op in calls[0].ops}
        for (eta, det), op in ops.items():
            if det <= 0.0:
                continue
            mirror = ops.get((eta, -det))
            a, b = parsed.get(op.op_id), parsed.get(mirror.op_id if mirror else "")
            if a is None or b is None:
                continue
            ids = all_ids(op.op_id) + all_ids(mirror.op_id)
            try:
                g = mirror_gap(a[op.files[0]], b[mirror.files[0]])
            except BadOutput as exc:
                v.fail(ids, str(exc))
                continue
            v.record("mirror_gap", g, g <= MIRROR_TOL, ids, "detuning mirror")
    return v


# ---------------------------------------------------------------- self-test

def _csv(header, columns) -> bytes:
    rows = zip(*columns)
    return ("\n".join([",".join(header)] + [",".join(repr(float(x)) for x in r) for r in rows])
            + "\n").encode()


def selftest(scratch_dir: str) -> List[str]:
    """Feed every check a corrupted output and list the checks that let it pass.

    Builds a synthetic sweep (exact exp(-t), mirrored pairs) and Fig. 3
    outputs, confirms the clean copy passes, then corrupts one thing at a
    time.  An empty list means every check caught its corruption.
    """
    t = np.linspace(0.0, 5.0, 501)
    s = np.exp(-t)
    etas, dets = (0.0, 2.0), (0.0, 40.0, -40.0)

    def evolve_bytes(eta, det, shift=0.0, defect=1e-7):
        ss = s if eta == 0.0 else np.exp(-(0.5 + 0.1 * abs(det) / 40.0) * t)
        return _csv(["t", "s", "eps", "r", "norm_defect"],
                    [t, ss + shift, 1 - ss, 0 * t, np.full_like(t, defect)])

    sweep_ops = tuple(Op(f"eta{e:g}_det{d:g}", (f"eta{e:g}_det{d:g}/evolve.csv",),
                         {"gamma": 1.0, "eta": e, "detuning": d}) for e in etas for d in dets)
    sweep = [Call("sweep", (), sweep_ops)]
    fig3 = [Call("set1", (), (Op("set1", ("evolve.csv",), {}),))]

    def write(pass_dir, files):
        for rel, data in files.items():
            path = os.path.join(scratch_dir, pass_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)
        return os.path.join(scratch_dir, pass_dir)

    def sweep_files(replace=None):
        files = {f"sweep/{op.files[0]}": evolve_bytes(op.params["eta"], op.params["detuning"])
                 for op in sweep_ops}
        files.update(replace or {})
        return files

    clean = sweep_files()
    eta0 = "sweep/eta0_det0/evolve.csv"
    plus, zero = "sweep/eta2_det40/evolve.csv", "sweep/eta2_det0/evolve.csv"
    route = {"set1/evolve.csv": evolve_bytes(0, 0)}
    # name: (workload, files of each pass, exit code, whether the checks should pass)
    cases = {
        "clean sweep": ("sweep-small", [clean, clean], 0, True),
        "oracle, s shifted by 1e-5": (
            "sweep-small", [sweep_files({eta0: evolve_bytes(0, 0, 1e-5)})], 0, False),
        "mirror, one mirrored csv swapped": (
            "sweep-small", [sweep_files({plus: clean[zero]})], 0, False),
        "norm defect 2e-5": (
            "sweep-small", [sweep_files({zero: evolve_bytes(2, 0, 0, 2e-5)})], 0, False),
        "second pass differs by one digit": (
            "sweep-small", [clean, sweep_files({zero: clean[zero].replace(b"0.0", b"0.1", 1)})],
            0, False),
        "truncated csv": ("sweep-small", [sweep_files({zero: clean[zero][:40]})], 0, False),
        "missing csv": ("sweep-small", [{k: b for k, b in clean.items() if k != zero}], 0, False),
        "clean route": ("fig3-evolve", [route], 0, True),
        "route, s shifted by 2e-3": (
            "fig3-evolve", [{"set1/evolve.csv": evolve_bytes(0, 0, 2e-3)}], 0, False),
        "non-zero exit": ("fig3-evolve", [route], 2, False),
    }
    wrong = []
    for n, (name, (workload, passes, code, want_ok)) in enumerate(cases.items()):
        calls = sweep if workload == "sweep-small" else fig3
        dirs = [write(f"c{n}/p{i}", files) for i, files in enumerate(passes)]
        v = check_outputs(workload, calls, dirs, [{calls[0].name: code}] * len(dirs),
                          reference=lambda op, tt: np.exp(-tt))
        if (not v.failed) != want_ok:
            wrong.append(name)
    return wrong
