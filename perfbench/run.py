"""zenoband benchmark: drive ``zenoband.cli.main`` in-process on seeded inputs.

    python3 perfbench/run.py --workload fig3-evolve --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client, closed loop: each CLI call starts
after the previous one returns.  The run

1. self-tests the output checks on corrupted synthetic outputs;
2. writes the workload's config files from ``--seed``;
3. times fresh interpreters importing ``zenoband.cli`` (``setup_s``);
4. makes one sub-second warm-up call, then repeats passes over the
   workload's CLI calls while another pass fits in ``--seconds`` (at least
   one), and reports the median pass as ``wall_s``;
5. with ``--trace 1``, makes one more pass with every layer function
   wrapped (see ``spans.py``) and reports the per-layer metrics instead;
6. checks every output outside the timed region (``checks.py``), including
   the other solution route (``reference.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs, spans and caches go to
``.bench_out`` and ``.bench_cache`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
ACCOUNTING_TOL = 0.02  # share of the traced wall left outside every span


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import ``zenoband.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", "import zenoband.cli"]
    times = []
    for _ in range(SETUP_REPEATS):  # the median hides a first one compiling bytecode
        t0 = time.perf_counter()
        r = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            raise RuntimeError(f"import zenoband.cli failed: {r.stderr.decode()[-500:]}")
    return statistics.median(times)


def run_call(cli, call, pass_dir):
    """One CLI call; returns (exit code, captured stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.resolved(pass_dir))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a benchmark error
        code = "crash: " + traceback.format_exc(limit=-3)
    dt = time.perf_counter() - t0
    return code, out.getvalue() + err.getvalue(), dt


def run_pass(cli, calls, pass_dir, tracer, label):
    """Every call of the workload once, in order; returns (seconds, codes, logs, call walls)."""
    codes, logs, walls = {}, {}, {}
    t0 = time.perf_counter()
    for call in calls:
        tracer.op = f"{label}/{call.name}"
        codes[call.name], logs[call.name], walls[call.name] = run_call(cli, call, pass_dir)
    wall = time.perf_counter() - t0
    tracer.op = None
    return wall, codes, logs, walls


def environment():
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, idx, "level")) as a, \
                    open(os.path.join(base, idx, "type")) as b, \
                    open(os.path.join(base, idx, "size")) as c:
                caches[f"L{a.read().strip()}{b.read().strip()[0].lower()}"] = c.read().strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "caches": caches}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zenoband", "cli.py")):
        print(f"benchmark: no zenoband sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import checks
    import spans
    import workloads
    from reference import Reference

    out_root = os.path.join(ROOT, ".bench_out", f"{args.workload}-s{args.seed}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    notes = [f"check self-test let through: {name}"
             for name in checks.selftest(os.path.join(out_root, "selftest"))]

    calls = workloads.generate(args.workload, args.seed, os.path.join(out_root, "inputs"))
    setup_s = None if args.trace else measure_setup()

    import zenoband.cli as cli

    tracer = spans.Tracer(os.path.join(out_root, "spill"))
    tracer.install_worker_probe()
    warm = workloads.warmup_call(os.path.join(out_root, "inputs"))
    code, log, _ = run_call(cli, warm, os.path.join(out_root, "warmup"))
    if code != 0:
        notes.append(f"warm-up call exited {code}: {log[-300:]}")
    tracer.collect()

    pass_dirs, codes, logs, walls, rss_mb = [], [], [], [], []
    started = time.perf_counter()
    while True:
        pass_dir = os.path.join(out_root, f"pass{len(pass_dirs)}")
        wall, c, lg, per_call = run_pass(cli, calls, pass_dir, tracer, f"pass{len(pass_dirs)}")
        workers_kb = sum(tracer.collect().values())
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_parts = (own_kb / 1024.0, workers_kb / 1024.0)
        pass_dirs.append(pass_dir)
        codes.append(c)
        logs.append(lg)
        walls.append(wall)
        rss_mb.append((own_kb + workers_kb) / 1024.0)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > args.seconds:
            break
    if len(pass_dirs) == 1:
        # Repeat the quickest call, untimed, so byte-identity is still checked.
        quick = min(calls, key=lambda call: per_call[call.name])
        pass_dir = os.path.join(out_root, "repeat")
        code, _, _ = run_call(cli, quick, pass_dir)
        tracer.collect()
        pass_dirs.append(pass_dir)
        codes.append({quick.name: code})
    wall_s = statistics.median(walls)

    traced = None
    if args.trace:
        tracer.uninstall()
        tracer.install()
        tracer.install_worker_probe()
        pass_dir = os.path.join(out_root, "traced")
        t_wall, c, _, _ = run_pass(cli, calls, pass_dir, tracer, "traced")
        tracer.uninstall()
        tracer.collect()
        pass_dirs.append(pass_dir)
        codes.append(c)
        traced = t_wall
        with open(os.path.join(out_root, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "layer", "start", "end",
                                              "parent", "op"), s))) + "\n")
    tracer.uninstall()

    reference = None
    if args.workload.startswith("fig3"):
        reference = Reference(args.workload, SRC, os.path.join(ROOT, ".bench_cache"))
    verdict = checks.check_outputs(args.workload, calls, pass_dirs, codes, reference)
    notes += verdict.notes
    for pass_dir in pass_dirs:  # checked; only inputs and spans are kept
        shutil.rmtree(pass_dir, ignore_errors=True)
    attempted = sum(len(call.ops) for c in codes for call in calls if call.name in c)
    failed = len(verdict.failed)

    norm_lines = [ln for lg in logs[0].values() for ln in lg.splitlines()
                  if "normalization_defect=" in ln]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"pass walls {', '.join(f'{w:.3f}' for w in walls)} s")
    for ln in norm_lines:
        print(f"  {ln}")
    for name in ("route_gap", "oracle_err", "mirror_gap", "norm_defect_max"):
        if name in verdict.values:
            print(f"  check {name} = {verdict.values[name]:.3e}")
    if args.trace:
        m, own = spans.layer_metrics(tracer)
        m["check.route_gap"] = verdict.values.get("route_gap", 0.0)
        m["check.oracle_err"] = verdict.values.get("oracle_err", 0.0)
        m["check.mirror_gap"] = verdict.values.get("mirror_gap", 0.0)
        m["trace.wall_s"] = traced
        m["trace.overhead_s"] = traced - wall_s
        attributed = sum(own.values())
        print(f"  traced wall {traced:.3f} s, untraced median {wall_s:.3f} s; "
              f"layer self times sum to {attributed:.3f} s "
              f"({', '.join(f'{k} {v:.3f}' for k, v in sorted(own.items()))})")
        if abs(attributed - traced) > ACCOUNTING_TOL * traced:
            notes.append(f"layer self times {attributed:.3f} s do not account for "
                         f"the traced wall {traced:.3f} s")
        units = {x["name"]: x["unit"] for x in _spec()["per_layer"]}
    else:
        m = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": max(rss_mb)}
        units = {x["name"]: x["unit"] for x in _spec()["end_to_end"]}
        print(f"  environment {json.dumps(environment())}")
    for note in notes:
        print(f"  FAIL {note}")
    print(f"  fail_rate = {failed}/{attempted} = {failed / attempted:.4f} (ops)")
    print(f"  peak RSS {rss_parts[0]:.1f} MB in this process + {rss_parts[1]:.1f} MB "
          f"summed over sweep workers")
    metrics = {k: {"value": m[k], "unit": units[k]} for k in units}
    for k, v in metrics.items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0 and not notes, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
