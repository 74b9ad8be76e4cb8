#!/usr/bin/env python3
"""ufmlab benchmark: run one workload in this process and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep_paper --seed 1 --seconds 20 --trace 0

The seed makes the workload's inputs (YAML configs, CSV files) under
`.bench_work/<workload>/`; the program only sees those.  Load is a closed
loop: one caller, each call waiting for the one before.  After one
untimed warm-up call, passes over the workload's fixed call set repeat until
`--seconds` is spent.  Every call's output is checked by an oracle in
`workloads.py`; a call that raises, exits non-zero or fails its oracle counts
as failed.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics of
`tracing.py` are printed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--smoke` runs toy
sizes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, which the benchmark runs in
WORKLOAD_NAMES = ("sweep_paper", "optimize_large", "spectrum_dense", "calibrate_file")
# BLAS runs single-threaded: fixed, never above nproc, and the steadiest
# choice on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# The bounded end-to-end metrics of BENCHMARK.json, in its order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and written to the report, but not bounded: the median latency
# moves with the bursts of extra speed this kind of shared machine shows
# (see README), and the failed ratio is 0 on a correct program.
UNBOUNDED = {"op_p50_ms": "ms", "failed_ratio": "ratio"}
# Pass times are summarised at this percentile over a run's passes.
PASS_PCT = 75.0

# Timed in a fresh interpreter: import the CLI, parse the first call's
# command line and load its config, i.e. everything before the first call.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import ufmlab.cli as cli
args = cli.build_parser().parse_args(json.loads(sys.argv[1]))
if getattr(args, "config", None):
    cli.load_config(args.config, args.seed)
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list[float]
    layers: dict = field(default_factory=dict)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="ufmlab benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(argv: list[str], repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy as np

    import ufmlab

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "ufmlab": ufmlab.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_pass(calls, tracer, failures: list[str]) -> Pass:
    """One closed-loop pass; oracles run after the timed calls."""
    results, latencies = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            for call in calls:
                t0 = time.perf_counter()
                try:
                    results.append((call, call.run(), None))
                except (Exception, SystemExit):
                    results.append((call, None, traceback.format_exc()))
                latencies.append(time.perf_counter() - t0)
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    for call, result, error in results:
        if error is None:
            try:
                problems = call.check(result)
            except Exception:  # a malformed output is a failed call
                problems = [traceback.format_exc()]
            error = "; ".join(problems) or None
        if error is not None:
            failures.append(f"{call.label} {' '.join(call.args)}: {error}")
    layers = tracer.layer_metrics() if tracer is not None else {}
    return Pass(tracer is not None, wall, latencies, layers)


def measure(workload, seconds: float, tracer) -> tuple[list[Pass], list[str]]:
    """Warm-up call, then passes until `seconds` are spent.

    With a tracer, untraced and traced passes alternate, at least one
    untraced and two traced ones.
    """
    failures: list[str] = []
    run_pass(workload.calls[:1], None, failures)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload.calls, tracer if traced else None, failures))
        n_traced = sum(p.traced for p in passes)
        need = (n_traced < 2 or len(passes) - n_traced < 1) if tracer else len(passes) < 2
        if not need and time.perf_counter() - start + passes[-1].wall > seconds:
            return passes, failures


def percentile(values: list[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def pass_time(passes: list[Pass]) -> float:
    return percentile([p.wall for p in passes], PASS_PCT)


def end_to_end(workload, passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    lat_ms = [x * 1e3 for p in passes for x in p.latencies]
    tail = percentile(lat_ms, workload.tail_pct)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": pass_time(passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "op_tail_ms": {"percentile": workload.tail_pct, "samples": len(lat_ms),
                       "beyond": sum(x > tail for x in lat_ms)},
        "setup_s": {"repeats": len(setup), "samples": setup},
    }
    return values, notes


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    import tracing

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values, repeat = {}, True
    for name, (_, kind) in tracing.PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        samples = [p.layers[name] for p in traced]
        if kind == "count":
            repeat &= len(set(samples)) == 1
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.overhead_ratio"] = pass_time(traced) / pass_time(untraced)
    return values, {"counts_repeat": repeat, "traced_passes": len(traced),
                    "untraced_passes": len(untraced)}


def inputs_digest(workload) -> str:
    h = hashlib.sha256()
    for path in workload.inputs:
        h.update(path.read_bytes())
    for call in workload.calls:
        h.update(json.dumps(call.args).encode())
    return h.hexdigest()


def call_set(workload) -> list[str]:
    """The calls of one pass without their inputs: label and flags only."""
    return [" ".join([c.label, *(a for a in c.args if a.startswith("--"))])
            for c in workload.calls]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ufmlab" / "__init__.py").is_file():
        print(f"error: no ufmlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracing
    import workloads

    work = WORK / (args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](rng, work, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    setup = [] if args.trace else setup_seconds(workload.calls[0].args,
                                                2 if args.smoke else SETUP_REPEATS)
    passes, failures = measure(workload, args.seconds, tracer)
    attempted = 1 + len(workload.calls) * len(passes)
    if args.trace:
        values, notes = per_layer(passes)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        tracer.write_spans(work / "spans.csv")
    else:
        values, notes = end_to_end(workload, passes, setup)
        units = END_TO_END
    values["failed_ratio"] = len(failures) / attempted

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(args.seed),
        "passes": len(passes),
        "calls_per_pass": len(workload.calls),
        "call_set": call_set(workload),
        "inputs_sha256": inputs_digest(workload),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "unbounded": {name: {"value": values[name], "unit": unit}
                      for name, unit in UNBOUNDED.items() if name in values},
        "notes": notes,
        "pass_walls_s": [p.wall for p in passes],
        "pass_latencies_ms": [[x * 1e3 for x in p.latencies] for p in passes],
    }
    with open(work / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(report["provenance"]))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes of "
          f"{len(workload.calls)} calls, inputs {report['inputs_sha256'][:12]}")
    for name, metric in {**report["metrics"], **report["unbounded"]}.items():
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    for name, note in notes.items():
        print(f"  note {name}: {json.dumps(note)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
