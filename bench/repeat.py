#!/usr/bin/env python3
"""Run two traced runs of one workload and seed and compare them.

    python3 bench/repeat.py --workload sweep_paper --seed 3 --seconds 20

Exact counts (calls, iterations, per-unit ratios) must be identical in both
runs; the script exits 1 if one differs or a run fails.  Each timing is
printed from both runs with its relative spread |a - b| / mean.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(args) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    a, b = traced_run(args), traced_run(args)
    ok = a["correct"] and b["correct"]
    for name, (unit, kind) in PER_LAYER.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if kind == "count":
            same = x == y
            ok &= same
            print(f"{name:38s} {x:>14.6g} {y:>14.6g} {unit:8s} {'same' if same else 'DIFFERENT'}")
        else:
            mean = (x + y) / 2
            spread = abs(x - y) / mean if mean else 0.0
            print(f"{name:38s} {x:>14.6g} {y:>14.6g} {unit:8s} spread {spread:.3f}")
    print("counts repeat" if ok else "counts differ or a run failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
