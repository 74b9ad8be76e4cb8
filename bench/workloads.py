"""Benchmark workloads: seeded input generation, fixed call sets and oracles.

Each `build_*` function writes its generated inputs (YAML configs, CSV
files) into a work directory and returns a `Workload`: the ordered calls of
one pass, the tail percentile and the input files.  The seed changes the
inputs, never the call set.  Every call has an oracle written here,
independent of the package code, that returns a list of problems (empty
when the output is correct).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from ufmlab import cli, descent

# Paper-scale problem and the smoothing grid of the paper's sweep.
PAPER = {"k": 10, "n": 5, "d": 12}
SWEEP_DELTAS = [0.0, 0.05, 0.1, 0.2, 0.3]
# Largest allowed deviation of a numeric spectrum from the analytic table.
SPECTRUM_MAX_DEV = 1e-8
# Agreement required between a reported value and the oracle's own value.
RTOL = 1e-9


@dataclass
class Call:
    """One public call: `run` makes it, `check` returns the problems found."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # Generated inputs the call passes to the program: the command line of a
    # CLI call, or the config file and seed of an API call.
    args: list[str]


@dataclass
class Workload:
    # The first call is a CLI call: `setup_s` times parsing its command line
    # and loading its config, and it is the warm-up call.
    calls: list[Call]
    # Percentile reported as `op_tail_ms`; fixed per workload so that it
    # does not shift when a faster program fits more calls into a run.
    tail_pct: float
    inputs: list[Path] = field(default_factory=list)


def optimum(K: int, n: int, delta: float, lambda_w: float, lambda_h: float):
    """(a, kappa, L*) of the closed-form optimum, derived independently.

    At the optimum every sample of class k has logits a(K-1) on k and -a
    elsewhere, and the weight-decay terms sum to a K (K-1) sqrt(n) lambda_z.
    """
    lz = math.sqrt(lambda_w * lambda_h)
    s = K * math.sqrt(n) * lz + delta  # sqrt(K N) lambda_z + delta
    a = 0.0 if s >= 1.0 else math.log(K / s - K + 1.0) / K
    e = math.exp(a * K)
    p_t, p_n = e / (K - 1.0 + e), 1.0 / (K - 1.0 + e)
    t_t, t_n = 1.0 - delta + delta / K, delta / K
    ce = -(t_t * math.log(p_t) + (K - 1) * t_n * math.log(p_n))
    return a, K * p_t, ce + a * K * (K - 1) * math.sqrt(n) * lz


def _close(x, y) -> bool:
    return math.isclose(float(x), float(y), rel_tol=RTOL, abs_tol=1e-12)


def _write_yaml(path: Path, tree: dict) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(tree, fh, sort_keys=False)
    return path


def _problem_star(prob: dict, delta: float | None = None):
    return optimum(
        prob["k"], prob["n"], prob["delta"] if delta is None else delta,
        prob.get("lambda_w", 5e-3), prob.get("lambda_h", 5e-3),
    )


def _cli_call(label: str, argv: list[str], check) -> Call:
    # cli.main is looked up at call time so that traced runs see the wrappers.
    def run():
        return cli.main(argv)

    def checked(rc):
        return [f"exit code {rc}"] if rc != 0 else check()

    return Call(label, run, checked, argv)


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# --- sweep_paper -------------------------------------------------------------

def build_sweep_paper(rng, work: Path, smoke: bool) -> Workload:
    prob = dict(PAPER) if not smoke else {"k": 4, "n": 2, "d": 5}
    deltas = SWEEP_DELTAS if not smoke else SWEEP_DELTAS[:3]
    n_sweeps, n_pairs = (12, 2) if not smoke else (2, 1)
    opt = {"learning_rate": 0.5, "momentum": 0.9, "loss_tol": 1e-7,
           "max_iters": 50_000, "record_every": 100, "seed": 0}
    cfg_path = _write_yaml(work / "sweep.yaml",
                           {"problem": prob, "optimizer": opt, "sweep": {"deltas": deltas}})
    calls = []
    for i, seed in enumerate(_seeds(rng, n_sweeps)):
        out = work / f"out_sweep{i}"
        argv = ["sweep", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
        calls.append(_cli_call("sweep", argv, _sweep_oracle(out / "sweep.csv", prob, deltas)))

    # Convergence race: plain gradient descent, delta 0 against delta 0.1.
    race_prob = dict(PAPER) if not smoke else {"k": 10, "n": 2, "d": 12}
    race_opt = {"learning_rate": 10.0, "momentum": 0.0, "loss_tol": 1e-12,
                "max_iters": 30_000, "record_every": 10**9, "seed": 0}
    race_cfgs = [
        _write_yaml(work / f"race_delta{delta}.yaml",
                    {"problem": {**race_prob, "delta": delta}, "optimizer": race_opt})
        for delta in (0.0, 0.1)
    ]
    for seed in _seeds(rng, n_pairs):
        for path in race_cfgs:
            cfg, opt_cfg, _ = cli.load_config(str(path), seed)
            calls.append(_race_call(cfg, opt_cfg, ["--config", str(path), "--seed", str(seed)]))
    return Workload(calls, tail_pct=90.0, inputs=[cfg_path, *race_cfgs])


def _sweep_oracle(path: Path, prob: dict, deltas: list[float]):
    def check() -> list[str]:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if [float(r["delta"]) for r in rows] != deltas:
            return [f"sweep rows {[r['delta'] for r in rows]} do not match grid {deltas}"]
        kappas = []
        for r in rows:
            a, kappa, _ = _problem_star(prob, float(r["delta"]))
            if r["iters_to_eps"] == "":
                problems.append(f"delta {r['delta']}: loss_tol not reached")
            if not _close(r["a_delta"], a):
                problems.append(f"delta {r['delta']}: a_delta {r['a_delta']} != {a}")
            for col in ("kappa_h", "kappa_w"):
                if not _close(r[col], kappa):
                    problems.append(f"delta {r['delta']}: {col} {r[col]} != K p_t {kappa}")
            kappas.append(float(r["kappa_h"]))
        if any(b >= a for a, b in zip(kappas, kappas[1:])):
            problems.append(f"kappa does not decrease as delta grows: {kappas}")
        return problems

    return check


def _race_call(cfg, opt, args: list[str]) -> Call:
    star = optimum(cfg.K, cfg.n, cfg.delta, cfg.lambda_w, cfg.lambda_h)[2]

    def run():
        return descent.run(cfg, opt, compute_metrics=False)

    def check(traj) -> list[str]:
        problems = []
        if not traj.converged:
            problems.append("race run did not converge")
        if not traj.loss_history[-1] - star < opt.loss_tol:
            problems.append(f"final loss gap {traj.loss_history[-1] - star:.3e} >= {opt.loss_tol}")
        if not _close(traj.optimal_value, star):
            problems.append(f"optimal value {traj.optimal_value} != L* {star}")
        return problems

    return Call("race", run, check, args)


# --- optimize_large ----------------------------------------------------------

def build_optimize_large(rng, work: Path, smoke: bool) -> Workload:
    prob = {"k": 100, "n": 20, "d": 128, "delta": 0.1} if not smoke else \
        {"k": 10, "n": 4, "d": 16, "delta": 0.1}
    opt = {"learning_rate": 2.0, "momentum": 0.9, "loss_tol": 1e-8,
           "max_iters": 50_000, "record_every": 100, "seed": _seeds(rng, 1)[0]}
    cfg_path = _write_yaml(work / "optimize.yaml", {"problem": prob, "optimizer": opt})
    out = work / "out_optimize"
    argv = ["optimize", "--config", str(cfg_path), "--out", str(out)]
    star = _problem_star(prob)[2]

    def check() -> list[str]:
        with open(out / "optimize.json") as fh:
            rep = json.load(fh)
        problems = []
        if not rep["converged"]:
            problems.append("optimize did not converge")
        if not rep["final_loss"] - star < opt["loss_tol"]:
            problems.append(f"final loss gap {rep['final_loss'] - star:.3e} >= {opt['loss_tol']}")
        if not _close(rep["optimal_loss"], star):
            problems.append(f"optimal_loss {rep['optimal_loss']} != L* {star}")
        with open(out / "trajectory.csv") as fh:
            if sum(1 for _ in fh) < 2:
                problems.append("trajectory.csv has no rows")
        return problems

    return Workload([_cli_call("optimize", argv, check)], tail_pct=90.0, inputs=[cfg_path])


# --- spectrum_dense ----------------------------------------------------------

def build_spectrum_dense(rng, work: Path, smoke: bool) -> Workload:
    # Two calls at Kd ~ 600 and one at Kd ~ 1200: the majority size holds the
    # median, so op_p50_ms does not jump between the two sizes.
    sizes = [(10, 20, 60), (10, 20, 60), (20, 10, 60)] if not smoke else \
        [(4, 3, 6), (4, 3, 6), (5, 2, 8)]
    calls, inputs = [], []
    for i, (K, n, d) in enumerate(sizes):
        prob = {"k": K, "n": n, "d": d,
                "delta": float(rng.uniform(0.0, 0.3)),
                "lambda_w": float(rng.uniform(3e-3, 8e-3)),
                "lambda_h": float(rng.uniform(3e-3, 8e-3))}
        cfg_path = _write_yaml(work / f"spectrum{i}.yaml", {"problem": prob})
        out = work / f"out_spectrum{i}"
        argv = ["spectrum", "--config", str(cfg_path), "--out", str(out)]
        calls.append(_cli_call(f"spectrum K={K}", argv,
                               _spectrum_oracle(out / "spectrum.json", prob)))
        inputs.append(cfg_path)
    return Workload(calls, tail_pct=90.0, inputs=inputs)


def _spectrum_oracle(path: Path, prob: dict):
    K, d = prob["k"], prob["d"]
    kappa = _problem_star(prob)[1]

    def check() -> list[str]:
        with open(path) as fh:
            rep = json.load(fh)
        problems = []
        for key, dim in (("feature_hessian", d), ("classifier_hessian", K * d)):
            block = rep[key]
            if not block["max_relative_deviation"] <= SPECTRUM_MAX_DEV:
                problems.append(f"{key}: deviation {block['max_relative_deviation']:.3e}")
            if block["multiplicities_match"] is not True:
                problems.append(f"{key}: multiplicities do not match")
            ana = block["analytic"]
            if sum(p["multiplicity"] for p in ana["eigenpairs"]) != dim:
                problems.append(f"{key}: analytic multiplicities do not sum to {dim}")
            if not _close(ana["condition_number"], kappa):
                problems.append(f"{key}: condition number {ana['condition_number']} != K p_t")
        return problems

    return check


# --- calibrate_file ----------------------------------------------------------

def _logit_file(rng, work: Path, K: int, M: int):
    """Miscalibrated logits: labels drawn from softmax(Z), file holds T Z."""
    Z = rng.normal(0.0, 2.0, size=(K, M))
    P = np.exp(Z - Z.max(axis=0))
    P /= P.sum(axis=0)
    u = rng.random(M)
    labels = np.minimum((P.cumsum(axis=0) < u).sum(axis=0), K - 1)
    logits = np.round(float(rng.uniform(1.5, 3.0)) * Z, 6)
    logit_path, label_path = work / f"logits_k{K}.csv", work / f"labels_k{K}.txt"
    np.savetxt(logit_path, logits, fmt="%.6f", delimiter=",")
    np.savetxt(label_path, labels + 1, fmt="%d")
    return logits, labels, logit_path, label_path


def nll(logits: np.ndarray, labels: np.ndarray, T: float) -> float:
    """Mean negative log-likelihood of softmax(logits / T), by log-sum-exp."""
    Z = logits / T
    m = Z.max(axis=0)
    lse = m + np.log(np.exp(Z - m).sum(axis=0))
    return float(np.mean(lse - Z[labels, np.arange(Z.shape[1])]))


def build_calibrate_file(rng, work: Path, smoke: bool) -> Workload:
    # About 10 MB of CSV per file.  The K=10 file is analysed twice with
    # different hold-out splits so that one size holds the median call.
    shapes = [(10, 100_000), (100, 10_000)] if not smoke else [(3, 600), (10, 100)]
    files = [_logit_file(rng, work, K, M) for K, M in shapes]
    calls, inputs = [], []
    for i, f in enumerate([files[0], files[0], files[1]]):
        logits, labels, logit_path, label_path = f
        out = work / f"out_calibrate{i}"
        argv = ["calibrate", str(logit_path), str(label_path), "--fit-temperature",
                "--holdout-fraction", "0.2", "--seed", str(_seeds(rng, 1)[0]),
                "--out", str(out)]
        calls.append(_cli_call(f"calibrate K={logits.shape[0]}", argv,
                               _calibration_oracle(out, logits, labels)))
    for f in files:
        inputs += [f[2], f[3]]
    return Workload(calls, tail_pct=85.0, inputs=inputs)


def _calibration_oracle(out: Path, logits: np.ndarray, labels: np.ndarray):
    M = logits.shape[1]
    nll_identity = nll(logits, labels, 1.0)

    def check() -> list[str]:
        with open(out / "calibration.json") as fh:
            rep = json.load(fh)
        with open(out / "reliability.csv", newline="") as fh:
            counts = [int(r["count"]) for r in csv.DictReader(fh)]
        problems = []
        if rep["samples"] != M:
            problems.append(f"samples {rep['samples']} != {M}")
        if sum(counts) != M:
            problems.append(f"bin counts sum to {sum(counts)}, not {M}")
        if not _close(rep["nll_before"], nll_identity):
            problems.append(f"nll_before {rep['nll_before']} != {nll_identity}")
        T = rep["temperature"]
        if T is None or not 0.05 <= T <= 20.0:
            problems.append(f"temperature {T} outside the search range")
        elif not _close(rep["nll_after"], nll(logits, labels, T)):
            problems.append(f"nll_after {rep['nll_after']} != NLL at T={T}")
        return problems

    return check


WORKLOADS = {
    "sweep_paper": build_sweep_paper,
    "optimize_large": build_optimize_large,
    "spectrum_dense": build_spectrum_dense,
    "calibrate_file": build_calibrate_file,
}
