"""Command-line entry point.

Subcommands: solve, optimize, spectrum, sweep, race, calibrate, check.
Configs are YAML trees; matrices are headerless CSV (one row per line);
label files hold one 1-based class index per line; reports are JSON.
Exit codes: 0 success, 1 failed checks, 2 config/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import typing
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import calibration, descent, spectral, theory
from .closed_form import (
    class_mean_matrix,
    class_probabilities,
    global_minimizer,
    logit_scale,
    mean_logit_matrix,
    optimal_loss,
)
from .config import OptimizerConfig, ProblemConfig
from .core import gradient_norm
from .descent import DivergenceError, RaceRow, SweepRow, TrajectoryRow

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _exact(key: str, value, typ: type):
    """value as typ; YAML 1.1 reads 5e-1 as a string, so strings are parsed."""
    if not isinstance(value, bool):
        try:
            number = float(value)
            if typ is float:
                return number
            if isinstance(value, int):
                return value
            if number.is_integer():
                return int(number)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{key} must be {'an integer' if typ is int else 'a number'}, got {value!r}")


def _mapping(raw, name: str, keys) -> dict:
    """raw, checked to be a YAML mapping whose keys are all in keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {name}.{unknown[0]}")
    return raw


def _section(cls, raw: dict, name: str) -> dict:
    """Keyword arguments of cls from one YAML section (keys are field names in lower case)."""
    types = typing.get_type_hints(cls)
    keys = {f.name.lower(): f.name for f in fields(cls)}
    return {keys[k]: _exact(f"{name}.{k}", v, types[keys[k]])
            for k, v in _mapping(raw, name, keys).items()}


def load_config(path: str, seed_override: int | None = None):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping, got {type(raw).__name__}")
    prob_raw = _section(ProblemConfig, raw.get("problem", {}), "problem")
    opt_raw = _section(OptimizerConfig, raw.get("optimizer", {}), "optimizer")
    if seed_override is not None:
        opt_raw["seed"] = seed_override
    try:
        cfg = ProblemConfig(**prob_raw)
        opt = OptimizerConfig(**opt_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg, opt, raw


def resolved_config_dict(cfg: ProblemConfig, opt: OptimizerConfig) -> dict:
    """The config tree that load_config reads back to (cfg, opt)."""
    return {name: {k.lower(): v for k, v in asdict(obj).items()}
            for name, obj in (("problem", cfg), ("optimizer", opt))}


def write_csv(path: Path, header: list[str], rows):
    """Header line plus one line per row; None is written as an empty field."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def write_report(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _publish(out: str, name: str, payload: dict, config=None, tables=(), lead="") -> int:
    """Write a command's outputs under out and print their paths after lead.

    tables holds (file name, header, dataclass rows) CSV tables; the JSON
    report <name>.json is payload plus format_version and, when config is
    (cfg, opt), the resolved config.
    """
    out, paths = Path(out), []
    for filename, header, rows in tables:
        paths.append(out / filename)
        write_csv(paths[-1], header, map(astuple, rows))
    paths.append(out / f"{name}.json")
    echo = {} if config is None else {"config": resolved_config_dict(*config)}
    write_report(paths[-1], {"format_version": FORMAT_VERSION, **echo, **payload})
    print(f"{lead}wrote {' and '.join(map(str, paths))}")
    return EXIT_OK


def read_matrix(path: str) -> np.ndarray:
    try:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise ConfigError(f"matrix file {path}: non-finite entry {matrix[row, col]} at "
                          f"row {row + 1}, column {col + 1}")
    return matrix


def read_labels(path: str) -> np.ndarray:
    """Label file: one 1-based class index per line; returned 0-based."""
    try:
        return np.loadtxt(path, dtype=int, ndmin=1) - 1
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read label file {path}: {exc}") from exc


def cmd_solve(args) -> int:
    cfg, opt, _ = load_config(args.config, args.seed)
    a = logit_scale(cfg)
    p_t, p_n = class_probabilities(cfg)
    state = global_minimizer(cfg)
    h_bar = class_mean_matrix(cfg)
    return _publish(args.out, "solve", {
        "a_delta": a,
        "p_t": p_t,
        "p_n": p_n,
        "w_norm": float(np.linalg.norm(state.W)),
        "h_bar_norm": float(np.linalg.norm(h_bar)),
        "optimal_loss": optimal_loss(cfg),
        "mean_logit_matrix": mean_logit_matrix(cfg).tolist(),
        "stationarity_residual": gradient_norm(state, cfg),
    }, config=(cfg, opt))


def cmd_optimize(args) -> int:
    cfg, opt, _ = load_config(args.config, args.seed)
    header = [f.name for f in fields(TrajectoryRow)]
    try:
        traj = descent.run(cfg, opt)
    except DivergenceError as exc:  # keep the partial trajectory; still exit 3
        write_csv(Path(args.out) / "trajectory.csv", header, map(astuple, exc.rows))
        raise
    final = traj.rows[-1]
    return _publish(args.out, "optimize", {
        "converged": traj.converged,
        "iterations": final.iter,
        "final_loss": final.loss,
        "optimal_loss": traj.optimal_value,
        "final_loss_gap": final.loss_gap,
        "final_grad_norm": final.grad_norm,
        "final_nc1": final.nc1,
        "final_nc2": final.nc2,
        "final_nc3": final.nc3,
        "mean_logit_distance": descent.mean_logit_distance(traj.final_state, cfg),
    }, config=(cfg, opt),
        tables=[("trajectory.csv", header, traj.rows)])


def _spectrum_dict(report: spectral.SpectrumReport) -> dict:
    return {
        "eigenpairs": [
            {"value": v, "multiplicity": m} for v, m in sorted(report.eigenpairs)
        ],
        "condition_number": report.condition_number,
        "source": report.source,
        "degenerate": report.degenerate,
        "notes": report.notes,
    }


def _hessian_section(analytic: spectral.SpectrumReport, vals: np.ndarray) -> dict:
    """Analytic and numeric spectra of one Hessian from its ascending eigenvalues."""
    dev, mults = spectral.compare_to_analytic(analytic, vals)
    return {
        "analytic": _spectrum_dict(analytic),
        "numeric": _spectrum_dict(spectral.numeric_spectrum(vals)),
        "max_relative_deviation": dev,
        "multiplicities_match": mults,
    }


def cmd_spectrum(args) -> int:
    cfg, opt, _ = load_config(args.config, args.seed)
    state = global_minimizer(cfg)
    payload = {
        "feature_hessian": _hessian_section(
            spectral.analytic_feature_hessian_spectrum(cfg),
            np.linalg.eigvalsh(spectral.numeric_hessian_features(state, cfg)),
        ),
    }
    if cfg.K >= 3:
        payload["classifier_hessian"] = _hessian_section(
            spectral.analytic_classifier_hessian_spectrum(cfg),
            spectral.classifier_eigenvalues(state, cfg),
        )
    else:
        payload["classifier_hessian"] = {"skipped": "requires K >= 3"}
    return _publish(args.out, "spectrum", payload, config=(cfg, opt))


def cmd_sweep(args) -> int:
    cfg, opt, raw = load_config(args.config, args.seed)
    if args.deltas:
        source, deltas = "--deltas", args.deltas.split(",")
    else:
        source = "sweep.deltas"
        deltas = _mapping(raw.get("sweep", {}), "sweep", ["deltas"]).get("deltas", [])
        if not isinstance(deltas, list):
            raise ConfigError(f"sweep.deltas must be a list, got {deltas!r}")
    deltas = [_exact(source, x, float) for x in deltas]
    if not deltas:
        raise ConfigError("no deltas given (use --deltas or sweep.deltas in config)")
    for delta in deltas:  # every entry, before the first descent run
        try:
            replace(cfg, delta=delta)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    rows = descent.delta_sweep(cfg, deltas, opt)
    return _publish(args.out, "sweep", {
        "deltas": deltas,
        "degenerate_deltas": [r.delta for r in rows if r.degenerate],
    }, config=(cfg, opt), tables=[("sweep.csv", [f.name for f in fields(SweepRow)], rows)])


def cmd_race(args) -> int:
    cfg, opt, _ = load_config(args.config, args.seed)
    if cfg.delta == 0.0:
        raise ConfigError("race needs problem.delta > 0 to race against delta = 0")
    rows = descent.convergence_race(cfg, opt)
    wins = sum(r.smoothing_won for r in rows)
    return _publish(args.out, "race", {
        "seeds": [r.seed for r in rows],
        "rel_eps": descent.RACE_REL_EPS,
        "smoothing_wins": wins,
    }, config=(cfg, opt),
        tables=[("race.csv", [f.name for f in fields(RaceRow)], rows)],
        lead=f"smoothing won {wins}/{len(rows)} seeds; ")


def cmd_calibrate(args) -> int:
    if not 0.0 <= args.holdout_fraction < 1.0:  # NaN fails too
        raise ConfigError(f"--holdout-fraction must be in [0, 1), got {args.holdout_fraction}")
    logits = read_matrix(args.logits)
    labels = read_labels(args.labels)
    K = logits.shape[0]
    if K < 2:
        raise ConfigError(f"logit file {args.logits}: needs one row per class and K >= 2, got {K}")
    if np.any(labels < 0) or np.any(labels >= K):
        raise ConfigError(f"label file {args.labels}: labels must lie in 1..{K} ({K} logit rows)")
    try:
        ds = calibration.LogitDataset(logits, labels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = calibration.calibration_report(
        ds,
        bins=args.bins,
        fit_T=args.fit_temperature,
        holdout_fraction=args.holdout_fraction,
        seed=args.seed if args.seed is not None else 0,
    )
    return _publish(args.out, "calibration", {
        "bins": args.bins,
        "ece": report.ece,
        "accuracy": report.accuracy,
        "mean_entropy": report.mean_entropy,
        "temperature": report.temperature,
        "nll_before": report.nll_before,
        "nll_after": report.nll_after,
        "temperature_flag": report.temperature_flag,
        "samples": ds.M,
    }, tables=[("reliability.csv",
                ["bin_lower", "bin_upper", "confidence", "accuracy", "count"], report.bins)])


def cmd_check(args) -> int:
    ok = True
    for name, claim in theory.CLAIMS.items():
        passed, detail = claim(args.seed or 0, args.perturb)
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufmlab",
        description="Unconstrained-feature-model laboratory for label smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override optimizer seed")

    p = sub.add_parser("solve", help="closed-form minimizer report")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimize", help="gradient-descent run with trajectory CSV")
    add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("spectrum", help="analytic vs numeric Hessian spectra")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="smoothing-parameter sweep table")
    add_common(p)
    p.add_argument("--deltas", help="comma-separated smoothing values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("race", help="descent race of delta = 0 against the config's delta")
    add_common(p)
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("calibrate", help="calibration report for (logits, labels)")
    p.add_argument("logits", help="headerless CSV, K rows x M columns")
    p.add_argument("labels", help="one 1-based class index per line")
    p.add_argument("--out", default="out")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--fit-temperature", action="store_true")
    p.add_argument("--holdout-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("check", help="check the named theory claims (ufmlab.theory.CLAIMS)")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject a perturbation into the closed-form checks")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
