import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

import ufmlab
from ufmlab import cli, descent, spectral
from ufmlab.cli import load_config, main
from ufmlab.core import softmax_cols


def write_config(path, problem, optimizer=None, extra=None):
    doc = {"problem": problem}
    if optimizer:
        doc["optimizer"] = optimizer
    if extra:
        doc.update(extra)
    path.write_text(yaml.safe_dump(doc))
    return str(path)


REF_PROBLEM = {"k": 3, "n": 2, "d": 4, "delta": 0.1,
               "lambda_w": 5e-3, "lambda_h": 5e-3, "lambda_b": 5e-3}
REF_OPTIMIZER = {"learning_rate": 0.5, "momentum": 0.9, "max_iters": 50000,
                 "loss_tol": 1e-7, "record_every": 500, "seed": 0}


class TestSolve:
    def test_report_fields(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert report["stationarity_residual"] < 1e-8
        assert report["a_delta"] > 0
        assert report["p_t"] + 2 * report["p_n"] == pytest.approx(1.0, abs=1e-12)
        assert len(report["mean_logit_matrix"]) == 3

    def test_zero_scale_regime(self, tmp_path):
        prob = dict(REF_PROBLEM, delta=0.9, lambda_w=0.5, lambda_h=0.5)
        cfg = write_config(tmp_path / "c.yaml", prob)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert report["a_delta"] == 0.0
        assert report["w_norm"] == 0.0 and report["h_bar_norm"] == 0.0

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "solve.json").read_bytes() == \
               (tmp_path / "b" / "solve.json").read_bytes()

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", dict(REF_PROBLEM, d=1))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "o")]) == 2


class TestOptimize:
    def test_trajectory_csv_and_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, REF_OPTIMIZER)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "loss", "nc1", "nc2", "nc3",
                           "w_norm", "h_mean_norm", "grad_norm", "loss_gap"]
        summary = json.loads((tmp_path / "o" / "optimize.json").read_text())
        assert summary["converged"]
        assert summary["final_loss_gap"] < 1e-7

    def test_seed_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, REF_OPTIMIZER)
        main(["optimize", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["optimize", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
               (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_divergence_exit_3(self, tmp_path):
        opt = dict(REF_OPTIMIZER, learning_rate=1e4, init_scale=5.0)
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, opt)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        # the rows recorded before the blow-up are kept; no report is written
        with open(tmp_path / "o" / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [f.name for f in fields(descent.TrajectoryRow)] and len(rows) >= 2
        assert not (tmp_path / "o" / "optimize.json").exists()


    @pytest.mark.parametrize("command", ["optimize", "race"])
    @pytest.mark.parametrize("delta, degenerate", [(0.1, False), (0.98, True)])
    def test_degenerate_flag(self, tmp_path, command, delta, degenerate):
        # At delta = 0.98, sqrt(KN) lambda_z + delta >= 1: the logit scale is 0.
        cfg = write_config(tmp_path / "c.yaml", dict(REF_PROBLEM, delta=delta),
                           dict(REF_OPTIMIZER, max_iters=2000))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / f"{command}.json").read_text())
        assert report["degenerate"] is degenerate


class TestSpectrum:
    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "spectrum.json").read_text())
        for key in ("feature_hessian", "classifier_hessian"):
            section = report[key]
            assert section["max_relative_deviation"] < 1e-6
            assert section["multiplicities_match"]
        # kappa = K * p_t for both Hessians
        kf = report["feature_hessian"]["analytic"]["condition_number"]
        kw = report["classifier_hessian"]["analytic"]["condition_number"]
        assert kf == pytest.approx(kw, rel=1e-12)

    def test_delta_lowers_kappa(self, tmp_path):
        kappas = {}
        for delta in (0.0, 0.1):
            cfg = write_config(tmp_path / f"c{delta}.yaml",
                               dict(REF_PROBLEM, delta=delta))
            out = tmp_path / f"o{delta}"
            main(["spectrum", "--config", cfg, "--out", str(out)])
            report = json.loads((out / "spectrum.json").read_text())
            kappas[delta] = report["feature_hessian"]["analytic"]["condition_number"]
        assert kappas[0.1] < kappas[0.0]

    def test_one_assembly_per_hessian(self, tmp_path, monkeypatch):
        counts = {}
        for name in ("numeric_hessian_features", "numeric_hessian_classifier"):
            def counted(*args, _fn=getattr(spectral, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert counts == {"numeric_hessian_features": 1, "numeric_hessian_classifier": 1}

    def test_failed_eigensolve_exit_3(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, but a config that loaded is no config error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("k, delta", [(2, 0.1), (3, 0.98)])
    def test_degenerate_sections_agree(self, tmp_path, k, delta):
        # K = 2 has one nonzero eigenvalue in each Hessian; at delta = 0.98 the logit scale is 0
        cfg = write_config(tmp_path / "c.yaml", dict(REF_PROBLEM, k=k, delta=delta))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "spectrum.json").read_text())
        for name in ("feature_hessian", "classifier_hessian"):
            analytic, numeric = report[name]["analytic"], report[name]["numeric"]
            assert analytic["degenerate"] is numeric["degenerate"] is True
            assert analytic["notes"] == numeric["notes"] and len(numeric["notes"]) == 1
            assert report[name]["multiplicities_match"] is True

    def test_dimension_mismatch_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "classifier_eigenvalues", lambda state, cfg: np.zeros(3))
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: analytic spectrum has 12 eigenvalues, numeric 3" in err


class TestSweep:
    def test_csv_columns_and_monotone_scale(self, tmp_path):
        opt = dict(REF_OPTIMIZER, loss_tol=1e-6, max_iters=20000)
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, opt)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--deltas", "0,0.05,0.1"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delta", "a_delta", "w_norm", "kappa_h", "kappa_w",
                           "iters_to_eps", "nc1", "nc2", "nc3"]
        a_vals = [float(r[1]) for r in rows[1:]]
        assert a_vals == sorted(a_vals, reverse=True)

    def test_k2_classifier_kappa_is_one(self, tmp_path):
        # K = 2: one nonzero eigenvalue in each Hessian, so both condition numbers read 1
        opt = dict(REF_OPTIMIZER, loss_tol=1e-6, max_iters=20000)
        cfg = write_config(tmp_path / "c.yaml", dict(REF_PROBLEM, k=2), opt)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--deltas", "0,0.1"]) == 0
        with open(tmp_path / "o" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["kappa_h"]), float(r["kappa_w"])) for r in rows] == [(1.0, 1.0)] * 2

    def test_deltas_from_config(self, tmp_path):
        opt = dict(REF_OPTIMIZER, loss_tol=1e-6, max_iters=20000)
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, opt,
                           extra={"sweep": {"deltas": [0.0, 0.1]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_diverging_member_exit_3_names_it(self, tmp_path, capsys):
        opt = dict(REF_OPTIMIZER, learning_rate=1e4, init_scale=5.0, seed=7)
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, opt)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--deltas", "0,0.1"]) == 3
        err = capsys.readouterr().err
        assert "diverged at iteration" in err and "seed 7" in err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_no_deltas_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM, REF_OPTIMIZER)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


RACE_PROBLEM = {"k": 10, "n": 5, "d": 12, "delta": 0.1,
                "lambda_w": 5e-3, "lambda_h": 5e-3}
RACE_OPTIMIZER = {"learning_rate": 10.0, "momentum": 0.0, "max_iters": 30000,
                  "loss_tol": 1e-12, "record_every": 10**9, "seed": 0}


class TestRace:
    def test_smoothing_wins(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", RACE_PROBLEM, RACE_OPTIMIZER)
        out = tmp_path / "o"
        assert main(["race", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "race.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == list(range(10))
        wins = sum(r["smoothing_won"] == "True" for r in rows)
        assert wins >= 9
        report = json.loads((out / "race.json").read_text())
        assert report["smoothing_wins"] == wins

    def test_counts_do_not_depend_on_loss_tol(self, tmp_path):
        # Each run stops at its own target, 1e-4 of its initial gap, which a
        # loss_tol of 1e-3 would otherwise cut short.
        tables = []
        for loss_tol in (1e-3, 1e-7):
            cfg = write_config(tmp_path / f"c{loss_tol}.yaml", REF_PROBLEM,
                               dict(REF_OPTIMIZER, loss_tol=loss_tol))
            out = tmp_path / f"o{loss_tol}"
            assert main(["race", "--config", cfg, "--out", str(out)]) == 0
            tables.append((out / "race.csv").read_text())
        assert tables[0] == tables[1]
        rows = list(csv.DictReader(tables[0].splitlines()))
        assert all(r["iters_ce"] and r["iters_ls"] for r in rows)

    def test_zero_delta_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", dict(RACE_PROBLEM, delta=0.0),
                           RACE_OPTIMIZER)
        assert main(["race", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "problem.delta" in capsys.readouterr().err


class TestConfigBoundary:
    def run_solve(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        return main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])

    def test_nan_lambda_exit_2_names_field(self, tmp_path, capsys):
        assert self.run_solve(tmp_path, "problem: {k: 3, n: 2, d: 4, lambda_w: .nan}\n") == 2
        assert "lambda_w" in capsys.readouterr().err

    def test_underflowing_lambdas_exit_2(self, tmp_path, capsys):
        # Each pair leaves one of the minimizer's two lambda quantities 0 or inf.
        cases = [
            ("k: 3, n: 2, d: 4, delta: 0.0, lambda_w: 1.0e-200, lambda_h: 1.0e-200",
             "lambda_w * lambda_h underflows to 0"),
            ("k: 3, n: 2, d: 4, delta: 0.1, lambda_w: 5.0e-324, lambda_h: 1.0e+308",
             "n * lambda_h / lambda_w overflows"),
            ("k: 3, n: 2, d: 4, delta: 0.1, lambda_w: 1.0e+308, lambda_h: 5.0e-324",
             "n * lambda_h / lambda_w underflows to 0"),
            ("k: 4, n: 2, d: 6, delta: 0.25, lambda_w: 8.0e+281, lambda_h: 2.0e+261",
             "lambda_w * lambda_h overflows"),
        ]
        path, out = tmp_path / "c.yaml", tmp_path / "o"
        for command in ("solve", "spectrum"):
            for problem, message in cases:
                path.write_text(f"problem: {{{problem}}}\n")
                assert main([command, "--config", str(path), "--out", str(out)]) == 2
                assert message in capsys.readouterr().err
                assert not out.exists()

    def test_yaml11_exponent_floats(self, tmp_path):
        # YAML 1.1 reads 5e-1 and 5e4 (no dot) as strings
        path = tmp_path / "c.yaml"
        path.write_text("problem: {k: 3, n: 2, d: 4, delta: 1e-1}\n"
                        "optimizer: {learning_rate: 5e-1, loss_tol: 1e-7, max_iters: 5e4}\n")
        cfg, opt, _ = load_config(str(path))
        assert cfg.delta == 0.1
        assert opt.learning_rate == 0.5 and opt.loss_tol == 1e-7
        assert opt.max_iters == 50_000 and type(opt.max_iters) is int
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("entry", ["max_iters: 2.5", "seed: true", "learning_rate: fast",
                                       "learnin_rate: 0.5"])
    def test_bad_optimizer_value_exit_2_names_field(self, tmp_path, capsys, entry):
        text = f"problem: {{k: 3, n: 2, d: 4}}\noptimizer: {{{entry}}}\n"
        assert self.run_solve(tmp_path, text) == 2
        assert f"optimizer.{entry.split(':')[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["learning_rate: .nan", "init_scale: .inf",
                                       "loss_tol: .nan"])
    def test_non_finite_optimizer_value_exit_2_names_field(self, tmp_path, capsys, entry):
        path = tmp_path / "c.yaml"
        path.write_text(f"problem: {{k: 3, n: 2, d: 4}}\n"
                        f"optimizer: {{max_iters: 50, {entry}}}\n")
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 2
        assert entry.split(":")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["- 1\n", "3\n", "just text\n"])
    def test_top_level_not_a_mapping_exit_2(self, tmp_path, capsys, text):
        assert self.run_solve(tmp_path, text) == 2
        assert "must be a mapping" in capsys.readouterr().err

    def test_negative_seed_exit_2_names_field(self, tmp_path, capsys):
        assert self.run_solve(tmp_path, "problem: {k: 3, n: 2, d: 4}\noptimizer: {seed: -1}\n") == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "optimize", "spectrum", "sweep", "race",
                                         "check", "calibrate"])
    def test_negative_seed_flag_rejected_by_the_parser(self, tmp_path, capsys, command):
        out = str(tmp_path / "o")
        argv = {"check": ["check"],
                "calibrate": ["calibrate", "logits.csv", "labels.txt", "--out", out]}.get(
            command, [command, "--config", write_config(tmp_path / "c.yaml", REF_PROBLEM),
                      "--out", out])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_non_finite_perturb_rejected_by_the_parser(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", f"--perturb={value}"])  # "=" lets "-inf" through as a value
        assert exc.value.code == 2
        assert "argument --perturb: must be finite" in capsys.readouterr().err


class TestSweepSection:
    @pytest.mark.parametrize("extra, argv, name", [
        ("sweep: [0.1]\n", [], "sweep"),
        ("sweep: {deltas: 0.1}\n", [], "sweep.deltas"),
        ("sweep: {deltas: [0.1, x]}\n", [], "sweep.deltas"),
        ("sweep: {deltas: [true]}\n", [], "sweep.deltas"),
        ("sweep: {deltas: [0.1], extra: 1}\n", [], "sweep.extra"),
        ("", ["--deltas", "0.1,x"], "--deltas"),
    ])
    def test_bad_deltas_exit_2_names_source(self, tmp_path, capsys, extra, argv, name):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {k: 3, n: 2, d: 4}\n" + extra)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out), *argv]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, argv, name", [
        ("sweep: {deltas: [0.1, 1.5]}\n", [], "sweep.deltas"),
        ("", ["--deltas", "0.1,1.5"], "--deltas"),
    ])
    def test_out_of_range_delta_rejected_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                        extra, argv, name):
        runs = []
        monkeypatch.setattr(descent, "run", lambda *a, **k: runs.append(a))
        path = tmp_path / "c.yaml"
        path.write_text("problem: {k: 3, n: 2, d: 4}\n" + extra)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out), *argv]) == 2
        assert f"{name}: delta must be in [0, 1), got 1.5" in capsys.readouterr().err
        assert runs == [] and not out.exists()


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sweep_without_deltas_flag_reads_config_after_one_with_it(self, tmp_path,
                                                                      monkeypatch):
        seen = []
        monkeypatch.setattr(descent, "delta_sweep",
                            lambda cfg, deltas, opt: seen.append(deltas) or [])
        cfg = write_config(tmp_path / "c.yaml", REF_PROBLEM,
                           extra={"sweep": {"deltas": [0.0, 0.3]}})
        for argv in (["--deltas", "0.1"], []):
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), *argv]) == 0
        assert seen == [[0.1], [0.0, 0.3]]

    def test_command_patched_after_a_call_is_the_one_run(self, tmp_path, monkeypatch):
        argv = ["solve", "--config", str(tmp_path / "missing.yaml")]
        assert main(argv) == 2
        monkeypatch.setattr(cli, "cmd_solve", lambda args: 7)
        assert main(argv) == 7


class TestReportEnvelope:
    PROBLEM = dict(REF_PROBLEM, lambda_b=2e-3)
    OPTIMIZER = {"learning_rate": 0.25, "momentum": 0.5, "max_iters": 40, "loss_tol": 1e-9,
                 "record_every": 7, "init_scale": 0.75, "seed": 3}
    COMMANDS = [["solve"], ["optimize"], ["spectrum"], ["sweep", "--deltas", "0.1"], ["race"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_config_echo_reads_back(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "c.yaml", self.PROBLEM, self.OPTIMIZER)
        out = tmp_path / "o"
        assert main([command[0], "--config", path, "--out", str(out), *command[1:]]) == 0
        assert capsys.readouterr().out.endswith(f"{out / command[0]}.json\n")
        report = json.loads((out / f"{command[0]}.json").read_text())
        assert report["format_version"] == 1
        echo = tmp_path / "echo.yaml"
        echo.write_text(yaml.safe_dump(report["config"]))
        assert load_config(str(echo))[:2] == load_config(path)[:2]

    def test_seed_override_is_echoed(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", self.PROBLEM, self.OPTIMIZER)
        main(["solve", "--config", path, "--out", str(tmp_path / "o"), "--seed", "11"])
        report = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert report["config"]["optimizer"]["seed"] == 11
        assert set(report["config"]["problem"]) == set(self.PROBLEM)

    def test_calibrate_report_has_version_and_no_config(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        lpath, ypath, *_ = TestCalibrate().make_files(tmp_path, rng)
        out = tmp_path / "o"
        assert main(["calibrate", lpath, ypath, "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            f"wrote {out / 'reliability.csv'} and {out / 'calibration.json'}\n"
        report = json.loads((out / "calibration.json").read_text())
        assert report["format_version"] == 1 and "config" not in report


class TestCalibrate:
    def make_files(self, tmp_path, rng, M=60, K=3):
        logits = 3.0 * rng.standard_normal((K, M))
        labels = rng.integers(0, K, size=M)
        lpath = tmp_path / "logits.csv"
        np.savetxt(lpath, logits, delimiter=",")
        ypath = tmp_path / "labels.txt"
        np.savetxt(ypath, labels + 1, fmt="%d")  # 1-based on disk
        return str(lpath), str(ypath), logits, labels

    def test_report_and_reliability(self, tmp_path):
        rng = np.random.default_rng(0)
        lpath, ypath, logits, labels = self.make_files(tmp_path, rng)
        out = tmp_path / "o"
        assert main(["calibrate", lpath, ypath, "--out", str(out),
                     "--bins", "10", "--fit-temperature"]) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert 0.0 <= report["ece"] <= 1.0
        assert report["temperature"] > 0
        assert report["nll_after"] <= report["nll_before"] + 1e-12
        with open(out / "reliability.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lower", "bin_upper", "confidence", "accuracy", "count"]
        assert sum(int(r[4]) for r in rows[1:]) == 60

    def test_accuracy_invariant_under_temperature(self, tmp_path):
        rng = np.random.default_rng(1)
        lpath, ypath, logits, labels = self.make_files(tmp_path, rng)
        out = tmp_path / "o"
        main(["calibrate", lpath, ypath, "--out", str(out), "--fit-temperature"])
        report = json.loads((out / "calibration.json").read_text())
        T = report["temperature"]
        acc_before = (softmax_cols(logits).argmax(axis=0) == labels).mean()
        acc_after = (softmax_cols(logits / T).argmax(axis=0) == labels).mean()
        assert acc_before == acc_after == report["accuracy"]

    def test_bad_labels_exit_2(self, tmp_path):
        rng = np.random.default_rng(2)
        lpath, ypath, *_ = self.make_files(tmp_path, rng)
        (tmp_path / "labels.txt").write_text("0\n" * 60)  # 0 is not 1-based
        assert main(["calibrate", lpath, ypath, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("bad", ["0", "4"])
    def test_out_of_range_label_named_in_1_based_terms(self, tmp_path, capsys, bad):
        lpath, ypath, *_ = self.make_files(tmp_path, np.random.default_rng(2))
        (tmp_path / "labels.txt").write_text("1\n" * 59 + f"{bad}\n")
        assert main(["calibrate", lpath, ypath, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert ypath in err and "1..3" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_logit_exit_2_names_file_and_entry(self, tmp_path, capsys, entry):
        lpath, ypath, *_ = self.make_files(tmp_path, np.random.default_rng(4), M=3)
        Path(lpath).write_text(f"1,2,3\n4,5,6\n7,{entry},9\n")
        assert main(["calibrate", lpath, ypath, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert lpath in err and "row 3, column 2" in err and entry in err
        assert not (tmp_path / "o").exists()

    def test_one_class_logits_exit_2_names_file(self, tmp_path, capsys):
        lpath, ypath, *_ = self.make_files(tmp_path, np.random.default_rng(5), M=3, K=1)
        assert main(["calibrate", lpath, ypath, "--out", str(tmp_path / "o"),
                     "--fit-temperature"]) == 2
        err = capsys.readouterr().err
        assert lpath in err and "K >= 2" in err
        assert not (tmp_path / "o").exists()

    def test_zero_bins_rejected_before_the_files_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", missing, missing, "--out", str(tmp_path / "o"), "--bins", "0"])
        assert exc.value.code == 2
        assert "argument --bins: must be >= 1, got 0" in capsys.readouterr().err

    def test_label_count_mismatch_exit_2_names_both_files_and_counts(self, tmp_path, capsys):
        lpath, ypath, *_ = self.make_files(tmp_path, np.random.default_rng(6))
        (tmp_path / "labels.txt").write_text("1\n" * 59)
        assert main(["calibrate", lpath, ypath, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"label file {ypath} has 59 labels but logit file {lpath} has 60 columns" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fraction", ["1.5", "-0.3", "nan", "inf", "1.0"])
    def test_holdout_fraction_outside_0_1_exit_2(self, tmp_path, capsys, fraction):
        lpath, ypath, *_ = self.make_files(tmp_path, np.random.default_rng(3))
        assert main(["calibrate", lpath, ypath, "--out", str(tmp_path / "o"),
                     "--fit-temperature", "--holdout-fraction", fraction]) == 2
        assert "--holdout-fraction" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


CHECK_CLAIMS = ["nuclear-norm-identity", "factorization-lower-bound", "self-duality",
                "stationarity", "logit-collapse"]


def check_lines(out):
    """(status, claim name, detail) per printed check line."""
    return [(line[1:5], *line[7:].split(": ", 1)) for line in out.splitlines()]


class TestCheck:
    def test_clean_run_passes(self, capsys):
        assert main(["check"]) == 0
        lines = check_lines(capsys.readouterr().out)
        assert [(status, name) for status, name, _ in lines] == \
            [("PASS", name) for name in CHECK_CLAIMS]
        # The random factorizations stay strictly above the bound.
        min_gap = dict((name, detail) for _, name, detail in lines)["factorization-lower-bound"]
        assert float(min_gap.removeprefix("min gap ")) > 0.0

    def test_perturbation_fails(self, capsys):
        assert main(["check", "--perturb", "0.01"]) == 1
        failed = [name for status, name, _ in check_lines(capsys.readouterr().out)
                  if status == "FAIL"]
        assert failed == ["self-duality", "stationarity"]


def test_importing_the_cli_loads_no_yaml():
    # Only load_config reads YAML, so calibrate and check never pay for importing it.
    src = str(Path(ufmlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, ufmlab.cli; assert 'yaml' not in sys.modules, 'yaml was imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
