"""Golden CLI outputs: every file a subcommand writes, against tests/golden/.

Keys, CSV headers, strings and integers must match exactly; floats must
agree within rel 1e-9 and abs 1e-12, so last-bit BLAS drift passes and any
real change of behaviour fails.  After a deliberate change of output,
run `PYTHONPATH=src python tests/test_golden.py`: it rewrites only the
files that are missing or fail the comparison, prints their names, and
leaves the rest byte for byte; then review the diff.
"""

import contextlib
import csv
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from ufmlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL, ABS_TOL = 1e-9, 1e-12

# The configuration shown in the README.
README_CONFIG = {
    "problem": {"k": 3, "n": 2, "d": 4, "delta": 0.1,
                "lambda_w": 5e-3, "lambda_h": 5e-3, "lambda_b": 5e-3},
    "optimizer": {"learning_rate": 0.5, "momentum": 0.9, "max_iters": 50000,
                  "loss_tol": 1e-7, "record_every": 500, "seed": 0},
}
CASES = ("solve", "optimize", "spectrum", "sweep", "race",
         "calibrate", "calibrate_holdout", "check")


def case_argv(name: str, tmp: Path) -> list[str]:
    """Arguments of one case; writes the config and a seeded logit file under tmp."""
    cfg = tmp / "c.yaml"
    cfg.write_text(yaml.safe_dump(README_CONFIG))
    rng = np.random.default_rng(11)
    K, M = 4, 200
    labels = rng.integers(0, K, M)
    logits = 2.0 * rng.standard_normal((K, M))
    logits[labels, np.arange(M)] += 1.5
    np.savetxt(tmp / "logits.csv", logits, delimiter=",")
    np.savetxt(tmp / "labels.txt", labels + 1, fmt="%d")
    calibrate = ["calibrate", str(tmp / "logits.csv"), str(tmp / "labels.txt"),
                 "--fit-temperature"]
    return {
        "sweep": ["sweep", "--config", str(cfg), "--deltas", "0,0.05,0.1,0.3,0.98"],
        "calibrate": calibrate,
        "calibrate_holdout": calibrate + ["--holdout-fraction", "0.2", "--seed", "3"],
        "check": ["check"],
    }.get(name, [name, "--config", str(cfg)])


def run_case(name: str, tmp: Path, out: Path):
    """Run one case into out; `check` has no files, so its stdout goes to stdout.txt."""
    argv = case_argv(name, tmp)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv if name == "check" else argv + ["--out", str(out)])
    assert code == 0
    if name == "check":
        out.mkdir(parents=True, exist_ok=True)
        (out / "stdout.txt").write_text(stdout.getvalue())


def _value(text: str):
    """A CSV cell or stdout token as int, float or, failing both, the string itself."""
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def _tokens(text: str) -> list:
    return [_value(t) for t in re.split(r"([\s,:\[\]]+)", text)]


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[_value(c) for c in row] for row in rows[1:]]


def assert_same(got, want, where: str):
    if isinstance(want, float) and isinstance(got, float):
        assert (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


READERS = {
    ".json": lambda p: json.loads(p.read_text()),
    ".csv": _csv_rows,
    ".txt": lambda p: [_tokens(line) for line in p.read_text().splitlines()],
}


def assert_same_file(got: Path, want: Path, where: str):
    read = READERS[want.suffix]
    assert_same(read(got), read(want), where)


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(name, tmp_path):
    out = tmp_path / "out"
    run_case(name, tmp_path, out)
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for filename in want:
        assert_same_file(out / filename, GOLDEN / name / filename, f"{name}/{filename}")


if __name__ == "__main__":
    # Replace only the golden files that are missing or no longer match.
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            out = Path(tmp) / name
            run_case(name, Path(tmp), out)
            for got in sorted(out.iterdir()):
                golden = GOLDEN / name / got.name
                try:
                    assert_same_file(got, golden, f"{name}/{got.name}")
                except (AssertionError, FileNotFoundError):
                    golden.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(got, golden)
                    print(f"rewrote {golden}")
