"""The `protocol` workload: `gridtwin sweep --jobs 1` through gridtwin.cli.main.

The config (protocol.yaml) keeps the paper protocol and cuts epochs and
seeds. `--seed` becomes the model seed, which sets the initial weights and
the training masks; the work per sweep does not depend on it. Each sweep
writes into a fresh output directory, whose files are checked against the
CLI contract and recomputed where they can be.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import yaml
from gridtwin import cli
from gridtwin.model import ConcatBaselineModel, DtModel

import oracle

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CONFIG = HERE / "protocol.yaml"
SETUP_REPEATS = 5
MIN_SWEEPS = 2  # so that every run compares metrics.csv across sweeps
OUTPUTS = ("metrics.csv", "summary.csv", "sweep.svg", "timeseries.csv", "timeseries.svg",
           "history.csv", "history_ablation.csv", "checkpoint.json",
           "checkpoint_ablation.json", "config_used.yaml", "run_info.json")
FRACTIONS = ("feasible_fraction", "rank_deficient_fraction")
ERRORS = ("rmse_pct", "mae_mag", "mae_ang")

# Set-up as a user of the CLI pays it: a fresh interpreter imports the
# package, then loads and validates the config. The child times itself, so
# interpreter start-up is left out.
_SETUP_CHILD = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
from gridtwin.cli import build_parser
from gridtwin.bench import ExperimentConfig
build_parser()
ExperimentConfig.from_yaml(sys.argv[2]).validate()
print(perf_counter() - start)
"""


def setup_times(repeats=SETUP_REPEATS):
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(CONFIG)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def argv(out_dir, seed):
    return ["sweep", "--config", str(CONFIG), "--jobs", "1", "--out", str(out_dir),
            "--seed", str(seed)]


def sweep(out_dir, seed):
    """One sweep into an empty directory; returns (exit code, wall seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv(out_dir, seed))
        wall = perf_counter() - start
    return code, wall


def check(out_dir, code, config):
    """Problems found in one sweep's outputs; empty when all checks hold."""
    if code != 0:
        return [f"exit code {code}"]
    missing = [name for name in OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    problems = []
    header, rows = oracle.read_csv(out_dir / "metrics.csv")
    if header != ["method", "alpha", "seed", "metric", "value"]:
        problems.append(f"metrics.csv header {header}")
    problems += _check_rows(rows, config)
    same, why = oracle.summary_matches(out_dir / "summary.csv", out_dir / "metrics.csv")
    if not same:
        problems.append(why)
    for name in ("history.csv", "history_ablation.csv"):
        _, history = oracle.read_csv(out_dir / name)
        if len(history) != config["epochs"] or not float(history[-1][1]) < float(history[0][1]):
            problems.append(f"{name}: last train loss is not below the first")
    with open(out_dir / "run_info.json", "r", encoding="utf-8") as fh:
        info = json.load(fh)
    for cls, name, key in ((DtModel, "checkpoint.json", "dt_parameters"),
                           (ConcatBaselineModel, "checkpoint_ablation.json",
                            "ablation_parameters")):
        model = cls.load(out_dir / name)
        stored = _stored_parameters(out_dir / name)
        if not model.param_count() == stored == info[key]:
            problems.append(f"{name}: {model.param_count()} loaded, {stored} stored, "
                            f"{info[key]} in run_info.json")
    return problems


def _stored_parameters(path):
    with open(path, "r", encoding="utf-8") as fh:
        return sum(math.prod(p["shape"]) for p in json.load(fh)["params"])


def _check_rows(rows, config):
    """metrics.csv holds exactly the rows the grid implies, in order."""
    problems = []
    values = {}
    for method, alpha, seed, metric, value in rows:
        v = float(value)
        values[(method, float(alpha), int(seed), metric)] = v
        if not math.isfinite(v):
            problems.append(f"non-finite {method}/{metric} at alpha {alpha}")
        if metric in FRACTIONS and not 0.0 <= v <= 1.0:
            problems.append(f"{metric} {v} outside [0, 1]")
    expected = []
    for alpha in config["alphas"]:
        for seed in config["seeds"]:
            expected += [("dt", alpha, seed, m) for m in ERRORS]
            expected += [("ablation", alpha, seed, m) for m in ERRORS]
            if values.get(("wls", alpha, seed, "feasible_fraction"), 0.0) > 0.0:
                expected += [("wls", alpha, seed, m) for m in ERRORS]
            expected.append(("wls", alpha, seed, "feasible_fraction"))
    rank_seeds = range(config["wls_failure_seeds"])
    expected += [("wls", alpha, seed, "rank_deficient_fraction")
                 for alpha in config["alphas"] for seed in rank_seeds]
    got = [(m, float(a), int(s), k) for m, a, s, k, _ in rows]
    if got != expected:
        problems.append(f"metrics.csv rows differ from the grid: {len(got)} rows, "
                        f"{len(expected)} expected")
        return problems
    first, last = config["alphas"][0], config["alphas"][-1]
    at_first = [values[("wls", first, s, "rank_deficient_fraction")] for s in rank_seeds]
    at_last = [values[("wls", last, s, "rank_deficient_fraction")] for s in rank_seeds]
    if any(at_first) or not sum(at_last) > sum(at_first):
        problems.append(f"rank_deficient_fraction {at_first} at alpha {first}, "
                        f"{at_last} at alpha {last}")
    return problems


def grid():
    """The grid the config asks for, read without the program's parser."""
    with open(CONFIG, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return {
        "alphas": [float(a) for a in raw["evaluation"]["alphas"]],
        "seeds": [int(s) for s in raw["evaluation"]["seeds"]],
        "wls_failure_seeds": int(raw["evaluation"]["wls_failure_seeds"]),
        "epochs": int(raw["model"]["epochs"]),
    }


def mean_metric(out_dir, method, alpha, metric):
    _, rows = oracle.read_csv(out_dir / "metrics.csv")
    vals = [float(r[4]) for r in rows
            if r[0] == method and float(r[1]) == alpha and r[3] == metric]
    return math.fsum(vals) / len(vals)
