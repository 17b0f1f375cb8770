"""Experiment harness: dataset generation, training, missing-ratio sweeps.

A sweep reproduces the evaluation protocol at desk scale: build a synthetic
time series on a fixture feeder, train the two-branch model once at the
training missing ratio, then evaluate the trained model, the concatenation
baseline, and the classical WLS solver across a grid of evaluation missing
ratios and seeds. Results land in long-format metrics.csv plus summary.csv
and SVG plots. With fixed seeds and --jobs 1 the metrics.csv bytes are
reproducible run to run.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, NoConvergence, RankDeficient
from .feeder import LoadScenario, admittance_matrix, fixture_path, load_fixture
from .metrics import METRIC_NAMES, compute_metrics, states_to_polar, summarize
from .model import (
    ModelConfig,
    predict_series,
    train,
    train_concat_baseline,
)
from .svgplot import write_panels
from .telemetry import build_dataset, default_schema, draw_mask, import_csv
from .wls import WlsProblem, estimate_wls, feasibility_check

CONFIG_FORMAT_VERSION = 1

METHOD_DT = "dt"
METHOD_ABLATION = "ablation"
METHOD_WLS = "wls"


@dataclass
class ExperimentConfig:
    feeder: str = "feeder_8bus"
    steps: int = 500
    train_fraction: float = 0.8
    profile_seed: int = 11
    day_steps: int = 96  # 15-minute sampling: one day
    amplitude: float = 0.5
    jitter: float = 0.1
    noise_seed: int = 23
    power_sigma: float = 0.01
    vmag_sigma: float = 0.001
    vang_sigma: float = 0.001
    train_alpha: float = 0.05
    vmag_buses: tuple = ("b2", "b4", "b6", "b8")
    vang_nodes: tuple = ("b5:a", "b5:b", "b5:c", "b8:a")
    model: dict = field(default_factory=dict)
    alphas: tuple = (0.0, 0.1, 0.2, 0.3, 0.4)
    seeds: tuple = (0, 1, 2, 3, 4)
    wls_failure_seeds: int = 20
    timeseries_node: str = "b5:a"
    output_dir: str = "runs/sweep"

    def validate(self):
        if self.steps < 2:
            raise ConfigError("steps must be at least 2")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if not self.alphas:
            raise ConfigError("evaluation alphas must be nonempty")
        for a in self.alphas:
            if not 0.0 <= a <= 0.95:
                raise ConfigError(f"evaluation alpha {a} outside [0, 0.95]")
        if not self.seeds:
            raise ConfigError("at least one evaluation seed is required")
        if not 0.0 <= self.train_alpha < 1.0:
            raise ConfigError("train_alpha must lie in [0, 1)")
        unknown = set(self.model) - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise ConfigError(f"unknown model keys: {sorted(unknown)}")
        # ModelConfig's own rules; the channel lists stand in for the dataset's.
        try:
            model = ModelConfig(**{"power_channels": (0,), "voltage_channels": (1,),
                                   **self.model})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from None
        if model.window >= self.steps:
            raise ConfigError(f"model window {model.window} must be shorter than steps "
                              f"{self.steps}")
        return self

    def to_dict(self):
        return {
            "format_version": CONFIG_FORMAT_VERSION,
            "feeder": self.feeder,
            "steps": self.steps,
            "train_fraction": self.train_fraction,
            "profile": {
                "seed": self.profile_seed,
                "day_steps": self.day_steps,
                "amplitude": self.amplitude,
                "jitter": self.jitter,
            },
            "noise_seed": self.noise_seed,
            "schema": {
                "power_sigma": self.power_sigma,
                "vmag_sigma": self.vmag_sigma,
                "vang_sigma": self.vang_sigma,
                "train_alpha": self.train_alpha,
                "vmag_buses": list(self.vmag_buses),
                "vang_nodes": list(self.vang_nodes),
            },
            "model": dict(self.model),
            "evaluation": {
                "alphas": list(self.alphas),
                "seeds": list(self.seeds),
                "wls_failure_seeds": self.wls_failure_seeds,
                "timeseries_node": self.timeseries_node,
            },
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw or {})
        version = raw.pop("format_version", CONFIG_FORMAT_VERSION)
        if version != CONFIG_FORMAT_VERSION:
            raise ConfigError(f"unsupported config format_version {version!r}")
        profile = raw.pop("profile", {}) or {}
        schema = raw.pop("schema", {}) or {}
        evaluation = raw.pop("evaluation", {}) or {}
        known = {
            "feeder": raw.pop("feeder", cls.feeder),
            "steps": int(raw.pop("steps", cls.steps)),
            "train_fraction": float(raw.pop("train_fraction", cls.train_fraction)),
            "profile_seed": int(profile.get("seed", cls.profile_seed)),
            "day_steps": int(profile.get("day_steps", cls.day_steps)),
            "amplitude": float(profile.get("amplitude", cls.amplitude)),
            "jitter": float(profile.get("jitter", cls.jitter)),
            "noise_seed": int(raw.pop("noise_seed", cls.noise_seed)),
            "power_sigma": float(schema.get("power_sigma", cls.power_sigma)),
            "vmag_sigma": float(schema.get("vmag_sigma", cls.vmag_sigma)),
            "vang_sigma": float(schema.get("vang_sigma", cls.vang_sigma)),
            "train_alpha": float(schema.get("train_alpha", cls.train_alpha)),
            "vmag_buses": tuple(schema.get("vmag_buses", cls.vmag_buses)),
            "vang_nodes": tuple(schema.get("vang_nodes", cls.vang_nodes)),
            "model": dict(raw.pop("model", {}) or {}),
            "alphas": tuple(float(a) for a in evaluation.get("alphas", cls.alphas)),
            "seeds": tuple(int(s) for s in evaluation.get("seeds", cls.seeds)),
            "wls_failure_seeds": int(evaluation.get("wls_failure_seeds", cls.wls_failure_seeds)),
            "timeseries_node": str(evaluation.get("timeseries_node", cls.timeseries_node)),
            "output_dir": str(raw.pop("output_dir", cls.output_dir)),
        }
        raw.pop("name", None)
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        return cls(**known).validate()

    @classmethod
    def from_yaml(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        return cls.from_dict(raw or {})

    def echo(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)


def resolve_feeder(config):
    """Load the configured fixture; bundled names resolve without a path."""
    candidate = Path(config.feeder)
    if candidate.exists():
        return load_fixture(candidate)
    bundled = Path(fixture_path(config.feeder.removesuffix(".yaml")))
    if bundled.exists():
        return load_fixture(bundled)
    raise ConfigError(f"feeder fixture not found: {config.feeder}")


def make_schema(config, feeder, alpha):
    vmag_buses = [b for b in config.vmag_buses if b in feeder.bus_map]
    vang_nodes = [n for n in config.vang_nodes if tuple(n.split(":")) in feeder.node_index]
    return default_schema(
        feeder,
        power_sigma=config.power_sigma,
        vmag_sigma=config.vmag_sigma,
        vang_sigma=config.vang_sigma,
        alpha=alpha,
        vmag_buses=vmag_buses or None,
        vang_nodes=vang_nodes,
    )


def daily_load_profiles(base, steps, seed, day_steps=96, amplitude=0.35, jitter=0.05):
    """Synthetic load series: daily sinusoid, per-bus scale/phase, step jitter."""
    buses = sorted({bus for (bus, _) in base.s})
    rng = np.random.default_rng((seed, 0))
    scale = {b: rng.uniform(0.85, 1.15) for b in buses}
    offset = {b: rng.uniform(0.0, 2 * np.pi) for b in buses}
    profiles = []
    for t in range(steps):
        eps = {b: rng.standard_normal() for b in buses}
        factors = {
            b: scale[b]
            * (1.0 + amplitude * np.sin(2 * np.pi * t / day_steps + offset[b]))
            * (1.0 + jitter * eps[b])
            for b in buses
        }
        profiles.append(LoadScenario({
            (bus, phase): s * factors[bus] for (bus, phase), s in base.s.items()
        }))
    return profiles


def generate_dataset(config):
    """Dataset for a config: fixture feeder + synthetic daily profiles."""
    feeder, nominal = resolve_feeder(config)
    if not nominal.s:
        raise ConfigError(f"fixture {config.feeder} has no nominal_load section")
    schema = make_schema(config, feeder, alpha=config.train_alpha)
    profiles = daily_load_profiles(
        nominal, config.steps, config.profile_seed,
        day_steps=config.day_steps, amplitude=config.amplitude, jitter=config.jitter,
    )
    dataset = build_dataset(feeder, profiles, schema, seed=config.noise_seed,
                            train_fraction=config.train_fraction)
    return feeder, schema, dataset


def model_config(config, dataset):
    return ModelConfig.for_dataset(dataset, **config.model)


def _alpha_key(alpha):
    return int(round(alpha * 1_000_000))


def eval_mask(dataset, alpha, seed):
    """Evaluation missing-indicator matrix, drawn once per (alpha, seed)."""
    rng = np.random.default_rng((9001, seed, _alpha_key(alpha)))
    return draw_mask(dataset.schema.with_alpha(alpha), rng, steps=dataset.n_steps)


def eval_steps(dataset, window):
    first = max(dataset.split_index, window - 1)
    return list(range(first, dataset.n_steps))


def evaluate_model(model, dataset, alpha, seed):
    """Metrics for a trained model on the evaluation segment at one (alpha, seed)."""
    masks = eval_mask(dataset, alpha, seed)
    steps = eval_steps(dataset, model.config.window)
    x_hat = predict_series(model, dataset, steps, masks)
    if not np.all(np.isfinite(x_hat)):
        raise NoConvergence(f"model produced non-finite estimates at alpha={alpha}")
    return compute_metrics(x_hat, dataset.x[steps]), x_hat, steps


def evaluate_wls(feeder, dataset, alpha, seed, window):
    """Per-step WLS with masked rows dropped; failures counted, not scored."""
    Y = admittance_matrix(feeder)
    masks = eval_mask(dataset, alpha, seed)
    steps = eval_steps(dataset, window)
    estimates, solved_steps = [], []
    rank_deficient = 0
    no_convergence = 0
    for t in steps:
        problem = WlsProblem.from_schema(dataset.schema, Y, dataset.z[t], mask=masks[t])
        try:
            est = estimate_wls(problem)
        except RankDeficient:
            rank_deficient += 1
            continue
        except NoConvergence:
            no_convergence += 1
            continue
        estimates.append(est.x)
        solved_steps.append(t)
    result = {
        "rank_deficient_fraction": rank_deficient / len(steps),
        "feasible_fraction": len(solved_steps) / len(steps),
    }
    metrics = None
    if solved_steps:
        metrics = compute_metrics(np.array(estimates), dataset.x[solved_steps])
    return metrics, result, np.array(estimates), solved_steps


def wls_failure_fraction(feeder, dataset, alpha, seed, window):
    """Fraction of evaluation steps where the masked WLS problem is rank
    deficient at flat start (cheap observability probe)."""
    Y = admittance_matrix(feeder)
    masks = eval_mask(dataset, alpha, seed)
    steps = eval_steps(dataset, window)
    failures = 0
    for t in steps:
        problem = WlsProblem.from_schema(dataset.schema, Y, dataset.z[t], mask=masks[t])
        if not feasibility_check(problem):
            failures += 1
    return failures / len(steps)


def _fmt(value):
    return repr(float(value))


def write_metrics_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "alpha", "seed", "metric", "value"])
        for row in rows:
            writer.writerow([row["method"], _fmt(row["alpha"]), row["seed"],
                             row["metric"], _fmt(row["value"])])


def read_metrics_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append({
                "method": rec["method"],
                "alpha": float(rec["alpha"]),
                "seed": int(rec["seed"]),
                "metric": rec["metric"],
                "value": float(rec["value"]),
            })
    return rows


def write_summary_csv(path, rows):
    summary = summarize(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "alpha", "metric", "min", "mean", "max"])
        for rec in summary:
            writer.writerow([rec["method"], _fmt(rec["alpha"]), rec["metric"],
                             _fmt(rec["min"]), _fmt(rec["mean"]), _fmt(rec["max"])])
    return summary


def write_timeseries_csv(path, steps, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [label for label, _ in columns])
        for i, t in enumerate(steps):
            writer.writerow([t] + [_fmt(values[i]) for _, values in columns])


def read_timeseries_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    steps = [int(r[0]) for r in data]
    columns = [(label, [float(r[i + 1]) for r in data]) for i, label in enumerate(header[1:])]
    return steps, columns


def sweep_svg(path, rows):
    """Error-versus-missing-ratio panels, one polyline per method."""
    summary = summarize(rows)
    panels = []
    for metric in METRIC_NAMES:
        series = {}
        for rec in summary:
            if rec["metric"] != metric:
                continue
            series.setdefault(rec["method"], []).append((rec["alpha"], rec["mean"]))
        panel_series = []
        for method in sorted(series):
            points = sorted(series[method])
            panel_series.append((method, [p[0] for p in points], [p[1] for p in points]))
        if panel_series:
            panels.append((metric, "missing ratio", metric, panel_series))
    if panels:
        write_panels(path, panels)
        return True
    return False


def timeseries_svg(path, node_label, steps, columns):
    series = [(label, list(steps), list(values)) for label, values in columns]
    write_panels(path, [(f"|V| at {node_label}", "step", "p.u.", series)])


def emit_report(rows, out_dir, timeseries=None):
    """Write metrics.csv, summary.csv, and plot SVGs into out_dir.

    Empty row lists produce headers-only CSVs and no SVGs. `timeseries`,
    when given, is (node_label, steps, columns) for the tracking plot.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", rows)
    write_summary_csv(out / "summary.csv", rows)
    written = [out / "metrics.csv", out / "summary.csv"]
    if rows and sweep_svg(out / "sweep.svg", rows):
        written.append(out / "sweep.svg")
    if timeseries is not None:
        node_label, steps, columns = timeseries
        write_timeseries_csv(out / "timeseries.csv", steps, columns)
        timeseries_svg(out / "timeseries.svg", node_label, steps, columns)
        written.extend([out / "timeseries.csv", out / "timeseries.svg"])
    return written


def _node_column(dataset, node_label):
    label = f"re:{node_label}"
    if label not in dataset.state_labels:
        raise ConfigError(f"timeseries node {node_label!r} is not a non-slack phase-node")
    return dataset.state_labels.index(label)


def _magnitudes_at(dataset, x_rows, col):
    mags, _ = states_to_polar(x_rows)
    return mags[:, col]


def run_sweep(config, jobs=1, progress=None):
    """Full protocol: generate, train both models, evaluate the grid, report.

    Evaluation points run through an ordered executor map, so results are
    written (and flushed) in deterministic order as they complete; a partial
    metrics.csv survives an abort.
    """
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config.echo(out / "config_used.yaml")

    log = progress or (lambda msg: None)
    log(f"generating dataset: {config.steps} steps on {config.feeder}")
    feeder, schema, dataset = generate_dataset(config)
    mcfg = model_config(config, dataset)

    log(f"training dt model ({mcfg.epochs} epochs)")
    dt_model, dt_history = train(dataset, mcfg)
    dt_model.save(out / "checkpoint.json")
    write_history_csv(out / "history.csv", dt_history)

    log("training concatenation baseline")
    ab_model, ab_history = train_concat_baseline(dataset, mcfg)
    ab_model.save(out / "checkpoint_ablation.json")
    write_history_csv(out / "history_ablation.csv", ab_history)
    log(f"parameter counts: dt={dt_model.param_count()} ablation={ab_model.param_count()}")
    with open(out / "run_info.json", "w", encoding="utf-8") as fh:
        json.dump({
            "dt_parameters": dt_model.param_count(),
            "ablation_parameters": ab_model.param_count(),
            "channels": dataset.n_channels,
            "states": dataset.n_states,
            "steps": dataset.n_steps,
        }, fh, indent=2)

    tasks = []
    for alpha in config.alphas:
        for seed in config.seeds:
            tasks.append(("point", alpha, seed))
    for alpha in config.alphas:
        for seed in range(config.wls_failure_seeds):
            tasks.append(("wls_rank", alpha, seed))

    # The estimates of the first grid point feed the time-series plot.
    tracked = {}

    def run_task(task):
        kind, alpha, seed = task
        rows = []
        if kind == "point":
            dt_metrics, dt_xhat, steps = evaluate_model(dt_model, dataset, alpha, seed)
            for metric, value in dt_metrics.items():
                rows.append({"method": METHOD_DT, "alpha": alpha, "seed": seed,
                             "metric": metric, "value": value})
            ab_metrics, ab_xhat, _ = evaluate_model(ab_model, dataset, alpha, seed)
            for metric, value in ab_metrics.items():
                rows.append({"method": METHOD_ABLATION, "alpha": alpha, "seed": seed,
                             "metric": metric, "value": value})
            wls_metrics, counts, wls_est, wls_steps = evaluate_wls(feeder, dataset, alpha, seed,
                                                                   mcfg.window)
            if task == tasks[0]:
                tracked.update(steps=steps, dt=dt_xhat, ablation=ab_xhat, wls=wls_est,
                               wls_steps=wls_steps)
            if wls_metrics:
                for metric, value in wls_metrics.items():
                    rows.append({"method": METHOD_WLS, "alpha": alpha, "seed": seed,
                                 "metric": metric, "value": value})
            rows.append({"method": METHOD_WLS, "alpha": alpha, "seed": seed,
                         "metric": "feasible_fraction", "value": counts["feasible_fraction"]})
        else:
            fraction = wls_failure_fraction(feeder, dataset, alpha, seed, mcfg.window)
            rows.append({"method": METHOD_WLS, "alpha": alpha, "seed": seed,
                         "metric": "rank_deficient_fraction", "value": fraction})
        return rows

    all_rows = []
    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "alpha", "seed", "metric", "value"])
        fh.flush()
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = pool.map(run_task, tasks)
                for task, rows in zip(tasks, results):
                    log(f"evaluated {task}")
                    for row in rows:
                        writer.writerow([row["method"], _fmt(row["alpha"]), row["seed"],
                                         row["metric"], _fmt(row["value"])])
                    fh.flush()
                    all_rows.extend(rows)
        else:
            for task in tasks:
                rows = run_task(task)
                log(f"evaluated {task}")
                for row in rows:
                    writer.writerow([row["method"], _fmt(row["alpha"]), row["seed"],
                                     row["metric"], _fmt(row["value"])])
                fh.flush()
                all_rows.extend(rows)

    timeseries = build_timeseries(config, dataset, **tracked)
    emit_report(all_rows, out, timeseries=timeseries)
    return all_rows


def build_timeseries(config, dataset, steps, dt, ablation, wls, wls_steps):
    """Truth-versus-estimate magnitude track at the configured node, from the
    estimates of the first grid point (alphas[0], seeds[0]) over `steps`; the
    WLS track is drawn only when every step solved."""
    col = _node_column(dataset, config.timeseries_node)
    columns = [
        ("truth", _magnitudes_at(dataset, dataset.x[steps], col).tolist()),
        (METHOD_DT, _magnitudes_at(dataset, dt, col).tolist()),
        (METHOD_ABLATION, _magnitudes_at(dataset, ablation, col).tolist()),
    ]
    if len(wls_steps) == len(steps):
        columns.append((METHOD_WLS, _magnitudes_at(dataset, wls, col).tolist()))
    return (config.timeseries_node, steps, columns)


def write_history_csv(path, history):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for rec in history:
            writer.writerow([rec["epoch"], _fmt(rec["train_loss"]), _fmt(rec["val_loss"])])


def load_dataset_for(config, measurements=None, states=None):
    """Dataset from CSVs when provided, else regenerated from the config."""
    if (measurements is None) != (states is None):
        raise ConfigError("measurements and states CSVs must be given together")
    if measurements is not None:
        feeder, _ = resolve_feeder(config)
        schema = make_schema(config, feeder, alpha=config.train_alpha)
        dataset = import_csv(measurements, states, schema,
                             train_fraction=config.train_fraction)
        return feeder, schema, dataset
    return generate_dataset(config)
