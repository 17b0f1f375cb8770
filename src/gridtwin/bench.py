"""Experiment harness: dataset generation, training, missing-ratio sweeps.

A sweep reproduces the evaluation protocol at desk scale: build a synthetic
time series on a fixture feeder, train the two-branch model once at the
training missing ratio, then evaluate the trained model, the concatenation
baseline, and the classical WLS solver across a grid of evaluation missing
ratios and seeds. Results land in long-format metrics.csv plus summary.csv
and SVG plots.

Configs parse with libyaml's `CSafeLoader` when PyYAML has it (else
`SafeLoader`, to equal objects), and `config_used.yaml` is written with
`safe_dump`. The synthetic load profiles are one `LoadSeries`, drawn as
arrays, and an evaluation mask is drawn against its one alpha without a
per-alpha schema.

`sweep`, `eval` and `wls` all walk their grid through `evaluate_grid`: its
tasks run one after another in grid order, and each task's rows, built by
`metric_rows`, are appended to metrics.csv and flushed as soon as the task
ends, so a partial file survives an abort. With fixed seeds the metrics.csv
bytes are reproducible run to run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, InvalidAlpha, NoConvergence, RankDeficient
from .feeder import YAML_LOADER, LoadSeries, admittance_matrix, fixture_path, load_fixture
from .metrics import METRIC_NAMES, compute_metrics, states_to_polar, summarize
from .model import (
    ModelConfig,
    predict_series,
    train,
    train_concat_baseline,
)
from .svgplot import write_panels
from .telemetry import build_dataset, default_schema, import_csv, train_split
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
        for key in ("power_sigma", "vmag_sigma", "vang_sigma"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"schema.{key} must be positive and finite")
        if self.day_steps < 1:
            raise ConfigError("profile.day_steps must be at least 1")
        for key, values in (("noise_seed", [self.noise_seed]),
                            ("profile.seed", [self.profile_seed]),
                            ("evaluation.seeds", self.seeds),
                            ("evaluation.wls_failure_seeds", [self.wls_failure_seeds])):
            if min(values) < 0:
                raise ConfigError(f"{key} must not be negative")
        unknown = set(self.model) - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise ConfigError(f"unknown model keys: {sorted(unknown)}")
        # ModelConfig's own rules; the channel lists stand in for the dataset's.
        try:
            model = ModelConfig(**{"power_channels": (0,), "voltage_channels": (1,),
                                   **self.model})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from None
        check_window(model.window, self.steps, self.train_fraction)
        return self

    def to_dict(self):
        out = {"format_version": CONFIG_FORMAT_VERSION}
        for section, key, name, parse in CONFIG_LAYOUT:
            value = parse(getattr(self, name))
            target = out.setdefault(section, {}) if section else out
            target[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, raw):
        try:
            raw = dict(raw or {})
            version = raw.pop("format_version", CONFIG_FORMAT_VERSION)
            if version != CONFIG_FORMAT_VERSION:
                raise ConfigError(f"unsupported config format_version {version!r}")
            raw.pop("name", None)
            given = {None: raw}
            for section in CONFIG_SECTIONS:
                given[section] = dict(raw.pop(section, {}) or {})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"unparseable config value: {exc}") from None
        known = {}
        for section, key, name, parse in CONFIG_LAYOUT:
            if key in given[section]:
                try:
                    known[name] = parse(given[section].pop(key))
                except (TypeError, ValueError) as exc:
                    where = f"{section}.{key}" if section else key
                    raise ConfigError(f"unparseable config value for {where}: {exc}") from None
        for section, rest in given.items():
            if rest:
                raise ConfigError(f"unknown {section or 'config'} keys: "
                                  f"{sorted(map(str, rest))}")
        return cls(**known).validate()

    @classmethod
    def from_yaml(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.load(fh, Loader=YAML_LOADER)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        return cls.from_dict(raw or {})

    def echo(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)


def _list_of(item):
    """Parser of a list key: each entry through `item`. A string or a scalar
    is refused rather than read as a sequence of characters or digits."""
    def parse(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(map(item, value))
    return parse


# The config file layout in echo order: (section, or None for the top level,
# key, ExperimentConfig field, parser). from_dict parses each given key, and
# to_dict writes each field through its parser, tuples as lists.
CONFIG_LAYOUT = (
    (None, "feeder", "feeder", str),
    (None, "steps", "steps", int),
    (None, "train_fraction", "train_fraction", float),
    ("profile", "seed", "profile_seed", int),
    ("profile", "day_steps", "day_steps", int),
    ("profile", "amplitude", "amplitude", float),
    ("profile", "jitter", "jitter", float),
    (None, "noise_seed", "noise_seed", int),
    ("schema", "power_sigma", "power_sigma", float),
    ("schema", "vmag_sigma", "vmag_sigma", float),
    ("schema", "vang_sigma", "vang_sigma", float),
    ("schema", "train_alpha", "train_alpha", float),
    ("schema", "vmag_buses", "vmag_buses", _list_of(str)),
    ("schema", "vang_nodes", "vang_nodes", _list_of(str)),
    (None, "model", "model", lambda v: dict(v or {})),
    ("evaluation", "alphas", "alphas", _list_of(float)),
    ("evaluation", "seeds", "seeds", _list_of(int)),
    ("evaluation", "wls_failure_seeds", "wls_failure_seeds", int),
    ("evaluation", "timeseries_node", "timeseries_node", str),
    (None, "output_dir", "output_dir", str),
)
CONFIG_SECTIONS = tuple(dict.fromkeys(section for section, *_ in CONFIG_LAYOUT if section))


def check_window(window, steps, train_fraction):
    """The window rule of a config and of a loaded dataset: more steps than
    the window, a training split at least one window long, and at least one
    evaluation step after it."""
    if window >= steps:
        raise ConfigError(f"model window {window} must be shorter than the {steps} steps")
    split = train_split(train_fraction, steps)
    if split < window:
        raise ConfigError(f"the training split ({split} of {steps} steps at train_fraction "
                          f"{train_fraction}) is shorter than the model window {window}")
    if split >= steps:
        raise ConfigError(f"the training split ({split} of {steps} steps at train_fraction "
                          f"{train_fraction}) leaves no evaluation step")


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
    """The configured metering layout on `feeder`; empty `vmag_buses` meters
    |v| at every non-slack bus. A ConfigError names the configured buses and
    phase-nodes the feeder lacks."""
    unknown = [b for b in config.vmag_buses if b not in feeder.bus_map]
    unknown += [n for n in config.vang_nodes
                if tuple(str(n).split(":")) not in feeder.node_index]
    if unknown:
        raise ConfigError(f"schema names buses or phase-nodes that feeder {config.feeder} "
                          f"lacks: {unknown}")
    return default_schema(
        feeder,
        power_sigma=config.power_sigma,
        vmag_sigma=config.vmag_sigma,
        vang_sigma=config.vang_sigma,
        alpha=alpha,
        vmag_buses=config.vmag_buses or None,
        vang_nodes=config.vang_nodes,
    )


def daily_load_profiles(base, steps, seed, day_steps=96, amplitude=0.35, jitter=0.05):
    """Synthetic load series: daily sinusoid, per-bus scale/phase, step jitter.

    Returns a LoadSeries over the keys of `base`. The draws come in the order
    of a per-step loop: every bus's scale, every bus's phase offset, then
    each step's jitter over the buses, buses sorted by id.
    """
    keys = tuple(base.s)
    buses = sorted({bus for (bus, _) in keys})
    rng = np.random.default_rng((seed, 0))
    scale = rng.uniform(0.85, 1.15, len(buses))
    offset = rng.uniform(0.0, 2 * np.pi, len(buses))
    eps = rng.standard_normal((steps, len(buses)))
    angle = (2 * np.pi * np.arange(steps) / day_steps)[:, None] + offset
    factors = scale * (1.0 + amplitude * np.sin(angle)) * (1.0 + jitter * eps)
    col = [buses.index(bus) for bus, _ in keys]
    return LoadSeries(keys, np.array([base.s[key] for key in keys]) * factors[:, col])


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
    """Evaluation missing-indicator matrix, drawn once per (alpha, seed): the
    draw of draw_mask on dataset.schema.with_alpha(alpha), without building
    that schema."""
    if not 0.0 <= alpha < 1.0:
        raise InvalidAlpha(f"evaluation alpha {alpha} must lie in [0, 1)")
    rng = np.random.default_rng((9001, seed, _alpha_key(alpha)))
    return rng.random((dataset.n_steps, dataset.n_channels)) < alpha


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


def _masked_problems(feeder, dataset, alpha, seed, window):
    """(step, masked WlsProblem) for every evaluation step at one (alpha, seed).
    A cell is missing when the evaluation mask drops it or the dataset has no
    reading there (a blank cell of an imported CSV)."""
    Y = admittance_matrix(feeder)
    masks = eval_mask(dataset, alpha, seed) | dataset.mask
    return [(t, WlsProblem.from_schema(dataset.schema, Y, dataset.z[t], mask=masks[t]))
            for t in eval_steps(dataset, window)]


def evaluate_wls(feeder, dataset, alpha, seed, window):
    """Per-step WLS with masked rows dropped; failures counted, not scored."""
    problems = _masked_problems(feeder, dataset, alpha, seed, window)
    estimates, solved_steps = [], []
    rank_deficient = 0
    for t, problem in problems:
        try:
            est = estimate_wls(problem)
        except RankDeficient:
            rank_deficient += 1
        except NoConvergence:
            pass
        else:
            estimates.append(est.x)
            solved_steps.append(t)
    result = {
        "feasible_fraction": len(solved_steps) / len(problems),
        "rank_deficient_fraction": rank_deficient / len(problems),
    }
    estimates = np.array(estimates)
    metrics = compute_metrics(estimates, dataset.x[solved_steps]) if solved_steps else None
    return metrics, result, estimates, solved_steps


def wls_failure_fraction(feeder, dataset, alpha, seed, window):
    """Fraction of evaluation steps where the masked WLS problem is rank
    deficient at flat start (cheap observability probe)."""
    failed = [not feasibility_check(problem)
              for _, problem in _masked_problems(feeder, dataset, alpha, seed, window)]
    return sum(failed) / len(failed)


def metric_rows(method, alpha, seed, metrics):
    """Long-format metrics.csv rows of one method at one grid point."""
    return [{"method": method, "alpha": alpha, "seed": seed, "metric": metric, "value": value}
            for metric, value in metrics.items()]


def evaluate_grid(path, tasks, log=None):
    """Run (fn, alpha, seed) tasks in order, where fn(alpha, seed) returns
    metric rows, and stream each task's rows to the metrics.csv at `path`,
    flushed after every task. Returns all rows."""
    all_rows = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        fh.flush()
        for fn, alpha, seed in tasks:
            rows = fn(alpha, seed)
            if log is not None:
                log(f"evaluated {fn.__name__} at alpha={alpha:g} seed={seed}")
            writer.writerows(map(_metrics_record, rows))
            fh.flush()
            all_rows.extend(rows)
    return all_rows


def _fmt(value):
    return repr(float(value))


METRICS_HEADER = ["method", "alpha", "seed", "metric", "value"]


def _metrics_record(row):
    return [row["method"], _fmt(row["alpha"]), row["seed"], row["metric"], _fmt(row["value"])]


def _write_csv(path, header, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def write_metrics_csv(path, rows):
    _write_csv(path, METRICS_HEADER, map(_metrics_record, rows))


def _read_csv(path, parse):
    """parse(header, records) of a CSV, blank lines left out; a ConfigError
    when the file does not parse."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *records = list(csv.reader(fh)) or [[]]
    try:
        return parse(header, [r for r in records if r])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable CSV: {exc}") from None


def read_metrics_csv(path):
    def parse(header, records):
        if header != METRICS_HEADER:
            raise ValueError(f"header {header} is not {METRICS_HEADER}")
        return [{"method": method, "alpha": float(alpha), "seed": int(seed),
                 "metric": metric, "value": float(value)}
                for method, alpha, seed, metric, value in records]

    return _read_csv(path, parse)


def write_summary_csv(path, rows):
    summary = summarize(rows)
    _write_csv(path, ["method", "alpha", "metric", "min", "mean", "max"],
               ([rec["method"], _fmt(rec["alpha"]), rec["metric"],
                 _fmt(rec["min"]), _fmt(rec["mean"]), _fmt(rec["max"])] for rec in summary))
    return summary


def write_timeseries_csv(path, steps, columns):
    _write_csv(path, ["step"] + [label for label, _ in columns],
               ([t] + [_fmt(values[i]) for _, values in columns] for i, t in enumerate(steps)))


def read_timeseries_csv(path):
    def parse(header, records):
        steps = [int(r[0]) for r in records]
        return steps, [(label, [float(r[i + 1]) for r in records])
                       for i, label in enumerate(header[1:])]

    return _read_csv(path, parse)


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


def run_sweep(config, progress=None):
    """Full protocol: generate, train both models, evaluate the grid, report.

    The grid is every (alpha, seed) point, scoring the DT model, the
    ablation and WLS, then the rank-deficiency probe over
    `wls_failure_seeds`; it runs serially through `evaluate_grid`, so
    metrics.csv is written in grid order and a partial file survives an abort.
    """
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config.echo(out / "config_used.yaml")

    log = progress or (lambda msg: None)
    log(f"generating dataset: {config.steps} steps on {config.feeder}")
    feeder, schema, dataset = generate_dataset(config)
    _node_column(dataset, config.timeseries_node)  # a bad node exits before training
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

    window = mcfg.window
    # The estimates of the first grid point feed the time-series plot.
    tracked = {}

    def point(alpha, seed):
        dt_metrics, dt_xhat, steps = evaluate_model(dt_model, dataset, alpha, seed)
        ab_metrics, ab_xhat, _ = evaluate_model(ab_model, dataset, alpha, seed)
        wls_metrics, counts, wls_est, wls_steps = evaluate_wls(feeder, dataset, alpha, seed,
                                                               window)
        if not tracked:
            tracked.update(steps=steps, dt=dt_xhat, ablation=ab_xhat, wls=wls_est,
                           wls_steps=wls_steps)
        wls_metrics = {**(wls_metrics or {}), "feasible_fraction": counts["feasible_fraction"]}
        return (metric_rows(METHOD_DT, alpha, seed, dt_metrics)
                + metric_rows(METHOD_ABLATION, alpha, seed, ab_metrics)
                + metric_rows(METHOD_WLS, alpha, seed, wls_metrics))

    def rank_probe(alpha, seed):
        fraction = wls_failure_fraction(feeder, dataset, alpha, seed, window)
        return metric_rows(METHOD_WLS, alpha, seed, {"rank_deficient_fraction": fraction})

    tasks = [(point, alpha, seed) for alpha in config.alphas for seed in config.seeds]
    tasks += [(rank_probe, alpha, seed)
              for alpha in config.alphas for seed in range(config.wls_failure_seeds)]
    all_rows = evaluate_grid(out / "metrics.csv", tasks, log)
    timeseries = build_timeseries(config, dataset, **tracked)
    emit_report(all_rows, out, timeseries=timeseries)
    return all_rows


def build_timeseries(config, dataset, steps, dt, ablation, wls, wls_steps):
    """Truth-versus-estimate magnitude track at the configured node, from the
    estimates of the first grid point (alphas[0], seeds[0]) over `steps`; the
    WLS track is drawn only when every step solved."""
    col = _node_column(dataset, config.timeseries_node)
    tracks = [("truth", dataset.x[steps]), (METHOD_DT, dt), (METHOD_ABLATION, ablation)]
    if len(wls_steps) == len(steps):
        tracks.append((METHOD_WLS, wls))
    columns = [(label, states_to_polar(x)[0][:, col].tolist()) for label, x in tracks]
    return (config.timeseries_node, steps, columns)


def write_history_csv(path, history):
    _write_csv(path, ["epoch", "train_loss", "val_loss"],
               ([rec["epoch"], _fmt(rec["train_loss"]), _fmt(rec["val_loss"])]
                for rec in history))


def load_dataset_for(config, measurements=None, states=None):
    """Dataset from CSVs when provided, else generated; it must fit the window."""
    if (measurements is None) != (states is None):
        raise ConfigError("measurements and states CSVs must be given together")
    if measurements is not None:
        feeder, _ = resolve_feeder(config)
        schema = make_schema(config, feeder, alpha=config.train_alpha)
        dataset = import_csv(measurements, states, schema,
                             train_fraction=config.train_fraction)
    else:
        feeder, schema, dataset = generate_dataset(config)
    check_window(model_config(config, dataset).window, dataset.n_steps, config.train_fraction)
    return feeder, schema, dataset
