"""Command-line harness.

Subcommands: gen, train, eval, wls, sweep, report. Every run takes a YAML
config (see configs/), and the common knobs are overridable with flags.
Exit codes: 0 success, 2 config or input-file error, 3 numeric failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    METHOD_ABLATION,
    METHOD_DT,
    METHOD_WLS,
    ExperimentConfig,
    emit_report,
    evaluate_grid,
    evaluate_model,
    evaluate_wls,
    load_dataset_for,
    metric_rows,
    model_config,
    read_metrics_csv,
    read_timeseries_csv,
    run_sweep,
    write_history_csv,
    write_summary_csv,
)
from .errors import (
    ConfigError,
    GridTwinError,
    HeaderMismatch,
    NoConvergence,
    NonFiniteLoss,
    NonFiniteValue,
    RaggedRows,
    RankDeficient,
    UnparseableNumber,
)
from .model import ConcatBaselineModel, DtModel, Estimator, input_layout, train
from .telemetry import export_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config YAML")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--feeder", help="override feeder fixture (path or bundled name)")
    parser.add_argument("--steps", type=int, help="override profile length")
    parser.add_argument("--epochs", type=int, help="override training epochs")
    parser.add_argument("--seed", type=int, help="override model seed")
    parser.add_argument("--train-alpha", type=float, help="override training missing ratio")
    parser.add_argument("--alphas", help="override evaluation alphas, e.g. 0,0.2,0.4")
    parser.add_argument("--seeds", help="override evaluation seeds, e.g. 0,1,2")


def _load_config(args):
    config = ExperimentConfig.from_yaml(args.config)
    if args.out:
        config.output_dir = args.out
    if args.feeder:
        config.feeder = args.feeder
    if args.steps is not None:
        config.steps = args.steps
    if args.epochs is not None:
        config.model["epochs"] = args.epochs
    if args.seed is not None:
        config.model["seed"] = args.seed
    if getattr(args, "train_alpha", None) is not None:
        config.train_alpha = args.train_alpha
    if args.alphas:
        try:
            config.alphas = tuple(float(a) for a in args.alphas.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse --alphas {args.alphas!r}") from None
    if args.seeds:
        try:
            config.seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse --seeds {args.seeds!r}") from None
    return config.validate()


def _out_dir(config):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config.echo(out / "config_used.yaml")
    return out


def cmd_gen(args):
    config = _load_config(args)
    _, _, dataset = load_dataset_for(config)
    out = _out_dir(config)
    export_csv(dataset, out / "measurements.csv", out / "states.csv")
    print(f"wrote {out / 'measurements.csv'} and {out / 'states.csv'} "
          f"({dataset.n_steps} steps, {dataset.n_channels} channels, "
          f"{dataset.n_states} states)")
    return EXIT_OK


def cmd_train(args):
    config = _load_config(args)
    _, _, dataset = load_dataset_for(config, args.measurements, args.states)
    out = _out_dir(config)
    mcfg = model_config(config, dataset)
    model, history = train(dataset, mcfg)
    model.save(out / "checkpoint.json")
    write_history_csv(out / "history.csv", history)
    final = history[-1]["train_loss"] if history else float("nan")
    print(f"trained {mcfg.epochs} epochs ({model.param_count()} parameters), "
          f"final train loss {final:.6g}; checkpoint at {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_eval(args):
    config = _load_config(args)
    _, _, dataset = load_dataset_for(config, args.measurements, args.states)
    # The checkpoint is loaded and checked before anything is written, so an
    # unusable one leaves no output directory behind.
    checkpoint = args.checkpoint or (Path(config.output_dir) / "checkpoint.json")
    if not Path(checkpoint).exists():
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    model = Estimator.load(checkpoint)
    here = input_layout(dataset, model_config(config, dataset))
    if model.layout != here:
        trained = model.layout if isinstance(model.layout, dict) else {}
        raise ConfigError(f"checkpoint {checkpoint} was trained on another channel layout "
                          "than this dataset has: " + "; ".join(
                              f"{k} {trained.get(k)} in the checkpoint, {here[k]} here"
                              for k in here if trained.get(k) != here[k]))
    out = _out_dir(config)
    # Rows are labelled as `sweep` labels the model's kind.
    method = {DtModel.kind: METHOD_DT, ConcatBaselineModel.kind: METHOD_ABLATION}[model.kind]

    def point(alpha, seed):
        metrics, _, _ = evaluate_model(model, dataset, alpha, seed)
        print(f"alpha={alpha:g} seed={seed}: " +
              " ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
        return metric_rows(method, alpha, seed, metrics)

    _evaluate_grid(config, out, point)
    return EXIT_OK


def cmd_wls(args):
    config = _load_config(args)
    feeder, _, dataset = load_dataset_for(config, args.measurements, args.states)
    out = _out_dir(config)
    window = model_config(config, dataset).window

    def point(alpha, seed):
        metrics, counts, _, _ = evaluate_wls(feeder, dataset, alpha, seed, window)
        shown = metrics or {}
        print(f"alpha={alpha:g} seed={seed}: feasible={counts['feasible_fraction']:.2f} " +
              " ".join(f"{k}={v:.6g}" for k, v in shown.items()))
        return metric_rows(METHOD_WLS, alpha, seed, {**shown, **counts})

    _evaluate_grid(config, out, point)
    return EXIT_OK


def _evaluate_grid(config, out, point):
    """metrics.csv and summary.csv of `point` over the configured alphas x seeds."""
    tasks = [(point, alpha, seed) for alpha in config.alphas for seed in config.seeds]
    rows = evaluate_grid(out / "metrics.csv", tasks)
    write_summary_csv(out / "summary.csv", rows)


def cmd_sweep(args):
    config = _load_config(args)
    run_sweep(config, progress=print if args.verbose else None)
    print(f"sweep complete; report in {config.output_dir}")
    return EXIT_OK


def cmd_report(args):
    metrics_path = Path(args.metrics)
    if not metrics_path.exists():
        raise ConfigError(f"metrics file not found: {metrics_path}")
    rows = read_metrics_csv(metrics_path)
    ts_path = metrics_path.parent / "timeseries.csv"
    timeseries = None
    if ts_path.exists():
        timeseries = (args.node or "node", *read_timeseries_csv(ts_path))
    out = Path(args.out or metrics_path.parent)
    emit_report(rows, out, timeseries=timeseries)
    print(f"report written to {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridtwin",
        description="Distribution-grid digital twin: dataset generation, training, "
                    "and missing-data robustness benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset as CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the two-branch model")
    _add_common(p)
    p.add_argument("--measurements", help="import measurements CSV instead of generating")
    p.add_argument("--states", help="import states CSV instead of generating")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over the alpha grid")
    _add_common(p)
    p.add_argument("--checkpoint", help="model checkpoint (default <out>/checkpoint.json)")
    p.add_argument("--measurements", help="import measurements CSV instead of generating")
    p.add_argument("--states", help="import states CSV instead of generating")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wls", help="run the classical WLS baseline over the alpha grid")
    _add_common(p)
    p.add_argument("--measurements", help="import measurements CSV instead of generating")
    p.add_argument("--states", help="import states CSV instead of generating")
    p.set_defaults(func=cmd_wls)

    p = sub.add_parser("sweep", help="full protocol: gen + train + evaluate grid + report")
    _add_common(p)
    # The grid runs serially; --jobs stays for existing scripts and takes only 1.
    p.add_argument("--jobs", type=int, default=1, choices=[1],
                   help="evaluation workers; only 1 (serial) is supported")
    p.add_argument("--verbose", action="store_true", help="print progress")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="rebuild summary and plots from metrics.csv")
    p.add_argument("--metrics", required=True, help="path to metrics.csv")
    p.add_argument("--out", help="output directory (default: alongside metrics.csv)")
    p.add_argument("--node", help="label for the timeseries plot title")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HeaderMismatch, RaggedRows, UnparseableNumber) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, NonFiniteLoss, RankDeficient, NonFiniteValue) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GridTwinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
