"""Which gridtwin functions the benchmark wraps, and the metrics read from them."""

from __future__ import annotations

import statistics

from gridtwin import autodiff, bench, feeder, model, telemetry, wls
from gridtwin.errors import NoConvergence, RankDeficient

import protocol

# bench stage metric -> span name; stages nest (build_timeseries evaluates
# again), so a stage is charged only for the time no other stage encloses.
STAGES = {
    "bench.generate_dataset_s": "bench.generate_dataset",
    "bench.train_s": "model.train",
    "bench.train_ablation_s": "model.train_concat_baseline",
    "bench.evaluate_model_s": "bench.evaluate_model",
    "bench.evaluate_wls_s": "bench.evaluate_wls",
    "bench.wls_failure_fraction_s": "bench.wls_failure_fraction",
    "bench.build_timeseries_s": "bench.build_timeseries",
    "bench.emit_report_s": "bench.emit_report",
    "bench.save_s": "model.save",
}
SWEEP_SPAN = "protocol.sweep"

# End-to-end metrics with their unit and better direction, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("protocol_s", "s", "lower"),
    ("dt_estimates_per_s", "1/s", "higher"),
    ("dt_estimate_ms_p50", "ms", "lower"),
    ("dt_estimate_ms_p99", "ms", "lower"),
    ("wls_estimates_per_s", "1/s", "higher"),
    ("wls_solve_ms_p50", "ms", "lower"),
    ("wls_solve_ms_p99", "ms", "lower"),
    ("probes_per_s", "1/s", "higher"),
]

# Per-layer metrics, the same way.
PER_LAYER = [
    ("feeder.solve_power_flow.calls", "count", "lower"),
    ("feeder.solve_power_flow.busy_s", "s", "lower"),
    ("feeder.solve_power_flow.sweeps", "count", "lower"),
    ("feeder.admittance_matrix.calls", "count", "lower"),
    ("feeder.admittance_matrix.busy_s", "s", "lower"),
    ("telemetry.build_dataset.busy_s", "s", "lower"),
    ("telemetry.measure.calls", "count", "lower"),
    ("telemetry.measure_many.calls", "count", "lower"),
    ("telemetry.measure_many.columns", "count", "lower"),
    ("telemetry.measure_many.busy_s", "s", "lower"),
    ("wls.estimate_wls.calls", "count", "lower"),
    ("wls.estimate_wls.busy_s", "s", "lower"),
    ("wls.solved", "count", "higher"),
    ("wls.rank_deficient", "count", "lower"),
    ("wls.no_convergence", "count", "lower"),
    ("wls.solved_ratio", "ratio", "higher"),
    ("wls.iterations", "count", "lower"),
    ("wls.jacobian_fd.calls", "count", "lower"),
    ("wls.jacobian_fd.busy_s", "s", "lower"),
    ("wls.h_eval.calls", "count", "lower"),
    ("wls.h_eval.busy_s", "s", "lower"),
    ("wls.feasibility_check.calls", "count", "lower"),
    ("wls.feasibility_check.busy_s", "s", "lower"),
    ("autodiff.ops", "count", "lower"),
    ("autodiff.ops_per_dt_forward", "count", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.busy_s", "s", "lower"),
    ("autodiff.optimizer.busy_s", "s", "lower"),
    ("model.dt.train_s", "s", "lower"),
    ("model.dt.epoch_s", "s", "lower"),
    ("model.dt.train_windows_per_s", "1/s", "higher"),
    ("model.ablation.train_s", "s", "lower"),
    ("model.ablation.train_windows_per_s", "1/s", "higher"),
    ("model.forward_window.calls", "count", "lower"),
    ("model.forward_window.busy_s", "s", "lower"),
    ("model.gqa_attention.calls", "count", "lower"),
    ("model.gqa_attention.busy_s", "s", "lower"),
    ("model.cross_gate.calls", "count", "lower"),
    ("model.cross_gate.busy_s", "s", "lower"),
    ("model.predict_series.busy_s", "s", "lower"),
    ("model.ablation.estimate_ms_p50", "ms", "lower"),
    *((name, "s", "lower") for name in STAGES),
    ("bench.unaccounted_s", "s", "lower"),
    ("bench.evaluate_model.calls", "count", "lower"),
    ("bench.evaluate_wls.calls", "count", "lower"),
    ("model.dt.mae_mag_a0", "p.u.", "lower"),
    ("model.dt.mae_mag_a40", "p.u.", "lower"),
    ("model.ablation.mae_mag_a0", "p.u.", "lower"),
    ("wls.mae_mag_a0", "p.u.", "lower"),
    ("wls.rank_deficient_fraction_a40", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics only a sweep exercises: training, the bench stages and accuracy.
SWEEP_ONLY = ("autodiff.backward.", "autodiff.optimizer.", "model.dt.", "model.ablation.train",
              "model.ablation.mae", "bench.", "wls.mae_mag_a0",
              "wls.rank_deficient_fraction_a40")


def _sweeps(tr, args, result, error, elapsed):
    if result is not None:
        tr.counts["feeder.solve_power_flow.sweeps"] += result.iterations


def _columns(tr, args, result, error, elapsed):
    tr.counts["telemetry.measure_many.columns"] += args[0].shape[1]


def _wls_outcome(tr, args, result, error, elapsed):
    if error is None:
        tr.counts["wls.solved"] += 1
        tr.counts["wls.iterations"] += result.iterations
    elif isinstance(error, RankDeficient):
        tr.counts["wls.rank_deficient"] += 1
    elif isinstance(error, NoConvergence):
        tr.counts["wls.no_convergence"] += 1
        tr.counts["wls.iterations"] += error.iterations or 0


def _dt_forward_ops(tr, args, result, error, elapsed):
    # forward_window(self, tape, window) records onto a fresh tape.
    tr.counts["dt_forward.calls"] += 1
    tr.counts["dt_forward.ops"] += len(args[1].ops)


def _train_windows(kind):
    def hook(tr, args, result, error, elapsed):
        # train(dataset, config) returns (model, history): one entry per epoch.
        if result is not None:
            dataset, config = args[0], args[1]
            epochs = len(result[1])
            tr.counts[f"{kind}.epochs"] += epochs
            tr.counts[f"{kind}.train_windows"] += epochs * (dataset.split_index - config.window + 1)
    return hook


def install(tr):
    """Wrap the public functions of every module, for the traced run."""
    tr.function(feeder, "solve_power_flow", "feeder.solve_power_flow", _sweeps)
    tr.function(feeder, "admittance_matrix", "feeder.admittance_matrix")
    tr.function(telemetry, "build_dataset", "telemetry.build_dataset")
    tr.function(telemetry, "measure", "telemetry.measure")
    tr.function(telemetry, "measure_many", "telemetry.measure_many", _columns)
    tr.function(wls, "estimate_wls", "wls.estimate_wls", _wls_outcome)
    tr.function(wls, "feasibility_check", "wls.feasibility_check")
    tr.function(wls, "jacobian_fd", "wls.jacobian_fd")
    tr.function(wls, "h_eval", "wls.h_eval")
    tr.count_calls(autodiff.Tape, "_record", "autodiff.ops")
    tr.method(autodiff.Tape, "backward", "autodiff.backward")
    tr.method(autodiff.AdamState, "step", "autodiff.optimizer")
    tr.function(autodiff, "sgd_step", "autodiff.optimizer")
    tr.function(model, "train", "model.train", _train_windows("dt"))
    tr.function(model, "train_concat_baseline", "model.train_concat_baseline",
                _train_windows("ablation"))
    tr.method(model.DtModel, "forward_window", "model.forward_window", _dt_forward_ops)
    tr.method(model.ConcatBaselineModel, "forward_window", "model.forward_window")
    tr.method(model.ConcatBaselineModel, "estimate_voltages", "model.ablation.estimate_voltages")
    tr.function(model, "gqa_attention", "model.gqa_attention")
    tr.function(model, "cross_gate", "model.cross_gate")
    tr.function(model, "predict_series", "model.predict_series")
    tr.method(model.DtModel, "save", "model.save")
    tr.method(model.ConcatBaselineModel, "save", "model.save")
    for name in ("generate_dataset", "evaluate_model", "evaluate_wls", "wls_failure_fraction",
                 "build_timeseries", "emit_report"):
        tr.function(bench, name, f"bench.{name}")


def install_timers(tr):
    """The few wrappers an untraced sweep needs for its end-to-end metrics."""
    tr.method(model.DtModel, "forward_window", "model.dt.forward_window")
    tr.function(wls, "estimate_wls", "wls.estimate_wls", _wls_solve)
    tr.function(wls, "feasibility_check", "wls.feasibility_check")


def _wls_solve(tr, args, result, error, elapsed):
    if error is None:
        tr.durations["wls.solve"].append(elapsed)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, metrics_dir=None):
    """Every per-layer metric that the spans and counts of `tr` give."""
    c, b = tr.calls, tr.busy
    n = tr.counts
    out = {
        "feeder.solve_power_flow.calls": c["feeder.solve_power_flow"],
        "feeder.solve_power_flow.busy_s": b["feeder.solve_power_flow"],
        "feeder.solve_power_flow.sweeps": n["feeder.solve_power_flow.sweeps"],
        "feeder.admittance_matrix.calls": c["feeder.admittance_matrix"],
        "feeder.admittance_matrix.busy_s": b["feeder.admittance_matrix"],
        "telemetry.build_dataset.busy_s": b["telemetry.build_dataset"],
        "telemetry.measure.calls": c["telemetry.measure"],
        "telemetry.measure_many.calls": c["telemetry.measure_many"],
        "telemetry.measure_many.columns": n["telemetry.measure_many.columns"],
        "telemetry.measure_many.busy_s": b["telemetry.measure_many"],
        "wls.estimate_wls.calls": c["wls.estimate_wls"],
        "wls.estimate_wls.busy_s": b["wls.estimate_wls"],
        "wls.solved": n["wls.solved"],
        "wls.rank_deficient": n["wls.rank_deficient"],
        "wls.no_convergence": n["wls.no_convergence"],
        "wls.solved_ratio": _ratio(n["wls.solved"], c["wls.estimate_wls"]),
        "wls.iterations": n["wls.iterations"],
        "wls.jacobian_fd.calls": c["wls.jacobian_fd"],
        "wls.jacobian_fd.busy_s": b["wls.jacobian_fd"],
        "wls.h_eval.calls": c["wls.h_eval"],
        "wls.h_eval.busy_s": b["wls.h_eval"],
        "wls.feasibility_check.calls": c["wls.feasibility_check"],
        "wls.feasibility_check.busy_s": b["wls.feasibility_check"],
        "autodiff.ops": n["autodiff.ops"],
        "autodiff.ops_per_dt_forward": _ratio(n["dt_forward.ops"],
                                              n["dt_forward.calls"]),
        "autodiff.backward.calls": c["autodiff.backward"],
        "autodiff.backward.busy_s": b["autodiff.backward"],
        "autodiff.optimizer.busy_s": b["autodiff.optimizer"],
        "model.dt.train_s": b["model.train"],
        "model.dt.epoch_s": _ratio(b["model.train"], n["dt.epochs"]),
        "model.dt.train_windows_per_s": _ratio(n["dt.train_windows"], b["model.train"]),
        "model.ablation.train_s": b["model.train_concat_baseline"],
        "model.ablation.train_windows_per_s": _ratio(n["ablation.train_windows"],
                                                     b["model.train_concat_baseline"]),
        "model.forward_window.calls": c["model.forward_window"],
        "model.forward_window.busy_s": b["model.forward_window"],
        "model.gqa_attention.calls": c["model.gqa_attention"],
        "model.gqa_attention.busy_s": b["model.gqa_attention"],
        "model.cross_gate.calls": c["model.cross_gate"],
        "model.cross_gate.busy_s": b["model.cross_gate"],
        "model.predict_series.busy_s": b["model.predict_series"],
        "model.ablation.estimate_ms_p50": 1e3 * statistics.median(
            tr.durations["model.ablation.estimate_voltages"] or [0.0]),
        "bench.evaluate_model.calls": c["bench.evaluate_model"],
        "bench.evaluate_wls.calls": c["bench.evaluate_wls"],
    }
    stages = tr.top_level(set(STAGES.values()))
    for metric, span in STAGES.items():
        out[metric] = stages.get(span, 0.0)
    sweep_s = tr.busy[SWEEP_SPAN]
    out["bench.unaccounted_s"] = sweep_s - sum(stages.values())
    if metrics_dir is not None:
        out["model.dt.mae_mag_a0"] = protocol.mean_metric(metrics_dir, "dt", 0.0, "mae_mag")
        out["model.dt.mae_mag_a40"] = protocol.mean_metric(metrics_dir, "dt", 0.4, "mae_mag")
        out["model.ablation.mae_mag_a0"] = protocol.mean_metric(metrics_dir, "ablation", 0.0,
                                                                "mae_mag")
        out["wls.mae_mag_a0"] = protocol.mean_metric(metrics_dir, "wls", 0.0, "mae_mag")
        out["wls.rank_deficient_fraction_a40"] = protocol.mean_metric(
            metrics_dir, "wls", 0.4, "rank_deficient_fraction")
    return out


def coverage(tr):
    """Share of the traced sweep's wall time that bench stage spans account for."""
    stages = tr.top_level(set(STAGES.values()))
    return _ratio(sum(stages.values()), tr.busy[SWEEP_SPAN])
