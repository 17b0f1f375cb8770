"""The four runs: each workload untraced (end-to-end metrics) and traced
(per-layer metrics). Each returns (metrics, notes, attempted, failed,
problems, correct)."""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from gridtwin.bench import ExperimentConfig

import estimate
import layers
import oracle
import protocol
from tracing import Tracer

OUT = Path(__file__).resolve().parent / "out"
COVERAGE_FLOOR = 0.95  # share of a traced sweep that bench stage spans must account for


def _latency(metrics, notes, name, samples_ms):
    """p50 and the tail percentile of a latency series, with its sample count."""
    pct, value, n = oracle.tail_percentile(samples_ms)
    metrics[f"{name}_p50"] = statistics.median(samples_ms)
    metrics[f"{name}_p99"] = value
    notes.append(f"{name}_p99 is p{pct:.2f} of {n} samples")


def protocol_untraced(seed, seconds):
    setup = protocol.setup_times()
    grid = protocol.grid()
    out_dir = OUT / "protocol"
    # Calls are timed in processor time, as in the estimate workload; the
    # sweep itself writes files, so protocol_s stays wall time.
    tr = Tracer(clock=thread_time)
    layers.install_timers(tr)
    walls, problems, attempted, failed, reference = [], [], 0, 0, None
    start = perf_counter()
    try:
        while len(walls) < protocol.MIN_SWEEPS or perf_counter() - start < seconds:
            code, wall = protocol.sweep(out_dir, seed)
            walls.append(wall)
            found = protocol.check(out_dir, code, grid)
            if not found:
                data = (out_dir / "metrics.csv").read_bytes()
                reference = reference or data
                if data != reference:
                    found.append("metrics.csv differs from this run's first sweep")
            attempted += 1
            failed += bool(found)
            problems += found
    finally:
        tr.uninstall()
    metrics, notes = {}, [f"{len(walls)} sweeps of {protocol.CONFIG.name}, model seed {seed}"]
    metrics["setup_s"] = statistics.median(setup)
    metrics["protocol_s"] = statistics.median(walls)
    # A DT estimate is one forward pass over a window, in training and in
    # evaluation. Each rate is calls per second of the calls' own time.
    forward = tr.durations["model.dt.forward_window"]
    metrics["dt_estimates_per_s"] = len(forward) / sum(forward)
    _latency(metrics, notes, "dt_estimate_ms", [1e3 * d for d in forward])
    metrics["wls_estimates_per_s"] = tr.calls["wls.estimate_wls"] / tr.busy["wls.estimate_wls"]
    _latency(metrics, notes, "wls_solve_ms", [1e3 * d for d in tr.durations["wls.solve"]])
    metrics["probes_per_s"] = (tr.calls["wls.feasibility_check"]
                               / tr.busy["wls.feasibility_check"])
    return metrics, notes, attempted, failed, problems, True


def estimate_untraced(seed, seconds):
    config = ExperimentConfig.from_yaml(protocol.CONFIG)
    setup, passes = estimate.run(config, seed, seconds)
    every = lambda attr: [v for p in passes for v in getattr(p, attr)]
    dt, wls_ms, probe = every("dt_ms"), every("wls_ms"), every("probe_ms")
    metrics, notes = {}, [f"{len(passes)} passes of 2,500 snapshots, order seed {seed}"]
    metrics["setup_s"] = statistics.median(setup)
    metrics["protocol_s"] = statistics.median([p.cpu_s for p in passes])
    metrics["dt_estimates_per_s"] = 1e3 * len(dt) / sum(dt)
    _latency(metrics, notes, "dt_estimate_ms", dt)
    metrics["wls_estimates_per_s"] = 1e3 * len(wls_ms) / sum(wls_ms)
    _latency(metrics, notes, "wls_solve_ms", every("solve_ms"))
    metrics["probes_per_s"] = 1e3 * len(probe) / sum(probe)
    correct = _estimate_notes(passes, notes)
    return (metrics, notes, sum(p.attempted for p in passes), sum(p.failed for p in passes),
            every("problems"), correct)


def _estimate_notes(passes, notes):
    outcomes = {k: sum(p.outcomes[k] for p in passes) for k in passes[0].outcomes}
    ratio = estimate.dof_ratio(passes)
    lo, hi = estimate.DOF_RATIO_RANGE
    notes.append(f"wls outcomes {outcomes}; pooled objective/(rows - states) {ratio:.4f}")
    return lo <= ratio <= hi


def _traced_sweep(seed, grid, out_dir):
    """One sweep under the full trace; returns (tracer, wall seconds, problems)."""
    tr = Tracer()
    layers.install(tr)
    try:
        code, wall = tr._wrap(layers.SWEEP_SPAN, protocol.sweep, None)(out_dir, seed)
    finally:
        tr.uninstall()
    tr.dump(OUT / "trace_protocol.json")
    problems = protocol.check(out_dir, code, grid)
    share = layers.coverage(tr)
    if share < COVERAGE_FLOOR:
        problems.append(f"bench stage spans cover only {100 * share:.2f}% of the traced sweep")
    return tr, wall, problems


def protocol_traced(seed, seconds):
    grid = protocol.grid()
    out_dir = OUT / "protocol"
    code, untraced = protocol.sweep(out_dir, seed)
    first = protocol.check(out_dir, code, grid)
    reference = None if first else (out_dir / "metrics.csv").read_bytes()
    tr, traced, second = _traced_sweep(seed, grid, out_dir)
    if not second and reference is not None \
            and (out_dir / "metrics.csv").read_bytes() != reference:
        second.append("metrics.csv of the traced sweep differs from the untraced one")
    metrics = layers.per_layer(tr, out_dir)
    metrics["trace.overhead_s"] = traced - untraced
    notes = [f"bench stage spans cover {100 * layers.coverage(tr):.2f}% of the traced sweep"]
    return metrics, notes, 2, bool(first) + bool(second), first + second, True


def estimate_traced(seed, seconds):
    # The set-up and each of the 25 streams run once untraced and once traced,
    # the order alternating from one to the next, so that the host's slow and
    # fast phases fall alike on both sides of trace.overhead_s.
    config = ExperimentConfig.from_yaml(protocol.CONFIG)
    rng = np.random.default_rng(seed)
    tr = Tracer()
    walls = {False: 0.0, True: 0.0}
    passes = {False: estimate.Pass(), True: estimate.Pass()}
    records = {False: [], True: []}

    def timed(traced, work):
        if traced:
            layers.install(tr)
        try:
            start = perf_counter()
            done = work()
            walls[traced] += perf_counter() - start
        finally:
            tr.uninstall()
        return done

    setups = {traced: timed(traced, lambda: estimate.build(config)) for traced in (False, True)}
    for i, k in enumerate(rng.permutation(len(setups[False].streams))):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            timed(traced, lambda: estimate.replay_stream(setups[traced], k, passes[traced],
                                                         records[traced]))
    for traced in (False, True):
        estimate.check(setups[traced], records[traced], rng, passes[traced])
    passes = list(passes.values())
    tr.dump(OUT / "trace_estimate.json")
    metrics = layers.per_layer(tr)
    # Training, the bench stages and accuracy only exist in a sweep: read
    # them from one traced sweep, so every traced run reports every metric.
    out_dir = OUT / "protocol"
    sweep_tr, _, problems = _traced_sweep(seed, protocol.grid(), out_dir)
    sweep_metrics = layers.per_layer(sweep_tr, out_dir)
    for name, _, _ in layers.PER_LAYER:
        if name.startswith(layers.SWEEP_ONLY):
            metrics[name] = sweep_metrics[name]
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    notes = [f"bench stage spans cover {100 * layers.coverage(sweep_tr):.2f}% "
             "of the traced sweep"]
    correct = _estimate_notes(passes, notes)
    return (metrics, notes, 1 + sum(p.attempted for p in passes),
            bool(problems) + sum(p.failed for p in passes),
            problems + [m for p in passes for m in p.problems], correct)


RUNS = {
    ("protocol", 0): protocol_untraced,
    ("estimate", 0): estimate_untraced,
    ("protocol", 1): protocol_traced,
    ("estimate", 1): estimate_traced,
}
