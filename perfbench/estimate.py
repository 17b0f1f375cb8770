"""The `estimate` workload: online state estimation, one snapshot at a time.

One caller in a closed loop replays the protocol's evaluation grid (alphas
0-0.4, evaluation seeds 0-4, the 100 evaluation steps of each: 2,500
snapshots). Per snapshot it makes four calls: predict_series on that step for
the DT model and for the ablation, the flat-start probe feasibility_check,
and a full estimate_wls on the masked snapshot. The models are untrained:
a forward pass costs the same whatever the weights. `--seed` sets the order
in which the 25 (alpha, seed) streams are replayed (time order within each)
and which snapshots the invariance checks perturb.

Everything after the run-length check is timed in processor time of the
calling thread (time.thread_time). The workload does no I/O once set up,
so on an idle host this equals wall time; on a shared one it leaves out
the time the thread waits while other tenants run, which otherwise makes
whole runs slow and their tail latencies several times longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter, thread_time

import numpy as np

# Called through their modules, so that a traced run sees the calls.
from gridtwin import bench, feeder, model, wls
from gridtwin.errors import NoConvergence, RankDeficient

import oracle

ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4)
EVAL_SEEDS = (0, 1, 2, 3, 4)
SETUP_REPEATS = 5
INVARIANCE_SAMPLES = 20  # snapshots per pass whose masked and future inputs are perturbed
GN_STEP_LIMIT = 1e-6  # p.u.: an extra Gauss-Newton step from a WLS state moves no entry more
DOF_RATIO_RANGE = (0.5, 2.0)  # pooled objective / (rows - states) over solved snapshots


@dataclass
class Setup:
    feeder: object
    dataset: object
    dt: object
    ablation: object
    Y: np.ndarray
    streams: list  # (alpha, eval seed, masks, steps)


def build(config):
    """Everything before the first timed call: dataset, models, masks."""
    grid, _, dataset = bench.generate_dataset(config)
    mcfg = bench.model_config(config, dataset)
    dt, ablation = model.DtModel(mcfg), model.ConcatBaselineModel(mcfg)
    steps = bench.eval_steps(dataset, mcfg.window)
    streams = [(alpha, seed, bench.eval_mask(dataset, alpha, seed), steps)
               for alpha in ALPHAS for seed in EVAL_SEEDS]
    return Setup(grid, dataset, dt, ablation, feeder.admittance_matrix(grid), streams)


def timed_setup(config, repeats=SETUP_REPEATS):
    """Set up `repeats` times; returns the last set-up and every duration."""
    durations = []
    for _ in range(repeats):
        start = thread_time()
        setup = build(config)
        durations.append(thread_time() - start)
    return setup, durations


@dataclass
class Pass:
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    dt_ms: list = field(default_factory=list)
    probe_ms: list = field(default_factory=list)
    wls_ms: list = field(default_factory=list)
    solve_ms: list = field(default_factory=list)
    outcomes: dict = field(default_factory=lambda: {"solved": 0, "rank_deficient": 0,
                                                      "no_convergence": 0})
    objective: float = 0.0
    dof: int = 0
    problems: list = field(default_factory=list)


def _call(fn, *args):
    start = thread_time()
    try:
        return fn(*args), None, thread_time() - start
    except Exception as exc:  # every raise is recorded; the two WLS verdicts are outcomes
        return None, exc, thread_time() - start


def _model_ok(x, n_states):
    return x is not None and x.shape == (1, n_states) and bool(np.all(np.isfinite(x)))


def replay(setup, rng):
    """One timed replay of all 2,500 snapshots; returns (Pass, records to check)."""
    result, records = Pass(), []
    start = thread_time()
    for k in rng.permutation(len(setup.streams)):
        replay_stream(setup, k, result, records)
    result.cpu_s = thread_time() - start
    return result, records


def replay_stream(setup, k, result, records):
    """Replay the snapshots of stream k, in time order, into `result` and `records`."""
    ds, Y = setup.dataset, setup.Y
    alpha, seed, masks, steps = setup.streams[k]
    for t in steps:
        x_dt, e_dt, s_dt = _call(model.predict_series, setup.dt, ds, [t], masks)
        x_ab, e_ab, _ = _call(model.predict_series, setup.ablation, ds, [t], masks)
        problem = wls.WlsProblem.from_schema(ds.schema, Y, ds.z[t], mask=masks[t])
        ok, e_probe, s_probe = _call(wls.feasibility_check, problem)
        est, e_wls, s_wls = _call(wls.estimate_wls, problem)
        records.append((alpha, seed, t, masks, problem, x_dt, e_dt, x_ab, e_ab,
                        ok, e_probe, est, e_wls))
        result.dt_ms.append(s_dt * 1e3)
        result.probe_ms.append(s_probe * 1e3)
        result.wls_ms.append(s_wls * 1e3)
        if e_wls is None:
            result.solve_ms.append(s_wls * 1e3)


def check(setup, records, rng, result):
    """Count the operations whose output fails a check into `result`."""
    grid, ds = setup.feeder, setup.dataset
    channels = oracle.Channels.of(ds.schema)
    n_states = ds.n_states
    sampled = set(rng.choice(len(records), size=INVARIANCE_SAMPLES, replace=False).tolist())
    for i, (alpha, seed, t, masks, problem, x_dt, e_dt, x_ab, e_ab,
            ok, e_probe, est, e_wls) in enumerate(records):
        where = f"alpha={alpha} seed={seed} step={t}"
        result.attempted += 4
        dt_ok = e_dt is None and _model_ok(x_dt, n_states)
        if dt_ok and i in sampled:
            dt_ok = _invariant(setup, t, masks, x_dt, rng)
        if not dt_ok:
            result.failed += 1
            result.problems.append(f"dt estimate at {where}: {e_dt or 'failed its check'}")
        if not (e_ab is None and _model_ok(x_ab, n_states)):
            result.failed += 1
            result.problems.append(f"ablation estimate at {where}: {e_ab or 'failed its check'}")
        if e_probe is not None or not isinstance(ok, bool):
            result.failed += 1
            result.problems.append(f"probe at {where}: {e_probe!r}")
        if isinstance(e_wls, RankDeficient):
            result.outcomes["rank_deficient"] += 1
            wls_ok = True
        elif isinstance(e_wls, NoConvergence):
            result.outcomes["no_convergence"] += 1
            wls_ok = ok is not False
        elif e_wls is None:
            result.outcomes["solved"] += 1
            wls_ok = ok is not False and _solution_ok(channels, grid, problem, est,
                                                      n_states, result)
        else:
            wls_ok = False
        if not wls_ok:
            result.failed += 1
            result.problems.append(f"estimate_wls at {where}: probe={ok} outcome={e_wls!r}")


def _solution_ok(channels, grid, problem, est, n_states, result):
    """A returned state is finite and a Gauss-Newton step from it stays put."""
    if not np.all(np.isfinite(est.x)):
        return False
    keep = ~np.asarray(problem.mask, dtype=bool)
    step, objective = oracle.gauss_newton_step(channels.subset(keep), problem.Y, grid,
                                               problem.z[keep], problem.weights[keep], est.x)
    rows = int(keep.sum())
    if rows > n_states:
        result.objective += objective
        result.dof += rows - n_states
    return bool(np.max(np.abs(step)) <= GN_STEP_LIMIT)


def _invariant(setup, t, masks, x_dt, rng):
    """The estimate at t ignores raw values under the mask and everything after t."""
    ds = setup.dataset
    t0 = t - setup.dt.config.window + 1
    z = ds.z.copy()
    hidden = masks[t0:t + 1] | ds.mask[t0:t + 1]
    z[t0:t + 1][hidden] = rng.normal(size=int(hidden.sum()))
    z[t + 1:] = rng.normal(size=z[t + 1:].shape)
    x = ds.x.copy()
    x[t + 1:] = rng.normal(size=x[t + 1:].shape)
    later = masks.copy()
    later[t + 1:] = rng.random(later[t + 1:].shape) < 0.5
    again = model.predict_series(setup.dt, replace(ds, z=z, x=x), [t], later)
    return bool(np.array_equal(again, x_dt))


def run(config, seed, seconds):
    """Whole passes until `seconds` have gone by; returns (setup durations, passes)."""
    rng = np.random.default_rng(seed)
    setup, setup_s = timed_setup(config)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        result, records = replay(setup, rng)
        check(setup, records, rng, result)
        passes.append(result)
    return setup_s, passes


def dof_ratio(passes):
    objective = sum(p.objective for p in passes)
    dof = sum(p.dof for p in passes)
    return objective / dof if dof else float("nan")
