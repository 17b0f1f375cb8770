"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The end-to-end sweep (criterion 7) executes once through the real
CLI and its artifacts are shared with criterion 8's determinism checks.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridtwin import autodiff as ad
from gridtwin import model as M
from gridtwin.bench import (
    ExperimentConfig,
    eval_steps,
    generate_dataset,
    model_config,
    read_metrics_csv,
    write_summary_csv,
)
from gridtwin.feeder import (
    LoadScenario,
    admittance_matrix,
    fixture_path,
    flat_voltages,
    load_fixture,
    solve_power_flow,
    voltages_to_state,
)
from gridtwin.metrics import compute_metrics
from gridtwin.telemetry import (
    Channel,
    MeasurementSchema,
    build_dataset,
    default_schema,
    draw_mask,
    measure,
)
from gridtwin.wls import WlsProblem, estimate_wls

REPO = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = REPO / "configs" / "sweep_8bus.yaml"


def announce(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gridtwin.cli", *args],
                          capture_output=True, text=True)


# --- criterion 1: autodiff soundness ------------------------------------

def test_criterion_1_autodiff_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    const = {"m": rng.normal(size=(5, 3)), "e": rng.normal(size=(4, 5))}
    op_cases = {
        "matmul": lambda t: ad.mean_all(ad.matmul(t, t.tape.constant(const["m"]))),
        "add": lambda t: ad.mean_all(ad.add(t, t.tape.constant(const["e"]))),
        "sub": lambda t: ad.mean_all(ad.sub(t, t.tape.constant(const["e"]))),
        "mul": lambda t: ad.mean_all(ad.mul(t, t.tape.constant(const["e"]))),
        "scale": lambda t: ad.mean_all(ad.scale(t, -0.7)),
        "transpose": lambda t: ad.mean_all(ad.matmul(ad.transpose(t),
                                                     t.tape.constant(const["e"]))),
        "row_softmax": lambda t: ad.mean_all(ad.mul(ad.row_softmax(t),
                                                    t.tape.constant(const["e"]))),
        "sigmoid": lambda t: ad.mean_all(ad.sigmoid(t)),
        "relu": lambda t: ad.mean_all(ad.relu(t)),
        "square": lambda t: ad.mean_all(ad.square(t)),
        "concat_lastdim": lambda t: ad.mean_all(ad.concat_lastdim(t, ad.square(t))),
        "slice_lastdim": lambda t: ad.mean_all(ad.slice_lastdim(t, 1, 4)),
        "mean_all": lambda t: ad.mean_all(t),
        # the fused ops with a batch axis of 2, and 4 heads in 2 groups
        "linear": lambda t: ad.mean_all(ad.mul(
            ad.linear(t, t.tape.constant(const["m"]), t.tape.constant(const["b"])),
            t.tape.constant(const["e3"]))),
        "attention": lambda t: ad.mean_all(ad.mul(
            ad.attention(t, *(t.tape.constant(const[k]) for k in ("wq", "wk", "wv", "wo")),
                         heads=4, groups=2),
            t.tape.constant(const["e8"]))),
    }
    # The fused ops draw from their own stream, which leaves the draws of
    # the other checks as they were.
    fused = np.random.default_rng(1)
    const.update(b=fused.normal(size=3), e3=fused.normal(size=(2, 4, 3)),
                 wq=fused.normal(size=(8, 8)), wk=fused.normal(size=(8, 4)),
                 wv=fused.normal(size=(8, 4)), wo=fused.normal(size=(8, 8)),
                 e8=fused.normal(size=(2, 4, 8)))
    # The branch ops: stacked inputs (2, 4, 5), gate weights from a third stream.
    op_cases.update({
        "stack_branches": lambda t: ad.mean_all(ad.mul(
            ad.stack_branches(t, ad.square(t)), t.tape.constant(const["e"]))),
        "merge_branches": lambda t: ad.mean_all(ad.square(ad.merge_branches(t))),
        "cross_gate": lambda t: ad.mean_all(ad.mul(
            ad.cross_gate(t, *(t.tape.constant(const[k]) for k in ("w1", "b1", "w2", "b2"))),
            t.tape.constant(const["e25"]))),
    })
    branch = np.random.default_rng(2)
    const.update(w1=branch.normal(size=(2, 5, 6)), b1=branch.normal(size=(2, 6)),
                 w2=branch.normal(size=(2, 6, 5)), b2=branch.normal(size=(2, 5)),
                 e25=branch.normal(size=(2, 4, 5)))
    shapes = {"linear": (2, 4, 5), "attention": (2, 4, 8)}
    branch_shapes = {"merge_branches": (2, 4, 5), "cross_gate": (2, 4, 5)}
    assert set(op_cases) == set(ad.OPS)
    worst_op = 0.0
    for name, f in op_cases.items():
        if name in branch_shapes:
            x = branch.normal(size=branch_shapes[name])
        else:
            x = fused.normal(size=shapes[name]) if name in shapes else rng.normal(size=(4, 5))
        if name == "relu":
            x = np.where(np.abs(x) < 0.05, 0.3, x)
        err = ad.grad_check(f, x, step=1e-5)
        assert err < 1e-4, f"{name}: {err}"
        worst_op = max(worst_op, err)

    # full tiny model (window=2, d=4, blocks=1, heads=2, groups=1),
    # every parameter against central differences
    cfg = M.ModelConfig(d=4, d_ff=8, blocks=1, heads=2, groups=1, window=2,
                        n_states=4, power_channels=(0, 1, 2), voltage_channels=(3, 4),
                        lr=1e-3, epochs=0, seed=11)
    model = M.DtModel(cfg)
    window = M.Window(rng.normal(size=(2, 3)), rng.normal(size=(2, 2)),
                      rng.normal(size=(2, 4)))

    def loss_value():
        tape = ad.Tape()
        return float(M.mse_loss(model.forward_window(tape, window), window.targets).value)

    tape = ad.Tape()
    loss = M.mse_loss(model.forward_window(tape, window), window.targets)
    tape.backward(loss)
    grads = {p.name: p.grad.copy() for p in model.parameters()}
    step = 1e-5
    worst_model = 0.0
    for p in model.parameters():
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_value()
            flat[i] = orig - step
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2 * step)
            adg = grads[p.name].ravel()[i]
            worst_model = max(worst_model, abs(fd - adg) / max(abs(fd), abs(adg), 1e-8))
    assert worst_model < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(1, f"op grad checks <= {worst_op:.2e}, full-model <= {worst_model:.2e}, "
                f"{elapsed:.1f}s")


# --- criterion 2: power flow / measurement consistency -------------------

def test_criterion_2_measurement_consistency():
    worst = 0.0
    for name in ("feeder_2bus", "feeder_8bus"):
        feeder, nominal = load_fixture(fixture_path(name))
        sol = solve_power_flow(feeder, nominal)
        y = admittance_matrix(feeder)
        schema = default_schema(feeder)
        z = measure(sol.v, y, schema)
        for j, ch in enumerate(schema):
            s = nominal.s.get((ch.bus, ch.phase), 0.0)
            if ch.kind == "P_injection":
                worst = max(worst, abs(z[j] - (-s.real if s else 0.0)))
            elif ch.kind == "Q_injection":
                worst = max(worst, abs(z[j] - (-s.imag if s else 0.0)))
        assert worst <= 1e-8
        flat = solve_power_flow(feeder, LoadScenario.zero())
        assert np.array_equal(flat.v, flat_voltages(feeder))
    announce(2, f"noiseless h(x) reproduces injections within {worst:.1e} p.u.; "
                "zero load exactly flat")


# --- criterion 3: WLS exactness ------------------------------------------

def test_criterion_3_wls_exactness():
    feeder, nominal = load_fixture(fixture_path("feeder_8bus"))
    schema = default_schema(feeder, vmag_buses=["b2", "b4", "b6", "b8"],
                            vang_nodes=["b5:a", "b5:b", "b5:c", "b8:a"])
    y = admittance_matrix(feeder)
    sol = solve_power_flow(feeder, nominal, tol=1e-10)
    z = measure(sol.v, y, schema)
    x_true = voltages_to_state(feeder, sol.v)
    base = estimate_wls(WlsProblem.from_schema(schema, y, z))
    err = float(np.max(np.abs(base.x - x_true)))
    assert base.converged and base.iterations <= 20
    assert err < 1e-6
    drift = 0.0
    for c in (0.2, 50.0):
        scaled = estimate_wls(WlsProblem.from_schema(schema, y, z,
                                                     weights=c / schema.sigmas**2))
        drift = max(drift, float(np.max(np.abs(scaled.x - base.x))))
    assert drift < 1e-8
    announce(3, f"flat-start recovery {err:.1e} p.u. in {base.iterations} iterations; "
                f"weight-scale drift {drift:.1e}")


# --- criterion 4: GQA correctness and efficiency --------------------------

def test_criterion_4_gqa():
    rng = np.random.default_rng(41)
    params = M._gqa("acc", 4, 2, 1, rng)
    x = rng.normal(size=(3, 4))
    out = M.gqa_attention(ad.Tape().constant(x), params, heads=2, groups=1)

    def brute(xv, p, heads, groups):
        t_len, d = xv.shape
        dh = d // heads
        q = xv @ p.wq.value
        outs = []
        for h in range(heads):
            g = h // (heads // groups)
            k = xv @ p.wk.value[:, g * dh:(g + 1) * dh]
            v = xv @ p.wv.value[:, g * dh:(g + 1) * dh]
            rows = []
            for t in range(t_len):
                scores = [sum(q[t, h * dh + a] * k[s, a] for a in range(dh)) / math.sqrt(dh)
                          for s in range(t_len)]
                mx = max(scores)
                es = [math.exp(sc - mx) for sc in scores]
                tot = sum(es)
                rows.append([sum(es[s] / tot * v[s, a] for s in range(t_len))
                             for a in range(dh)])
            outs.append(np.array(rows))
        return np.concatenate(outs, axis=1) @ p.wo.value + xv

    oracle_err = float(np.max(np.abs(out.value - brute(x, params, 2, 1))))
    assert oracle_err < 1e-10
    assert params.wk.value.shape == params.wv.value.shape == (4, 1 * 2)

    params8 = M._gqa("acc8", 8, 4, 4, rng)
    x8 = rng.normal(size=(5, 8))
    out_gqa = M.gqa_attention(ad.Tape().constant(x8), params8, 4, 4)
    out_mha = M.mha_attention(ad.Tape().constant(x8), params8, 4)
    assert np.array_equal(out_gqa.value, out_mha.value)

    params2 = M._gqa("g2", 8, 4, 2, rng)
    assert M.gqa_attention(ad.Tape().constant(x8), params2, 4, 2).shape == (5, 8)
    assert params2.wk.value.shape == params2.wv.value.shape == (8, 2 * 2)
    announce(4, f"brute-force match {oracle_err:.1e}; G=H bit-identical to MHA; "
                "K/V projection width = G x d_head")


# --- criterion 5: gating algebra ------------------------------------------

def test_criterion_5_gating():
    rng = np.random.default_rng(51)
    gates = M._stacked("ab", M._gate("a", 4, 8, rng), M._gate("b", 4, 8, rng))
    a1v, a2v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    a = np.stack([a1v, a2v])
    for bias, expect1, expect2 in ((-30.0, a1v, a2v),
                                   (+30.0, a1v + a2v, a1v + a2v)):
        gates.w2.value[:] = 0.0
        gates.b2.value[:] = bias
        h1, h2 = M.cross_gate(ad.Tape().constant(a), gates).value
        assert np.max(np.abs(h1 - expect1)) < 1e-9
        assert np.max(np.abs(h2 - expect2)) < 1e-9

    gates = M._stacked("cd", M._gate("c", 4, 8, rng), M._gate("d", 4, 8, rng))
    h1, h2 = M.cross_gate(ad.Tape().constant(a), gates).value

    def gate_np(xv, k):
        hidden = np.maximum(xv @ gates.w1.value[k] + gates.b1.value[k], 0.0)
        return 1.0 / (1.0 + np.exp(-(hidden @ gates.w2.value[k] + gates.b2.value[k])))

    err = max(
        float(np.max(np.abs(h1 - (gate_np(a2v, 1) * a2v + a1v)))),
        float(np.max(np.abs(h2 - (gate_np(a1v, 0) * a1v + a2v)))),
    )
    assert err < 1e-12
    announce(5, f"closed/open-gate identities within 1e-9; oracle match {err:.1e}")


# --- criterion 6: training viability --------------------------------------

def test_criterion_6_overfit_smoke():
    start = time.monotonic()
    feeder, nominal = load_fixture(fixture_path("feeder_8bus"))
    schema = default_schema(feeder, power_sigma=1e-9, vmag_sigma=1e-9, vang_sigma=1e-9,
                            alpha=0.0, vmag_buses=["b2", "b4", "b6", "b8"],
                            vang_nodes=["b5:a", "b5:b", "b5:c", "b8:a"])
    profiles = [nominal.scaled(1.0 + 0.25 * np.sin(2 * np.pi * t / 12)
                               + 0.05 * np.cos(2 * np.pi * t / 5)) for t in range(21)]
    dataset = build_dataset(feeder, profiles, schema, seed=1)
    cfg = M.ModelConfig.for_dataset(dataset, d=32, d_ff=64, blocks=2, heads=4,
                                    groups=2, window=8, lr=1e-3, epochs=500, seed=0)
    assert len(range(cfg.window - 1, dataset.split_index)) == 10  # exactly 10 windows
    model, history = M.train(dataset, cfg)
    ratio = history[-1]["train_loss"] / history[0]["train_loss"]
    elapsed = time.monotonic() - start
    assert ratio < 0.01
    assert elapsed < 300.0
    announce(6, f"500-epoch overfit: final/initial = {ratio:.4f} in {elapsed:.0f}s")


# --- criteria 7 + 8: end-to-end desk experiment and determinism ------------

@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    start = time.monotonic()
    result = run_cli("sweep", "--config", str(SWEEP_CONFIG), "--out", str(out),
                     "--jobs", "1")
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    return out, elapsed


def test_criterion_7_desk_experiment(sweep_artifacts):
    out, elapsed = sweep_artifacts
    config = ExperimentConfig.from_yaml(SWEEP_CONFIG)
    assert config.steps == 500 and config.train_alpha == 0.05
    assert tuple(config.alphas) == (0.0, 0.1, 0.2, 0.3, 0.4)
    assert len(config.seeds) == 5 and config.wls_failure_seeds == 20

    rows = read_metrics_csv(out / "metrics.csv")

    def mean_of(method, metric, alpha):
        vals = [r["value"] for r in rows
                if r["method"] == method and r["metric"] == metric and r["alpha"] == alpha]
        assert vals, f"no rows for {method}/{metric}@{alpha}"
        return float(np.mean(vals))

    # (a) error trend: mean MAE does not improve with more missing data
    mag0, mag4 = mean_of("dt", "mae_mag", 0.0), mean_of("dt", "mae_mag", 0.4)
    ang0, ang4 = mean_of("dt", "mae_ang", 0.0), mean_of("dt", "mae_ang", 0.4)
    assert mag4 >= mag0
    assert ang4 >= ang0

    # (b) the model answered at every alpha (metrics exist and are finite)
    for alpha in config.alphas:
        for metric in ("mae_mag", "mae_ang", "rmse_pct"):
            assert np.isfinite(mean_of("dt", metric, alpha))
    # ... while WLS failures grow with masking (20-seed study)
    frac0 = [r["value"] for r in rows if r["method"] == "wls"
             and r["metric"] == "rank_deficient_fraction" and r["alpha"] == 0.0]
    frac4 = [r["value"] for r in rows if r["method"] == "wls"
             and r["metric"] == "rank_deficient_fraction" and r["alpha"] == 0.4]
    assert len(frac0) == 20 and len(frac4) == 20
    assert np.mean(frac4) > np.mean(frac0)

    # (c) runtime budget
    assert elapsed < 1800.0

    # (d) at every alpha the model beats the constant predictor of the
    # training split's mean state, on the same evaluation steps
    _, _, dataset = generate_dataset(config)
    steps = eval_steps(dataset, model_config(config, dataset).window)
    train_mean = dataset.x[:dataset.split_index].mean(axis=0)
    constant = compute_metrics(np.tile(train_mean, (len(steps), 1)),
                               dataset.x[steps])["mae_mag"]
    worst = max(mean_of("dt", "mae_mag", alpha) for alpha in config.alphas)
    assert worst < constant
    announce(7, f"dt mae_mag {mag0:.5f}->{mag4:.5f} (constant predictor {constant:.5f}), "
                f"mae_ang {ang0:.5f}->{ang4:.5f}; "
                f"wls rank-deficient {np.mean(frac0):.2f}->{np.mean(frac4):.2f}; "
                f"sweep {elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    config = ExperimentConfig.from_yaml(SWEEP_CONFIG)
    small = config.to_dict()
    small["steps"] = 120
    small["model"].update({"epochs": 3, "d": 16, "d_ff": 32, "blocks": 1,
                           "heads": 2, "groups": 1, "window": 6})
    small["evaluation"].update({"alphas": [0.0, 0.4], "seeds": [0, 1],
                                "wls_failure_seeds": 3})
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(yaml.safe_dump(small))

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        result = run_cli("sweep", "--config", str(cfg_path), "--out", str(out),
                         "--jobs", "1")
        assert result.returncode == 0, result.stderr
    bytes1 = (out1 / "metrics.csv").read_bytes()
    assert bytes1 == (out2 / "metrics.csv").read_bytes()

    # summary statistics recomputable exactly from the raw rows
    rows = read_metrics_csv(out1 / "metrics.csv")
    recomputed = tmp_path / "summary_recomputed.csv"
    write_summary_csv(recomputed, rows)
    assert recomputed.read_bytes() == (out1 / "summary.csv").read_bytes()
    announce(8, f"metrics.csv byte-identical across runs ({len(bytes1)} bytes); "
                "summary recomputed exactly")


# --- criterion 9: masking statistics ---------------------------------------

def test_criterion_9_masking_statistics():
    feeder, _ = load_fixture(fixture_path("feeder_2bus"))
    schema = MeasurementSchema(
        [Channel("V_magnitude", "b2", "a", 0.01, 0.05)] * 350, feeder)
    rng = np.random.default_rng(90)
    draws = draw_mask(schema, rng, steps=2864)
    rate = float(draws.mean())
    assert draws.shape == (2864, 350)
    assert 0.047 <= rate <= 0.053
    announce(9, f"empirical mask rate {rate:.5f} over 350x2864 at alpha=0.05")
