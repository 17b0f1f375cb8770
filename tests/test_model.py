import math

import numpy as np
import pytest

from gridtwin import autodiff as ad
from gridtwin import model as M
from gridtwin.errors import NonFiniteLoss
from gridtwin.telemetry import build_dataset


def tiny_config(**overrides):
    base = dict(d=4, d_ff=8, blocks=1, heads=2, groups=1, window=2, n_states=4,
                power_channels=(0, 1, 2), voltage_channels=(3, 4),
                lr=1e-3, epochs=0, seed=3, positional_encoding=False)
    base.update(overrides)
    return M.ModelConfig(**base)


class TestConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            tiny_config(heads=3, groups=2)
        with pytest.raises(ValueError):
            tiny_config(d=6, heads=4)
        with pytest.raises(ValueError):
            tiny_config(window=0)
        with pytest.raises(ValueError):
            tiny_config(power_channels=())


class TestProjectBranch:
    def test_identity_padded_projection(self):
        lin = M.LinearParams(
            w=ad.Parameter("w", np.vstack([np.eye(3), ])),  # 3 -> 3 identity
            b=ad.Parameter("b", np.zeros(3)),
        )
        lin = M.LinearParams(
            w=ad.Parameter("w", np.hstack([np.eye(3), np.zeros((3, 2))])),  # 3 -> 5 padded
            b=ad.Parameter("b", np.zeros(5)),
        )
        z = np.random.default_rng(0).normal(size=(4, 3))
        tape = ad.Tape()
        out = M.project_branch(tape, z, lin, pos=None)
        assert np.array_equal(out.value[:, :3], z)
        assert np.array_equal(out.value[:, 3:], np.zeros((4, 2)))

    def test_all_masked_window_gives_zero_latent(self):
        rng = np.random.default_rng(1)
        lin = M.LinearParams(
            w=ad.Parameter("w", rng.normal(size=(3, 4))),
            b=ad.Parameter("b", np.zeros(4)),
        )
        tape = ad.Tape()
        out = M.project_branch(tape, np.zeros((5, 3)), lin, pos=None)
        assert np.array_equal(out.value, np.zeros((5, 4)))

    def test_matches_triple_loop_matmul_oracle(self):
        rng = np.random.default_rng(2)
        w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        lin = M.LinearParams(w=ad.Parameter("w", w), b=ad.Parameter("b", b))
        z = rng.normal(size=(5, 3))
        tape = ad.Tape()
        out = M.project_branch(tape, z, lin, pos=None)
        expected = np.empty((5, 4))
        for t in range(5):
            for j in range(4):
                acc = 0.0
                for k in range(3):
                    acc += z[t, k] * w[k, j]
                expected[t, j] = acc + b[j]
        assert np.max(np.abs(out.value - expected)) < 1e-12


def brute_force_attention(x, params, heads, groups):
    """Scalar-level attention oracle with residual, mirroring the contract."""
    t_len, d = x.shape
    dh = d // heads
    q = x @ params.wq.value
    outs = []
    for h in range(heads):
        g = h // (heads // groups)
        k = x @ params.wk.value[:, g * dh:(g + 1) * dh]
        v = x @ params.wv.value[:, g * dh:(g + 1) * dh]
        rows = []
        for t in range(t_len):
            scores = [
                sum(q[t, h * dh + a] * k[s, a] for a in range(dh)) / math.sqrt(dh)
                for s in range(t_len)
            ]
            mx = max(scores)
            es = [math.exp(s - mx) for s in scores]
            tot = sum(es)
            weights = [e / tot for e in es]
            rows.append([sum(weights[s] * v[s, a] for s in range(t_len)) for a in range(dh)])
        outs.append(np.array(rows))
    merged = np.concatenate(outs, axis=1)
    return merged @ params.wo.value + x


def primitive_gqa(x, params, heads, groups):
    """Per-head attention from primitive tape ops: the reference for the fused op."""
    d_head = x.shape[1] // heads
    tape = x.tape
    q_full = ad.matmul(x, tape.watch(params.wq))
    wk, wv = tape.watch(params.wk), tape.watch(params.wv)
    keys, values = [], []
    for g in range(groups):
        keys.append(ad.matmul(x, ad.slice_lastdim(wk, g * d_head, (g + 1) * d_head)))
        values.append(ad.matmul(x, ad.slice_lastdim(wv, g * d_head, (g + 1) * d_head)))
    merged = None
    for h in range(heads):
        g = h // (heads // groups)
        q = ad.slice_lastdim(q_full, h * d_head, (h + 1) * d_head)
        scores = ad.scale(ad.matmul(q, ad.transpose(keys[g])), 1.0 / np.sqrt(d_head))
        head = ad.matmul(ad.row_softmax(scores), values[g])
        merged = head if merged is None else ad.concat_lastdim(merged, head)
    return ad.add(ad.matmul(merged, tape.watch(params.wo)), x)


class TestGqa:
    @pytest.mark.parametrize("d, heads, groups", [(8, 4, 2), (8, 4, 1), (8, 4, 4), (32, 4, 2)])
    def test_fused_matches_per_head_primitive_path(self, d, heads, groups):
        for trial in range(10):
            rng = np.random.default_rng((7, d, groups, trial))
            params = M._gqa("p", d, heads, groups, rng)
            x = ad.Parameter("x", rng.normal(size=(int(rng.integers(1, 9)), d)))
            weights = rng.normal(size=x.value.shape)
            results = []
            for attention in (M.gqa_attention, primitive_gqa):
                tape = ad.Tape()
                out = attention(tape.watch(x), params, heads, groups)
                tape.backward(ad.mean_all(ad.mul(out, tape.constant(weights))))
                grads = [p.grad for p in (x, params.wq, params.wk, params.wv, params.wo)]
                results.append((out.value, grads))
            (fused, fused_grads), (ref, ref_grads) = results
            assert np.array_equal(fused, ref)  # same float operations per head
            for g, r in zip(fused_grads, ref_grads):
                assert np.max(np.abs(g - r)) <= 1e-12 * max(np.max(np.abs(r)), 1e-300)

    def test_batch_axis_matches_window_by_window(self):
        rng = np.random.default_rng(12)
        params = M._gqa("p", 8, 4, 2, rng)
        x = rng.normal(size=(5, 3, 8))
        batched = M.gqa_attention(ad.Tape().constant(x), params, 4, 2).value
        for i in range(5):
            single = M.gqa_attention(ad.Tape().constant(x[i]), params, 4, 2).value
            assert np.array_equal(batched[i], single)

    def test_single_step_window(self):
        rng = np.random.default_rng(3)
        params = M._gqa("p", 4, 2, 1, rng)
        x = rng.normal(size=(1, 4))
        tape = ad.Tape()
        out = M.gqa_attention(tape.constant(x), params, heads=2, groups=1)
        # one key: softmax weight 1, so output = value projection + residual
        v = x @ params.wv.value[:, :2]
        merged = np.concatenate([v, v], axis=1)
        expected = merged @ params.wo.value + x
        assert np.max(np.abs(out.value - expected)) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        params = M._gqa("p", 4, 2, 1, rng)
        x = rng.normal(size=(3, 4))
        tape = ad.Tape()
        counters = {}
        out = M.gqa_attention(tape.constant(x), params, heads=2, groups=1, counters=counters)
        oracle = brute_force_attention(x, params, heads=2, groups=1)
        assert np.max(np.abs(out.value - oracle)) < 1e-10
        assert counters["k_projections"] == 1
        assert counters["v_projections"] == 1

    def test_degenerate_grouping_is_standard_mha(self):
        rng = np.random.default_rng(5)
        params = M._gqa("p", 8, 4, 4, rng)
        x = rng.normal(size=(5, 8))
        t1, t2 = ad.Tape(), ad.Tape()
        c_gqa, c_mha = {}, {}
        out_gqa = M.gqa_attention(t1.constant(x), params, heads=4, groups=4, counters=c_gqa)
        out_mha = M.mha_attention(t2.constant(x), params, heads=4, counters=c_mha)
        assert np.array_equal(out_gqa.value, out_mha.value)  # bit-identical
        assert c_gqa["k_projections"] == c_mha["k_projections"] == 4

    def test_kv_projection_count_is_groups_not_heads(self):
        rng = np.random.default_rng(6)
        params = M._gqa("p", 8, 4, 2, rng)
        x = rng.normal(size=(5, 8))
        counters = {}
        M.gqa_attention(ad.Tape().constant(x), params, heads=4, groups=2, counters=counters)
        assert counters["k_projections"] == 2
        assert counters["v_projections"] == 2


class TestCrossGate:
    @pytest.fixture()
    def gates(self):
        rng = np.random.default_rng(7)
        return M._gate("g1", 4, 8, rng), M._gate("g2", 4, 8, rng)

    def test_closed_gate_identity(self, gates):
        g1, g2 = gates
        for g in gates:
            g.w2.value[:] = 0.0
            g.b2.value[:] = -30.0
        rng = np.random.default_rng(8)
        tape = ad.Tape()
        a1 = tape.constant(rng.normal(size=(3, 4)))
        a2 = tape.constant(rng.normal(size=(3, 4)))
        h1, h2 = M.cross_gate(a1, a2, g1, g2)
        assert np.max(np.abs(h1.value - a1.value)) < 1e-9
        assert np.max(np.abs(h2.value - a2.value)) < 1e-9

    def test_open_gate_additive_fusion(self, gates):
        g1, g2 = gates
        for g in gates:
            g.w2.value[:] = 0.0
            g.b2.value[:] = +30.0
        rng = np.random.default_rng(9)
        tape = ad.Tape()
        a1 = tape.constant(rng.normal(size=(3, 4)))
        a2 = tape.constant(rng.normal(size=(3, 4)))
        h1, h2 = M.cross_gate(a1, a2, g1, g2)
        assert np.max(np.abs(h1.value - (a2.value + a1.value))) < 1e-9
        assert np.max(np.abs(h2.value - (a1.value + a2.value))) < 1e-9

    def test_matches_elementwise_oracle(self, gates):
        g1, g2 = gates
        rng = np.random.default_rng(10)
        a1v = rng.normal(size=(3, 4))
        a2v = rng.normal(size=(3, 4))
        tape = ad.Tape()
        h1, h2 = M.cross_gate(tape.constant(a1v), tape.constant(a2v), g1, g2)

        def gate_series(x, gp):
            hidden = np.maximum(x @ gp.w1.value + gp.b1.value, 0.0)
            return 1.0 / (1.0 + np.exp(-(hidden @ gp.w2.value + gp.b2.value)))

        expected1 = np.empty((3, 4))
        expected2 = np.empty((3, 4))
        gate2 = gate_series(a2v, g2)
        gate1 = gate_series(a1v, g1)
        for t in range(3):
            for j in range(4):
                expected1[t, j] = gate2[t, j] * a2v[t, j] + a1v[t, j]
                expected2[t, j] = gate1[t, j] * a1v[t, j] + a2v[t, j]
        assert np.max(np.abs(h1.value - expected1)) < 1e-12
        assert np.max(np.abs(h2.value - expected2)) < 1e-12

    def test_gate_outputs_strictly_inside_unit_interval(self, gates):
        g1, _ = gates
        rng = np.random.default_rng(11)
        tape = ad.Tape()
        out = M.gate_forward(tape.constant(rng.normal(scale=3.0, size=(6, 4))), g1)
        assert np.all(out.value > 0.0)
        assert np.all(out.value < 1.0)


class TestLoss:
    def test_exact_match_zero(self):
        tape = ad.Tape()
        x = np.random.default_rng(12).normal(size=(3, 5))
        loss = M.mse_loss(tape.constant(x), x)
        assert float(loss.value) == 0.0

    def test_unit_offset(self):
        tape = ad.Tape()
        x = np.random.default_rng(13).normal(size=(3, 5))
        loss = M.mse_loss(tape.constant(x + 1.0), x)
        assert float(loss.value) == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(14)
        pred, target = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        tape = ad.Tape()
        loss = M.mse_loss(tape.constant(pred), target)
        acc = 0.0
        for t in range(3):
            for i in range(5):
                acc += (target[t, i] - pred[t, i]) ** 2
        assert float(loss.value) == pytest.approx(acc / 15.0, abs=1e-12)


class TestEstimateVoltages:
    def test_zero_final_layer_gives_constant_output(self):
        cfg = tiny_config()
        model = M.DtModel(cfg)
        model.head2.w.value[:] = 0.0
        model.head2.b.value[:] = np.arange(4.0)
        rng = np.random.default_rng(15)
        w1 = M.Window(rng.normal(size=(2, 3)), rng.normal(size=(2, 2)), np.zeros((2, 4)))
        w2 = M.Window(rng.normal(size=(2, 3)), rng.normal(size=(2, 2)), np.zeros((2, 4)))
        out1 = model.estimate_voltages(w1)
        out2 = model.estimate_voltages(w2)
        assert np.array_equal(out1, out2)
        assert np.allclose(out1, np.arange(4.0), atol=0)

    def test_permutation_equivariance_without_positional_encoding(self):
        cfg = tiny_config(window=4)
        model = M.DtModel(cfg)
        rng = np.random.default_rng(16)
        zp, zv = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        perm = np.array([2, 0, 3, 1])
        base = model.estimate_voltages(M.Window(zp, zv, np.zeros((4, 4))))
        permuted = model.estimate_voltages(M.Window(zp[perm], zv[perm], np.zeros((4, 4))))
        assert np.max(np.abs(permuted - base[perm])) < 1e-12

    def test_golden_regression_pinned(self):
        # frozen output of the oracle-validated components at a pinned seed
        cfg = tiny_config(seed=1234, positional_encoding=True)
        model = M.DtModel(cfg)
        rng = np.random.default_rng(99)
        window = M.Window(rng.normal(size=(2, 3)), rng.normal(size=(2, 2)),
                          np.zeros((2, 4)))
        out = model.estimate_voltages(window)
        golden = np.array([
            [0.16982245601484208, -0.09009442584252271,
             -0.027178577520981722, -0.022060459735646208],
            [0.1271820982843489, -0.155976752401016,
             -0.0870710078170007, -0.14712819182139328],
        ])
        assert np.max(np.abs(out - golden)) < 1e-15


class TestEndToEndGradients:
    def test_all_parameters_match_central_differences(self):
        cfg = tiny_config(window=2)
        model = M.DtModel(cfg)
        rng = np.random.default_rng(17)
        window = M.Window(
            rng.normal(size=(2, 3)), rng.normal(size=(2, 2)), rng.normal(size=(2, 4))
        )

        def loss_value():
            tape = ad.Tape()
            return float(M.mse_loss(model.forward_window(tape, window), window.targets).value)

        tape = ad.Tape()
        loss = M.mse_loss(model.forward_window(tape, window), window.targets)
        tape.backward(loss)
        grads = {p.name: p.grad.copy() for p in model.parameters()}

        step = 1e-5
        worst = 0.0
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
                denom = max(abs(fd), abs(adg), 1e-8)
                worst = max(worst, abs(fd - adg) / denom)
        assert worst < 1e-4


@pytest.fixture(scope="module")
def small_dataset(feeder8, schema8):
    feeder, nominal = feeder8
    profiles = [nominal.scaled(1 + 0.25 * np.sin(2 * np.pi * t / 12)) for t in range(24)]
    return build_dataset(feeder, profiles, schema8, seed=21)


def dataset_config(dataset, **overrides):
    base = dict(d=8, d_ff=16, blocks=1, heads=2, groups=1, window=4, lr=1e-3,
                epochs=3, seed=5)
    base.update(overrides)
    return M.ModelConfig.for_dataset(dataset, **base)


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self, small_dataset):
        cfg = dataset_config(small_dataset, epochs=0)
        model, history = M.train(small_dataset, cfg)
        assert history == []
        assert isinstance(model, M.DtModel)

    def test_same_seed_identical_history(self, small_dataset):
        cfg = dataset_config(small_dataset, epochs=3)
        _, h1 = M.train(small_dataset, cfg)
        _, h2 = M.train(small_dataset, cfg)
        assert h1 == h2  # bitwise: floats compare equal

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_surfaced(self, small_dataset):
        cfg = dataset_config(small_dataset, epochs=30, lr=1e6)
        with pytest.raises(NonFiniteLoss):
            M.train(small_dataset, cfg)

    def test_dataset_shorter_than_window_rejected(self, small_dataset):
        cfg = dataset_config(small_dataset, window=30)
        with pytest.raises(ValueError):
            M.train(small_dataset, cfg)

    def test_checkpoint_round_trip(self, small_dataset, tmp_path):
        cfg = dataset_config(small_dataset, epochs=1)
        model, _ = M.train(small_dataset, cfg)
        path = tmp_path / "model.json"
        model.save(path)
        clone = M.DtModel.load(path)
        for p, q in zip(model.parameters(), clone.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value)
        rng = np.random.default_rng(30)
        window = M.Window(
            rng.normal(size=(cfg.window, len(cfg.power_channels))),
            rng.normal(size=(cfg.window, len(cfg.voltage_channels))),
            np.zeros((cfg.window, cfg.n_states)),
        )
        assert np.array_equal(model.estimate_voltages(window), clone.estimate_voltages(window))

    def test_baseline_trains_and_reports_params(self, small_dataset):
        cfg = dataset_config(small_dataset, epochs=2)
        baseline, history = M.train_concat_baseline(small_dataset, cfg)
        assert len(history) == 2
        assert baseline.param_count() > 0
        dt = M.DtModel(cfg)
        assert dt.param_count() != baseline.param_count()

    @pytest.mark.parametrize("kind", [M.DtModel, M.ConcatBaselineModel])
    def test_batched_predict_series_equals_per_step_calls(self, small_dataset, kind):
        cfg = dataset_config(small_dataset, groups=2, heads=2)
        model = kind(cfg)
        steps = list(range(cfg.window - 1, small_dataset.n_steps))
        masks = np.random.default_rng(31).random(
            (small_dataset.n_steps, small_dataset.n_channels)) < 0.3
        batched = M.predict_series(model, small_dataset, steps, masks)
        assert batched.flags.owndata
        for i, t in enumerate(steps):
            single = M.predict_series(model, small_dataset, [t], masks)
            assert np.array_equal(batched[i], single[0])

    def test_predict_series_needs_a_full_window(self, small_dataset):
        cfg = dataset_config(small_dataset)
        masks = np.zeros((small_dataset.n_steps, small_dataset.n_channels), dtype=bool)
        with pytest.raises(ValueError, match="step 2"):
            M.predict_series(M.DtModel(cfg), small_dataset, [5, 2], masks)

    def test_predict_series_shape_and_finiteness(self, small_dataset):
        cfg = dataset_config(small_dataset, epochs=1)
        model, _ = M.train(small_dataset, cfg)
        steps = list(range(small_dataset.split_index, small_dataset.n_steps))
        masks = np.zeros((small_dataset.n_steps, small_dataset.n_channels), dtype=bool)
        est = M.predict_series(model, small_dataset, steps, masks)
        assert est.shape == (len(steps), small_dataset.n_states)
        assert np.all(np.isfinite(est))
