import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin import autodiff as ad
from gridtwin.errors import (
    MissingGradient,
    NonFiniteValue,
    NotScalarLoss,
    ShapeMismatch,
)


def weighted_mean(t, weights):
    return ad.mean_all(ad.mul(t, t.tape.constant(weights)))


class TestForward:
    def test_matmul_identity(self):
        tape = ad.Tape()
        a = np.random.default_rng(0).normal(size=(3, 5))
        out = ad.matmul(tape.constant(np.eye(3)), tape.constant(a))
        assert np.array_equal(out.value, a)

    def test_row_softmax_symmetry(self):
        tape = ad.Tape()
        out = ad.row_softmax(tape.constant(np.array([[0.0, 0.0]])))
        assert np.array_equal(out.value, np.array([[0.5, 0.5]]))

    def test_row_softmax_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        xs = [1.0, 2.0, 3.0]
        es = [mpmath.exp(x) for x in xs]
        total = sum(es)
        expected = np.array([float(e / total) for e in es])
        tape = ad.Tape()
        out = ad.row_softmax(tape.constant(np.array([xs])))
        assert np.max(np.abs(out.value[0] - expected)) < 1e-12

    def test_shape_mismatch(self):
        tape = ad.Tape()
        a = tape.constant(np.zeros((2, 3)))
        b = tape.constant(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, b)
        with pytest.raises(ShapeMismatch):
            ad.add(a, b)

    def test_non_finite_trips(self):
        tape = ad.Tape()
        with pytest.raises(NonFiniteValue):
            tape.constant(np.array([1.0, np.inf]))

    def test_generic_dispatch(self):
        tape = ad.Tape()
        out = ad.OPS["relu"](tape.constant(np.array([-1.0, 2.0])))
        assert np.array_equal(out.value, [0.0, 2.0])

    def test_concat_then_complementary_slice_is_identity(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        tape = ad.Tape()
        joined = ad.concat_lastdim(tape.constant(a), tape.constant(b))
        left = ad.slice_lastdim(joined, 0, 3)
        right = ad.slice_lastdim(joined, 3, 5)
        assert np.array_equal(left.value, a)
        assert np.array_equal(right.value, b)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_row_softmax_rows_sum_to_one(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
        tape = ad.Tape()
        out = ad.row_softmax(tape.constant(x)).value
        assert np.all(out > 0) and np.all(out < 1 + 1e-12)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9

    def test_monotone_scalars(self):
        xs = np.linspace(-3, 3, 31)
        tape = ad.Tape()
        sig = ad.sigmoid(tape.constant(xs)).value
        rel = ad.relu(tape.constant(xs)).value
        assert np.all(np.diff(sig) > 0)
        assert np.all(np.diff(rel) >= 0)


class TestBackward:
    def test_mean_square_gradient(self):
        p = ad.Parameter("x", np.array([3.0]))
        tape = ad.Tape()
        loss = ad.mean_all(ad.square(tape.watch(p)))
        tape.backward(loss)
        assert np.array_equal(p.grad, np.array([6.0]))

    def test_watched_parameter_the_loss_does_not_reach_gets_zeros(self):
        p, q = ad.Parameter("p", np.ones(3)), ad.Parameter("q", np.ones(2))
        tape = ad.Tape()
        tp, tq = tape.watch(p), tape.watch(q)
        tape.backward(ad.mean_all(ad.square(tp)))
        assert np.array_equal(p.grad, np.full(3, 2 / 3)) and np.array_equal(q.grad, np.zeros(2))
        tape.backward(ad.mean_all(ad.square(tq)))
        assert np.array_equal(p.grad, np.zeros(3)) and np.array_equal(q.grad, np.ones(2))
        # a fresh tape that watches p but whose loss uses only q
        p.grad = np.full(3, 2 / 3)
        tape = ad.Tape()
        tape.watch(p)
        tape.backward(ad.mean_all(ad.square(tape.watch(q))))
        assert np.array_equal(p.grad, np.zeros(3))
        ad.sgd_step([p, q], lr=0.1)
        assert np.array_equal(p.value, np.ones(3))

    def test_accumulate_keeps_or_zero_fills_an_unreached_gradient(self):
        p, q = ad.Parameter("p", np.ones(3)), ad.Parameter("q", np.ones(2))
        p.grad = np.array([1.0, 2.0, 3.0])
        tape = ad.Tape()
        tape.watch(p)
        tape.backward(ad.mean_all(ad.square(tape.watch(q))), accumulate=True)
        assert np.array_equal(p.grad, [1.0, 2.0, 3.0]) and np.array_equal(q.grad, np.ones(2))
        p.grad = None
        tape.backward(ad.mean_all(ad.square(tape.watch(q))), accumulate=True)
        assert np.array_equal(p.grad, np.zeros(3)) and np.array_equal(q.grad, np.full(2, 2.0))

    def test_not_scalar_loss(self):
        p = ad.Parameter("x", np.ones((2, 2)))
        tape = ad.Tape()
        out = ad.square(tape.watch(p))
        with pytest.raises(NotScalarLoss):
            tape.backward(out)

    def test_parameter_reuse_accumulates(self):
        # y = x * x via two watches of the same parameter
        p = ad.Parameter("x", np.array([2.0]))
        tape = ad.Tape()
        t = tape.watch(p)
        loss = ad.mean_all(ad.mul(t, tape.watch(p)))
        tape.backward(loss)
        assert np.array_equal(p.grad, np.array([4.0]))  # d(x^2)/dx = 2x

    def test_matmul_chain_grad_check(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(4, 3))
        c = rng.normal(size=(3, 2))

        def f(t):
            tape = t.tape
            return ad.mean_all(ad.matmul(ad.matmul(t, tape.constant(b)), tape.constant(c)))

        err = ad.grad_check(f, rng.normal(size=(5, 4)), step=1e-5)
        assert err < 1e-4

    def test_tape_determinism(self):
        def run():
            rng = np.random.default_rng(9)
            p = ad.Parameter("w", rng.normal(size=(3, 3)))
            tape = ad.Tape()
            x = tape.constant(rng.normal(size=(2, 3)))
            loss = ad.mean_all(ad.square(ad.row_softmax(ad.matmul(x, tape.watch(p)))))
            tape.backward(loss)
            return loss.value.copy(), p.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


OP_CASES = {
    "matmul": lambda t: ad.mean_all(ad.matmul(t, t.tape.constant(_CONST["m"]))),
    "add": lambda t: ad.mean_all(ad.add(t, t.tape.constant(_CONST["e"]))),
    "sub": lambda t: ad.mean_all(ad.sub(t, t.tape.constant(_CONST["e"]))),
    "mul": lambda t: ad.mean_all(ad.mul(t, t.tape.constant(_CONST["e"]))),
    "scale": lambda t: ad.mean_all(ad.scale(t, 1.7)),
    "transpose": lambda t: ad.mean_all(ad.matmul(ad.transpose(t), t.tape.constant(_CONST["e"]))),
    "row_softmax": lambda t: ad.mean_all(ad.mul(ad.row_softmax(t), t.tape.constant(_CONST["e"]))),
    "sigmoid": lambda t: ad.mean_all(ad.sigmoid(t)),
    "relu": lambda t: ad.mean_all(ad.relu(t)),
    "square": lambda t: ad.mean_all(ad.square(t)),
    "concat_lastdim": lambda t: ad.mean_all(ad.concat_lastdim(t, ad.square(t))),
    "slice_lastdim": lambda t: ad.mean_all(ad.slice_lastdim(t, 1, 3)),
    "mean_all": lambda t: ad.mean_all(t),
    # the fused ops take a batch axis: x is (2, rows, cols) and (2, rows, 8)
    "linear": lambda t: ad.mean_all(ad.mul(
        ad.linear(t, t.tape.constant(_CONST["m"]), t.tape.constant(_CONST["b"])),
        t.tape.constant(_CONST["e_linear"]))),
    "attention": lambda t: ad.mean_all(ad.mul(
        ad.attention(t, *(t.tape.constant(_CONST[k]) for k in ("wq", "wk", "wv", "wo")),
                     heads=4, groups=2),
        t.tape.constant(_CONST["e_attention"]))),
    # the branch ops: x is (rows, cols) and (2, rows, cols)
    "stack_branches": lambda t: ad.mean_all(ad.mul(
        ad.stack_branches(t, ad.square(t)), t.tape.constant(_CONST["e"]))),
    "merge_branches": lambda t: ad.mean_all(ad.square(ad.merge_branches(t))),
    "cross_gate": lambda t: ad.mean_all(ad.mul(
        ad.cross_gate(t, *(t.tape.constant(_CONST[k]) for k in ("w1", "b1", "w2", "b2"))),
        t.tape.constant(_CONST["e_gate"]))),
}
_CONST = {}
OP_SHAPES = {"linear": lambda rows, cols: (2, rows, cols),
             "attention": lambda rows, cols: (2, rows, 8),
             "merge_branches": lambda rows, cols: (2, rows, cols),
             "cross_gate": lambda rows, cols: (2, rows, cols)}


def _gate_consts(rng, rows, cols):
    """Branch gates of hidden width 5 for a (2, rows, cols) cross_gate input."""
    return {"w1": rng.normal(size=(2, cols, 5)), "b1": rng.normal(size=(2, 5)),
            "w2": rng.normal(size=(2, 5, cols)), "b2": rng.normal(size=(2, cols)),
            "e_gate": rng.normal(size=(2, rows, cols))}


def _draw_consts(rng, rows, cols):
    """Fill _CONST with the constants OP_CASES read, for rows x cols inputs."""
    _CONST.update(m=rng.normal(size=(cols, 3)), e=rng.normal(size=(rows, cols)),
                  b=rng.normal(size=3), e_linear=rng.normal(size=(2, rows, 3)),
                  wq=rng.normal(size=(8, 8)), wk=rng.normal(size=(8, 4)),
                  wv=rng.normal(size=(8, 4)), wo=rng.normal(size=(8, 8)),
                  e_attention=rng.normal(size=(2, rows, 8)), **_gate_consts(rng, rows, cols))


# One tensor passed into several slots of an op: the tape sums the terms.
SHARED_CASES = {
    "add": lambda t: ad.mean_all(ad.square(ad.add(t, t))),
    "sub": lambda t: ad.mean_all(ad.sub(t, t)),
    "mul": lambda t: ad.mean_all(ad.mul(t, t)),
    "matmul": lambda t: ad.mean_all(ad.square(ad.matmul(t, t))),
    "concat_lastdim": lambda t: ad.mean_all(ad.square(ad.concat_lastdim(t, t))),
    "stack_branches": lambda t: ad.mean_all(ad.square(ad.stack_branches(t, t, t))),
}


# Every argument of a fused op, with a batch axis and groups < heads; the
# "_stacked" cases give the weights a branch axis of 2.
FUSED_ARGS = {
    "linear": lambda rng, rows: [rng.normal(size=s) for s in ((2, rows, 5), (5, 3), (3,))],
    "linear_stacked": lambda rng, rows: [rng.normal(size=s) for s in
                                         ((3, 2, rows, 5), (2, 5, 3), (2, 3))],
    "attention": lambda rng, rows: [rng.normal(size=s) for s in
                                    ((2, rows, 8), (8, 8), (8, 4), (8, 4), (8, 8))],
    "attention_stacked": lambda rng, rows: [rng.normal(size=s) for s in
                                            ((3, 2, rows, 8), (2, 8, 8), (2, 8, 4),
                                             (2, 8, 4), (2, 8, 8))],
    "cross_gate": lambda rng, rows: [rng.normal(size=s) for s in
                                     ((3, 2, rows, 4), (2, 4, 6), (2, 6), (2, 6, 4), (2, 4))],
}
FUSED_KWARGS = {"attention": {"heads": 4, "groups": 2},
                "attention_stacked": {"heads": 4, "groups": 2}}


class TestGradCheck:
    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_every_op_20_random_shapes(self, op):
        for trial in range(20):
            rng = np.random.default_rng((101, trial))
            rows, cols = rng.integers(2, 6), rng.integers(3, 7)
            x = rng.normal(size=OP_SHAPES.get(op, lambda r, c: (r, c))(rows, cols))
            # keep relu away from its kink so finite differences stay clean
            if op == "relu":
                x = np.where(np.abs(x) < 0.05, 0.2, x)
            _draw_consts(rng, rows, cols)
            err = ad.grad_check(OP_CASES[op], x, step=1e-5)
            assert err < 1e-4, f"{op} trial {trial}: {err}"

    def test_every_op_has_a_backward_and_a_grad_check(self):
        assert set(ad.OPS) == set(ad._BACKWARD) == set(OP_CASES)

    @pytest.mark.parametrize("case, position", [
        (case, k) for case in FUSED_ARGS
        for k in range(len(FUSED_ARGS[case](np.random.default_rng(0), 1)))])
    def test_fused_op_gradient_of_every_argument(self, case, position):
        op, kwargs = ad.OPS[case.removesuffix("_stacked")], FUSED_KWARGS.get(case, {})
        for trial in range(5):
            rng = np.random.default_rng((202, trial))
            args = FUSED_ARGS[case](rng, int(rng.integers(1, 6)))
            out_shape = op(*map(ad.Tape().constant, args), **kwargs).shape
            weights = rng.normal(size=out_shape)

            def f(t):
                inputs = [t if k == position else t.tape.constant(a) for k, a in enumerate(args)]
                return ad.mean_all(ad.mul(op(*inputs, **kwargs), t.tape.constant(weights)))

            err = ad.grad_check(f, args[position], step=1e-5)
            assert err < 1e-4, f"{case} argument {position} trial {trial}: {err}"

    @pytest.mark.parametrize("op", ["linear", "attention"])
    def test_stacked_weights_give_each_branch_its_unstacked_result(self, op):
        # Forward values and every gradient equal, bit for bit, two unstacked
        # calls on the branch slices, on one window and on a batch.
        kwargs = FUSED_KWARGS.get(op, {})
        for lead in ((), (3,)):
            rng = np.random.default_rng(204)
            x, *ws = FUSED_ARGS[f"{op}_stacked"](rng, 6)
            x = x if lead else x[0]
            e = rng.normal(size=ad.OPS[op](*map(ad.Tape().constant, [x, *ws]), **kwargs).shape)

            def run(x, ws, e):
                params = [ad.Parameter(f"a{k}", a) for k, a in enumerate([x, *ws])]
                tape = ad.Tape()
                out = ad.OPS[op](*map(tape.watch, params), **kwargs)
                tape.backward(ad.mean_all(ad.mul(out, tape.constant(e))))
                return out.value, [p.grad for p in params]

            out, grads = run(x, ws, e)
            # each branch's mean runs over half the entries, so e / 2 gives it
            # the same gradient (the halving and doubling are exact)
            per_branch = [run(x[..., k, :, :], [w[k] for w in ws], e[..., k, :, :] / 2)
                          for k in range(2)]
            assert np.array_equal(out, np.stack([o for o, _ in per_branch], axis=-3))
            assert np.array_equal(grads[0], np.stack([g[0] for _, g in per_branch], axis=-3))
            for j in range(1, len(grads)):
                assert np.array_equal(grads[j], np.stack([g[j] for _, g in per_branch]))

    def test_linear_batch_axis_sums_parameter_gradients(self):
        rng = np.random.default_rng(203)
        x, e = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 2))
        w, b = ad.Parameter("w", rng.normal(size=(5, 2))), ad.Parameter("b", rng.normal(size=2))
        tape = ad.Tape()
        out = ad.linear(tape.constant(x), tape.watch(w), tape.watch(b))
        assert np.array_equal(out.value[1], x[1] @ w.value + b.value)
        tape.backward(ad.mean_all(ad.mul(out, tape.constant(e))))
        g = e / e.size
        assert np.allclose(w.grad, sum(x[i].T @ g[i] for i in range(3)), rtol=1e-13, atol=0)
        assert np.allclose(b.grad, g.sum(axis=(0, 1)), rtol=1e-13, atol=0)

    def test_fused_shape_checks(self):
        tape = ad.Tape()
        x = tape.constant(np.zeros((2, 3, 8)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, tape.constant(np.zeros((7, 2))), tape.constant(np.zeros(2)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, tape.constant(np.zeros((8, 2))), tape.constant(np.zeros(3)))
        w8, w4 = tape.constant(np.zeros((8, 8))), tape.constant(np.zeros((8, 4)))
        with pytest.raises(ShapeMismatch):
            ad.attention(x, w8, w4, w4, w8, heads=3, groups=1)
        with pytest.raises(ShapeMismatch):
            ad.attention(x, w8, w4, w4, w8, heads=4, groups=4)
        # stacked weights need x's axes just before (rows, features) to match
        s8, s4 = tape.constant(np.zeros((3, 8, 8))), tape.constant(np.zeros((3, 8, 4)))
        with pytest.raises(ShapeMismatch):
            ad.attention(x, s8, s4, s4, s8, heads=4, groups=2)
        with pytest.raises(ShapeMismatch):
            ad.linear(x, s8, tape.constant(np.zeros((3, 8))))
        with pytest.raises(ShapeMismatch):
            ad.linear(tape.constant(np.zeros((3, 8))), s8, tape.constant(np.zeros((3, 8))))
        with pytest.raises(ShapeMismatch):
            ad.linear(tape.constant(np.zeros((3, 5, 8))), s8, tape.constant(np.zeros(8)))
        assert ad.linear(tape.constant(np.zeros((4, 3, 5, 8))), s8,
                         tape.constant(np.zeros((3, 8)))).shape == (4, 3, 5, 8)

    def test_branch_op_shape_checks(self):
        tape = ad.Tape()
        a, b = tape.constant(np.zeros((3, 4))), tape.constant(np.zeros((3, 5)))
        with pytest.raises(ShapeMismatch):
            ad.stack_branches(a, b)
        with pytest.raises(ShapeMismatch):
            ad.stack_branches(tape.constant(np.zeros(4)), tape.constant(np.zeros(4)))
        with pytest.raises(ShapeMismatch):
            ad.stack_branches()
        with pytest.raises(ShapeMismatch):
            ad.merge_branches(tape.constant(np.zeros((3, 4))))
        # any branch count merges: three branches of (3, 4) side by side
        three = np.arange(36.0).reshape(3, 3, 4)
        assert np.array_equal(ad.merge_branches(tape.constant(three)).value,
                              np.concatenate(list(three), axis=-1))
        # one branch: stack and merge give the input back
        one = ad.stack_branches(b)
        assert one.shape == (1, 3, 5)
        assert np.array_equal(ad.merge_branches(one).value, b.value)
        stacked = ad.stack_branches(a, tape.constant(np.ones((3, 4))))
        assert stacked.shape == (2, 3, 4)
        merged = ad.merge_branches(stacked)
        assert np.array_equal(merged.value, np.concatenate([np.zeros((3, 4)), np.ones((3, 4))],
                                                           axis=-1))
        gates = [np.zeros(s) for s in ((2, 4, 6), (2, 6), (2, 6, 4), (2, 4))]
        assert ad.cross_gate(stacked, *map(tape.constant, gates)).shape == (2, 3, 4)
        for bad in ((1, 0, 4, 6), (2, 1, 7), (3, 2, 6, 5)):
            wrong = list(gates)
            wrong[bad[0]] = np.zeros(bad[1:])
            with pytest.raises(ShapeMismatch):
                ad.cross_gate(stacked, *map(tape.constant, wrong))
        with pytest.raises(ShapeMismatch):
            ad.cross_gate(tape.constant(np.zeros((3, 3, 4))), *map(tape.constant, gates))

    def test_sigmoid_sum_tight(self):
        rng = np.random.default_rng(4)
        err = ad.grad_check(lambda t: ad.mean_all(ad.sigmoid(t)), rng.normal(size=(4, 4)))
        assert err < 1e-6

    def test_attention_path(self):
        rng = np.random.default_rng(5)
        wk = rng.normal(size=(4, 4))

        def f(t):
            tape = t.tape
            scores = ad.scale(ad.matmul(t, ad.transpose(ad.matmul(t, tape.constant(wk)))),
                              1.0 / math.sqrt(4))
            attn = ad.row_softmax(scores)
            return ad.mean_all(ad.matmul(attn, t))

        assert ad.grad_check(f, rng.normal(size=(3, 4))) < 1e-4

    def test_linear_map_near_exact(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(5, 2))
        err = ad.grad_check(
            lambda t: ad.mean_all(ad.matmul(t, t.tape.constant(w))),
            rng.normal(size=(3, 5)),
        )
        assert err < 1e-10


class TestOpContract:
    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_second_backward_equals_first(self, op):
        # A backward receives the record's own arrays; writing into one would
        # change the record and the second pass.
        rng = np.random.default_rng(103)
        rows, cols = 4, 5
        p = ad.Parameter("x", rng.normal(size=OP_SHAPES.get(op, lambda r, c: (r, c))(rows, cols)))
        _draw_consts(rng, rows, cols)
        tape = ad.Tape()
        loss = OP_CASES[op](tape.watch(p))
        record = [v.copy() for v in tape.values]
        tape.backward(loss)
        first = p.grad.copy()
        tape.backward(loss)
        assert np.array_equal(first, p.grad)
        assert len(tape.values) == len(record)
        assert all(np.array_equal(v, r) for v, r in zip(tape.values, record, strict=True))

    @pytest.mark.parametrize("op", sorted(SHARED_CASES))
    def test_one_tensor_in_several_slots(self, op):
        for trial in range(5):
            rng = np.random.default_rng((102, trial))
            rows = rng.integers(2, 6)
            x = rng.normal(size=(rows, rows))  # square, for matmul(t, t)
            err = ad.grad_check(SHARED_CASES[op], x, step=1e-5)
            assert err < 1e-4, f"{op} trial {trial}: {err}"


class TestTapeLifetime:
    def test_finished_tape_is_freed_without_the_cycle_collector(self):
        p = ad.Parameter("w", np.ones((2, 2)))
        gc.disable()
        try:
            tape = ad.Tape()
            loss = ad.mean_all(ad.square(ad.mul(tape.watch(p), tape.watch(p))))
            tape.backward(loss)
            ref = weakref.ref(tape)
            del tape, loss
            assert ref() is None
        finally:
            gc.enable()


class TestInferenceTape:
    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_every_op_gives_the_recording_tapes_value(self, op):
        rng = np.random.default_rng(301)
        rows, cols = 4, 5
        x = rng.normal(size=OP_SHAPES.get(op, lambda r, c: (r, c))(rows, cols))
        _draw_consts(rng, rows, cols)
        p = ad.Parameter("x", x)
        recorded = OP_CASES[op](ad.Tape().watch(p)).value
        tape = ad.InferenceTape()
        assert np.array_equal(OP_CASES[op](tape.watch(p)).value, recorded)
        assert tape.ops == [] and tape.values == []

    def test_backward_raises_and_nothing_is_recorded(self):
        p = ad.Parameter("w", np.ones((2, 2)))
        tape = ad.InferenceTape()
        loss = ad.mean_all(ad.square(ad.mul(tape.watch(p), tape.constant(np.ones((2, 2))))))
        assert float(loss.value) == 1.0 and loss.idx is None
        with pytest.raises(RuntimeError):
            tape.backward(loss)
        assert p.grad is None
        assert (tape.ops, tape.inputs, tape.values, tape.ctx, tape.params) == ([],) * 5

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_finite_values_whose_sum_overflows_pass_the_check(self):
        for tape in (ad.Tape(), ad.InferenceTape()):
            big = tape.constant(np.array([1e308, 1e308]))
            assert np.array_equal(ad.relu(big).value, [1e308, 1e308])
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(NonFiniteValue):
                    tape.constant(np.array([1.0, bad, 2.0]))
                with pytest.raises(NonFiniteValue):
                    tape.constant(np.array([1e308, 1e308, bad]))
                with pytest.raises(NonFiniteValue):
                    tape.constant(np.array(bad))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_ops_are_still_checked(self):
        tape = ad.InferenceTape()
        with pytest.raises(NonFiniteValue):
            tape.constant(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteValue, match="scale"):
            ad.scale(tape.constant(np.array([1e308])), 10.0)


class TestAdam:
    def test_flat_state_matches_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        shapes = [(3, 4), (4,), (), (2, 2, 3)]
        init = [rng.normal(size=s) for s in shapes]
        params = [ad.Parameter(f"p{i}", v.copy()) for i, v in enumerate(init)]
        adam = ad.AdamState(params)
        assert all(np.shares_memory(p.value, adam.values) for p in params)
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
        values = [v.copy() for v in init]
        m = [np.zeros_like(v) for v in init]
        v2 = [np.zeros_like(v) for v in init]
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            adam.step(lr)
            # the per-parameter reference update
            b1t, b2t = 1.0 - beta1**t, 1.0 - beta2**t
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v2[i] = beta2 * v2[i] + (1 - beta2) * g * g
                values[i] -= lr * (m[i] / b1t) / (np.sqrt(v2[i] / b2t) + eps)
            for p, ref in zip(params, values):
                assert p.grad is None
                assert p.value.shape == ref.shape
                assert np.array_equal(p.value, ref)

    def test_bias_corrections_that_round_to_one_are_skipped_bit_for_bit(self):
        # With these betas 1 - beta**t rounds to 1.0 from t = 9 (beta1) and
        # from t = 27 (beta2); 40 steps cross both.
        beta1, beta2, eps, lr = 0.01, 0.25, 1e-8, 1e-2
        assert 1.0 - beta1**8 < 1.0 == 1.0 - beta1**9
        assert 1.0 - beta2**26 < 1.0 == 1.0 - beta2**27
        rng = np.random.default_rng(9)
        shapes = [(3, 4), (5,)]
        values = [rng.normal(size=s) for s in shapes]
        params = [ad.Parameter(f"p{i}", v.copy()) for i, v in enumerate(values)]
        adam = ad.AdamState(params, beta1=beta1, beta2=beta2, eps=eps)
        m = [np.zeros_like(v) for v in values]
        v2 = [np.zeros_like(v) for v in values]
        for t in range(1, 41):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            adam.step(lr)
            b1t, b2t = 1.0 - beta1**t, 1.0 - beta2**t
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v2[i] = beta2 * v2[i] + (1 - beta2) * g * g
                values[i] -= lr * (m[i] / b1t) / (np.sqrt(v2[i] / b2t) + eps)
            for p, ref in zip(params, values):
                assert np.array_equal(p.value, ref), f"step {t}"

    def test_missing_gradient_changes_nothing(self):
        params = [ad.Parameter("a", np.ones(2)), ad.Parameter("b", np.ones(3))]
        adam = ad.AdamState(params)
        params[0].grad = np.ones(2)
        with pytest.raises(MissingGradient):
            adam.step(0.1)
        assert np.array_equal(adam.values, np.ones(5)) and adam.t == 0

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_parameter_after_a_step_raises(self):
        params = [ad.Parameter("a", np.ones(2)), ad.Parameter("b", np.ones(3))]
        adam = ad.AdamState(params)
        params[0].grad = np.zeros(2)
        params[1].grad = np.array([0.0, np.inf, 0.0])
        with pytest.raises(NonFiniteValue, match="'b'"):
            adam.step(0.1)


class TestSgd:
    def test_arithmetic(self):
        p = ad.Parameter("p", np.array(1.0))
        p.grad = np.array(2.0)
        ad.sgd_step([p], lr=0.5)
        assert p.value == 0.0
        assert p.grad is None

    def test_lr_zero_identity(self):
        p = ad.Parameter("p", np.array([1.0, 2.0]))
        p.grad = np.array([3.0, 4.0])
        ad.sgd_step([p], lr=0.0)
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_missing_gradient(self):
        p = ad.Parameter("p", np.array(1.0))
        with pytest.raises(MissingGradient):
            ad.sgd_step([p], lr=0.1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_parameter_after_a_step_raises(self):
        p = ad.Parameter("p", np.array([1e308, 1.0]))
        p.grad = np.array([-1e308, 0.0])
        with pytest.raises(NonFiniteValue, match="'p'"):
            ad.sgd_step([p], lr=10.0)

    def test_quadratic_geometric_decay(self):
        p = ad.Parameter("x", np.array(1.0))
        for _ in range(100):
            tape = ad.Tape()
            loss = ad.mean_all(ad.square(tape.watch(p)))
            tape.backward(loss)
            ad.sgd_step([p], lr=0.1)
        # contraction factor 0.8 per step: 0.8**100 ~ 2e-10
        assert abs(float(p.value)) < 1e-9
        assert float(p.value) == pytest.approx(0.8**100, rel=1e-9)


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        params = [
            ad.uniform_init("layer.w", (7, 3), 7, rng),
            ad.zeros_init("layer.b", (3,)),
            ad.Parameter("odd", np.array([1e-308, -1.5, math.pi])),
        ]
        path = tmp_path / "params.json"
        ad.save_params(path, params, extra={"kind": "test"})
        arrays, extra = ad.load_params(path)
        assert extra == {"kind": "test"}
        for p in params:
            assert np.array_equal(arrays[p.name], p.value)
            assert arrays[p.name].dtype == np.float64

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_bytes_equal_those_of_json_dump(self, tmp_path, count):
        rng = np.random.default_rng(3)
        params = [ad.Parameter("w", rng.standard_normal((40, 25))),
                  ad.Parameter("tiny", np.array([5e-324, -0.0, 1e308])),
                  ad.Parameter("b", rng.standard_normal(7))][:count]
        extra = {"kind": "test", "shape": [40, 25]}
        path = tmp_path / "params.json"
        ad.save_params(path, params, extra=extra)
        payload = {"format": ad.CHECKPOINT_FORMAT, "format_version": ad.CHECKPOINT_VERSION,
                   "extra": extra,
                   "params": [{"name": p.name, "shape": list(p.value.shape),
                               "values": p.value.ravel().tolist()} for p in params]}
        with open(tmp_path / "reference.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "params": []}')
        with pytest.raises(ValueError):
            ad.load_params(path)
