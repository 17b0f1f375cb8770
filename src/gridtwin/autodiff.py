"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is float64. A Tape records forward operations in order; backward
walks the record in exact reverse, so gradients are deterministic for a
deterministic op sequence. Parameters are long-lived named arrays injected
into a fresh tape each step via Tape.watch; backward overwrites their .grad
(a second backward on the same tape reproduces the first).

Supported ops: matmul, add, sub, mul, scale, transpose, row_softmax,
sigmoid, relu, concat_lastdim, slice_lastdim, mean_all, square, the branch
ops stack_branches and merge_branches (one or more branches on a branch
axis, (..., k, T, d), and back), and three fused ops with hand-written
backward passes: linear (x @ w + b), attention (a whole grouped-query
attention block with its residual) and cross_gate (the two-branch gated
fusion). Elementwise ops broadcast only over the leading axis ((T, d) op
(d,)); matmul, transpose and row_softmax take 2-D operands. linear and
attention work on the last axes of their input, (..., fan_in) and
(..., T, d). A weight may carry leading axes of its own, (*W, fan_in,
fan_out), which must equal the axes of x just before (rows, features): each
weight slice maps its own slice of x. Every other leading axis of x is a
batch axis, and a weight's gradient is summed over the axes of x it lacks.

Every op output and constant is checked for NaN and infinity
(NonFiniteValue); parameters are checked where they change (sgd_step,
AdamState.step, checkpoint load), not at every watch. A tape refers to its
parameters by record index, so a finished tape is freed by reference
counting alone. A forward pass that needs no gradient runs on an
InferenceTape, which runs the same ops and checks but records nothing.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (
    MissingGradient,
    NonFiniteValue,
    NotScalarLoss,
    ShapeMismatch,
)

CHECKPOINT_FORMAT = "gridtwin-params"
CHECKPOINT_VERSION = 1


class Parameter:
    """Named trainable array with a gradient slot.

    `grad` is None until a backward pass populates it; sgd_step consumes and
    clears it.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.asarray(value, dtype=float)
        self.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tensor:
    """Value of one node of a tape and its record index (None if unrecorded)."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape, idx, value):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(idx={self.idx}, shape={self.shape})"


class Tape:
    """Append-only computation record; inputs always precede outputs."""

    def __init__(self):
        self.ops = []
        self.inputs = []
        self.values = []
        self.ctx = []
        self.params = []
        self._watched = {}

    def _record(self, op, inputs, value, ctx=None, param=None):
        value = _checked(op, value) if param is None else np.asarray(value, dtype=float)
        self.ops.append(op)
        self.inputs.append(inputs)
        self.values.append(value)
        self.ctx.append(ctx)
        self.params.append(param)
        return Tensor(self, len(self.ops) - 1, value)

    def constant(self, value):
        """Leaf with no gradient destination."""
        return self._record("leaf", (), value)

    def watch(self, param):
        """Leaf bound to a Parameter; memoized so reuse accumulates properly.
        Unchecked: parameters are checked where they change."""
        key = id(param)
        if key not in self._watched:
            self._watched[key] = self._record("leaf", (), param.value, param=param).idx
        idx = self._watched[key]
        return Tensor(self, idx, self.values[idx])

    def backward(self, loss):
        """Populate .grad of every watched Parameter with d(loss)/d(param)."""
        if loss.tape is not self:
            raise ValueError("loss belongs to a different tape")
        if loss.value.ndim != 0:
            raise NotScalarLoss(f"loss must be a scalar, got shape {loss.value.shape}")
        grads = [None] * len(self.ops)
        grads[loss.idx] = np.ones(())
        for i in range(loss.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            op = self.ops[i]
            if op == "leaf":
                if self.params[i] is not None:
                    self.params[i].grad = np.array(g, dtype=float)
                continue
            _BACKWARD[op](self, i, g, grads)


class InferenceTape(Tape):
    """Forward-only tape: ops compute and check their values as on a Tape,
    but nothing is recorded (`ops` stays empty) and backward raises."""

    def _record(self, op, inputs, value, ctx=None, param=None):
        return Tensor(self, None, _checked(op, value))

    def watch(self, param):
        return Tensor(self, None, param.value)

    def backward(self, loss):
        raise RuntimeError("an InferenceTape records nothing to differentiate")


def _checked(op, value):
    # A finite sum means every entry is finite; a sum that overflows falls
    # through to the entrywise test.
    value = np.asarray(value, dtype=float)
    if not math.isfinite(np.add.reduce(value, axis=None)) and not np.isfinite(value).all():
        raise NonFiniteValue(f"op {op!r} produced a non-finite value")
    return value


def _accumulate(grads, idx, g):
    grads[idx] = g if grads[idx] is None else grads[idx] + g


def _tape_of(*tensors):
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("tensors live on different tapes")
    return tape


# --- elementwise with leading-axis broadcast ---

def _broadcast_kind(a_shape, b_shape):
    if a_shape == b_shape:
        return "none"
    if len(a_shape) == len(b_shape) + 1 and a_shape[1:] == b_shape:
        return "b"  # b broadcasts over a's leading axis
    if len(b_shape) == len(a_shape) + 1 and b_shape[1:] == a_shape:
        return "a"
    raise ShapeMismatch(f"elementwise shapes {a_shape} and {b_shape} do not align")


def _reduce_broadcast(g, kind, operand):
    if kind == operand:
        return g.sum(axis=0)
    return g


def add(a, b):
    tape = _tape_of(a, b)
    kind = _broadcast_kind(a.shape, b.shape)
    return tape._record("add", (a.idx, b.idx), a.value + b.value, ctx=kind)


def sub(a, b):
    tape = _tape_of(a, b)
    kind = _broadcast_kind(a.shape, b.shape)
    return tape._record("sub", (a.idx, b.idx), a.value - b.value, ctx=kind)


def mul(a, b):
    tape = _tape_of(a, b)
    kind = _broadcast_kind(a.shape, b.shape)
    return tape._record("mul", (a.idx, b.idx), a.value * b.value, ctx=kind)


def _back_add(tape, i, g, grads):
    ia, ib = tape.inputs[i]
    kind = tape.ctx[i]
    _accumulate(grads, ia, _reduce_broadcast(g, kind, "a"))
    _accumulate(grads, ib, _reduce_broadcast(g, kind, "b"))


def _back_sub(tape, i, g, grads):
    ia, ib = tape.inputs[i]
    kind = tape.ctx[i]
    _accumulate(grads, ia, _reduce_broadcast(g, kind, "a"))
    _accumulate(grads, ib, _reduce_broadcast(-g, kind, "b"))


def _back_mul(tape, i, g, grads):
    ia, ib = tape.inputs[i]
    kind = tape.ctx[i]
    _accumulate(grads, ia, _reduce_broadcast(g * tape.values[ib], kind, "a"))
    _accumulate(grads, ib, _reduce_broadcast(g * tape.values[ia], kind, "b"))


def scale(a, c):
    c = float(c)
    return a.tape._record("scale", (a.idx,), a.value * c, ctx=c)


def _back_scale(tape, i, g, grads):
    _accumulate(grads, tape.inputs[i][0], g * tape.ctx[i])


def matmul(a, b):
    tape = _tape_of(a, b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeMismatch("matmul requires 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul inner dims {a.shape} x {b.shape}")
    return tape._record("matmul", (a.idx, b.idx), a.value @ b.value)


def _back_matmul(tape, i, g, grads):
    ia, ib = tape.inputs[i]
    _accumulate(grads, ia, g @ tape.values[ib].T)
    _accumulate(grads, ib, tape.values[ia].T @ g)


def transpose(a):
    if a.value.ndim != 2:
        raise ShapeMismatch("transpose requires a 2-D operand")
    return a.tape._record("transpose", (a.idx,), a.value.T)


def _back_transpose(tape, i, g, grads):
    _accumulate(grads, tape.inputs[i][0], g.T)


def row_softmax(a):
    """Numerically stable softmax along the last axis of a 2-D tensor."""
    if a.value.ndim != 2:
        raise ShapeMismatch("row_softmax requires a 2-D operand")
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return a.tape._record("row_softmax", (a.idx,), out)


def _back_row_softmax(tape, i, g, grads):
    y = tape.values[i]
    dot = (g * y).sum(axis=1, keepdims=True)
    _accumulate(grads, tape.inputs[i][0], y * (g - dot))


def sigmoid(a):
    out = np.exp(-np.logaddexp(0.0, -a.value))  # stable 1/(1+exp(-x))
    return a.tape._record("sigmoid", (a.idx,), out)


def _back_sigmoid(tape, i, g, grads):
    y = tape.values[i]
    _accumulate(grads, tape.inputs[i][0], g * y * (1.0 - y))


def relu(a):
    return a.tape._record("relu", (a.idx,), np.maximum(a.value, 0.0))


def _back_relu(tape, i, g, grads):
    x = tape.values[tape.inputs[i][0]]
    _accumulate(grads, tape.inputs[i][0], g * (x > 0))


def square(a):
    return a.tape._record("square", (a.idx,), a.value * a.value)


def _back_square(tape, i, g, grads):
    x = tape.values[tape.inputs[i][0]]
    _accumulate(grads, tape.inputs[i][0], g * 2.0 * x)


def concat_lastdim(a, b):
    tape = _tape_of(a, b)
    if a.value.ndim != b.value.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatch(f"concat_lastdim shapes {a.shape} and {b.shape}")
    return tape._record(
        "concat_lastdim",
        (a.idx, b.idx),
        np.concatenate([a.value, b.value], axis=-1),
        ctx=a.shape[-1],
    )


def _back_concat(tape, i, g, grads):
    ia, ib = tape.inputs[i]
    split = tape.ctx[i]
    _accumulate(grads, ia, g[..., :split])
    _accumulate(grads, ib, g[..., split:])


def slice_lastdim(a, start, stop):
    if not (0 <= start < stop <= a.shape[-1]):
        raise ShapeMismatch(f"slice [{start}:{stop}] outside last dim {a.shape[-1]}")
    return a.tape._record("slice_lastdim", (a.idx,), a.value[..., start:stop], ctx=(start, stop))


def _back_slice(tape, i, g, grads):
    start, stop = tape.ctx[i]
    full = np.zeros_like(tape.values[tape.inputs[i][0]])
    full[..., start:stop] = g
    _accumulate(grads, tape.inputs[i][0], full)


def mean_all(a):
    return a.tape._record("mean_all", (a.idx,), np.asarray(a.value.mean()), ctx=a.value.size)


def _back_mean_all(tape, i, g, grads):
    src = tape.inputs[i][0]
    _accumulate(grads, src, np.full_like(tape.values[src], float(g) / tape.ctx[i]))


# --- branch axis: k branch tensors side by side, (..., k, T, d) ---

def stack_branches(*xs):
    """One or more (..., T, d) tensors of one shape stacked on a branch axis:
    (..., k, T, d)."""
    if not xs or xs[0].value.ndim < 2 or any(x.shape != xs[0].shape for x in xs):
        raise ShapeMismatch(f"stack_branches shapes {[x.shape for x in xs]}")
    value = np.concatenate([x.value[..., None, :, :] for x in xs], axis=-3)
    return _tape_of(*xs)._record("stack_branches", tuple(x.idx for x in xs), value)


def _back_stack_branches(tape, i, g, grads):
    for b, ix in enumerate(tape.inputs[i]):
        _accumulate(grads, ix, g[..., b, :, :])


def merge_branches(a):
    """(..., k, T, d) -> (..., T, k*d): the branch slices side by side on the
    last axis, as concat_lastdim of them would give."""
    if a.value.ndim < 3:
        raise ShapeMismatch(f"merge_branches needs a branch axis, got {a.shape}")
    *lead, t_len, _ = a.shape
    return a.tape._record("merge_branches", (a.idx,),
                          a.value.swapaxes(-3, -2).reshape(*lead[:-1], t_len, -1), ctx=lead[-1])


def _back_merge_branches(tape, i, g, grads):
    # (..., T, k*d) -> (..., T, k, d) -> (..., k, T, d), a view of g
    _accumulate(grads, tape.inputs[i][0],
                g.reshape(*g.shape[:-1], tape.ctx[i], -1).swapaxes(-3, -2))


# --- fused layers; leading axes of the input are batch or weight axes ---

def _weight_rows(a, k):
    """(..., *W, T, n) -> (*W, N, n) for a weight with k leading axes W: the
    rows each weight slice sees, every axis of `a` the weight lacks folded
    into N in order. With k = 0 this is (N, n)."""
    lead = a.ndim - 2 - k
    if k and lead > 0:
        a = np.moveaxis(a, range(lead, lead + k), range(k))
    return a.reshape(*a.shape[:k], -1, a.shape[-1])


def _weight_axes(x, w, op):
    """The leading axes of weight w, which must equal those of x just before
    (rows, features)."""
    axes = w.shape[:-2]
    if axes and (x.value.ndim < len(axes) + 2 or x.shape[-2 - len(axes):-2] != axes):
        raise ShapeMismatch(f"{op} weight {w.shape} does not fit x {x.shape}")
    return axes


def _t(w):
    """Transpose of the last two axes."""
    return w.swapaxes(-1, -2)


def linear(x, w, b):
    """Affine map x @ w + b over the last axis of x; a weight (*W, fan_in,
    fan_out) with bias (*W, fan_out) maps x (..., *W, rows, fan_in)."""
    tape = _tape_of(x, w, b)
    if w.value.ndim < 2 or x.shape[-1:] != w.shape[-2:-1] \
            or b.shape != w.shape[:-2] + w.shape[-1:]:
        raise ShapeMismatch(f"linear shapes x {x.shape}, w {w.shape}, b {b.shape}")
    bias = b.value[..., None, :] if _weight_axes(x, w, "linear") else b.value
    return tape._record("linear", (x.idx, w.idx, b.idx), x.value @ w.value + bias)


def _back_linear(tape, i, g, grads):
    ix, iw, ib = tape.inputs[i]
    w = tape.values[iw]
    k = w.ndim - 2
    g_rows = _weight_rows(g, k)
    _accumulate(grads, ib, g_rows.sum(axis=-2))
    _accumulate(grads, ix, g @ _t(w))
    _accumulate(grads, iw, _t(_weight_rows(tape.values[ix], k)) @ g_rows)


def attention(x, wq, wk, wv, wo, heads, groups):
    """Grouped-query self-attention over the time axis of x (..., T, d), plus x.

    Keys and values are projected once per group (x @ wk[:, group columns])
    and shared by the heads // groups query heads of that group; every head
    runs softmax(q k^T / sqrt(d_head)) v in one batched product over
    (..., groups, heads // groups, T, d_head). Heads are concatenated in
    order and projected by wo. The float operations per head are those of
    the per-head primitive composition, so outputs match it bit for bit.
    Weights with leading axes W, (*W, d, d) and (*W, d, groups * d_head),
    attend each slice of x (..., *W, T, d) with its own weights.
    """
    tape = _tape_of(x, wq, wk, wv, wo)
    *lead, t_len, d = x.shape
    if d % heads or heads % groups:
        raise ShapeMismatch(f"d={d} heads={heads} groups={groups} do not divide")
    d_head, per_group = d // heads, heads // groups
    axes = _weight_axes(x, wq, "attention")
    if not (wq.shape == wo.shape == (*axes, d, d)
            and wk.shape == wv.shape == (*axes, d, groups * d_head)):
        raise ShapeMismatch(f"attention weights {wq.shape} {wk.shape} {wv.shape} {wo.shape} "
                            f"for d={d} heads={heads} groups={groups}")
    xv = x.value
    rows = xv[..., None, :, :]  # (..., 1, T, d) against (*W, groups, d, d_head)
    # q: (..., T, d) -> (..., groups, per_group, T, d_head); k, v: (..., groups, T, d_head)
    q = _heads_first((xv @ wq.value).reshape(*lead, t_len, groups, per_group, d_head))
    k = rows @ _by_group(wk.value, groups)
    v = rows @ _by_group(wv.value, groups)
    c = float(1.0 / np.sqrt(d_head))
    scores = (q @ k[..., None, :, :].swapaxes(-1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    heads_out = (weights @ v[..., None, :, :]).reshape(*lead, heads, t_len, d_head)
    merged = heads_out.swapaxes(-3, -2).reshape(*lead, t_len, d)
    out = merged @ wo.value + xv
    return tape._record("attention", (x.idx, wq.idx, wk.idx, wv.idx, wo.idx), out,
                        ctx=(q, k, v, weights, merged, c))


def _by_group(w, groups):
    """(*W, d, groups * d_head) -> (*W, groups, d, d_head): one column block
    per group."""
    return w.reshape(*w.shape[:-1], groups, -1).swapaxes(-3, -2)


def _heads_first(a):
    """(..., T, groups, per_group, d_head) -> (..., groups, per_group, T, d_head)."""
    return a.swapaxes(-4, -3).swapaxes(-3, -2)


def _time_first(a):
    """Inverse of _heads_first."""
    return a.swapaxes(-3, -2).swapaxes(-4, -3)


def _back_attention(tape, i, g, grads):
    ix, iq, ik, iv, io = tape.inputs[i]
    q, k, v, weights, merged, c = tape.ctx[i]
    x = tape.values[ix]
    wq, wk, wv, wo = (tape.values[j] for j in (iq, ik, iv, io))
    n_axes = wq.ndim - 2
    *lead, t_len, d = x.shape
    groups, per_group, _, d_head = q.shape[-4:]
    g_heads = _heads_first((g @ _t(wo)).reshape(*lead, t_len, groups, per_group, d_head))
    g_weights = g_heads @ v[..., None, :, :].swapaxes(-1, -2)
    g_v = (weights.swapaxes(-1, -2) @ g_heads).sum(axis=-3)
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True)) * c
    g_q = _time_first(g_scores @ k[..., None, :, :]).reshape(*lead, t_len, d)
    g_k = (g_scores.swapaxes(-1, -2) @ q).sum(axis=-3)
    g_k, g_v = (a.swapaxes(-3, -2).reshape(*lead, t_len, groups * d_head) for a in (g_k, g_v))
    x_rows = _t(_weight_rows(x, n_axes))
    _accumulate(grads, io, _t(_weight_rows(merged, n_axes)) @ _weight_rows(g, n_axes))
    _accumulate(grads, iq, x_rows @ _weight_rows(g_q, n_axes))
    _accumulate(grads, ik, x_rows @ _weight_rows(g_k, n_axes))
    _accumulate(grads, iv, x_rows @ _weight_rows(g_v, n_axes))
    g_x = g + g_q @ _t(wq) + g_k @ _t(wk) + g_v @ _t(wv)
    _accumulate(grads, ix, g_x)


def cross_gate(a, w1, b1, w2, b2):
    """Cross-interaction fusion of the two branch latents a (..., 2, T, d):

        out = flip(gate(a) * a) + a,  gate(a) = sigmoid(relu(a @ w1 + b1) @ w2 + b2)

    where each branch has its own gate (w1 (2, d, d_ff), b1 (2, d_ff),
    w2 (2, d_ff, d), b2 (2, d)) and flip reverses the branch axis, so
    out[0] = gate_1(a_1) * a_1 + a_0 and out[1] = gate_0(a_0) * a_0 + a_1.
    The float operations are those of the linear, relu, linear, sigmoid, mul
    and add ops per branch, both linear outputs are checked as those ops
    check them, and the backward pass sums each branch's three gradient
    terms in the order the per-branch record would.
    """
    tape = _tape_of(a, w1, b1, w2, b2)
    d, f = a.shape[-1], w1.shape[-1]
    if not (a.value.ndim >= 3 and a.shape[-3] == 2 and w1.shape == (2, d, f)
            and b1.shape == (2, f) and w2.shape == (2, f, d) and b2.shape == (2, d)):
        raise ShapeMismatch(f"cross_gate shapes a {a.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                            f"w2 {w2.shape}, b2 {b2.shape}")
    av = a.value
    pre = _checked("linear", av @ w1.value + b1.value[:, None, :])
    hidden = np.maximum(pre, 0.0, out=pre)  # hidden > 0 where pre > 0
    s = np.exp(-np.logaddexp(0.0, -_checked("linear", hidden @ w2.value
                                                      + b2.value[:, None, :])))
    out = (s * av)[..., ::-1, :, :] + av
    return tape._record("cross_gate", (a.idx, w1.idx, b1.idx, w2.idx, b2.idx), out,
                        ctx=(hidden, s))


def _back_cross_gate(tape, i, g, grads):
    ia, i1, ib1, i2, ib2 = tape.inputs[i]
    hidden, s = tape.ctx[i]
    a = tape.values[ia]
    w1, w2 = tape.values[i1], tape.values[i2]
    g_m = g[..., ::-1, :, :]
    g_pre2 = g_m * a * s * (1.0 - s)
    g_rows = _weight_rows(g_pre2, 1)
    _accumulate(grads, ib2, g_rows.sum(axis=-2))
    _accumulate(grads, i2, _t(_weight_rows(hidden, 1)) @ g_rows)
    g_pre1 = (g_pre2 @ _t(w2)) * (hidden > 0)
    g_rows = _weight_rows(g_pre1, 1)
    _accumulate(grads, ib1, g_rows.sum(axis=-2))
    _accumulate(grads, i1, _t(_weight_rows(a, 1)) @ g_rows)
    # Gradient terms of a: through the product (m), the gate (l) and the
    # residual (r). The per-branch record sums branch 0's as (m + l) + r and
    # branch 1's as (r + m) + l, because it builds out[0] before out[1].
    m, l = g_m * s, g_pre1 @ _t(w1)
    g_a = np.empty_like(a)
    g_a[..., 0, :, :] = m[..., 0, :, :] + l[..., 0, :, :] + g[..., 0, :, :]
    g_a[..., 1, :, :] = g[..., 1, :, :] + m[..., 1, :, :] + l[..., 1, :, :]
    _accumulate(grads, ia, g_a)


_BACKWARD = {
    "add": _back_add,
    "sub": _back_sub,
    "mul": _back_mul,
    "scale": _back_scale,
    "matmul": _back_matmul,
    "transpose": _back_transpose,
    "row_softmax": _back_row_softmax,
    "sigmoid": _back_sigmoid,
    "relu": _back_relu,
    "square": _back_square,
    "concat_lastdim": _back_concat,
    "slice_lastdim": _back_slice,
    "mean_all": _back_mean_all,
    "stack_branches": _back_stack_branches,
    "merge_branches": _back_merge_branches,
    "linear": _back_linear,
    "attention": _back_attention,
    "cross_gate": _back_cross_gate,
}

# name -> callable, for op-sweep tests
OPS = {
    "matmul": matmul,
    "add": add,
    "sub": sub,
    "mul": mul,
    "scale": scale,
    "transpose": transpose,
    "row_softmax": row_softmax,
    "sigmoid": sigmoid,
    "relu": relu,
    "concat_lastdim": concat_lastdim,
    "slice_lastdim": slice_lastdim,
    "mean_all": mean_all,
    "square": square,
    "stack_branches": stack_branches,
    "merge_branches": merge_branches,
    "linear": linear,
    "attention": attention,
    "cross_gate": cross_gate,
}


def grad_check(f, x, step=1e-5):
    """Max relative error between reverse-mode and central-difference grads.

    `f` maps one Tensor to a scalar Tensor using tape ops only. The relative
    error denominator is max(|ad|, |fd|, 1e-8) per entry.
    """
    x = np.asarray(x, dtype=float)
    p = Parameter("grad_check_x", x)
    tape = Tape()
    out = f(tape.watch(p))
    if out.value.ndim != 0:
        raise NotScalarLoss("grad_check requires a scalar-valued function")
    tape.backward(out)
    g_ad = p.grad

    def eval_at(xv):
        t = InferenceTape()
        return float(f(t.constant(xv)).value)

    g_fd = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g_fd[idx] = (eval_at(xp) - eval_at(xm)) / (2 * step)

    denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-8)
    return float(np.max(np.abs(g_ad - g_fd) / denom))


def check_finite(param, when):
    """NonFiniteValue unless every entry of param.value is finite."""
    if not np.isfinite(param.value).all():
        raise NonFiniteValue(f"parameter {param.name!r} is not finite {when}")


def sgd_step(params, lr):
    """Plain SGD update p <- p - lr * grad; clears gradient slots, checks values."""
    if not lr >= 0:
        raise ValueError("lr must be non-negative")
    params = list(params)
    for p in params:
        if p.grad is None:
            raise MissingGradient(f"parameter {p.name!r} has no gradient")
    for p in params:
        p.value -= lr * p.grad
        p.grad = None
        check_finite(p, "after the SGD step")


class AdamState:
    """Optional Adam optimizer (off by default; plain SGD is the baseline).

    The moments live in one flat vector each, and every parameter's `.value`
    is rebound to a view of one flat buffer, so a step is a fixed handful of
    in-place ufuncs over all parameters at once. The expressions and their
    order are those of the per-parameter update, so the result is the same
    bit for bit. Rebinding a parameter's `.value` afterwards detaches it
    from the optimizer.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        sizes = [p.value.size for p in self.params]
        self.values = np.concatenate([p.value.ravel() for p in self.params])
        for p, end, size in zip(self.params, np.cumsum(sizes), sizes):
            p.value = self.values[end - size:end].reshape(p.value.shape)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self._grad = np.empty_like(self.values)
        self._a = np.empty_like(self.values)
        self._b = np.empty_like(self.values)

    def step(self, lr):
        for p in self.params:
            if p.grad is None:
                raise MissingGradient(f"parameter {p.name!r} has no gradient")
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        g, a, b = self._grad, self._a, self._b
        np.concatenate([p.grad.ravel() for p in self.params], out=g)
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(self.m, self.beta1, out=self.m)
        np.multiply(g, 1 - self.beta1, out=a)
        np.add(self.m, a, out=self.m)
        # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(self.v, self.beta2, out=self.v)
        np.multiply(g, 1 - self.beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(self.v, a, out=self.v)
        # value -= lr * (m / b1t) / (sqrt(v / b2t) + eps); once a correction
        # rounds to 1.0 its division is skipped, since x / 1.0 is x
        m_hat = self.m if b1t == 1.0 else np.divide(self.m, b1t, out=a)
        np.multiply(m_hat, lr, out=a)
        v_hat = self.v if b2t == 1.0 else np.divide(self.v, b2t, out=b)
        np.sqrt(v_hat, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(self.values, a, out=self.values)
        for p in self.params:
            p.grad = None
        if not np.isfinite(self.values).all():
            for p in self.params:
                check_finite(p, "after the Adam step")


def uniform_init(name, shape, fan_in, rng):
    """Weight init: uniform(-sqrt(1/fan_in), +sqrt(1/fan_in))."""
    bound = float(np.sqrt(1.0 / fan_in))
    value = rng.uniform(-bound, bound, size=shape)
    return Parameter(name, value)


def zeros_init(name, shape):
    return Parameter(name, np.zeros(shape))


def save_params(path, params, extra=None):
    """Write parameters as versioned JSON; float64-lossless round trip.

    The bytes are those of json.dump of the whole payload. Each parameter is
    encoded by json.dumps, whose C encoder is faster than the Python one
    json.dump runs, and written as it is made, so the text of the whole file
    is never held at once.
    """
    head = json.dumps({"format": CHECKPOINT_FORMAT, "format_version": CHECKPOINT_VERSION,
                       "extra": extra or {}, "params": []})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head.removesuffix("]}"))
        for i, p in enumerate(params):
            fh.write(", " if i else "")
            fh.write(json.dumps({"name": p.name, "shape": list(p.value.shape),
                                 "values": p.value.ravel().tolist()}))
        fh.write("]}")


def load_params(path):
    """Read a checkpoint; returns ({name: array}, extra)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a parameter checkpoint")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version")
    arrays = {
        entry["name"]: np.array(entry["values"], dtype=float).reshape(entry["shape"])
        for entry in payload["params"]
    }
    return arrays, payload.get("extra", {})
