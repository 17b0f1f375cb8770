"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is float64. A Tape records forward operations in order; backward
walks the record in exact reverse, so gradients are deterministic for a
deterministic op sequence. Parameters are long-lived named arrays injected
into a fresh tape each step via Tape.watch; backward overwrites their .grad
(a second backward on the same tape reproduces the first).

Supported ops: matmul, add, sub, mul, scale, transpose, row_softmax,
sigmoid, relu, concat_lastdim, slice_lastdim, mean_all, square, and two fused
ops with hand-written backward passes: linear (x @ w + b) and attention (a
whole grouped-query attention block with its residual). Elementwise ops
broadcast only over the leading axis ((T, d) op (d,)); matmul, transpose and
row_softmax take 2-D operands. linear and attention work on the last axes of
their input, (..., fan_in) and (..., T, d): any leading axes are batch axes,
and parameter gradients are summed over them.

Every op output and constant is checked for NaN and infinity
(NonFiniteValue); parameters are checked where they change (sgd_step,
AdamState.step, checkpoint load), not at every watch. A tape refers to its
parameters by record index, so a finished tape is freed by reference
counting alone. A forward pass that needs no gradient runs on an
InferenceTape, which runs the same ops and checks but records nothing.
"""

from __future__ import annotations

import json

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
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
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


# --- fused layers; leading axes of the input are batch axes ---

def _rows(a):
    """All leading axes folded into one: (..., k) -> (N, k)."""
    return a.reshape(-1, a.shape[-1])


def linear(x, w, b):
    """Affine map x @ w + b over the last axis of x."""
    tape = _tape_of(x, w, b)
    if w.value.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"linear shapes x {x.shape}, w {w.shape}, b {b.shape}")
    return tape._record("linear", (x.idx, w.idx, b.idx), x.value @ w.value + b.value)


def _back_linear(tape, i, g, grads):
    ix, iw, ib = tape.inputs[i]
    g_rows = _rows(g)
    _accumulate(grads, ib, g_rows.sum(axis=0))
    _accumulate(grads, ix, g @ tape.values[iw].T)
    _accumulate(grads, iw, _rows(tape.values[ix]).T @ g_rows)


def attention(x, wq, wk, wv, wo, heads, groups):
    """Grouped-query self-attention over the time axis of x (..., T, d), plus x.

    Keys and values are projected once per group (x @ wk[:, group columns])
    and shared by the heads // groups query heads of that group; every head
    runs softmax(q k^T / sqrt(d_head)) v in one batched product over
    (..., groups, heads // groups, T, d_head). Heads are concatenated in
    order and projected by wo. The float operations per head are those of
    the per-head primitive composition, so outputs match it bit for bit.
    """
    tape = _tape_of(x, wq, wk, wv, wo)
    *lead, t_len, d = x.shape
    if d % heads or heads % groups:
        raise ShapeMismatch(f"d={d} heads={heads} groups={groups} do not divide")
    d_head, per_group = d // heads, heads // groups
    if not (wq.shape == wo.shape == (d, d) and wk.shape == wv.shape == (d, groups * d_head)):
        raise ShapeMismatch(f"attention weights {wq.shape} {wk.shape} {wv.shape} {wo.shape} "
                            f"for d={d} heads={heads} groups={groups}")
    xv = x.value
    rows = xv[..., None, :, :]  # (..., 1, T, d) against (groups, d, d_head)
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
    """(d, groups * d_head) -> (groups, d, d_head): one column block per group."""
    return w.reshape(w.shape[0], groups, -1).swapaxes(0, 1)


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
    *lead, t_len, d = x.shape
    groups, per_group, _, d_head = q.shape[-4:]
    g_heads = _heads_first((g @ tape.values[io].T).reshape(*lead, t_len, groups, per_group,
                                                           d_head))
    g_weights = g_heads @ v[..., None, :, :].swapaxes(-1, -2)
    g_v = (weights.swapaxes(-1, -2) @ g_heads).sum(axis=-3)
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True)) * c
    g_q = _time_first(g_scores @ k[..., None, :, :]).reshape(*lead, t_len, d)
    g_k = (g_scores.swapaxes(-1, -2) @ q).sum(axis=-3)
    g_k, g_v = (a.swapaxes(-3, -2).reshape(*lead, t_len, groups * d_head) for a in (g_k, g_v))
    x_rows = _rows(x).T
    _accumulate(grads, io, _rows(merged).T @ _rows(g))
    _accumulate(grads, iq, x_rows @ _rows(g_q))
    _accumulate(grads, ik, x_rows @ _rows(g_k))
    _accumulate(grads, iv, x_rows @ _rows(g_v))
    g_x = g + g_q @ tape.values[iq].T + g_k @ tape.values[ik].T + g_v @ tape.values[iv].T
    _accumulate(grads, ix, g_x)


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
    "linear": _back_linear,
    "attention": _back_attention,
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
    "linear": linear,
    "attention": attention,
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
        # value -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.divide(self.m, b1t, out=a)
        np.multiply(a, lr, out=a)
        np.divide(self.v, b2t, out=b)
        np.sqrt(b, out=b)
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
    """Write parameters as versioned JSON; float64-lossless round trip."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "extra": extra or {},
        "params": [
            {"name": p.name, "shape": list(p.value.shape), "values": p.value.ravel().tolist()}
            for p in params
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


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
