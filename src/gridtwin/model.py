"""Interactive attention estimator for voltage states.

Two measurement branches (power channels, voltage channels) are projected
into a shared latent width, tagged with sinusoidal positional encodings, and
pushed through N series fusion blocks. Each block runs grouped-query
attention per branch (keys/values computed once per group and shared by the
query heads of that group, plus a residual), then exchanges information
through sigmoid cross-gates:

    H1 = gate2(a2) * a2 + a1        H2 = gate1(a1) * a1 + a2

Branch outputs are linearly projected, concatenated, and decoded by a
two-layer head into per-step rectangular voltage states. Training minimizes
mean squared error over the whole window with fresh Bernoulli input masks
drawn every epoch as augmentation, one optimizer step per window; the
optimizer is plain SGD unless the config opts into Adam.

On the tape every affine layer is one `linear` op and every attention block
one fused `attention` op, so a forward pass records 86 ops at the default
shape (two blocks). Inputs may carry a leading batch axis, (B, T, m):
predict_series runs all requested windows as one batch, with the same float
operations per window as a single-window pass. Forward passes that need no
gradient (estimate_voltages, the validation pass of each epoch) run on an
InferenceTape, which records nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from .errors import NonFiniteLoss, NonFiniteValue, ShapeMismatch
from .telemetry import draw_mask


@dataclass(frozen=True)
class ModelConfig:
    d: int = 32  # latent feature width
    d_ff: int = 64  # feedforward hidden width (gates and head)
    blocks: int = 2  # series fusion blocks
    heads: int = 4  # query heads
    groups: int = 2  # key/value groups
    window: int = 8  # time steps per window
    n_states: int = 0
    power_channels: tuple = ()
    voltage_channels: tuple = ()
    lr: float = 1e-3
    epochs: int = 40
    seed: int = 0
    positional_encoding: bool = True
    optimizer: str = "sgd"  # optional "adam"; plain SGD is the default

    def __post_init__(self):
        if self.heads % self.groups != 0:
            raise ValueError("heads must be a multiple of groups")
        if self.d % self.heads != 0:
            raise ValueError("d must be a multiple of heads")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if not self.power_channels or not self.voltage_channels:
            raise ValueError("both measurement branches must be nonempty")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @classmethod
    def for_dataset(cls, dataset, **overrides):
        """Fill the data-dependent fields from a dataset's schema."""
        overrides.setdefault("n_states", dataset.n_states)
        overrides.setdefault("power_channels", dataset.schema.power_indices())
        overrides.setdefault("voltage_channels", dataset.schema.voltage_indices())
        return cls(**overrides)


@dataclass(frozen=True)
class Window:
    """Masked-normalized inputs and targets of one window, (T, .), or of a
    batch of windows, (B, T, .)."""

    z_power: np.ndarray  # (..., T, m_p)
    z_volt: np.ndarray  # (..., T, m_v)
    targets: np.ndarray  # (..., T, n)


def positional_table(steps, d):
    """Sinusoidal position encodings, (steps, d)."""
    pos = np.arange(steps)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


@dataclass(frozen=True)
class LinearParams:
    w: ad.Parameter  # (fan_in, fan_out)
    b: ad.Parameter  # (fan_out,)


@dataclass(frozen=True)
class GqaParams:
    wq: ad.Parameter  # (d, d)
    wk: ad.Parameter  # (d, groups * d_head)
    wv: ad.Parameter  # (d, groups * d_head)
    wo: ad.Parameter  # (d, d)


@dataclass(frozen=True)
class GateParams:
    w1: ad.Parameter
    b1: ad.Parameter
    w2: ad.Parameter
    b2: ad.Parameter


@dataclass(frozen=True)
class BranchBlockParams:
    attn: GqaParams
    gate: GateParams


@dataclass(frozen=True)
class FusionBlockParams:
    branch1: BranchBlockParams
    branch2: BranchBlockParams


def _linear(name, fan_in, fan_out, rng):
    return LinearParams(
        w=ad.uniform_init(f"{name}.w", (fan_in, fan_out), fan_in, rng),
        b=ad.zeros_init(f"{name}.b", (fan_out,)),
    )


def _gqa(name, d, heads, groups, rng):
    d_head = d // heads
    return GqaParams(
        wq=ad.uniform_init(f"{name}.wq", (d, d), d, rng),
        wk=ad.uniform_init(f"{name}.wk", (d, groups * d_head), d, rng),
        wv=ad.uniform_init(f"{name}.wv", (d, groups * d_head), d, rng),
        wo=ad.uniform_init(f"{name}.wo", (d, d), d, rng),
    )


def _gate(name, d, d_ff, rng):
    return GateParams(
        w1=ad.uniform_init(f"{name}.w1", (d, d_ff), d, rng),
        b1=ad.zeros_init(f"{name}.b1", (d_ff,)),
        w2=ad.uniform_init(f"{name}.w2", (d_ff, d), d_ff, rng),
        b2=ad.zeros_init(f"{name}.b2", (d,)),
    )


def affine(x, lin):
    """x @ w + b on the tape, over the last axis of x."""
    tape = x.tape
    return ad.linear(x, tape.watch(lin.w), tape.watch(lin.b))


def project_branch(tape, z_values, lin, pos=None):
    """Branch input stage: row-wise affine projection, then optional
    positional encoding. No nonlinearity."""
    z = tape.constant(z_values)
    out = affine(z, lin)
    if pos is not None:
        out = ad.add(out, tape.constant(pos))
    return out


def gqa_attention(x, params, heads, groups, counters=None):
    """Grouped-query attention over the time axis, with residual.

    Keys/values are projected once per group (instrumented via counters
    'k_projections'/'v_projections') and shared by heads // groups query
    heads each. Scores follow softmax(Q K^T / sqrt(d_head)) V per head;
    heads are concatenated, output-projected, and added back onto x. The
    whole block is one fused tape op (autodiff.attention); x may carry
    leading batch axes, (..., T, d).
    """
    tape = x.tape
    out = ad.attention(x, tape.watch(params.wq), tape.watch(params.wk),
                       tape.watch(params.wv), tape.watch(params.wo), heads, groups)
    if counters is not None:
        counters["k_projections"] = counters.get("k_projections", 0) + groups
        counters["v_projections"] = counters.get("v_projections", 0) + groups
    return out


def mha_attention(x, params, heads, counters=None):
    """Standard multi-head attention reference: keys/values per head.

    Built from primitive tape ops, one slice, product and softmax per head,
    over a single (T, d) window. With groups == heads the fused
    gqa_attention performs the identical float operations, so outputs match
    bit for bit.
    """
    t_len, d = x.shape
    d_head = d // heads
    tape = x.tape
    q_full = ad.matmul(x, tape.watch(params.wq))
    wk = tape.watch(params.wk)
    wv = tape.watch(params.wv)
    head_outputs = []
    for h in range(heads):
        lo, hi = h * d_head, (h + 1) * d_head
        k = ad.matmul(x, ad.slice_lastdim(wk, lo, hi))
        v = ad.matmul(x, ad.slice_lastdim(wv, lo, hi))
        if counters is not None:
            counters["k_projections"] = counters.get("k_projections", 0) + 1
            counters["v_projections"] = counters.get("v_projections", 0) + 1
        q = ad.slice_lastdim(q_full, lo, hi)
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d_head))
        attn = ad.row_softmax(scores)
        head_outputs.append(ad.matmul(attn, v))
    merged = head_outputs[0]
    for h in head_outputs[1:]:
        merged = ad.concat_lastdim(merged, h)
    out = ad.matmul(merged, tape.watch(params.wo))
    return ad.add(out, x)


def gate_forward(x, gp):
    """Two-layer gate network: relu hidden, sigmoid output in (0, 1)."""
    tape = x.tape
    hidden = ad.relu(ad.linear(x, tape.watch(gp.w1), tape.watch(gp.b1)))
    return ad.sigmoid(ad.linear(hidden, tape.watch(gp.w2), tape.watch(gp.b2)))


def cross_gate(a1, a2, gate1, gate2):
    """Cross-interaction fusion:

        H1 = gate2(a2) * a2 + a1
        H2 = gate1(a1) * a1 + a2
    """
    if a1.shape != a2.shape:
        raise ShapeMismatch(f"branch latents differ: {a1.shape} vs {a2.shape}")
    h1 = ad.add(ad.mul(gate_forward(a2, gate2), a2), a1)
    h2 = ad.add(ad.mul(gate_forward(a1, gate1), a1), a2)
    return h1, h2


def mse_loss(pred, targets):
    """Mean squared error over all states and window steps."""
    t = pred.tape.constant(np.asarray(targets, dtype=float))
    if pred.shape != t.shape:
        raise ShapeMismatch(f"prediction {pred.shape} vs target {t.shape}")
    return ad.mean_all(ad.square(ad.sub(pred, t)))


class DtModel:
    """Two-branch interactive attention model; all parameters float64."""

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng((config.seed, 0))
        d, d_ff = config.d, config.d_ff
        m_p, m_v = len(config.power_channels), len(config.voltage_channels)
        self.proj1 = _linear("proj1", m_p, d, rng)
        self.proj2 = _linear("proj2", m_v, d, rng)
        self.blocks = tuple(
            FusionBlockParams(
                branch1=BranchBlockParams(
                    attn=_gqa(f"block{i}.br1.attn", d, config.heads, config.groups, rng),
                    gate=_gate(f"block{i}.br1.gate", d, d_ff, rng),
                ),
                branch2=BranchBlockParams(
                    attn=_gqa(f"block{i}.br2.attn", d, config.heads, config.groups, rng),
                    gate=_gate(f"block{i}.br2.gate", d, d_ff, rng),
                ),
            )
            for i in range(config.blocks)
        )
        self.out1 = _linear("out1", d, d, rng)
        self.out2 = _linear("out2", d, d, rng)
        self.head1 = _linear("head1", 2 * d, d_ff, rng)
        self.head2 = _linear("head2", d_ff, config.n_states, rng)
        self.pos = positional_table(config.window, d) if config.positional_encoding else None

    def parameters(self):
        params = []

        def collect(obj):
            if isinstance(obj, ad.Parameter):
                params.append(obj)
            elif is_dataclass(obj):
                for f in fields(obj):
                    collect(getattr(obj, f.name))

        for item in (self.proj1, self.proj2, *self.blocks, self.out1, self.out2,
                     self.head1, self.head2):
            collect(item)
        return params

    def param_count(self):
        return sum(p.value.size for p in self.parameters())

    def forward(self, tape, z_power, z_volt, counters=None):
        cfg = self.config
        x1 = project_branch(tape, z_power, self.proj1, self.pos)
        x2 = project_branch(tape, z_volt, self.proj2, self.pos)
        for block in self.blocks:
            a1 = gqa_attention(x1, block.branch1.attn, cfg.heads, cfg.groups, counters)
            a2 = gqa_attention(x2, block.branch2.attn, cfg.heads, cfg.groups, counters)
            x1, x2 = cross_gate(a1, a2, block.branch1.gate, block.branch2.gate)
        o1 = affine(x1, self.out1)
        o2 = affine(x2, self.out2)
        merged = ad.concat_lastdim(o1, o2)
        hidden = ad.relu(affine(merged, self.head1))
        return affine(hidden, self.head2)

    def forward_window(self, tape, window, counters=None):
        return self.forward(tape, window.z_power, window.z_volt, counters)

    def estimate_voltages(self, window):
        """Forward pass over one window or a batch; returns (..., T, n) estimates."""
        return self.forward_window(ad.InferenceTape(), window).value

    def save(self, path):
        extra = {"model_kind": "dt", "model_config": asdict(self.config)}
        ad.save_params(path, self.parameters(), extra=extra)

    @classmethod
    def load(cls, path):
        arrays, extra = ad.load_params(path)
        model = cls(_config_from_dict(extra["model_config"]))
        _assign(model.parameters(), arrays)
        return model


class ConcatBaselineModel:
    """Single-vector ablation: all channels concatenated into one branch.

    One linear projection, the same attention stack (no cross-gating), one
    output projection, and the same two-layer head.
    """

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng((config.seed, 0))
        d, d_ff = config.d, config.d_ff
        m = len(config.power_channels) + len(config.voltage_channels)
        self.proj = _linear("ab.proj", m, d, rng)
        self.blocks = tuple(
            _gqa(f"ab.block{i}.attn", d, config.heads, config.groups, rng)
            for i in range(config.blocks)
        )
        self.out = _linear("ab.out", d, d, rng)
        self.head1 = _linear("ab.head1", d, d_ff, rng)
        self.head2 = _linear("ab.head2", d_ff, config.n_states, rng)
        self.pos = positional_table(config.window, d) if config.positional_encoding else None

    def parameters(self):
        params = []
        for lin in (self.proj, self.out, self.head1, self.head2):
            params.extend([lin.w, lin.b])
        for blk in self.blocks:
            params.extend([blk.wq, blk.wk, blk.wv, blk.wo])
        return params

    def param_count(self):
        return sum(p.value.size for p in self.parameters())

    def forward(self, tape, z_power, z_volt, counters=None):
        cfg = self.config
        z = np.concatenate([z_power, z_volt], axis=-1)
        x = project_branch(tape, z, self.proj, self.pos)
        for blk in self.blocks:
            x = gqa_attention(x, blk, cfg.heads, cfg.groups, counters)
        o = affine(x, self.out)
        hidden = ad.relu(affine(o, self.head1))
        return affine(hidden, self.head2)

    def forward_window(self, tape, window, counters=None):
        return self.forward(tape, window.z_power, window.z_volt, counters)

    def estimate_voltages(self, window):
        """Forward pass over one window or a batch; returns (..., T, n) estimates."""
        return self.forward_window(ad.InferenceTape(), window).value

    def save(self, path):
        extra = {"model_kind": "concat_baseline", "model_config": asdict(self.config)}
        ad.save_params(path, self.parameters(), extra=extra)

    @classmethod
    def load(cls, path):
        arrays, extra = ad.load_params(path)
        model = cls(_config_from_dict(extra["model_config"]))
        _assign(model.parameters(), arrays)
        return model


def _config_from_dict(raw):
    raw = dict(raw)
    raw["power_channels"] = tuple(raw["power_channels"])
    raw["voltage_channels"] = tuple(raw["voltage_channels"])
    return ModelConfig(**raw)


def _assign(params, arrays):
    for p in params:
        if p.name not in arrays:
            raise ValueError(f"checkpoint is missing parameter {p.name!r}")
        value = arrays[p.name]
        if value.shape != p.value.shape:
            raise ValueError(f"parameter {p.name!r}: shape {value.shape} != {p.value.shape}")
        p.value = value
        ad.check_finite(p, "in the checkpoint")


def build_windows(dataset, t_ends, masks, config):
    """Batch of the windows ending at each of t_ends, from normalized rows with
    `masks` (n_steps, m) and the dataset's own gaps zeroed; (B, T, .) arrays."""
    t_ends = np.asarray(t_ends, dtype=int)
    steps = t_ends[:, None] + np.arange(1 - config.window, 1)
    rows = dataset.normalize(dataset.z[steps])
    rows = np.where(masks[steps] | dataset.mask[steps], 0.0, rows)
    return Window(
        z_power=rows[..., list(config.power_channels)],
        z_volt=rows[..., list(config.voltage_channels)],
        targets=dataset.x[steps],
    )


def _window_ends(dataset, config):
    t = config.window
    train_ends = range(t - 1, dataset.split_index)
    val_ends = range(dataset.split_index + t - 1, dataset.n_steps)
    return list(train_ends), list(val_ends)


def _epoch_pass(model, dataset, ends, masks, config, optimizer):
    losses = []
    batch = build_windows(dataset, ends, masks, config)
    for window in map(Window, batch.z_power, batch.z_volt, batch.targets):
        tape = ad.Tape()
        loss = mse_loss(model.forward_window(tape, window), window.targets)
        tape.backward(loss)
        optimizer()
        losses.append(float(loss.value))
    return float(np.mean(losses)) if losses else float("nan")


def batch_loss(model, batch):
    """Mean over a batch of windows of each window's mse_loss, from one
    forward pass on an InferenceTape; the float operations per window are
    those of mse_loss, so the result equals the window-by-window mean."""
    if not len(batch.targets):
        return float("nan")
    tape = ad.InferenceTape()
    err = ad.square(ad.sub(model.forward_window(tape, batch), tape.constant(batch.targets)))
    return float(np.mean([window.mean() for window in err.value]))


def train_model(model, dataset, config):
    """Shared SGD loop; returns per-epoch (train_loss, val_loss) history.

    Fresh masks are drawn each epoch for the training region (augmentation);
    the validation mask is drawn once from the model seed and reused so the
    validation series is comparable across epochs.
    """
    if dataset.n_steps <= config.window:
        raise ValueError("dataset must be longer than the window")
    train_ends, val_ends = _window_ends(dataset, config)
    if config.optimizer == "adam":
        adam = ad.AdamState(model.parameters())
        optimizer = lambda: adam.step(config.lr)
    else:
        optimizer = lambda: ad.sgd_step(model.parameters(), config.lr)
    val_rng = np.random.default_rng((config.seed, 2))
    val_masks = draw_mask(dataset.schema, val_rng, steps=dataset.n_steps)
    val_batch = build_windows(dataset, val_ends, val_masks, config)
    history = []
    for epoch in range(1, config.epochs + 1):
        epoch_rng = np.random.default_rng((config.seed, 1, epoch))
        train_masks = draw_mask(dataset.schema, epoch_rng, steps=dataset.n_steps)
        try:
            train_loss = _epoch_pass(model, dataset, train_ends, train_masks, config,
                                     optimizer=optimizer)
            val_loss = batch_loss(model, val_batch)
        except NonFiniteValue as exc:
            raise NonFiniteLoss(f"training diverged in epoch {epoch}: {exc}") from exc
        if not np.isfinite(train_loss):
            raise NonFiniteLoss(f"non-finite training loss in epoch {epoch}")
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
    return history


def train(dataset, config):
    """Train the two-branch model; returns (model, history)."""
    model = DtModel(config)
    history = train_model(model, dataset, config)
    return model, history


def train_concat_baseline(dataset, config):
    """Train the single-vector ablation under the same budget."""
    model = ConcatBaselineModel(config)
    history = train_model(model, dataset, config)
    return model, history


def predict_series(model, dataset, t_indices, masks):
    """Estimate states at each requested step from its trailing window.

    `masks` is a (n_steps, m) missing-indicator array (the evaluation mask);
    the reported estimate is the last window row. All windows run as one
    batch; the result is a fresh (len(t_indices), n) array.
    """
    window = model.config.window
    for t_end in t_indices:
        if t_end - window + 1 < 0:
            raise ValueError(f"step {t_end} has no full trailing window")
    batch = build_windows(dataset, t_indices, masks, model.config)
    return model.estimate_voltages(batch)[:, -1].copy()
