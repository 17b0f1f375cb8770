"""Interactive attention estimator for voltage states.

One pipeline serves both estimators. A window's channels form k branches,
each projected into a shared latent width, tagged with sinusoidal
positional encodings, and stacked on a branch axis, (..., k, T, d). N series
blocks follow. Each runs grouped-query attention on all branches at once
(keys/values computed once per group and shared by the query heads of that
group, plus a residual; each branch has its own weights). With two branches
the block then exchanges information through sigmoid cross-gates:

    H1 = gate2(a2) * a2 + a1        H2 = gate1(a1) * a1 + a2

Branch outputs are linearly projected, set side by side, and decoded by a
two-layer head into per-step rectangular voltage states. The DT model has
two branches, power channels and voltage channels; the concatenation
ablation has one branch of all channels, so no gate.

Training regresses per-state z-scored targets: each state less its mean,
over its standard deviation, both from the training split. It minimizes mean
squared error over the whole window with fresh Bernoulli input masks drawn
every epoch as augmentation. Each window runs its own forward and backward
pass; the gradients of GROUP consecutive windows are summed in time order
and make one optimizer step (plain SGD unless the config opts into Adam).
estimate_voltages undoes the scaling, so every estimate leaves the model in
p.u.; an untrained model has mean 0 and std 1. A checkpoint holds the
parameters, the target statistics, and the names of the input channels and
states the model was trained on.

Every set of branch weights after the input projections is one Parameter
with a leading branch axis of k, drawn branch by branch in the order of a
per-branch model. On the tape every affine layer is one `linear` op, every
attention block one fused `attention` op and every cross-gate one fused
`cross_gate` op, so a DT forward pass records 44 ops at the default shape
(two blocks). Each branch keeps the float operations of a per-branch model,
so outputs and gradients match one bit for bit. Inputs may carry a leading
batch axis, (B, T, m): predict_series runs all requested windows as one
batch, with the same float operations per window as a single-window pass.
Forward passes that need no gradient (estimate_voltages, the validation pass
of each epoch) run on an InferenceTape, which records nothing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NonFiniteLoss, NonFiniteValue, ShapeMismatch
from .telemetry import draw_mask

GROUP = 16  # training windows per optimizer step
STD_FLOOR = 1e-12  # a state whose training std is not above this keeps scale 1
# ModelConfig field annotation -> (accepted type, its name in an error); a
# bool is accepted only where the annotation is bool
_FIELD_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number"),
               "bool": (bool, "true or false")}


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
        for f in fields(self):
            value = getattr(self, f.name)
            kind, label = _FIELD_TYPES.get(f.type, (object, ""))
            if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
                raise TypeError(f"{f.name} must be {label}, got {value!r}")
        for name in ("d", "d_ff", "blocks", "heads", "groups", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if self.heads % self.groups != 0:
            raise ValueError("heads must be a multiple of groups")
        if self.d % self.heads != 0:
            raise ValueError("d must be a multiple of heads")
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


def _stacked(name, *sets):
    """Per-branch parameter sets as one set, each Parameter holding the
    branches' arrays stacked on a leading branch axis."""
    return type(sets[0])(**{
        f.name: ad.Parameter(f"{name}.{f.name}",
                             np.stack([getattr(branch, f.name).value for branch in sets]))
        for f in fields(sets[0])
    })


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


def gqa_attention(x, params, heads, groups):
    """Grouped-query attention over the time axis, with residual.

    Keys/values are projected once per group, so wk and wv are
    (d, groups * d_head), and shared by heads // groups query heads each.
    Scores follow softmax(Q K^T / sqrt(d_head)) V per head; heads are
    concatenated, output-projected, and added back onto x. The whole block
    is one fused tape op (autodiff.attention); x may carry leading batch
    axes, (..., T, d). Branch-stacked params, (2, d, .) weights, attend each
    branch of x (..., 2, T, d) with its own weights.
    """
    tape = x.tape
    return ad.attention(x, tape.watch(params.wq), tape.watch(params.wk),
                        tape.watch(params.wv), tape.watch(params.wo), heads, groups)


def mha_attention(x, params, heads):
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
        q = ad.slice_lastdim(q_full, lo, hi)
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d_head))
        attn = ad.row_softmax(scores)
        head_outputs.append(ad.matmul(attn, v))
    merged = head_outputs[0]
    for h in head_outputs[1:]:
        merged = ad.concat_lastdim(merged, h)
    out = ad.matmul(merged, tape.watch(params.wo))
    return ad.add(out, x)


def cross_gate(a, gate):
    """Cross-interaction fusion of the branch latents stacked in a (..., 2, T, d):

        H1 = gate2(a2) * a2 + a1
        H2 = gate1(a1) * a1 + a2

    that is flip(gate(a) * a) + a over the branch axis, with the branch gates
    stacked in `gate`; one fused tape op (autodiff.cross_gate).
    """
    tape = a.tape
    return ad.cross_gate(a, *(tape.watch(p) for p in (gate.w1, gate.b1, gate.w2, gate.b2)))


def mse_loss(pred, targets):
    """Mean squared error over all states and window steps."""
    t = pred.tape.constant(np.asarray(targets, dtype=float))
    if pred.shape != t.shape:
        raise ShapeMismatch(f"prediction {pred.shape} vs target {t.shape}")
    return ad.mean_all(ad.square(ad.sub(pred, t)))


class Estimator:
    """The pipeline of the module docstring over k branches. A subclass states
    its `kind`, its checkpoint's `model_kind`, and `branches(z_power,
    z_volt)`, the tuple of its branch inputs; a cross-gate follows each
    attention block exactly when k = 2. Each subclass keeps `forward_window`
    and `save` (the ablation also `estimate_voltages`) in its class body,
    where perfbench wraps them."""

    kind = None

    def __init__(self, config):
        self.config = config
        self.pos = (positional_table(config.window, config.d)
                    if config.positional_encoding else None)
        rng = np.random.default_rng((config.seed, 0))
        d, d_ff = config.d, config.d_ff
        widths = [z.shape[-1] for z in self.branches(np.empty((0, len(config.power_channels))),
                                                     np.empty((0, len(config.voltage_channels))))]
        self.projs = tuple(_linear(f"proj{b + 1}", m, d, rng) for b, m in enumerate(widths))
        blocks = []
        for i in range(config.blocks):
            drawn = [[_gqa("", d, config.heads, config.groups, rng)]
                     + ([_gate("", d, d_ff, rng)] if len(widths) == 2 else []) for _ in widths]
            blocks.append(tuple(_stacked(f"block{i}.{layer}", *sets)
                                for layer, sets in zip(("attn", "gate"), zip(*drawn))))
        self.blocks = tuple(blocks)  # (attn,) or (attn, gate) per block
        self.out = _stacked("out", *(_linear("", d, d, rng) for _ in widths))
        self.head1 = _linear("head1", len(widths) * d, d_ff, rng)
        self.head2 = _linear("head2", d_ff, config.n_states, rng)
        self.target_mean = np.zeros(config.n_states)
        self.target_std = np.ones(config.n_states)
        self.layout = None  # input_layout of the training data, set by train_model

    def layers(self):
        return (*self.projs, *(p for block in self.blocks for p in block),
                self.out, self.head1, self.head2)

    def forward_window(self, tape, window):
        cfg = self.config
        x = ad.stack_branches(*(project_branch(tape, z, proj, self.pos) for z, proj
                                in zip(self.branches(window.z_power, window.z_volt), self.projs)))
        for attn, *gate in self.blocks:
            x = gqa_attention(x, attn, cfg.heads, cfg.groups)
            if gate:
                x = cross_gate(x, *gate)
        merged = ad.merge_branches(affine(x, self.out))
        hidden = ad.relu(affine(merged, self.head1))
        return affine(hidden, self.head2)

    def parameters(self):
        """Every Parameter of `layers()` in order; this order is the
        checkpoint's."""
        params = []

        def collect(obj):
            if isinstance(obj, ad.Parameter):
                params.append(obj)
            elif is_dataclass(obj):
                for f in fields(obj):
                    collect(getattr(obj, f.name))

        for layer in self.layers():
            collect(layer)
        return params

    def param_count(self):
        return sum(p.value.size for p in self.parameters())

    def scaled(self, targets):
        """States in p.u., (..., n), as the z-scored targets the model regresses."""
        return (targets - self.target_mean) / self.target_std

    def estimate_voltages(self, window):
        """Forward pass over one window or a batch; returns (..., T, n) estimates
        in p.u."""
        out = self.forward_window(ad.InferenceTape(), window).value
        return out * self.target_std + self.target_mean

    def save(self, path):
        extra = {"model_kind": self.kind, "model_config": asdict(self.config),
                 "target_mean": self.target_mean.tolist(),
                 "target_std": self.target_std.tolist(), "layout": self.layout}
        ad.save_params(path, self.parameters(), extra=extra)

    @classmethod
    def load(cls, path):
        """The model a checkpoint holds, of the class its `model_kind` names,
        which must be `cls` or a subclass. A file that is no checkpoint of
        such a model is a ConfigError."""
        try:
            arrays, extra = ad.load_params(path)
            kind = extra.get("model_kind", DtModel.kind)
            model_cls = {c.kind: c for c in Estimator.__subclasses__()}.get(kind)
            if model_cls is None or not issubclass(model_cls, cls):
                raise ValueError(f"model_kind {kind!r} is not a {cls.__name__}")
            raw = extra["model_config"]
            config = ModelConfig(**{**raw, "power_channels": tuple(raw["power_channels"]),
                                    "voltage_channels": tuple(raw["voltage_channels"])})
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: unusable checkpoint: {exc}") from None
        model = model_cls(config)
        for p in model.parameters():
            value = arrays.get(p.name)
            if value is None or value.shape != p.value.shape:
                raise ConfigError(f"{path}: unusable checkpoint: parameter {p.name!r} is "
                                  f"missing or not of shape {p.value.shape}")
            p.value = value
            ad.check_finite(p, "in the checkpoint")
        try:
            mean, std = (np.array(extra[k], dtype=float) for k in ("target_mean", "target_std"))
            if not (mean.shape == std.shape == (config.n_states,)
                    and np.isfinite([mean, std]).all() and (std > 0).all()):
                raise ValueError("target statistics are not finite or not of "
                                 f"{config.n_states} states")
            model.target_mean, model.target_std, model.layout = mean, std, extra["layout"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: unusable checkpoint: {exc}") from None
        return model


class DtModel(Estimator):
    """Two-branch model: power and voltage channels, fused by cross-gates."""

    kind = "dt"

    @staticmethod
    def branches(z_power, z_volt):
        return z_power, z_volt

    forward_window = Estimator.forward_window
    save = Estimator.save


class ConcatBaselineModel(Estimator):
    """Concatenation ablation: all channels in one branch, so no cross-gate."""

    kind = "concat_baseline"

    @staticmethod
    def branches(z_power, z_volt):
        return (np.concatenate([z_power, z_volt], axis=-1),)

    forward_window = Estimator.forward_window
    estimate_voltages = Estimator.estimate_voltages
    save = Estimator.save


def input_layout(dataset, config):
    """Names of the channels each branch reads, in order, and of the states."""
    names = dataset.schema.names
    return {"power_channels": [names[i] for i in config.power_channels],
            "voltage_channels": [names[i] for i in config.voltage_channels],
            "states": list(dataset.state_labels)}


def target_stats(dataset):
    """Per-state mean and std of the training split's states; a std not above
    STD_FLOOR becomes 1, as in the measurement normalization."""
    train = dataset.x[:dataset.split_index]
    std = train.std(axis=0)
    return train.mean(axis=0), np.where(std > STD_FLOOR, std, 1.0)


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
    """Mean training loss over the windows ending at `ends`. Each window runs
    its own tape; the gradients of each GROUP consecutive windows are summed
    in window order and make one optimizer step, the last group of the epoch
    taking the remainder."""
    losses = []
    batch = build_windows(dataset, ends, masks, config)
    for start in range(0, len(ends), GROUP):
        group = slice(start, start + GROUP)
        windows = map(Window, batch.z_power[group], batch.z_volt[group],
                      model.scaled(batch.targets[group]))
        for k, window in enumerate(windows):
            tape = ad.Tape()
            loss = mse_loss(model.forward_window(tape, window), window.targets)
            tape.backward(loss, accumulate=k > 0)
            losses.append(float(loss.value))
        optimizer()
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
    """Shared training loop; returns per-epoch (train_loss, val_loss) history,
    both on z-scored targets.

    The model first takes the dataset's input layout and target statistics.
    Fresh masks are drawn each epoch for the training region (augmentation);
    the validation mask is drawn once from the model seed and reused so the
    validation series is comparable across epochs.
    """
    if dataset.n_steps <= config.window:
        raise ValueError("dataset must be longer than the window")
    model.layout = input_layout(dataset, config)
    model.target_mean, model.target_std = target_stats(dataset)
    train_ends, val_ends = _window_ends(dataset, config)
    if config.optimizer == "adam":
        adam = ad.AdamState(model.parameters())
        optimizer = lambda: adam.step(config.lr)
    else:
        optimizer = lambda: ad.sgd_step(model.parameters(), config.lr)
    val_rng = np.random.default_rng((config.seed, 2))
    val_masks = draw_mask(dataset.schema, val_rng, steps=dataset.n_steps)
    val_batch = build_windows(dataset, val_ends, val_masks, config)
    val_batch = Window(val_batch.z_power, val_batch.z_volt, model.scaled(val_batch.targets))
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
