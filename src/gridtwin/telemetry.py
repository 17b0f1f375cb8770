"""Measurement synthesis: channels, noise, random masking, dataset assembly.

A measurement schema is an ordered list of channels; the channel order fixes
the layout of every measurement vector, the CSV column order, and the
branch split used by the estimator. Measured values follow the injection
convention generation-positive / load-negative; angles are radians.

Masking semantics: channels are z-score normalized first (statistics from
unmasked training-split entries), then masked positions are set to exactly
zero, so a missing value reads as the channel mean in raw units.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    HeaderMismatch,
    InvalidAlpha,
    NoConvergence,
    RaggedRows,
    UnknownChannelTarget,
    UnparseableNumber,
)
from .feeder import admittance_matrix, solve_power_flow, voltages_to_state

KINDS = ("P_injection", "Q_injection", "V_magnitude", "V_angle")
POWER_KINDS = ("P_injection", "Q_injection")
VOLTAGE_KINDS = ("V_magnitude", "V_angle")


@dataclass(frozen=True)
class Channel:
    kind: str
    bus: str
    phase: str
    sigma: float  # noise std dev in channel units
    alpha: float  # missing probability, in [0, 1)

    @property
    def name(self):
        return f"{self.kind}:{self.bus}:{self.phase}"


class MeasurementSchema:
    """Ordered, feeder-bound channel list.

    Binding to a feeder resolves each channel to its global phase-node index
    and rejects channels whose bus/phase does not exist.
    """

    def __init__(self, channels, feeder):
        channels = tuple(channels)
        for ch in channels:
            if ch.kind not in KINDS:
                raise UnknownChannelTarget(f"unknown channel kind {ch.kind!r}")
            if (ch.bus, ch.phase) not in feeder.node_index:
                raise UnknownChannelTarget(f"channel targets missing phase-node {ch.bus}:{ch.phase}")
            if not ch.sigma > 0:
                raise ValueError(f"channel {ch.name}: sigma must be positive")
            if not (0.0 <= ch.alpha < 1.0):
                raise InvalidAlpha(f"channel {ch.name}: alpha must lie in [0, 1)")
        self.channels = channels
        self.feeder = feeder
        self.node_idx = np.array([feeder.node_index[(c.bus, c.phase)] for c in channels], dtype=int)
        self.sigmas = np.array([c.sigma for c in channels])
        self.alphas = np.array([c.alpha for c in channels])
        self.kind_codes = np.array([KINDS.index(c.kind) for c in channels], dtype=int)

    def __len__(self):
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def __getitem__(self, i):
        return self.channels[i]

    @property
    def names(self):
        return tuple(c.name for c in self.channels)

    @cached_property
    def weights(self):
        """Default WLS weights 1/sigma^2, read-only and shared by every problem
        built on this schema."""
        weights = 1.0 / self.sigmas**2
        weights.flags.writeable = False
        return weights

    def with_alpha(self, alpha):
        """Copy of the schema with one uniform missing probability."""
        return MeasurementSchema(
            (Channel(c.kind, c.bus, c.phase, c.sigma, alpha) for c in self.channels),
            self.feeder,
        )

    def indices_of(self, kinds):
        return tuple(i for i, c in enumerate(self.channels) if c.kind in kinds)

    @cached_property
    def kind_tables(self):
        """(rows, nodes) per kind code, in KINDS order: the channel positions of
        that kind and the phase-nodes they read."""
        rows = [np.flatnonzero(self.kind_codes == k) for k in range(len(KINDS))]
        return tuple((r, self.node_idx[r]) for r in rows)

    @cached_property
    def measurement_models(self):
        """wls.MeasurementModel of this schema per admittance matrix, keyed by
        the bytes of Y; filled on first use by MeasurementModel.of."""
        return {}

    def power_indices(self):
        return self.indices_of(POWER_KINDS)

    def voltage_indices(self):
        return self.indices_of(VOLTAGE_KINDS)

    def subset(self, keep):
        """Schema view restricted to the kept channel positions; the arrays of
        this already-validated schema are sliced, not rebuilt."""
        view = object.__new__(MeasurementSchema)
        view.channels = tuple(self.channels[i] for i in keep)
        view.feeder = self.feeder
        for name in ("node_idx", "sigmas", "alphas", "kind_codes"):
            setattr(view, name, getattr(self, name)[keep])
        return view


def default_schema(feeder, power_sigma=0.01, vmag_sigma=0.004, vang_sigma=0.002,
                   alpha=0.0, vmag_buses=None, vang_nodes=None):
    """Hybrid metering layout: P/Q injections at every non-slack phase-node,
    voltage magnitudes at selected buses, a few phase-angle channels."""
    channels = []
    non_slack = [b for b in feeder.buses if b.id != feeder.slack_bus]
    for kind, sigma in (("P_injection", power_sigma), ("Q_injection", power_sigma)):
        for bus in non_slack:
            for phase in bus.phases:
                channels.append(Channel(kind, bus.id, phase, sigma, alpha))
    if vmag_buses is None:
        vmag_buses = [b.id for b in non_slack]
    for bus_id in vmag_buses:
        for phase in feeder.bus_map[bus_id].phases:
            channels.append(Channel("V_magnitude", bus_id, phase, vmag_sigma, alpha))
    if vang_nodes is None:
        vang_nodes = []
    for node in vang_nodes:
        bus_id, phase = node.split(":")
        channels.append(Channel("V_angle", bus_id, phase, vang_sigma, alpha))
    return MeasurementSchema(channels, feeder)


def measure(v, Y, schema):
    """Noiseless measurement function h: voltages -> channel values; one
    column of measure_many."""
    v = np.asarray(v)
    if v.shape[0] != Y.shape[0]:
        raise UnknownChannelTarget("voltage vector does not cover the admittance matrix")
    return measure_many(v[:, None], Y, schema)[:, 0]


def measure_many(vm, Y, schema):
    """h over the columns of a (n_nodes, k) voltage matrix.

    P/Q channels read the real/imaginary parts of v_i * conj((Y v)_i);
    voltage channels read |v_i| and arg(v_i).
    """
    inj = vm * np.conj(Y @ vm)
    out = np.empty((len(schema), vm.shape[1]))
    (p, p_at), (q, q_at), (mag, mag_at), (ang, ang_at) = schema.kind_tables
    out[p] = inj.real[p_at]
    out[q] = inj.imag[q_at]
    out[mag] = np.abs(vm[mag_at])
    out[ang] = np.angle(vm[ang_at])
    return out


def _add_noise(z, sigmas, rng):
    # Internal path: tolerates sigma == 0 (adds exactly nothing there).
    return z + sigmas * rng.standard_normal(len(z))


def add_noise(z, schema, rng_seed):
    """Independent zero-mean Gaussian noise per channel, deterministic per seed."""
    rng = np.random.default_rng(rng_seed)
    return _add_noise(np.asarray(z, dtype=float), schema.sigmas, rng)


def draw_mask(schema, rng, steps=None):
    """Bernoulli(alpha_j) missing indicators; shape (m,) or (steps, m)."""
    shape = len(schema) if steps is None else (steps, len(schema))
    return rng.random(shape) < schema.alphas


@dataclass(frozen=True)
class Dataset:
    """Time-indexed measurements and ground-truth states.

    `z` holds raw noisy measurements (steps, m); masks are NOT baked into z.
    The stored `mask` records imported missing cells (all False for built
    datasets); training draws fresh masks per epoch. Normalization stats come
    from unmasked entries of the training split [0, split_index).
    """

    schema: MeasurementSchema
    z: np.ndarray
    mask: np.ndarray
    x: np.ndarray
    state_labels: tuple
    split_index: int
    norm_mean: np.ndarray
    norm_std: np.ndarray

    @property
    def n_steps(self):
        return self.z.shape[0]

    @property
    def n_channels(self):
        return self.z.shape[1]

    @property
    def n_states(self):
        return self.x.shape[1]

    def normalize(self, rows):
        return (rows - self.norm_mean) / self.norm_std


def _norm_stats(z, mask, split_index):
    mean = np.empty(z.shape[1])
    std = np.empty(z.shape[1])
    for j in range(z.shape[1]):
        col = z[:split_index, j][~mask[:split_index, j]]
        if col.size == 0:
            mean[j], std[j] = 0.0, 1.0
            continue
        mean[j] = col.mean()
        sj = col.std()
        std[j] = sj if sj > 1e-12 else 1.0  # constant channel: leave scale alone
    return mean, std


def build_dataset(feeder, load_profiles, schema, seed, train_fraction=0.8):
    """Run power flow per time step, measure, add noise, collect stats.

    Per-step noise seeds derive from (seed, t) so steps are independent and
    the construction is reproducible. NoConvergence is re-raised with the
    failing step index attached.
    """
    profiles = list(load_profiles)
    if not profiles:
        raise ValueError("load_profiles must be nonempty")
    Y = admittance_matrix(feeder)
    z_rows, x_rows = [], []
    for t, loads in enumerate(profiles):
        try:
            sol = solve_power_flow(feeder, loads)
        except NoConvergence as exc:
            raise NoConvergence(
                f"power flow failed at step {t}: {exc}",
                iterations=exc.iterations,
                mismatch=exc.mismatch,
                step=t,
            ) from exc
        x_rows.append(voltages_to_state(feeder, sol.v))
        z_clean = measure(sol.v, Y, schema)
        z_rows.append(add_noise(z_clean, schema, rng_seed=(seed, t)))
    z = np.array(z_rows)
    x = np.array(x_rows)
    mask = np.zeros(z.shape, dtype=bool)
    split_index = max(1, int(round(train_fraction * z.shape[0])))
    mean, std = _norm_stats(z, mask, split_index)
    return Dataset(
        schema=schema,
        z=z,
        mask=mask,
        x=x,
        state_labels=feeder.state_labels(),
        split_index=split_index,
        norm_mean=mean,
        norm_std=std,
    )


def _fmt(value):
    return repr(float(value))


def export_csv(dataset, measurements_path, states_path):
    """Write measurement and state CSVs; masked cells become blanks.

    Floats are written in shortest round-trip form, so export/import is
    lossless.
    """
    with open(measurements_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.schema.names)
        for t in range(dataset.n_steps):
            writer.writerow(
                "" if dataset.mask[t, j] else _fmt(dataset.z[t, j])
                for j in range(dataset.n_channels)
            )
    with open(states_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.state_labels)
        for t in range(dataset.n_steps):
            writer.writerow(_fmt(v) for v in dataset.x[t])


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise HeaderMismatch(f"{path}: empty file")
    return rows[0], rows[1:]


def import_csv(measurements_path, states_path, schema, train_fraction=0.8):
    """Parse externally supplied measurement/state CSVs into a Dataset.

    Headers must match the schema channel names (and re:/im: state labels)
    exactly, including order. Blank measurement cells become masked entries.
    """
    header, rows = _read_rows(measurements_path)
    if tuple(header) != schema.names:
        raise HeaderMismatch(f"{measurements_path}: header does not match schema channel order")
    m = len(schema)
    z = np.zeros((len(rows), m))
    mask = np.zeros((len(rows), m), dtype=bool)
    for t, row in enumerate(rows):
        if len(row) != m:
            raise RaggedRows(f"{measurements_path}: row {t} has {len(row)} cells, expected {m}")
        for j, cell in enumerate(row):
            if cell == "":
                mask[t, j] = True
            else:
                try:
                    z[t, j] = float(cell)
                except ValueError as exc:
                    raise UnparseableNumber(f"{measurements_path}: row {t} col {j}: {cell!r}") from exc

    s_header, s_rows = _read_rows(states_path)
    state_labels = schema.feeder.state_labels()
    if tuple(s_header) != state_labels:
        raise HeaderMismatch(f"{states_path}: header does not match the state layout")
    if len(s_rows) != len(rows):
        raise RaggedRows(
            f"{states_path}: {len(s_rows)} state rows vs {len(rows)} measurement rows"
        )
    n = len(state_labels)
    x = np.zeros((len(s_rows), n))
    for t, row in enumerate(s_rows):
        if len(row) != n:
            raise RaggedRows(f"{states_path}: row {t} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            try:
                x[t, j] = float(cell)
            except ValueError as exc:
                raise UnparseableNumber(f"{states_path}: row {t} col {j}: {cell!r}") from exc

    split_index = max(1, int(round(train_fraction * len(rows))))
    mean, std = _norm_stats(z, mask, split_index)
    return Dataset(
        schema=schema,
        z=z,
        mask=mask,
        x=x,
        state_labels=state_labels,
        split_index=split_index,
        norm_mean=mean,
        norm_std=std,
    )
