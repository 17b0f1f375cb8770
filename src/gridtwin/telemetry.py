"""Measurement synthesis: channels, noise, random masking, dataset assembly.

A measurement schema is an ordered list of channels; the channel order fixes
the layout of every measurement vector, the CSV column order, and the
branch split used by the estimator. Measured values follow the injection
convention generation-positive / load-negative; angles are radians.

Masking semantics: channels are z-score normalized first (statistics from
unmasked training-split entries), then masked positions are set to exactly
zero, so a missing value reads as the channel mean in raw units.

A dataset is built from a `LoadSeries`, the demand of every time step as
one `(steps, keys)` array: one batched power flow solves all steps, and one
`measure_many` measures them.
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
from .feeder import (
    LoadSeries,
    admittance_matrix,
    columnwise,
    solve_power_flows,
    voltages_to_state,
)

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
            if not (ch.sigma > 0 and np.isfinite(ch.sigma)):
                raise ValueError(f"channel {ch.name}: sigma must be finite and positive")
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
        built on this schema. A sigma so small or large that its weight
        overflows to inf or underflows to 0 is a ValueError here."""
        with np.errstate(over="ignore", divide="ignore"):
            weights = 1.0 / self.sigmas**2
        bad = ~(np.isfinite(weights) & (weights > 0))
        if np.any(bad):
            channel = self.channels[np.flatnonzero(bad)[0]]
            raise ValueError(f"channel {channel.name}: sigma {channel.sigma:g} has no finite "
                             "positive weight 1/sigma^2")
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
    voltage channels read |v_i| and arg(v_i). Y v is taken one column at a
    time, so each column equals measure of that column alone bit for bit.
    """
    inj = vm * np.conj(columnwise(Y, vm))
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


def train_split(train_fraction, n_steps):
    """Steps in the training split of a series of n_steps: at least one."""
    return max(1, int(round(train_fraction * n_steps)))


def _assemble(schema, z, mask, x, state_labels, train_fraction):
    """Dataset of measurement and state arrays: the split index, and the
    normalization stats of each channel from the unmasked training entries."""
    split_index = train_split(train_fraction, len(z))
    mean, std = np.zeros(z.shape[1]), np.ones(z.shape[1])
    for j in range(z.shape[1]):
        col = z[:split_index, j][~mask[:split_index, j]]
        if col.size:
            mean[j] = col.mean()
            sj = col.std()
            std[j] = sj if sj > 1e-12 else 1.0  # constant channel: leave scale alone
    return Dataset(schema=schema, z=z, mask=mask, x=x, state_labels=state_labels,
                   split_index=split_index, norm_mean=mean, norm_std=std)


def build_dataset(feeder, load_profiles, schema, seed, train_fraction=0.8):
    """Solve the power flow of every time step in one batch, measure, add
    noise, collect stats. `load_profiles` is a LoadSeries, the demand of
    every step as one array, or a sequence of LoadScenarios.

    Per-step noise seeds derive from (seed, t) so steps are independent and
    the construction is reproducible. NoConvergence is raised for the lowest
    failing step, with that step index attached.
    """
    profiles = LoadSeries.of(load_profiles)
    if not len(profiles):
        raise ValueError("load_profiles must be nonempty")
    try:
        v = solve_power_flows(feeder, profiles).v
    except NoConvergence as exc:
        raise NoConvergence(
            f"power flow failed at step {exc.step}: {exc}",
            iterations=exc.iterations,
            mismatch=exc.mismatch,
            step=exc.step,
        ) from exc
    x = np.ascontiguousarray(voltages_to_state(feeder, v).T)
    z_clean = measure_many(v, admittance_matrix(feeder), schema).T
    z = np.array([add_noise(row, schema, rng_seed=(seed, t)) for t, row in enumerate(z_clean)])
    return _assemble(schema, z, np.zeros(z.shape, dtype=bool), x, feeder.state_labels(),
                     train_fraction)


def _write_table(path, header, values, blank):
    """CSV of `header` and one row per row of `values`; floats in shortest
    round-trip form, so _read_table gets them back bit for bit, and blanks
    where `blank` is True."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if b else repr(float(v)) for v, b in zip(row, gaps)]
                         for row, gaps in zip(values, blank))


def export_csv(dataset, measurements_path, states_path):
    """Write measurement and state CSVs; masked cells become blanks, and
    export/import is lossless."""
    _write_table(measurements_path, dataset.schema.names, dataset.z, dataset.mask)
    _write_table(states_path, dataset.state_labels, dataset.x, np.zeros(dataset.x.shape, bool))


def _read_table(path, header, what, blanks=False):
    """(values, blank) of a CSV whose first row must equal `header`: every
    row has one cell per header entry, and every cell is a finite float, or,
    with `blanks`, empty (a True in `blank`, 0.0 in `values`)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise HeaderMismatch(f"{path}: empty file")
    if tuple(rows[0]) != tuple(header):
        raise HeaderMismatch(f"{path}: header does not match {what}")
    n = len(header)
    values = np.zeros((len(rows) - 1, n))
    blank = np.zeros(values.shape, dtype=bool)
    for t, row in enumerate(rows[1:]):
        if len(row) != n:
            raise RaggedRows(f"{path}: row {t} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            if blanks and cell == "":
                blank[t, j] = True
                continue
            try:
                values[t, j] = float(cell)
            except ValueError as exc:
                raise UnparseableNumber(f"{path}: row {t} col {j}: {cell!r}") from exc
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        t, j = bad[0]
        raise UnparseableNumber(f"{path}: row {t} col {j}: {rows[1 + t][j]!r} is not finite "
                                "(a missing reading is a blank cell)")
    return values, blank


def import_csv(measurements_path, states_path, schema, train_fraction=0.8):
    """Parse externally supplied measurement/state CSVs into a Dataset.

    Headers must match the schema channel names (and re:/im: state labels)
    exactly, including order. Blank measurement cells become masked entries.
    """
    z, mask = _read_table(measurements_path, schema.names, "schema channel order",
                          blanks=True)
    state_labels = schema.feeder.state_labels()
    x, _ = _read_table(states_path, state_labels, "the state layout")
    if len(x) != len(z):
        raise RaggedRows(f"{states_path}: {len(x)} state rows vs {len(z)} measurement rows")
    return _assemble(schema, z, mask, x, state_labels, train_fraction)
