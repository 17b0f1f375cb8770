"""Radial three-phase feeder modeling and power flow.

A feeder is a tree of buses rooted at a slack source. Each line couples up
to three phases through a symmetric 3x3 complex impedance matrix (per-unit).
Voltages are solved with a backward/forward sweep: load currents are
accumulated from the leaves toward the slack, then voltage drops are applied
from the slack outward, until the complex power mismatch drops below
tolerance. The sweep is batched: `solve_power_flows` solves a sequence of
load scenarios as the columns of one voltage matrix, each column leaving the
sweep once it converges, and `solve_power_flow` is a batch of one. Its
matrix products run one column at a time, so every column rounds as it
would alone. Buses may carry a subset of phases; missing phases are absent
phase-nodes, never zero rows.

The global phase-node ordering (bus listing order, phases a<b<c) defines the
layout of every vector in the package: complex voltage vectors, admittance
matrices, and the rectangular state vector x = [Re(v); Im(v)] over non-slack
phase-nodes.
"""

from __future__ import annotations

import cmath
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml

from .errors import (
    CycleDetected,
    DisconnectedBus,
    DuplicateId,
    FeederError,
    InvalidLoad,
    NoConvergence,
    SingularImpedance,
)

PHASES = ("a", "b", "c")
_PHASE_POS = {"a": 0, "b": 1, "c": 2}

FIXTURE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Bus:
    id: str
    phases: tuple[str, ...]


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    z: np.ndarray  # (3, 3) complex impedance, p.u.; rows/cols follow PHASES


@dataclass(frozen=True)
class VoltageSolution:
    """Converged per-phase-node complex voltages plus solve diagnostics.

    From solve_power_flows, `v` has one column per scenario and `iterations`
    and `mismatch` are arrays with one entry per scenario.
    """

    v: np.ndarray  # complex, aligned to feeder.phase_nodes
    iterations: int  # sweeps run
    mismatch: float  # infinity-norm of complex power mismatch, p.u.


class LoadScenario:
    """Constant-power wye demand at one time step.

    `s` maps (bus_id, phase) to complex power demand in p.u. (consumption
    positive). Buses/phases not listed draw nothing.
    """

    __slots__ = ("s",)

    def __init__(self, s=None):
        self.s = dict(s or {})

    @classmethod
    def zero(cls):
        return cls()

    def scaled(self, factor):
        return LoadScenario({k: v * factor for k, v in self.s.items()})

    def __repr__(self):
        return f"LoadScenario({len(self.s)} entries)"


@dataclass(frozen=True)
class FeederModel:
    """Validated radial feeder with precomputed traversal and index tables.

    The non-slack node indices, the flat voltage profile, the admittance
    matrix and the per-line sweep tables are built on first use and kept,
    read-only, with the feeder.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    slack_bus: str
    slack_voltage: dict  # phase -> complex, p.u.
    v_base: float  # volts
    s_base: float  # volt-amperes
    phase_nodes: tuple  # ((bus_id, phase), ...) global ordering
    node_index: dict  # (bus_id, phase) -> int
    bus_map: dict  # bus_id -> Bus
    order: tuple  # bus ids, slack first, parents before children
    parent: dict  # bus_id -> parent bus_id (slack -> None)
    parent_line: dict  # bus_id -> Line feeding it

    @property
    def n_nodes(self):
        return len(self.phase_nodes)

    def nodes_of(self, bus_id):
        """Global phase-node indices of a bus, in phase order."""
        return np.array([self.node_index[(bus_id, p)] for p in self.bus_map[bus_id].phases])

    def non_slack_nodes(self):
        return self._non_slack

    @cached_property
    def _non_slack(self):
        ns = [i for i, (b, _) in enumerate(self.phase_nodes) if b != self.slack_bus]
        return _read_only(np.array(ns, dtype=int))

    @cached_property
    def _flat_v(self):
        return _read_only(np.array([self.slack_voltage[p] for _, p in self.phase_nodes],
                                   dtype=complex))

    @cached_property
    def _admittance(self):
        return _read_only(_build_admittance(self))

    @cached_property
    def _lines(self):
        """(child nodes, parent nodes of the child's phases, impedance on those
        phases) per line, parents before children: the tables of the sweep."""
        lines = []
        for child in self.order[1:]:
            phases = self.bus_map[child].phases
            idx = [_PHASE_POS[p] for p in phases]
            up = np.array([self.node_index[(self.parent[child], p)] for p in phases])
            zsub = _read_only(self.parent_line[child].z[np.ix_(idx, idx)])
            lines.append((_block(self.nodes_of(child)), _block(up), zsub))
        return tuple(lines)

    def state_labels(self):
        """Column labels of the state vector: all re:bus:phase then im:bus:phase."""
        ns = [self.phase_nodes[i] for i in self.non_slack_nodes()]
        return tuple(f"re:{b}:{p}" for b, p in ns) + tuple(f"im:{b}:{p}" for b, p in ns)

    @property
    def n_states(self):
        return 2 * len(self.non_slack_nodes())


def _read_only(a):
    a.flags.writeable = False
    return a


def _block(nodes):
    """Consecutive node indices as a slice, which numpy indexes several times
    faster than an index array; any other index set stays an array."""
    if np.all(np.diff(nodes) == 1):
        return slice(int(nodes[0]), int(nodes[-1]) + 1)
    return _read_only(nodes)


def _canonical_phases(raw):
    phases = tuple(raw)
    if not phases:
        raise FeederError("bus must have at least one phase")
    if len(set(phases)) != len(phases) or any(p not in _PHASE_POS for p in phases):
        raise FeederError(f"invalid phase set {phases!r}")
    return tuple(sorted(phases, key=_PHASE_POS.get))


def _parse_complex(pair):
    re, im = pair
    return complex(float(re), float(im))


def _parse_z(raw):
    z = np.array([[_parse_complex(raw[r][c]) for c in range(3)] for r in range(3)])
    return z


def build_feeder(spec):
    """Validate a structured feeder description and return a FeederModel.

    `spec` is a dict with keys: buses, lines, slack, and optional bases.
    Rejects duplicate ids, non-radial or disconnected graphs, and lines whose
    impedance restricted to the active phases is singular.
    """
    buses = []
    bus_map = {}
    for raw in spec["buses"]:
        bus = Bus(id=str(raw["id"]), phases=_canonical_phases(raw["phases"]))
        if bus.id in bus_map:
            raise DuplicateId(f"duplicate bus id {bus.id!r}")
        bus_map[bus.id] = bus
        buses.append(bus)

    lines = []
    for raw in spec["lines"]:
        f, t = str(raw["from"]), str(raw["to"])
        for end in (f, t):
            if end not in bus_map:
                raise DisconnectedBus(f"line references unknown bus {end!r}")
        if f == t:
            raise CycleDetected(f"line connects bus {f!r} to itself")
        z = _parse_z(raw["z"])
        if not np.allclose(z, z.T, rtol=0, atol=1e-12):
            raise FeederError(f"line {f}->{t}: impedance matrix must be symmetric")
        lines.append(Line(from_bus=f, to_bus=t, z=z))

    slack_raw = spec["slack"]
    slack_bus = str(slack_raw["bus"])
    if slack_bus not in bus_map:
        raise DisconnectedBus(f"slack references unknown bus {slack_bus!r}")
    slack_voltage = {str(p): _parse_complex(v) for p, v in slack_raw["voltage"].items()}
    slack_phases = bus_map[slack_bus].phases
    if set(slack_voltage) != set(slack_phases):
        raise FeederError("slack voltage must cover exactly the slack bus phases")
    for p, v in slack_voltage.items():
        if not (abs(v) > 0 and np.isfinite(v)):
            raise FeederError(f"slack voltage magnitude on phase {p} must be positive")

    if len(lines) > len(buses) - 1:
        raise CycleDetected(f"{len(lines)} lines for {len(buses)} buses: graph has a cycle")
    if len(lines) < len(buses) - 1:
        raise DisconnectedBus(f"{len(lines)} lines cannot connect {len(buses)} buses")

    # BFS from the slack orients every line parent->child. With the edge
    # count pinned to buses-1 above, full reachability proves radiality.
    adjacency = {b.id: [] for b in buses}
    for line in lines:
        adjacency[line.from_bus].append((line.to_bus, line))
        adjacency[line.to_bus].append((line.from_bus, line))

    order = [slack_bus]
    parent = {slack_bus: None}
    parent_line = {}
    queue = deque([slack_bus])
    while queue:
        u = queue.popleft()
        for w, line in adjacency[u]:
            if w in parent:
                continue
            parent[w] = u
            parent_line[w] = line
            order.append(w)
            queue.append(w)
    if len(order) != len(buses):
        missing = sorted(set(bus_map) - set(order))
        raise DisconnectedBus(f"buses unreachable from slack: {missing}")

    # Phase containment along the tree plus active-submatrix invertibility.
    for child in order[1:]:
        child_ph = bus_map[child].phases
        parent_ph = bus_map[parent[child]].phases
        if not set(child_ph) <= set(parent_ph):
            raise FeederError(
                f"bus {child!r} carries phases {child_ph} absent at parent {parent[child]!r}"
            )
        idx = [_PHASE_POS[p] for p in child_ph]
        zsub = parent_line[child].z[np.ix_(idx, idx)]
        if not np.all(np.isfinite(zsub)):
            raise SingularImpedance(f"line into {child!r}: non-finite impedance")
        if np.linalg.cond(zsub) > 1e12:
            raise SingularImpedance(f"line into {child!r}: singular on active phases {child_ph}")

    phase_nodes = tuple((b.id, p) for b in buses for p in b.phases)
    node_index = {node: i for i, node in enumerate(phase_nodes)}

    return FeederModel(
        buses=tuple(buses),
        lines=tuple(lines),
        slack_bus=slack_bus,
        slack_voltage=slack_voltage,
        v_base=float(spec.get("v_base", 1.0)),
        s_base=float(spec.get("s_base", 1.0)),
        phase_nodes=phase_nodes,
        node_index=node_index,
        bus_map=bus_map,
        order=tuple(order),
        parent=parent,
        parent_line=parent_line,
    )


def load_fixture(path):
    """Read a feeder fixture file; returns (FeederModel, nominal LoadScenario).

    The nominal load section is optional; a zero scenario is returned when
    absent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    version = raw.get("format_version")
    if version != FIXTURE_FORMAT_VERSION:
        raise FeederError(f"unsupported fixture format_version {version!r}")
    feeder = build_feeder(raw)
    nominal = LoadScenario.zero()
    for bus_id, per_phase in (raw.get("nominal_load") or {}).items():
        for phase, pair in per_phase.items():
            nominal.s[(str(bus_id), str(phase))] = _parse_complex(pair)
    return feeder, nominal


def fixture_path(name):
    """Filesystem path of a bundled fixture, e.g. fixture_path('feeder_8bus')."""
    from importlib.resources import files

    return str(files("gridtwin").joinpath(f"fixtures/{name}.yaml"))


def admittance_matrix(feeder):
    """Nodal admittance matrix over active phase-nodes.

    Each line contributes the inverse of its active-phase impedance submatrix
    in the standard two-port pattern, so Y @ v yields injected currents and Y
    is complex symmetric. Built once per feeder; each call returns a copy the
    caller may modify.
    """
    return feeder._admittance.copy()


def _build_admittance(feeder):
    n = feeder.n_nodes
    y = np.zeros((n, n), dtype=complex)
    nodes = np.arange(n)
    for child, (c, p, zsub) in zip(feeder.order[1:], feeder._lines):
        ci, pi = nodes[c], nodes[p]
        try:
            ysub = np.linalg.inv(zsub)
        except np.linalg.LinAlgError as exc:
            raise SingularImpedance(f"line into {child!r} not invertible") from exc
        ysub = (ysub + ysub.T) / 2  # inverse of a symmetric matrix is symmetric
        y[np.ix_(pi, pi)] += ysub
        y[np.ix_(ci, ci)] += ysub
        y[np.ix_(pi, ci)] -= ysub
        y[np.ix_(ci, pi)] -= ysub
    return y


def flat_voltages(feeder):
    """Zero-load voltage profile: slack voltage replicated onto every bus."""
    return feeder._flat_v.copy()


def state_to_voltages(feeder, x):
    """Expand a state vector [Re(v); Im(v)] into the full complex profile."""
    v = flat_voltages(feeder)
    ns = feeder.non_slack_nodes()
    k = len(ns)
    v[ns] = x[:k] + 1j * x[k:]
    return v


def voltages_to_state(feeder, v):
    ns = feeder.non_slack_nodes()
    return np.concatenate([v[ns].real, v[ns].imag])


def flat_state(feeder):
    return voltages_to_state(feeder, flat_voltages(feeder))


def _load_vector(feeder, loads):
    s = np.zeros(feeder.n_nodes, dtype=complex)
    for (bus_id, phase), demand in loads.s.items():
        key = (bus_id, phase)
        if key not in feeder.node_index:
            raise InvalidLoad(f"load on unknown phase-node {key}")
        if bus_id == feeder.slack_bus:
            raise InvalidLoad(f"load on slack bus {bus_id!r} is not allowed")
        if not cmath.isfinite(demand):  # np.isfinite costs ~1 us on a scalar
            raise InvalidLoad(f"non-finite load at {key}")
        s[feeder.node_index[key]] = complex(demand)
    return s


def columnwise(a, b):
    """a @ b one column of b at a time: each column rounds as it would in
    a @ b[:, j] alone, which one product over all columns does not."""
    return np.matmul(a, b.T[:, :, None])[:, :, 0].T


def solve_power_flow(feeder, loads, tol=1e-8, max_iter=100):
    """Backward/forward sweep power flow for constant-power wye loads; one
    column of solve_power_flows."""
    sol = solve_power_flows(feeder, [loads], tol, max_iter)
    return VoltageSolution(v=sol.v[:, 0], iterations=int(sol.iterations[0]),
                           mismatch=float(sol.mismatch[0]))


def solve_power_flows(feeder, loads_seq, tol=1e-8, max_iter=100):
    """Backward/forward sweep power flow over a sequence of load scenarios.

    Each scenario is one column of an (n_nodes, T) voltage matrix; a column
    leaves the sweep once it converges or turns non-finite. Convergence is
    the infinity-norm of the complex power mismatch |v * conj(Y v) + s_load|
    over non-slack phase-nodes. Returns a VoltageSolution whose `v` holds one
    column per scenario and whose `iterations` and `mismatch` are arrays with
    one entry per scenario. Every column equals a lone solve of its scenario
    bit for bit. Raises NoConvergence for the lowest-index scenario that
    fails, with `step` set to its index.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    loads_seq = list(loads_seq)
    s = np.empty((feeder.n_nodes, len(loads_seq)), dtype=complex)
    for t, loads in enumerate(loads_seq):
        s[:, t] = _load_vector(feeder, loads)
    y, ns, lines = feeder._admittance, feeder.non_slack_nodes(), feeder._lines
    out = np.empty_like(s)
    v = np.repeat(feeder._flat_v[:, None], s.shape[1], axis=1)
    cols = np.arange(s.shape[1])
    iterations = np.zeros(len(cols), dtype=int)
    mismatch = np.full(len(cols), np.inf)
    diverged = np.zeros(len(cols), dtype=bool)
    for iteration in range(1, max_iter + 1):
        if not len(cols):
            break
        # Backward: accumulate load currents from the leaves toward the slack.
        # i_line[child] ends as the current of the line feeding that bus.
        i_node = np.conj(s / v)
        i_line = np.zeros_like(v)
        for child, up, _ in reversed(lines):
            i_line[child] += i_node[child]
            i_line[up] += i_line[child]
        # Forward: apply series voltage drops from the slack outward.
        for child, up, z in lines:
            v[child] = v[up] - columnwise(z, i_line[child])
        iterations[cols] = iteration
        finite = np.isfinite(v).all(axis=0)
        if not finite.all():
            diverged[cols[~finite]] = True
            v, s, cols = v[:, finite], s[:, finite], cols[finite]
        s_calc = v * np.conj(columnwise(y, v))
        mismatch[cols] = np.abs(s_calc[ns] + s[ns]).max(axis=0) if len(ns) else 0.0
        done = mismatch[cols] <= tol
        if done.any():
            out[:, cols[done]] = v[:, done]
            v, s, cols = v[:, ~done], s[:, ~done], cols[~done]

    failed = np.flatnonzero(~(mismatch <= tol))  # a diverged column keeps inf
    if len(failed):
        t = int(failed[0])
        if diverged[t]:
            raise NoConvergence(f"power flow diverged after {iterations[t]} sweeps",
                                iterations=int(iterations[t]), step=t)
        raise NoConvergence(
            f"power flow did not reach tol={tol:g} in {max_iter} sweeps "
            f"(mismatch {mismatch[t]:.3e})",
            iterations=max_iter,
            mismatch=float(mismatch[t]),
            step=t,
        )
    return VoltageSolution(v=out, iterations=iterations, mismatch=mismatch)
