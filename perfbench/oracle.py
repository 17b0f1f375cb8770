"""Checks computed apart from gridtwin: measurement function, Jacobian,
Gauss-Newton step, summary table and tail percentiles.

Only plain data is taken from the program (the admittance matrix, the
feeder's node layout and the channel list); every formula here is written
again from its definition, so a fault in gridtwin's own version shows.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def voltages(feeder, x):
    """Complex phase-node voltages from states [Re(v); Im(v)] over non-slack
    nodes; a (2k, m) array of states gives an (n_nodes, m) array of profiles."""
    x = np.asarray(x, dtype=float)
    slack = np.array([complex(feeder.slack_voltage[phase]) for _, phase in feeder.phase_nodes])
    v = np.repeat(slack[:, None], 1 if x.ndim == 1 else x.shape[1], axis=1)
    non_slack = [i for i, (bus, _) in enumerate(feeder.phase_nodes) if bus != feeder.slack_bus]
    k = len(non_slack)
    v[non_slack] = (x[:k] + 1j * x[k:]).reshape(k, -1)
    return v[:, 0] if x.ndim == 1 else v


class Channels:
    """Which node each channel reads and how."""

    def __init__(self, node, kind):
        self.node, self.kind = node, kind

    @classmethod
    def of(cls, schema):
        """The table of a schema, built from its channels' bus, phase and kind."""
        index = {node: i for i, node in enumerate(schema.feeder.phase_nodes)}
        return cls(np.array([index[(ch.bus, ch.phase)] for ch in schema.channels]),
                   np.array([ch.kind for ch in schema.channels]))

    def subset(self, keep):
        return Channels(self.node[keep], self.kind[keep])


def h(channels, Y, v):
    """Measurements of voltage profiles: s = v * conj(Y v), |v| and arg v.

    `v` is one profile (n_nodes,) or one profile per column (n_nodes, m).
    """
    v = np.asarray(v, dtype=complex)
    s = v * np.conj(Y @ v)
    at = channels.node
    read = {
        "P_injection": s.real,
        "Q_injection": s.imag,
        "V_magnitude": np.abs(v),
        "V_angle": np.arctan2(v.imag, v.real),
    }
    out = np.empty((len(at),) + v.shape[1:])
    for kind, values in read.items():
        rows = channels.kind == kind
        out[rows] = values[at[rows]]
    return out


def jacobian(channels, Y, feeder, x, step=1e-6):
    """Central-difference Jacobian of h over the state, one column per entry."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    shifts = np.eye(n) * step
    hs = h(channels, Y, voltages(feeder, np.hstack([x[:, None] + shifts, x[:, None] - shifts])))
    return (hs[:, :n] - hs[:, n:]) / (2 * step)


def gauss_newton_step(channels, Y, feeder, z, weights, x):
    """One undamped Gauss-Newton update at x and the weighted objective there."""
    r = z - h(channels, Y, voltages(feeder, x))
    J = jacobian(channels, Y, feeder, x)
    A = (J.T * weights) @ J
    step = np.linalg.solve(A, J.T @ (weights * r))
    return step, float(r @ (weights * r))


def tail_percentile(samples, want=99.0, beyond=10):
    """Highest percentile up to `want` with at least `beyond` samples above it.

    Nearest-rank: the value at rank r (1-based, ascending) has n - r samples
    beyond it. Returns (percentile, value, n).
    """
    values = sorted(samples)
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = min(math.ceil(want / 100.0 * n), n - beyond)
    return 100.0 * rank / n, values[rank - 1], n


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def summary_rows(metrics_rows):
    """min/mean/max per (method, alpha, metric), sorted the way summary.csv is."""
    groups = {}
    for method, alpha, _seed, metric, value in metrics_rows:
        groups.setdefault((method, float(alpha), metric), []).append(float(value))
    return [
        (method, alpha, metric, min(vals), math.fsum(vals) / len(vals), max(vals))
        for (method, alpha, metric), vals in sorted(groups.items())
    ]


def summary_matches(summary_path, metrics_path, rel=1e-12):
    """Compare summary.csv with a recomputation from metrics.csv.

    Keys, order, min and max must match exactly; the mean within `rel`,
    because numpy sums in another order than math.fsum.
    """
    header, got = read_csv(summary_path)
    if header != ["method", "alpha", "metric", "min", "mean", "max"]:
        return False, f"summary header {header}"
    _, metrics_rows = read_csv(metrics_path)
    want = summary_rows(metrics_rows)
    if len(got) != len(want):
        return False, f"{len(got)} summary rows, expected {len(want)}"
    for g, w in zip(got, want):
        if (g[0], float(g[1]), g[2]) != w[:3]:
            return False, f"summary row {g[:3]} where {w[:3]} was expected"
        lo, mean, hi = (float(c) for c in g[3:])
        if lo != w[3] or hi != w[5] or not math.isclose(mean, w[4], rel_tol=rel):
            return False, f"summary values {g} differ from {w}"
    return True, ""
