"""Classical weighted-least-squares state estimation.

Gauss-Newton on r(x) = z - h(x) with the normal equations (J'WJ) d = J'W r,
W = diag(1/sigma^2), solved by Cholesky. The Jacobian is the closed-form
derivative of h in rectangular coordinates (`jacobian`; `jacobian_fd` keeps
central differences as a reference); steps that increase the weighted
objective are halved up to ten times. Missing rows are simply deleted, which
is exactly what makes the classical formulation fragile once masking removes
observability.

Every iteration and the rank probe first ask whether the normal matrix
A = J'WJ is well conditioned: the verdict rejects cond(A) > COND_LIMIT. A
Cholesky of A shifted down by 10 * ||A||_inf / COND_LIMIT that succeeds
certifies cond(A) < COND_LIMIT / 10, so most verdicts take two Cholesky
factorizations and no eigenvalues; the rest fall back to the eigenvalues of
A. Every verdict and message equals the eigenvalue rule's
(`_normal_cholesky`).

Deletion works on row slices. A `MeasurementModel` evaluates h and J over
every channel of a schema; the flat-start x, h and J are computed once per
(schema, contents of Y) and kept on the schema, never per mask or snapshot.
A masked problem takes the rows it keeps from those, so the rank probe
(`feasibility_check`) and the first Gauss-Newton iteration evaluate nothing
at the flat start and no per-mask schema is built. `drop_missing` still
builds the subset problem, which the row slices equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, RankDeficient
from .feeder import flat_state, state_to_voltages
from .telemetry import measure_many

COND_LIMIT = 1e12


@dataclass(frozen=True, slots=True)
class WlsProblem:
    """One estimation instance: schema-bound measurements plus weights.

    `weights` are the diagonal of W = R^-1; by default 1/sigma^2 from the
    schema. `mask` (True = missing, one entry per channel) is optional;
    estimate_wls solves on the rows it leaves, whose readings from_schema
    requires to be finite.
    """

    schema: object
    Y: np.ndarray
    z: np.ndarray
    weights: np.ndarray
    mask: np.ndarray | None = None

    @classmethod
    def from_schema(cls, schema, Y, z, mask=None, weights=None):
        if weights is None:
            weights = schema.weights
        weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if len(z) != len(schema) or len(weights) != len(schema):
            raise ValueError("measurement/weight length does not match schema")
        z = np.asarray(z, dtype=float)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (len(schema),):
                raise ValueError(f"mask shape {mask.shape} does not match the schema's "
                                 f"({len(schema)},)")
        if not np.all(np.isfinite(z if mask is None else z[~mask])):
            raise ValueError("measurements on kept rows must be finite")
        return cls(schema=schema, Y=Y, z=z, weights=weights, mask=mask)

    @property
    def n_states(self):
        return self.schema.feeder.n_states

    @property
    def redundancy_ratio(self):
        """Measurements left by the mask per state."""
        return len(_keep(self)) / self.n_states


@dataclass(frozen=True, slots=True)
class StateEstimate:
    x: np.ndarray  # [Re(v); Im(v)] over non-slack phase-nodes
    iterations: int
    residual: float  # final weighted objective (z-h)'W(z-h)
    converged: bool


def h_eval(schema, Y, x):
    """Measurement function over the rectangular state vector."""
    v = state_to_voltages(schema.feeder, np.asarray(x, dtype=float))
    return measure_many(v[:, None], Y, schema)[:, 0]


def jacobian_fd(schema, Y, x, step=1e-6):
    """Central-difference Jacobian of h at x, one column per state entry."""
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    n = len(x)
    xs = np.repeat(x[:, None], 2 * n, axis=1)
    cols = np.arange(n)
    xs[cols, 2 * cols] += step
    xs[cols, 2 * cols + 1] -= step
    feeder = schema.feeder
    vm = np.empty((feeder.n_nodes, 2 * n), dtype=complex)
    for k in range(2 * n):
        vm[:, k] = state_to_voltages(feeder, xs[:, k])
    hs = measure_many(vm, Y, schema)
    return (hs[:, 0::2] - hs[:, 1::2]) / (2 * step)


def jacobian(schema, Y, x):
    """Closed-form Jacobian of h at x, one column per state entry."""
    return MeasurementModel.of(schema, Y).jacobian(np.asarray(x, dtype=float))


class MeasurementModel:
    """h and J of one schema over one admittance matrix.

    Holds what no mask or snapshot changes: the rows of Y that the channels
    read, the state column of each channel's own node, and x, h and J at the
    flat start. `of` builds one per (schema, contents of Y) and keeps it on
    the schema; a masked problem solves on row slices of it.
    """

    def __init__(self, schema, Y):
        feeder = schema.feeder
        ns = feeder.non_slack_nodes()
        column = np.full(feeder.n_nodes, -1)
        column[ns] = np.arange(len(ns))
        idx, kind = schema.node_idx, schema.kind_codes
        self.feeder, self.idx, self.n_ns = feeder, idx, len(ns)
        self.Y_rows = Y[idx]
        self.conj_Y_ns = np.conj(self.Y_rows)[:, ns]
        # (row, column) of each channel's own node; a channel at the slack bus
        # has no column there.
        rows = np.flatnonzero(column[idx] >= 0)
        self.own_at = rows, column[idx[rows]]
        self.q = (kind == 1)[:, None]
        self.volt_rows = np.flatnonzero(kind >= 2)
        volt = rows[kind[rows] >= 2]
        self.volt_at, self.volt_mag = (volt, column[idx[volt]]), kind[volt] == 2
        self.x_flat = flat_state(feeder)
        self.h_flat = h_eval(schema, Y, self.x_flat)
        self.J_flat = self.jacobian(self.x_flat)
        # Shared by every problem on this schema and Y.
        for a in (self.x_flat, self.h_flat, self.J_flat):
            a.flags.writeable = False

    @classmethod
    def of(cls, schema, Y):
        """The model of (schema, Y), built on first use and kept on the schema."""
        key = Y.tobytes()
        model = schema.measurement_models.get(key)
        if model is None:
            model = schema.measurement_models[key] = cls(schema, Y)
        return model

    def jacobian(self, x):
        """Closed-form Jacobian of h at x, column-major.

        With v = e + jf and s = v * conj(Y v), ds/de = diag(conj(Yv)) + diag(v) conj(Y)
        and ds/df = j (diag(conj(Yv)) - diag(v) conj(Y)); P and Q rows are their
        real and imaginary parts, over the non-slack columns.
        """
        v = state_to_voltages(self.feeder, x)
        vi = v[self.idx]
        m, n = len(self.idx), self.n_ns
        own = np.zeros((m, n), dtype=complex)
        own[self.own_at] = np.conj(self.Y_rows @ v)[self.own_at[0]]
        cross = vi[:, None] * self.conj_Y_ns
        ds_de, ds_df = own + cross, 1j * (own - cross)
        J = np.empty((m, 2 * n), order="F")
        J[:, :n] = np.where(self.q, ds_de.imag, ds_de.real)
        J[:, n:] = np.where(self.q, ds_df.imag, ds_df.real)
        # A |v| row is (e, f)/|v|, the parts of v/|v|, and an angle row is
        # (-f, e)/|v|^2, the parts of jv/|v|^2, both at the channel's own node.
        J[self.volt_rows] = 0.0
        rows, cols = self.volt_at
        vv = vi[rows]
        mag = np.abs(vv)
        unit = np.where(self.volt_mag, vv / mag, 1j * vv / mag**2)
        J[rows, cols], J[rows, n + cols] = unit.real, unit.imag
        return J


def _rows(J, keep):
    """Rows `keep` of J, column-major like J: the products of the normal
    equations round differently on a row-major copy, and this layout keeps
    the solve bit-identical to one on a Jacobian of the kept channels alone."""
    return J.T.take(keep, axis=1).T


def drop_missing(problem):
    """Delete masked rows from z, weights, and the schema view."""
    if problem.mask is None:
        return problem
    keep = np.flatnonzero(~np.asarray(problem.mask, dtype=bool))
    return replace(
        problem,
        schema=problem.schema.subset(keep),
        z=problem.z[keep],
        weights=problem.weights[keep],
        mask=None,
    )


def _keep(problem):
    """Positions of the rows that are not masked. A mask must hold one entry
    per measurement: from_schema checks this, and a problem built directly is
    checked here."""
    if problem.mask is None:
        return np.arange(len(problem.z))
    mask = np.asarray(problem.mask, dtype=bool)
    if mask.shape != (len(problem.z),):
        raise ValueError(f"mask shape {mask.shape} does not match the measurements' "
                         f"({len(problem.z)},)")
    return np.flatnonzero(~mask)


def _prepare(problem):
    """Positions of the rows that are not masked, or a RankDeficient verdict
    when fewer rows than states remain."""
    keep = _keep(problem)
    n = problem.n_states
    if len(keep) < n:
        return RankDeficient(f"{len(keep)} measurements cannot determine {n} states")
    return keep


def _normal_cholesky(J, w, iteration):
    """Lower Cholesky factor of the normal matrix A = J'WJ, or a RankDeficient
    verdict when its condition number exceeds COND_LIMIT.

    The verdict is the eigenvalue rule: A is rejected when its smallest
    eigenvalue is not positive or max/min exceeds COND_LIMIT, and when
    Cholesky then fails. Most matrices are decided without eigenvalues: if
    both L = cholesky(A) and cholesky(A - s*I) succeed, with
    s = 10 * ||A||_inf / COND_LIMIT, then lambda_min(A) > s >= 10 * lambda_max
    / COND_LIMIT, so cond(A) < COND_LIMIT / 10, and the rule would accept A
    and return this same L. A Cholesky that succeeds in floating point
    factors a matrix within about n * eps * ||A|| of the one it was given
    (5e-15 * ||A|| at n = 42), far below the shift of 1e-11 * ||A||_inf, so
    the certificate holds after rounding. When either factorization fails,
    the eigenvalue rule decides, so every verdict and message equals it.
    """
    A = (J.T * w) @ J
    try:
        L = np.linalg.cholesky(A)
        shifted = A.copy()
        shifted.flat[:: len(A) + 1] -= 10 * np.linalg.norm(A, np.inf) / COND_LIMIT
        np.linalg.cholesky(shifted)
        return L
    except np.linalg.LinAlgError:
        pass
    eig = np.linalg.eigvalsh(A)
    if not (eig[0] > 0 and eig[-1] / eig[0] <= COND_LIMIT):
        return RankDeficient(
            f"normal matrix condition estimate exceeds {COND_LIMIT:g} at iteration {iteration}"
        )
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return RankDeficient(f"Cholesky failed at iteration {iteration}")


def estimate_wls(problem, x0=None, tol=1e-8, max_iter=40):
    """Gauss-Newton WLS solve with objective-descent damping.

    Stops when the infinity-norm of the update falls below tol, or when no
    halving of an update within 10*tol lowers the objective: the objective
    has reached its rounding floor there. Raises RankDeficient when the
    normal matrix fails Cholesky or its condition number exceeds 1e12 (the
    masked-out unobservable case), NoConvergence when damping cannot find a
    descent step or iterations run out.
    """
    outcome = _gauss_newton(problem, x0, tol, max_iter)
    if isinstance(outcome, StateEstimate):
        return outcome
    # Raised here, where the frame holds only the problem: a caller that keeps
    # the error keeps none of the solver's arrays through its traceback. The
    # frame lets go of the error, so error and frame form no cycle and a
    # dropped verdict is freed at once, without the cycle collector.
    try:
        raise outcome
    finally:
        del outcome


def _gauss_newton(problem, x0, tol, max_iter):
    """The solve of estimate_wls; returns a StateEstimate or the verdict to raise."""
    keep = _prepare(problem)
    if isinstance(keep, RankDeficient):
        return keep
    schema, Y = problem.schema, problem.Y
    model = MeasurementModel.of(schema, Y)
    z, w = problem.z[keep], problem.weights[keep]

    def objective(h):
        r = z - h[keep]
        return r, float(r @ (w * r))

    def residual(xv):
        return objective(h_eval(schema, Y, xv))

    if x0 is None:
        x = model.x_flat
        r, f = objective(model.h_flat)
    else:
        x = np.array(x0, dtype=float)
        r, f = residual(x)
    for iteration in range(1, max_iter + 1):
        J = _rows(model.J_flat if x is model.x_flat else model.jacobian(x), keep)
        L = _normal_cholesky(J, w, iteration)
        if isinstance(L, RankDeficient):
            return L
        delta = np.linalg.solve(L.T, np.linalg.solve(L, J.T @ (w * r)))
        step = np.max(np.abs(delta))
        if step <= tol:
            x = x + delta
            return StateEstimate(x=x, iterations=iteration, residual=residual(x)[1],
                                 converged=True)
        alpha = 1.0
        for _ in range(11):
            trial = x + alpha * delta
            r_trial, f_trial = residual(trial)
            if f_trial <= f:
                break
            alpha *= 0.5
        else:
            if step <= 10 * tol:
                # A copy: x may still be the model's read-only flat start.
                return StateEstimate(x=np.array(x), iterations=iteration, residual=f,
                                     converged=True)
            return NoConvergence(
                f"no descent step after 10 halvings at iteration {iteration}",
                iterations=iteration,
            )
        x, r, f = trial, r_trial, f_trial

    return NoConvergence(f"Gauss-Newton did not converge in {max_iter} iterations",
                         iterations=max_iter)


def feasibility_check(problem):
    """Cheap observability probe at the flat start (no iterations).

    Applies the same detection rule as the first iteration of estimate_wls
    (row count, condition limit, Cholesky) to the flat-start Jacobian.
    Returns True when a Gauss-Newton step is well-posed.
    """
    keep = _prepare(problem)
    if isinstance(keep, RankDeficient):
        return False
    J = MeasurementModel.of(problem.schema, problem.Y).J_flat
    L = _normal_cholesky(_rows(J, keep), problem.weights[keep], iteration=1)
    return not isinstance(L, RankDeficient)
