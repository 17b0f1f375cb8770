"""Classical weighted-least-squares state estimation.

Gauss-Newton on r(x) = z - h(x) with the normal equations (J'WJ) d = J'W r,
W = diag(1/sigma^2), solved by Cholesky. The Jacobian is the closed-form
derivative of h in rectangular coordinates (`jacobian`; `jacobian_fd` keeps
central differences as a reference); steps that increase the weighted
objective are halved up to ten times. Missing rows are simply deleted, which
is exactly what makes the classical formulation fragile once masking removes
observability.
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
    schema. `mask` (True = missing) is optional; estimate_wls removes masked
    rows before solving.
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
        return cls(schema=schema, Y=Y, z=np.asarray(z, dtype=float), weights=weights, mask=mask)

    @property
    def n_states(self):
        return self.schema.feeder.n_states

    @property
    def redundancy_ratio(self):
        return len(self.z) / self.n_states


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
    """Closed-form Jacobian of h at x, one column per state entry.

    With v = e + jf and s = v * conj(Y v), ds/de = diag(conj(Yv)) + diag(v) conj(Y)
    and ds/df = j (diag(conj(Yv)) - diag(v) conj(Y)); P and Q rows are their
    real and imaginary parts. Slack columns are dropped.
    """
    feeder = schema.feeder
    v = state_to_voltages(feeder, np.asarray(x, dtype=float))
    idx, kind = schema.node_idx, schema.kind_codes
    rows = np.arange(len(idx))
    vi = v[idx]
    own = np.zeros((len(idx), feeder.n_nodes), dtype=complex)
    own[rows, idx] = np.conj(Y[idx] @ v)
    cross = vi[:, None] * np.conj(Y[idx])
    ds_de, ds_df = own + cross, 1j * (own - cross)
    q = (kind == 1)[:, None]
    d_e = np.where(q, ds_de.imag, ds_de.real)
    d_f = np.where(q, ds_df.imag, ds_df.real)
    # A |v| row is (e, f)/|v|, the parts of v/|v|, and an angle row is
    # (-f, e)/|v|^2, the parts of jv/|v|^2, both at the channel's own node.
    volt = kind >= 2
    d_e[volt] = d_f[volt] = 0.0
    at = rows[volt], idx[volt]
    mag = np.abs(vi[volt])
    unit = np.where(kind[volt] == 2, vi[volt] / mag, 1j * vi[volt] / mag**2)
    d_e[at], d_f[at] = unit.real, unit.imag
    ns = feeder.non_slack_nodes()
    return np.hstack([d_e[:, ns], d_f[:, ns]])


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


def _prepare(problem, x0):
    """Masked rows dropped and the start point (flat unless x0 is given), or a
    RankDeficient verdict when fewer rows than states remain."""
    problem = drop_missing(problem)
    n = problem.n_states
    if len(problem.z) < n:
        return RankDeficient(f"{len(problem.z)} measurements cannot determine {n} states")
    return problem, np.array(flat_state(problem.schema.feeder) if x0 is None else x0,
                             dtype=float)


def _normal_cholesky(J, w, iteration):
    """Lower Cholesky factor of the normal matrix J'WJ, or a RankDeficient
    verdict when the condition number, read from the eigenvalues of the
    symmetric matrix, exceeds COND_LIMIT (a non-positive smallest eigenvalue
    counts as over it) or when Cholesky fails.
    """
    A = (J.T * w) @ J
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
    # the error keeps none of the solver's arrays through its traceback.
    raise outcome


def _gauss_newton(problem, x0, tol, max_iter):
    """The solve of estimate_wls; returns a StateEstimate or the verdict to raise."""
    prepared = _prepare(problem, x0)
    if isinstance(prepared, RankDeficient):
        return prepared
    problem, x = prepared
    schema, Y, z, w = problem.schema, problem.Y, problem.z, problem.weights

    def residual(xv):
        r = z - h_eval(schema, Y, xv)
        return r, float(r @ (w * r))

    r, f = residual(x)
    for iteration in range(1, max_iter + 1):
        J = jacobian(schema, Y, x)
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
                return StateEstimate(x=x, iterations=iteration, residual=f, converged=True)
            return NoConvergence(
                f"no descent step after 10 halvings at iteration {iteration}",
                iterations=iteration,
            )
        x, r, f = trial, r_trial, f_trial

    return NoConvergence(f"Gauss-Newton did not converge in {max_iter} iterations",
                         iterations=max_iter)


def feasibility_check(problem, x0=None):
    """Cheap observability probe at a single point (no iterations).

    Applies the same detection rule as the first iteration of estimate_wls
    (row count, condition limit, Cholesky) to the Jacobian at x0. Returns
    True when a Gauss-Newton step is well-posed.
    """
    prepared = _prepare(problem, x0)
    if isinstance(prepared, RankDeficient):
        return False
    problem, x = prepared
    L = _normal_cholesky(jacobian(problem.schema, problem.Y, x), problem.weights, iteration=1)
    return not isinstance(L, RankDeficient)
