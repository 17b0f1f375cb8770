import gc
import subprocess
import sys
import weakref

import numpy as np
import pytest

from gridtwin import bench, wls
from gridtwin.errors import NoConvergence, RankDeficient
from gridtwin.feeder import (
    LoadScenario,
    admittance_matrix,
    build_feeder,
    flat_state,
    solve_power_flow,
    voltages_to_state,
)
from gridtwin.telemetry import MeasurementSchema, default_schema, measure
from gridtwin.wls import (
    COND_LIMIT,
    MeasurementModel,
    WlsProblem,
    drop_missing,
    estimate_wls,
    feasibility_check,
    h_eval,
    jacobian,
    jacobian_fd,
)

from conftest import partial_phase_spec

# The verdict's shift and its eigenvalue fallback must stay free of overflow,
# division by zero and invalid values.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def schema2(feeder2):
    feeder, _ = feeder2
    return default_schema(feeder, vang_nodes=["b2:a"])


@pytest.fixture(scope="module")
def noiseless2(feeder2, schema2, solved2):
    feeder, _ = feeder2
    y = admittance_matrix(feeder)
    z = measure(solved2.v, y, schema2)
    return y, z


@pytest.fixture(scope="module")
def noiseless8(feeder8, schema8, solved8):
    feeder, _ = feeder8
    y = admittance_matrix(feeder)
    z = measure(solved8.v, y, schema8)
    return y, z


class TestEstimate:
    def test_noiseless_recovery_from_flat_start(self, feeder2, schema2, noiseless2, solved2):
        feeder, _ = feeder2
        y, z = noiseless2
        est = estimate_wls(WlsProblem.from_schema(schema2, y, z))
        x_true = voltages_to_state(feeder, solved2.v)
        assert est.converged
        assert est.iterations <= 20
        assert np.max(np.abs(est.x - x_true)) < 1e-6

    def test_noiseless_recovery_eight_bus(self, feeder8, schema8, noiseless8, solved8):
        feeder, _ = feeder8
        y, z = noiseless8
        est = estimate_wls(WlsProblem.from_schema(schema8, y, z))
        x_true = voltages_to_state(feeder, solved8.v)
        assert est.iterations <= 20
        assert np.max(np.abs(est.x - x_true)) < 1e-6

    def test_weight_scale_invariance(self, schema2, noiseless2):
        y, z = noiseless2
        base = estimate_wls(WlsProblem.from_schema(schema2, y, z))
        for c in (0.03, 5.0, 217.0):
            scaled = estimate_wls(
                WlsProblem.from_schema(schema2, y, z, weights=c / schema2.sigmas**2)
            )
            assert np.max(np.abs(scaled.x - base.x)) < 1e-8
            assert scaled.iterations == base.iterations

    def test_zero_residual_fixed_point(self, feeder8, schema8, noiseless8, solved8):
        feeder, _ = feeder8
        y, z = noiseless8
        x_true = voltages_to_state(feeder, solved8.v)
        est = estimate_wls(WlsProblem.from_schema(schema8, y, z), x0=x_true)
        assert est.iterations == 1
        assert np.array_equal(est.x, x_true)

    @pytest.mark.parametrize("shape", [(48,), (68,), (2, 58)])
    def test_mask_shape_must_match_schema(self, schema8, noiseless8, shape):
        y, z = noiseless8
        assert len(schema8) == 58
        with pytest.raises(ValueError, match="mask shape"):
            WlsProblem.from_schema(schema8, y, z, mask=np.zeros(shape, dtype=bool))

    @pytest.mark.parametrize("shape", [(48,), (68,), (2, 58)])
    @pytest.mark.parametrize("solve", [estimate_wls, feasibility_check])
    def test_mask_shape_checked_on_direct_construction(self, schema8, noiseless8, shape, solve):
        y, z = noiseless8
        problem = WlsProblem(schema=schema8, Y=y, z=z, weights=schema8.weights,
                             mask=np.zeros(shape, dtype=bool))
        with pytest.raises(ValueError, match="mask shape"):
            solve(problem)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_on_a_kept_row_is_refused(self, schema8, noiseless8, value):
        y, z = noiseless8
        z = z.copy()
        z[3] = value
        with pytest.raises(ValueError, match="finite"):
            WlsProblem.from_schema(schema8, y, z)
        mask = np.zeros(len(schema8), dtype=bool)
        with pytest.raises(ValueError, match="finite"):
            WlsProblem.from_schema(schema8, y, z, mask=mask)
        # a masked row's reading is never read
        mask[3] = True
        finite = z.copy()
        finite[3] = 0.0
        assert estimate_wls(WlsProblem.from_schema(schema8, y, z, mask=mask)).x.tobytes() == \
            estimate_wls(WlsProblem.from_schema(schema8, y, finite, mask=mask)).x.tobytes()

    def test_redundancy_ratio_counts_kept_rows(self, schema8, noiseless8):
        y, z = noiseless8
        mask = np.zeros(len(schema8), dtype=bool)
        mask[:10] = True
        problem = WlsProblem.from_schema(schema8, y, z, mask=mask)
        assert problem.redundancy_ratio == 48 / 42
        assert problem.redundancy_ratio == drop_missing(problem).redundancy_ratio
        assert WlsProblem.from_schema(schema8, y, z).redundancy_ratio == 58 / 42

    def test_rank_deficient_after_heavy_masking(self, schema8, noiseless8):
        y, z = noiseless8
        # keep too few rows to determine 42 states
        mask = np.ones(len(schema8), dtype=bool)
        mask[:30] = False
        with pytest.raises(RankDeficient):
            estimate_wls(WlsProblem.from_schema(schema8, y, z, mask=mask))

    def test_objective_descent_with_noise(self, feeder8, schema8, noiseless8):
        y, z = noiseless8
        rng = np.random.default_rng(3)
        z_noisy = z + schema8.sigmas * rng.standard_normal(len(z))
        problem = WlsProblem.from_schema(schema8, y, z_noisy)
        est = estimate_wls(problem)
        assert est.converged
        # converged objective is no worse than the flat-start objective
        x0 = flat_state(schema8.feeder)
        r0 = z_noisy - h_eval(schema8, y, x0)
        assert est.residual <= float(r0 @ (problem.weights * r0))


class TestJacobian:
    @pytest.mark.parametrize("case", ["eight_bus", "partial_phases"])
    def test_closed_form_matches_central_differences(self, case, feeder8, schema8):
        if case == "eight_bus":
            feeder, loads = feeder8
            schema = schema8
        else:
            feeder = build_feeder(partial_phase_spec())
            loads = LoadScenario({("e", "a"): 0.05 + 0.02j, ("m", "c"): 0.03 + 0.01j})
            schema = default_schema(feeder, vang_nodes=["m:a", "m:c", "e:a"])
        assert set(schema.kind_codes) == {0, 1, 2, 3}
        y = admittance_matrix(feeder)
        solved = voltages_to_state(feeder, solve_power_flow(feeder, loads, tol=1e-12).v)
        rng = np.random.default_rng(11)
        points = [flat_state(feeder), solved]
        points += [solved + 0.05 * rng.standard_normal(len(solved)) for _ in range(3)]
        for x in points:
            j = jacobian(schema, y, x)
            assert j.shape == (len(schema), feeder.n_states)
            np.testing.assert_allclose(j, jacobian_fd(schema, y, x), rtol=1e-6, atol=1e-9)

    def test_vmag_row_at_flat_start(self, feeder2, schema2, noiseless2):
        feeder, _ = feeder2
        y, _ = noiseless2
        j = jacobian_fd(schema2, y, flat_state(feeder))
        row = schema2.names.index("V_magnitude:b2:a")
        assert j[row, 0] == pytest.approx(1.0, abs=1e-6)  # d|v|/dRe at v=1+0j
        assert j[row, 1] == pytest.approx(0.0, abs=1e-6)

    def test_vang_row_at_flat_start(self, feeder2, schema2, noiseless2):
        feeder, _ = feeder2
        y, _ = noiseless2
        j = jacobian_fd(schema2, y, flat_state(feeder))
        row = schema2.names.index("V_angle:b2:a")
        assert j[row, 1] == pytest.approx(1.0, abs=1e-6)  # darg/dIm at v=1+0j
        assert j[row, 0] == pytest.approx(0.0, abs=1e-6)

    def test_step_halving_ratio(self, feeder8, schema8, noiseless8, solved8):
        # truncation error of central differences scales as h^2, so the
        # difference between successive halvings shrinks by about 4
        feeder, _ = feeder8
        y, _ = noiseless8
        x = voltages_to_state(feeder, solved8.v)
        h = 2e-3
        j1 = jacobian_fd(schema8, y, x, step=h)
        j2 = jacobian_fd(schema8, y, x, step=h / 2)
        j3 = jacobian_fd(schema8, y, x, step=h / 4)
        d1 = np.linalg.norm(j1 - j2)
        d2 = np.linalg.norm(j2 - j3)
        assert d1 > 0 and d2 > 0
        assert 3.0 < d1 / d2 < 5.0


def _outcome(problem):
    """Everything a solve returns, as bytes, or the verdict it raises."""
    try:
        est = estimate_wls(problem)
    except (RankDeficient, NoConvergence) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "iterations", None)
    return est.x.tobytes(), est.iterations, est.residual, est.converged


class TestRowSlices:
    """The solver works on row slices of one per-(schema, Y) model; the slices
    equal what a schema of the kept channels alone computes, bit for bit."""

    @pytest.fixture(scope="class", params=["eight_bus", "partial_phases"])
    def case(self, request, feeder8, schema8):
        if request.param == "eight_bus":
            return schema8
        feeder = build_feeder(partial_phase_spec())
        return default_schema(feeder, vang_nodes=["m:a", "m:c", "e:a"])

    def test_sliced_h_and_jacobian_equal_the_subset_schema(self, case):
        schema = case
        y = admittance_matrix(schema.feeder)
        rng = np.random.default_rng(31)
        flat = flat_state(schema.feeder)
        for k in range(200):
            x = flat if k == 0 else flat + 0.05 * rng.standard_normal(len(flat))
            keep = np.flatnonzero(rng.random(len(schema)) >= 0.3)
            sub = schema.subset(keep)
            assert h_eval(schema, y, x)[keep].tobytes() == h_eval(sub, y, x).tobytes()
            sliced, alone = wls._rows(jacobian(schema, y, x), keep), jacobian(sub, y, x)
            assert sliced.tobytes() == alone.tobytes()
            # The solver's layout: J'WJ and J'Wr on a row-major copy of the same
            # values round differently in the last bits of the solved x.
            assert sliced.flags.f_contiguous and alone.flags.f_contiguous

    def test_masked_solve_equals_the_subset_problem(self, case):
        schema = case
        y = admittance_matrix(schema.feeder)
        z = h_eval(schema, y, flat_state(schema.feeder) + 0.01)
        rng = np.random.default_rng(32)
        for _ in range(40):
            mask = rng.random(len(schema)) < 0.2
            problem = WlsProblem.from_schema(schema, y, z + schema.sigmas *
                                             rng.standard_normal(len(z)), mask=mask)
            assert feasibility_check(problem) == feasibility_check(drop_missing(problem))
            assert _outcome(problem) == _outcome(drop_missing(problem))

    def test_one_model_per_schema_and_y_contents(self, schema8, noiseless8):
        schema = MeasurementSchema(schema8.channels, schema8.feeder)
        y, z = noiseless8
        rng = np.random.default_rng(33)
        for _ in range(50):
            mask = rng.random(len(schema)) < 0.2
            problem = WlsProblem.from_schema(schema, y, z, mask=mask)
            feasibility_check(problem)
            _outcome(problem)
        assert len(schema.measurement_models) == 1
        assert MeasurementModel.of(schema, y.copy()) is MeasurementModel.of(schema, y)
        assert len(schema.measurement_models) == 1

    def test_new_y_contents_get_a_fresh_model(self, schema8, noiseless8):
        schema = MeasurementSchema(schema8.channels, schema8.feeder)
        y, z = noiseless8
        y2 = y * (1.0 + 0.05j)
        rng = np.random.default_rng(34)
        masks = [rng.random(len(schema)) < 0.25 for _ in range(30)]
        warm, cold = [], []
        for mask in masks:
            feasibility_check(WlsProblem.from_schema(schema, y, z, mask=mask))
            problem = WlsProblem.from_schema(schema, y2, z, mask=mask)
            warm.append((feasibility_check(problem), _outcome(problem)))
            # A schema of the kept channels alone holds no model yet.
            alone = drop_missing(problem)
            assert not alone.schema.measurement_models
            cold.append((feasibility_check(alone), _outcome(alone)))
        assert len(schema.measurement_models) == 2
        assert warm == cold
        assert {verdict for verdict, _ in warm} == {True, False}

    def test_model_arrays_are_read_only(self, schema8, noiseless8):
        y, z = noiseless8
        model = MeasurementModel.of(schema8, y)
        for a in (model.x_flat, model.h_flat, model.J_flat):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestDropMissing:
    def test_all_false_mask_is_identity(self, schema8, noiseless8):
        y, z = noiseless8
        mask = np.zeros(len(schema8), dtype=bool)
        problem = WlsProblem.from_schema(schema8, y, z, mask=mask)
        dropped = drop_missing(problem)
        assert np.array_equal(dropped.z, problem.z)
        assert len(dropped.schema) == len(schema8)
        assert dropped.mask is None

    def test_row_count_reduced_by_mask_size(self, schema8, noiseless8):
        y, z = noiseless8
        rng = np.random.default_rng(5)
        mask = rng.random(len(schema8)) < 0.3
        dropped = drop_missing(WlsProblem.from_schema(schema8, y, z, mask=mask))
        assert len(dropped.z) == len(schema8) - mask.sum()
        assert dropped.redundancy_ratio == pytest.approx(
            (len(schema8) - mask.sum()) / schema8.feeder.n_states
        )

    def test_probe_rejection_means_rank_deficient(self, schema8, noiseless8):
        # The probe and the first flat-start iteration share one normal-matrix
        # check, so every snapshot the probe rejects is rank deficient.
        y, z = noiseless8
        rejected = by_condition = 0
        for seed in range(100):
            rng = np.random.default_rng((78, seed))
            mask = rng.random(len(schema8)) < 0.25
            problem = WlsProblem.from_schema(schema8, y, z, mask=mask)
            if feasibility_check(problem):
                continue
            rejected += 1
            by_condition += int((~mask).sum()) >= schema8.feeder.n_states
            with pytest.raises(RankDeficient):
                estimate_wls(problem)
        assert 0 < by_condition < rejected < 100

    def test_monte_carlo_rank_deficiency_rate(self, schema8, noiseless8):
        y, z = noiseless8
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng((77, seed))
            mask = rng.random(len(schema8)) < 0.4
            problem = WlsProblem.from_schema(schema8, y, z, mask=mask)
            if not feasibility_check(problem):
                failures += 1
        assert failures > 0
        # at 40% masking the 58-channel schema drops below 42 usable rows
        # almost every draw
        assert failures / 100 > 0.5


def _raised_verdict(problem, **kwargs):
    try:
        estimate_wls(problem, **kwargs)
    except (RankDeficient, NoConvergence) as exc:
        return exc
    raise AssertionError("estimate_wls returned a state")


class TestRaisedVerdicts:
    """A raised verdict holds none of the solver's arrays, so a caller that
    keeps it (a log of outcomes) keeps no Jacobian or normal matrix alive."""

    def cases(self, schema8, noiseless8):
        y, z = noiseless8
        too_few = np.zeros(len(schema8), dtype=bool)
        too_few[:20] = True
        yield "too few rows", {}, WlsProblem.from_schema(schema8, y, z, mask=too_few)
        for seed in range(100):
            mask = np.random.default_rng((78, seed)).random(len(schema8)) < 0.25
            problem = WlsProblem.from_schema(schema8, y, z, mask=mask)
            if (~mask).sum() >= schema8.feeder.n_states and not feasibility_check(problem):
                yield "ill-conditioned", {}, problem
                break
        yield "iteration limit", {"max_iter": 1}, WlsProblem.from_schema(schema8, y, z)

    def test_traceback_frames_hold_only_the_problem_arrays(self, schema8, noiseless8):
        kinds = []
        for kind, kwargs, problem in self.cases(schema8, noiseless8):
            exc = _raised_verdict(problem, **kwargs)
            assert exc.__cause__ is None and exc.__context__ is None
            own = {id(a) for a in (problem.Y, problem.z, problem.weights, problem.mask)}
            tb = exc.__traceback__
            while tb is not None:
                for name, value in tb.tb_frame.f_locals.items():
                    assert not isinstance(value, np.ndarray) or id(value) in own, \
                        f"{kind}: {tb.tb_frame.f_code.co_name} holds array {name!r}"
                    assert not isinstance(value, WlsProblem) or value is problem, \
                        f"{kind}: {tb.tb_frame.f_code.co_name} holds a derived problem"
                tb = tb.tb_next
            kinds.append((kind, type(exc).__name__))
        assert kinds == [("too few rows", "RankDeficient"), ("ill-conditioned", "RankDeficient"),
                         ("iteration limit", "NoConvergence")]

    def test_dropped_verdict_is_freed_without_the_cycle_collector(self, schema8, noiseless8):
        refs = []
        gc.disable()
        try:
            for kind, kwargs, problem in self.cases(schema8, noiseless8):
                try:
                    estimate_wls(problem, **kwargs)
                except (RankDeficient, NoConvergence) as exc:
                    refs.append((kind, weakref.ref(exc)))
            assert [kind for kind, ref in refs if ref() is not None] == []
            assert len(refs) == 3
        finally:
            gc.enable()


class TestRoundingFloor:
    """A Gauss-Newton step within 10*tol that no halving can make descend ends
    the solve as converged: the objective has reached its rounding floor."""

    @pytest.fixture(scope="class")
    def stalling(self):
        # The default experiment (feeder_8bus, 500 steps, alpha 0.2, eval seed 0):
        # at step 434 the update shrinks to between 1e-8 and 1e-7 (at iteration
        # 32), and no halving of it lowers the objective.
        config = bench.ExperimentConfig()
        feeder, _, dataset = bench.generate_dataset(config)
        mask = bench.eval_mask(dataset, 0.2, 0)[434]
        return WlsProblem.from_schema(dataset.schema, admittance_matrix(feeder),
                                      dataset.z[434], mask=mask)

    def test_stall_within_ten_tol_converges(self, stalling):
        est = estimate_wls(stalling)
        assert est.converged
        kept = drop_missing(stalling)
        r = kept.z - h_eval(kept.schema, kept.Y, est.x)
        assert est.residual == pytest.approx(float(r @ (kept.weights * r)), rel=1e-12)
        j = jacobian_fd(kept.schema, kept.Y, est.x)
        a = (j.T * kept.weights) @ j
        step = np.linalg.solve(a, j.T @ (kept.weights * r))
        assert np.max(np.abs(step)) < 1e-6
        # The same path with tol ten times smaller puts the stalled update
        # beyond 10*tol, so the solve ended through the rounding-floor rule.
        with pytest.raises(NoConvergence, match="no descent step") as info:
            estimate_wls(stalling, tol=1e-9)
        assert info.value.iterations == est.iterations


def _eigenvalue_rule(J, w, iteration):
    """The rank verdict decided from the eigenvalues alone, as _normal_cholesky
    decided it before the shifted Cholesky: the reference it must equal."""
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


def _spectrum_case(n, kind):
    """(J, w) with J'WJ = Q diag(w) Q' for a random orthogonal Q: w holds the
    eigenvalues, log-spaced down to 1/cond, one negative when `kind` is
    "indefinite"; "singular" zeroes a column of J, so a row and a column of
    the normal matrix are exactly zero."""
    rng = np.random.default_rng((n, 17))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    J = np.array(Q.T, order="F")
    if kind == "indefinite":
        w = np.logspace(2, -4, n)
        w[n // 2] = -w[n // 2]
    elif kind == "singular":
        w = np.logspace(2, -4, n)
        J[:, n // 3] = 0.0
    else:
        w = 3e2 * np.logspace(0, -np.log10(kind), n)
    return J, w


class TestRankVerdict:
    """_normal_cholesky decides every matrix as the eigenvalue rule does, and
    certifies a well-conditioned one without computing eigenvalues."""

    @pytest.mark.parametrize("n", [42, 422])
    @pytest.mark.parametrize("kind", [1e9, 1e11, 9.9e11, 1e12, 1.01e12, 1e13, 1e16,
                                      "indefinite", "singular"])
    def test_verdict_and_factor_equal_the_eigenvalue_rule(self, n, kind):
        J, w = _spectrum_case(n, kind)
        got, want = wls._normal_cholesky(J, w, 3), _eigenvalue_rule(J, w, 3)
        assert type(got) is type(want)
        if isinstance(want, RankDeficient):
            assert str(got) == str(want)
        else:
            assert got.tobytes() == want.tobytes()
        if kind != 1e12:  # at the limit itself, rounding decides
            assert isinstance(got, np.ndarray) == (kind in (1e9, 1e11, 9.9e11))

    def test_well_conditioned_matrices_are_decided_without_eigenvalues(
            self, monkeypatch, schema8, noiseless8):
        def refuse(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        J, w = _spectrum_case(42, 1e9)
        assert wls._normal_cholesky(J, w, 1).tobytes() == \
            np.linalg.cholesky((J.T * w) @ J).tobytes()
        y, z = noiseless8
        problem = WlsProblem.from_schema(schema8, y, z)
        assert feasibility_check(problem)
        assert estimate_wls(problem).converged


def test_import_leaves_scipy_out():
    code = "import sys, gridtwin.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
