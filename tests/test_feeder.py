import numpy as np
import pytest

from gridtwin.errors import (
    CycleDetected,
    DisconnectedBus,
    DuplicateId,
    InvalidLoad,
    NoConvergence,
    SingularImpedance,
)
from gridtwin.feeder import (
    LoadScenario,
    admittance_matrix,
    build_feeder,
    flat_voltages,
    solve_power_flow,
    state_to_voltages,
    voltages_to_state,
)

from conftest import partial_phase_spec, two_bus_oracle, z3


def minimal_spec(**overrides):
    spec = {
        "buses": [{"id": "s", "phases": "a"}, {"id": "m", "phases": "a"}],
        "lines": [{"from": "s", "to": "m", "z": z3(0.01 + 0.02j)}],
        "slack": {"bus": "s", "voltage": {"a": [1.0, 0.0]}},
    }
    spec.update(overrides)
    return spec


class TestBuildFeeder:
    def test_smallest_valid_feeder(self):
        feeder = build_feeder(minimal_spec())
        assert len(feeder.lines) == 1
        assert feeder.order == ("s", "m")
        assert feeder.parent["m"] == "s"
        assert feeder.n_nodes == 2

    def test_duplicated_line_is_a_cycle(self):
        spec = minimal_spec()
        spec["lines"] = [
            {"from": "s", "to": "m", "z": z3(0.01 + 0.02j)},
            {"from": "m", "to": "s", "z": z3(0.01 + 0.02j)},
        ]
        with pytest.raises(CycleDetected):
            build_feeder(spec)

    def test_duplicate_bus_id(self):
        spec = minimal_spec()
        spec["buses"].append({"id": "m", "phases": "a"})
        with pytest.raises(DuplicateId):
            build_feeder(spec)

    def test_disconnected_bus(self):
        spec = minimal_spec()
        spec["buses"].append({"id": "orphan", "phases": "a"})
        spec["lines"].append({"from": "orphan", "to": "orphan2", "z": z3(0.01j)})
        with pytest.raises(DisconnectedBus):
            build_feeder(spec)

    def test_too_few_lines(self):
        spec = minimal_spec()
        spec["buses"].append({"id": "orphan", "phases": "a"})
        with pytest.raises(DisconnectedBus):
            build_feeder(spec)

    def test_singular_impedance(self):
        spec = minimal_spec()
        spec["lines"][0]["z"] = [[[0.0, 0.0]] * 3 for _ in range(3)]
        with pytest.raises(SingularImpedance):
            build_feeder(spec)

    def test_eight_bus_fixture_shape(self, feeder8):
        feeder, _ = feeder8
        assert len(feeder.lines) == 7
        assert feeder.n_nodes == 24
        assert feeder.n_states == 2 * 21

    def test_radiality_invariant(self, feeder8):
        feeder, _ = feeder8
        assert len(feeder.lines) == len(feeder.buses) - 1
        assert set(feeder.order) == {b.id for b in feeder.buses}

    def test_missing_phase_buses_supported(self):
        feeder = build_feeder(partial_phase_spec())
        assert feeder.n_nodes == 6  # 3 + 2 + 1 phase-nodes
        sol = solve_power_flow(feeder, LoadScenario({("e", "a"): 0.05 + 0.02j}))
        assert sol.mismatch <= 1e-8


class TestPowerFlow:
    def test_zero_load_is_exactly_flat(self, feeder8):
        feeder, _ = feeder8
        sol = solve_power_flow(feeder, LoadScenario.zero())
        assert np.array_equal(sol.v, flat_voltages(feeder))

    def test_two_bus_fixed_point_oracle(self, feeder2):
        feeder, nominal = feeder2
        sol = solve_power_flow(feeder, nominal, tol=1e-12)
        v2 = two_bus_oracle()
        assert abs(sol.v[feeder.node_index[("b2", "a")]] - v2) < 1e-10

    def test_eight_bus_converges(self, solved8):
        assert solved8.mismatch <= 1e-8
        assert solved8.iterations <= 50

    def test_mismatch_diagnostic_is_true_residual(self, feeder8, solved8):
        feeder, nominal = feeder8
        y = admittance_matrix(feeder)
        s_calc = solved8.v * np.conj(y @ solved8.v)
        s_load = np.zeros(feeder.n_nodes, dtype=complex)
        for (bus, phase), s in nominal.s.items():
            s_load[feeder.node_index[(bus, phase)]] = s
        ns = feeder.non_slack_nodes()
        assert np.max(np.abs(s_calc[ns] + s_load[ns])) == pytest.approx(solved8.mismatch)

    def test_determinism_bit_identical(self, feeder8):
        feeder, nominal = feeder8
        a = solve_power_flow(feeder, nominal)
        b = solve_power_flow(feeder, nominal)
        assert np.array_equal(a.v, b.v)
        assert a.iterations == b.iterations

    def test_overload_no_convergence(self, feeder8):
        feeder, nominal = feeder8
        with pytest.raises(NoConvergence):
            solve_power_flow(feeder, nominal.scaled(100.0))

    def test_monotone_voltage_under_extra_load(self, feeder8):
        feeder, nominal = feeder8
        base = solve_power_flow(feeder, nominal, tol=1e-10)
        for bus in ("b3", "b5", "b8"):
            bumped = LoadScenario(dict(nominal.s))
            bumped.s[(bus, "a")] = bumped.s[(bus, "a")] + 0.005
            sol = solve_power_flow(feeder, bumped, tol=1e-10)
            i = feeder.node_index[(bus, "a")]
            assert abs(sol.v[i]) <= abs(base.v[i]) + 1e-12

    def test_invalid_load_targets(self, feeder2):
        feeder, _ = feeder2
        with pytest.raises(InvalidLoad):
            solve_power_flow(feeder, LoadScenario({("nope", "a"): 0.1}))
        with pytest.raises(InvalidLoad):
            solve_power_flow(feeder, LoadScenario({("b1", "a"): 0.1}))
        with pytest.raises(InvalidLoad):
            solve_power_flow(feeder, LoadScenario({("b2", "a"): complex("nan")}))


class TestAdmittance:
    def test_textbook_two_node_form(self, feeder2):
        feeder, _ = feeder2
        z = 0.01 + 0.02j
        y = admittance_matrix(feeder)
        expected = np.array([[1 / z, -1 / z], [-1 / z, 1 / z]])
        assert np.allclose(y, expected, atol=1e-12)

    def test_power_crosscheck_against_power_flow(self, feeder2, solved2):
        feeder, nominal = feeder2
        y = admittance_matrix(feeder)
        s_inj = solved2.v * np.conj(y @ solved2.v)
        i = feeder.node_index[("b2", "a")]
        assert abs(s_inj[i] - (-nominal.s[("b2", "a")])) < 1e-8

    def test_symmetry_and_sparsity_pattern(self, feeder8):
        feeder, _ = feeder8
        y = admittance_matrix(feeder)
        assert np.array_equal(y, y.T)
        incident = set()
        for line in feeder.lines:
            pair = frozenset((line.from_bus, line.to_bus))
            incident.add(pair)
        for i, (bi, _) in enumerate(feeder.phase_nodes):
            for j, (bj, _) in enumerate(feeder.phase_nodes):
                if y[i, j] != 0 and bi != bj:
                    assert frozenset((bi, bj)) in incident

    def test_callers_get_their_own_copy(self, feeder2):
        # Y is built once per feeder; what a caller does to its copy changes
        # neither later copies nor the power flow.
        feeder, nominal = feeder2
        before = solve_power_flow(feeder, nominal, tol=1e-12)
        y = admittance_matrix(feeder)
        y[:] = 0.0
        flat = flat_voltages(feeder)
        flat[:] = 0.0
        assert np.all(admittance_matrix(feeder) != 0)
        assert np.all(flat_voltages(feeder) != 0)
        after = solve_power_flow(feeder, nominal, tol=1e-12)
        assert np.array_equal(before.v, after.v)
        with pytest.raises(ValueError):
            feeder.non_slack_nodes()[0] = 0

    def test_state_roundtrip(self, feeder8, solved8):
        feeder, _ = feeder8
        x = voltages_to_state(feeder, solved8.v)
        v = state_to_voltages(feeder, x)
        assert np.allclose(v, solved8.v, atol=0, rtol=0)
