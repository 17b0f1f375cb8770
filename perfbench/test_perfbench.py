"""Fast tests of the benchmark's own checks: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
from gridtwin.bench import write_metrics_csv, write_summary_csv  # noqa: E402
from gridtwin.feeder import admittance_matrix, fixture_path, load_fixture  # noqa: E402
from gridtwin.feeder import solve_power_flow, voltages_to_state  # noqa: E402
from gridtwin.telemetry import default_schema, measure_many  # noqa: E402
from gridtwin.wls import WlsProblem, estimate_wls, jacobian_fd  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    feeder, nominal = load_fixture(fixture_path("feeder_8bus"))
    schema = default_schema(feeder, vmag_buses=["b2", "b4", "b6", "b8"],
                            vang_nodes=["b5:a", "b5:b", "b5:c", "b8:a"])
    sol = solve_power_flow(feeder, nominal, tol=1e-12)
    return feeder, nominal, schema, admittance_matrix(feeder), sol


def test_h_reproduces_power_flow_injections(solved):
    feeder, nominal, schema, Y, sol = solved
    x = voltages_to_state(feeder, sol.v)
    z = oracle.h(oracle.Channels.of(schema), Y, oracle.voltages(feeder, x))
    for value, ch in zip(z, schema.channels):
        v = sol.v[feeder.node_index[(ch.bus, ch.phase)]]
        load = nominal.s.get((ch.bus, ch.phase), 0.0)
        want = {"P_injection": -load.real, "Q_injection": -load.imag,
                "V_magnitude": abs(v), "V_angle": np.angle(v)}[ch.kind]
        assert value == pytest.approx(want, abs=1e-10), ch.name
    assert np.allclose(z, measure_many(sol.v[:, None], Y, schema)[:, 0], rtol=0, atol=1e-12)


def test_jacobian_agrees_with_the_program(solved):
    feeder, _, schema, Y, sol = solved
    x = voltages_to_state(feeder, sol.v)
    ours = oracle.jacobian(oracle.Channels.of(schema), Y, feeder, x)
    assert ours.shape == (len(schema), len(x))
    assert np.allclose(ours, jacobian_fd(schema, Y, x), rtol=1e-6, atol=1e-6)


def test_gauss_newton_step_vanishes_at_a_wls_solution(solved):
    feeder, _, schema, Y, sol = solved
    z = measure_many(sol.v[:, None], Y, schema)[:, 0]
    problem = WlsProblem.from_schema(schema, Y, z)
    est = estimate_wls(problem)
    step, objective = oracle.gauss_newton_step(oracle.Channels.of(schema), Y, feeder, z,
                                               problem.weights, est.x)
    assert np.max(np.abs(step)) < 1e-9
    assert objective < 1e-10
    moved, _ = oracle.gauss_newton_step(oracle.Channels.of(schema), Y, feeder, z,
                                        problem.weights, est.x + 1e-3)
    assert np.max(np.abs(moved)) > 1e-4


@pytest.mark.parametrize("n, pct, rank", [
    (2500, 99.0, 2475),  # p99 leaves 25 beyond
    (1650, 100 * 1634 / 1650, 1634),  # nearest rank of p99 leaves 16 beyond
    (500, 98.0, 490),    # p99 would leave 5: fall back to exactly 10 beyond
    (11, 100 / 11, 1),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, rank):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    got_pct, value, count = oracle.tail_percentile(samples)
    assert (got_pct, value, count) == (pytest.approx(pct), float(rank), n)
    assert sum(s > value for s in samples) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        oracle.tail_percentile(list(range(10)))


def test_summary_recomputation(tmp_path):
    rng = np.random.default_rng(0)
    rows = [{"method": m, "alpha": a, "seed": s, "metric": k, "value": float(rng.random())}
            for m in ("dt", "wls") for a in (0.0, 0.4) for s in range(12)
            for k in ("mae_mag", "rank_deficient_fraction")]
    write_metrics_csv(tmp_path / "metrics.csv", rows)
    write_summary_csv(tmp_path / "summary.csv", rows)
    assert oracle.summary_matches(tmp_path / "summary.csv", tmp_path / "metrics.csv") == (True, "")
    text = (tmp_path / "summary.csv").read_text().splitlines()
    cells = text[1].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-9))
    text[1] = ",".join(cells)
    (tmp_path / "summary.csv").write_text("\n".join(text) + "\n")
    assert not oracle.summary_matches(tmp_path / "summary.csv", tmp_path / "metrics.csv")[0]


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
