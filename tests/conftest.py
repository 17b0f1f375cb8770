import numpy as np
import pytest

from gridtwin.feeder import fixture_path, load_fixture, solve_power_flow
from gridtwin.telemetry import default_schema


@pytest.fixture(scope="session")
def feeder2():
    feeder, nominal = load_fixture(fixture_path("feeder_2bus"))
    return feeder, nominal


@pytest.fixture(scope="session")
def feeder8():
    feeder, nominal = load_fixture(fixture_path("feeder_8bus"))
    return feeder, nominal


@pytest.fixture(scope="session")
def schema8(feeder8):
    feeder, _ = feeder8
    return default_schema(
        feeder,
        vmag_buses=["b2", "b4", "b6", "b8"],
        vang_nodes=["b5:a", "b5:b", "b5:c", "b8:a"],
    )


@pytest.fixture(scope="session")
def solved2(feeder2):
    feeder, nominal = feeder2
    return solve_power_flow(feeder, nominal, tol=1e-12)


@pytest.fixture(scope="session")
def solved8(feeder8):
    feeder, nominal = feeder8
    return solve_power_flow(feeder, nominal, tol=1e-10)


def z3(z):
    """Single-phase impedance embedded in a 3x3 grid."""
    grid = [[[0.0, 0.0]] * 3 for _ in range(3)]
    grid[0][0] = [z.real, z.imag]
    return grid


def partial_phase_spec():
    """Three-phase slack, a two-phase (a, c) bus and a one-phase (a) bus."""
    return {
        "buses": [
            {"id": "s", "phases": "abc"},
            {"id": "m", "phases": "ac"},
            {"id": "e", "phases": "a"},
        ],
        "lines": [
            {"from": "s", "to": "m", "z": [
                [[0.01, 0.03], [0.003, 0.01], [0.003, 0.01]],
                [[0.003, 0.01], [0.011, 0.031], [0.003, 0.01]],
                [[0.003, 0.01], [0.003, 0.01], [0.012, 0.032]],
            ]},
            {"from": "m", "to": "e", "z": z3(0.01 + 0.02j)},
        ],
        "slack": {"bus": "s", "voltage": {
            "a": [1.0, 0.0], "b": [-0.5, -0.866], "c": [-0.5, 0.866],
        }},
    }


def two_bus_oracle(v1=1.0 + 0.0j, z=0.01 + 0.02j, s2=0.1 + 0.05j, iters=200):
    """Scalar fixed-point iteration V2 = V1 - z * conj(S2 / V2)."""
    v2 = v1
    for _ in range(iters):
        v2 = v1 - z * np.conj(s2 / v2)
    return v2
