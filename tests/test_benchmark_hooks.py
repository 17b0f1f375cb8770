"""The benchmark in perfbench/ wraps gridtwin functions and methods by name;
these tests fail when one of them disappears or moves off its class, or when
the sweep stops calling a bench stage through its module global."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

from gridtwin import bench, model, telemetry  # noqa: E402


@pytest.mark.parametrize("install", [layers.install, layers.install_timers])
def test_benchmark_wrappers_install_and_uninstall(install):
    originals = (bench.evaluate_model, telemetry.measure, model.DtModel.__dict__["forward_window"])
    tr = Tracer()
    install(tr)
    try:
        assert tr._undo
        for owner, key, original in tr._undo:
            assert getattr(owner, key) is not original
    finally:
        tr.uninstall()
    assert (bench.evaluate_model, telemetry.measure,
            model.DtModel.__dict__["forward_window"]) == originals


def test_traced_sweep_reaches_every_stage(tmp_path):
    config = bench.ExperimentConfig(
        steps=40, alphas=(0.0,), seeds=(0,), wls_failure_seeds=1,
        output_dir=str(tmp_path / "out"),
        model={"d": 8, "d_ff": 16, "blocks": 1, "heads": 2, "groups": 1, "window": 4,
               "epochs": 1, "seed": 7},
    )
    tr = Tracer()
    layers.install(tr)
    try:
        bench.run_sweep(config)
    finally:
        tr.uninstall()
    assert {span: tr.calls[span] > 0 for span in layers.STAGES.values()} == \
        {span: True for span in layers.STAGES.values()}
