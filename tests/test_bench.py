from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridtwin import bench
from gridtwin.bench import (
    ExperimentConfig,
    daily_load_profiles,
    emit_report,
    read_metrics_csv,
    read_timeseries_csv,
    write_summary_csv,
)
from gridtwin.model import ConcatBaselineModel, DtModel
from gridtwin.errors import ConfigError, InvalidAlpha, LengthMismatch
from gridtwin.feeder import LoadScenario, fixture_path, load_fixture
from gridtwin.metrics import compute_metrics, summarize, wrap_angle
from gridtwin.telemetry import build_dataset, draw_mask, export_csv, import_csv

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = (ROOT / "configs" / "smoke.yaml", ROOT / "configs" / "sweep_8bus.yaml",
                   ROOT / "perfbench" / "protocol.yaml")


class TestMetrics:
    def test_exact_match_all_zero(self):
        x = np.random.default_rng(0).normal(size=(10, 8))
        m = compute_metrics(x, x)
        assert m["rmse_pct"] == 0.0
        assert m["mae_mag"] == 0.0
        assert m["mae_ang"] == 0.0

    def test_uniform_magnitude_offset(self):
        rng = np.random.default_rng(1)
        k = 5
        mags = rng.uniform(0.9, 1.1, size=(20, k))
        angs = rng.uniform(-0.5, 0.5, size=(20, k))
        v_true = mags * np.exp(1j * angs)
        v_hat = (mags + 0.01) * np.exp(1j * angs)
        x_true = np.hstack([v_true.real, v_true.imag])
        x_hat = np.hstack([v_hat.real, v_hat.imag])
        m = compute_metrics(x_hat, x_true)
        assert m["mae_mag"] == pytest.approx(0.01, abs=1e-12)
        assert m["rmse_pct"] == pytest.approx(1.0, abs=1e-9)
        assert m["mae_ang"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        k, steps = 4, 100
        x_true = rng.normal(size=(steps, 2 * k)) + np.tile([1.0] * k + [0.0] * k, (steps, 1))
        x_hat = x_true + 0.01 * rng.normal(size=x_true.shape)
        m = compute_metrics(x_hat, x_true)
        mag_sq, mag_abs, ang_abs = 0.0, 0.0, 0.0
        for t in range(steps):
            for i in range(k):
                vt = complex(x_true[t, i], x_true[t, k + i])
                vh = complex(x_hat[t, i], x_hat[t, k + i])
                dm = abs(vh) - abs(vt)
                da = np.angle(np.exp(1j * (np.angle(vh) - np.angle(vt))))
                mag_sq += dm * dm
                mag_abs += abs(dm)
                ang_abs += abs(da)
        n = steps * k
        assert m["rmse_pct"] == pytest.approx(100 * np.sqrt(mag_sq / n), abs=1e-12)
        assert m["mae_mag"] == pytest.approx(mag_abs / n, abs=1e-12)
        assert m["mae_ang"] == pytest.approx(ang_abs / n, abs=1e-12)

    def test_angle_wraparound(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
        assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)
        assert wrap_angle(np.pi) == pytest.approx(np.pi)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compute_metrics(np.zeros((3, 4)), np.zeros((4, 4)))


class TestConfig:
    def test_from_yaml_round_trip(self, tmp_path):
        config = ExperimentConfig()
        path = tmp_path / "config.yaml"
        config.echo(path)
        back = ExperimentConfig.from_yaml(path)
        assert back.to_dict() == config.to_dict()

    def test_layout_names_every_field_once(self):
        names = [name for _, _, name, _ in bench.CONFIG_LAYOUT]
        assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))
        keys = [(section, key) for section, key, _, _ in bench.CONFIG_LAYOUT]
        assert len(set(keys)) == len(keys)

    def test_every_non_default_field_round_trips(self, tmp_path):
        changed = dict(
            feeder="feeder_2bus", steps=60, train_fraction=0.7, profile_seed=5, day_steps=24,
            amplitude=0.3, jitter=0.02, noise_seed=9, power_sigma=0.02, vmag_sigma=0.002,
            vang_sigma=0.003, train_alpha=0.1, vmag_buses=("b2",), vang_nodes=("b2:a",),
            model={"d": 8, "heads": 2, "groups": 1, "window": 4, "optimizer": "adam"},
            alphas=(0.0, 0.25), seeds=(3, 4), wls_failure_seeds=2, timeseries_node="b2:a",
            output_dir=str(tmp_path / "elsewhere"))
        assert set(changed) == {f.name for f in fields(ExperimentConfig)}
        default = ExperimentConfig()
        assert all(getattr(default, name) != value for name, value in changed.items())
        config = ExperimentConfig(**changed)
        path = tmp_path / "config.yaml"
        config.echo(path)
        back = ExperimentConfig.from_yaml(path)
        assert back == config
        assert [type(getattr(back, name)) for name in changed] == \
            [type(value) for value in changed.values()]
        assert list(back.to_dict()) == ["format_version", "feeder", "steps", "train_fraction",
                                        "profile", "noise_seed", "schema", "model",
                                        "evaluation", "output_dir"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(tmp_path / "absent.yaml")

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(alphas=(0.0, 0.99)).validate()

    def test_needs_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=()).validate()

    @pytest.mark.parametrize("raw, key", [
        ({"bogus": 1}, "bogus"),
        ({"profile": {"seeds": 3}}, "seeds"),
        ({"schema": {"vmag_sigmas": 0.01}}, "vmag_sigmas"),
        ({"evaluation": {"alpha": [0.0]}}, "alpha"),
    ], ids=["config", "profile", "schema", "evaluation"])
    def test_unknown_keys_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=f"\\['{key}'\\]"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("raw", [{"steps": "abc"}, {"profile": {"jitter": "x"}},
                                     {"evaluation": {"seeds": [None]}}, {"schema": 3}, "abc"])
    def test_unparseable_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("evaluation", "seeds", "12"), ("evaluation", "seeds", 12),
        ("evaluation", "alphas", "0.2"), ("evaluation", "alphas", 0.2),
        ("schema", "vang_nodes", "b5:a"), ("schema", "vmag_buses", "b2")])
    def test_list_keys_refuse_a_string_or_scalar(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected a list"):
            ExperimentConfig.from_dict({section: {key: value}})

    def test_list_keys_parse_each_entry(self):
        config = ExperimentConfig.from_dict({
            "schema": {"vmag_buses": ["b2"], "vang_nodes": ["b5:a", "b8:a"]},
            "evaluation": {"alphas": [0, "0.25"], "seeds": [3, "12"]}})
        assert (config.vmag_buses, config.vang_nodes) == (("b2",), ("b5:a", "b8:a"))
        assert (config.alphas, config.seeds) == ((0.0, 0.25), (3, 12))
        with pytest.raises(ConfigError, match="evaluation.seeds"):
            ExperimentConfig.from_dict({"evaluation": {"seeds": [1, "x"]}})

    @pytest.mark.parametrize("model", [{"groups": 0}, {"heads": 0}, {"d": 0}, {"d_ff": 0},
                                       {"blocks": -1}, {"epochs": -1}, {"lr": -1.0},
                                       {"lr": float("nan")}, {"lr": float("inf")}])
    def test_impossible_model_sizes_and_rates_are_config_errors(self, model):
        with pytest.raises(ConfigError, match=next(iter(model))):
            ExperimentConfig(model=model).validate()
        ExperimentConfig(model={"epochs": 0, "lr": 0.0}).validate()

    def test_training_split_must_hold_a_window(self):
        # build_dataset's split: max(1, round(train_fraction * steps)) steps
        ExperimentConfig(steps=40, train_fraction=0.2, model={"window": 8}).validate()
        with pytest.raises(ConfigError, match=r"training split \(4 of 40 steps"):
            ExperimentConfig(steps=40, train_fraction=0.1, model={"window": 8}).validate()
        with pytest.raises(ConfigError, match=r"training split \(1 of 40 steps"):
            ExperimentConfig(steps=40, train_fraction=0.01, model={"window": 2}).validate()

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigError, match="heads_per_group"):
            ExperimentConfig(model={"heads_per_group": 2}).validate()

    @pytest.mark.parametrize("model", [{"heads": 3}, {"optimizer": "rmsprop"},
                                       {"d": 6, "heads": 4}, {"window": 0}])
    def test_model_config_rules_are_config_errors(self, model):
        with pytest.raises(ConfigError):
            ExperimentConfig(model=model).validate()

    def test_window_must_be_shorter_than_steps(self):
        # train_fraction 0.9 keeps a training split of 8 steps, one full window
        ExperimentConfig(steps=9, train_fraction=0.9, model={"window": 8}).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(steps=8, model={"window": 8}).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(steps=8).validate()  # default window 8


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestYamlLoader:
    """libyaml's loader reads every shipped file to what the Python one reads."""

    FIXTURES = tuple(sorted(Path(fixture_path("feeder_8bus")).parent.glob("*.yaml")))
    SHIPPED = SHIPPED_CONFIGS + FIXTURES

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_equal_objects(self, path):
        text = path.read_text(encoding="utf-8")
        python, libyaml = (yaml.load(text, Loader=loader)
                           for loader in (yaml.SafeLoader, yaml.CSafeLoader))
        assert python == libyaml and repr(python) == repr(libyaml)

    def test_the_package_parses_with_libyaml(self, monkeypatch):
        assert bench.YAML_LOADER is yaml.CSafeLoader
        fast = [ExperimentConfig.from_yaml(path) for path in SHIPPED_CONFIGS]
        monkeypatch.setattr(bench, "YAML_LOADER", yaml.SafeLoader)
        assert fast == [ExperimentConfig.from_yaml(path) for path in SHIPPED_CONFIGS]


class TestSchemaLayout:
    def test_unknown_buses_and_nodes_are_named(self):
        feeder, _ = load_fixture(fixture_path("feeder_8bus"))
        config = ExperimentConfig(vmag_buses=("b2", "b99"),
                                  vang_nodes=("b5:a", "b5:d", "b5", 5))
        with pytest.raises(ConfigError, match=r"\['b99', 'b5:d', 'b5', 5\]"):
            bench.make_schema(config, feeder, 0.0)

    def test_empty_voltage_buses_meter_every_non_slack_bus(self):
        feeder, _ = load_fixture(fixture_path("feeder_8bus"))
        every = [b.id for b in feeder.buses if b.id != feeder.slack_bus]
        assert (bench.make_schema(ExperimentConfig(vmag_buses=()), feeder, 0.0).names
                == bench.make_schema(ExperimentConfig(vmag_buses=tuple(every)), feeder,
                                     0.0).names)


def scalar_profiles(base, steps, seed, day_steps=96, amplitude=0.35, jitter=0.05):
    """The load profiles drawn and scaled one bus and one step at a time."""
    buses = sorted({bus for (bus, _) in base.s})
    rng = np.random.default_rng((seed, 0))
    scale = {b: rng.uniform(0.85, 1.15) for b in buses}
    offset = {b: rng.uniform(0.0, 2 * np.pi) for b in buses}
    profiles = []
    for t in range(steps):
        eps = {b: rng.standard_normal() for b in buses}
        factors = {
            b: scale[b]
            * (1.0 + amplitude * np.sin(2 * np.pi * t / day_steps + offset[b]))
            * (1.0 + jitter * eps[b])
            for b in buses
        }
        profiles.append(LoadScenario({
            (bus, phase): s * factors[bus] for (bus, phase), s in base.s.items()
        }))
    return profiles


class TestProfiles:
    @pytest.mark.parametrize("fixture, steps, seed, day_steps, amplitude, jitter", [
        ("feeder_8bus", 500, 11, 96, 0.5, 0.1),
        ("feeder_8bus", 120, 11, 48, 0.5, 0.1),
        ("feeder_8bus", 97, 0, 7, 0.35, 0.05),
        ("feeder_8bus", 1, 12345, 96, 0.0, 0.0),
        ("feeder_2bus", 60, 5, 24, 0.3, 0.02),
    ])
    def test_series_equals_scalar_loop(self, fixture, steps, seed, day_steps, amplitude,
                                       jitter):
        _, nominal = load_fixture(fixture_path(fixture))
        series = daily_load_profiles(nominal, steps, seed, day_steps, amplitude, jitter)
        want = scalar_profiles(nominal, steps, seed, day_steps, amplitude, jitter)
        assert series.keys == tuple(nominal.s) and series.s.shape == (steps, len(nominal.s))
        assert series.s.tobytes() == np.array([list(p.s.values()) for p in want]).tobytes()
        for got, ref in zip(series, want):
            assert list(got.s) == list(ref.s)
            assert [type(d) for d in got.s.values()] == [type(d) for d in ref.s.values()]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_dataset_equals_the_per_scenario_path(self, path):
        config = ExperimentConfig.from_yaml(path)
        feeder, schema, dataset = bench.generate_dataset(config)
        _, nominal = bench.resolve_feeder(config)
        profiles = scalar_profiles(nominal, config.steps, config.profile_seed,
                                   config.day_steps, config.amplitude, config.jitter)
        want = build_dataset(feeder, profiles, schema, seed=config.noise_seed,
                             train_fraction=config.train_fraction)
        for name in ("z", "x", "mask", "norm_mean", "norm_std"):
            assert getattr(dataset, name).tobytes() == getattr(want, name).tobytes(), name

    def test_seeded_and_deterministic(self, feeder8):
        _, nominal = feeder8
        a = daily_load_profiles(nominal, 10, seed=3)
        b = daily_load_profiles(nominal, 10, seed=3)
        c = daily_load_profiles(nominal, 10, seed=4)
        assert all(p.s == q.s for p, q in zip(a, b))
        assert any(p.s != q.s for p, q in zip(a, c))

    def test_daily_shape(self, feeder8):
        _, nominal = feeder8
        profiles = daily_load_profiles(nominal, 96, seed=3, day_steps=96,
                                       amplitude=0.4, jitter=0.0)
        key = ("b5", "a")
        series = np.array([p.s[key].real for p in profiles])
        assert series.min() > 0
        swing = series.max() / series.min()
        assert swing > 1.5  # the sinusoid actually moves the load


class TestEvalMask:
    @pytest.fixture(scope="class")
    def dataset(self):
        return bench.generate_dataset(ExperimentConfig(steps=60))[2]

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.4, 0.95])
    def test_equals_the_draw_on_a_uniform_alpha_schema(self, dataset, alpha):
        for seed in (0, 3):
            rng = np.random.default_rng((9001, seed, bench._alpha_key(alpha)))
            want = draw_mask(dataset.schema.with_alpha(alpha), rng, steps=dataset.n_steps)
            assert np.array_equal(bench.eval_mask(dataset, alpha, seed), want)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, float("nan")])
    def test_alpha_outside_unit_interval(self, dataset, alpha):
        with pytest.raises(InvalidAlpha):
            bench.eval_mask(dataset, alpha, 0)


class TestReport:
    def rows(self):
        rows = []
        for method in ("dt", "wls"):
            for alpha in (0.0, 0.2):
                for seed in (0, 1, 2):
                    for metric in ("rmse_pct", "mae_mag", "mae_ang"):
                        rows.append({
                            "method": method, "alpha": alpha, "seed": seed,
                            "metric": metric,
                            "value": 0.01 * (seed + 1) + alpha + (method == "wls"),
                        })
        return rows

    def test_empty_report(self, tmp_path):
        written = emit_report([], tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text()
        summary = (tmp_path / "summary.csv").read_text()
        assert metrics.strip() == "method,alpha,seed,metric,value"
        assert summary.strip() == "method,alpha,metric,min,mean,max"
        assert not (tmp_path / "sweep.svg").exists()

    def test_metrics_round_trip(self, tmp_path):
        rows = self.rows()
        emit_report(rows, tmp_path)
        back = read_metrics_csv(tmp_path / "metrics.csv")
        assert back == rows

    def test_summary_recomputable_exactly(self, tmp_path):
        rows = self.rows()
        emit_report(rows, tmp_path)
        back = read_metrics_csv(tmp_path / "metrics.csv")
        first = (tmp_path / "summary.csv").read_text()
        write_summary_csv(tmp_path / "summary2.csv", back)
        assert (tmp_path / "summary2.csv").read_text() == first
        recomputed = summarize(back)
        for rec in recomputed:
            assert rec["min"] <= rec["mean"] <= rec["max"]

    def test_sweep_svg_polyline_per_method_per_metric(self, tmp_path):
        rows = self.rows()
        emit_report(rows, tmp_path)
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.count("<polyline") == 2 * 3  # methods x metrics

    def test_timeseries_artifacts(self, tmp_path):
        rows = self.rows()
        steps = list(range(40, 50))
        columns = [("truth", list(np.linspace(0.99, 1.0, 10))),
                   ("dt", list(np.linspace(0.98, 1.01, 10)))]
        emit_report(rows, tmp_path, timeseries=("b5:a", steps, columns))
        svg = (tmp_path / "timeseries.svg").read_text()
        assert svg.count("<polyline") == 2
        back_steps, back_columns = read_timeseries_csv(tmp_path / "timeseries.csv")
        assert back_steps == steps
        assert back_columns[0][0] == "truth"
        assert np.allclose(back_columns[1][1], columns[1][1], atol=0)


class TestSweepTimeseries:
    def test_reuses_first_grid_point_and_matches_fresh_evaluation(self, tmp_path, monkeypatch):
        config = ExperimentConfig(
            steps=40, vmag_sigma=0.004, vang_sigma=0.002, alphas=(0.2, 0.0), seeds=(1, 0),
            wls_failure_seeds=1, output_dir=str(tmp_path / "out"),
            model={"d": 8, "d_ff": 16, "blocks": 1, "heads": 2, "groups": 1, "window": 4,
                   "epochs": 1, "seed": 7},
        )
        calls = {"evaluate_model": 0, "evaluate_wls": 0}
        for name in calls:
            original = getattr(bench, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(bench, name, counted)
        bench.run_sweep(config)
        points = len(config.alphas) * len(config.seeds)
        assert calls == {"evaluate_model": 2 * points, "evaluate_wls": points}

        # The time series written from reused estimates equals one evaluated afresh.
        out = tmp_path / "out"
        _, _, dataset = bench.generate_dataset(config)
        feeder, _ = bench.resolve_feeder(config)
        alpha, seed = config.alphas[0], config.seeds[0]
        _, dt, steps = bench.evaluate_model(DtModel.load(out / "checkpoint.json"),
                                            dataset, alpha, seed)
        _, ablation, _ = bench.evaluate_model(
            ConcatBaselineModel.load(out / "checkpoint_ablation.json"), dataset, alpha, seed)
        _, _, wls, wls_steps = bench.evaluate_wls(feeder, dataset, alpha, seed, 4)
        fresh = bench.build_timeseries(config, dataset, steps, dt, ablation, wls, wls_steps)
        bench.write_timeseries_csv(tmp_path / "fresh.csv", fresh[1], fresh[2])
        assert (tmp_path / "fresh.csv").read_bytes() == (out / "timeseries.csv").read_bytes()


class TestImportedBlanks:
    """Blank cells of an imported CSV are missing for WLS and its rank probe,
    not zero readings."""

    @pytest.fixture(scope="class")
    def generated(self):
        feeder, _, dataset = bench.generate_dataset(ExperimentConfig(steps=60))
        return feeder, dataset

    def round_trip(self, tmp_path, dataset, columns):
        mask = dataset.mask.copy()
        mask[:, columns] = True
        blanked = replace(dataset, mask=mask)
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(blanked, mp, sp)
        imported = import_csv(mp, sp, dataset.schema)
        assert np.array_equal(imported.mask, mask) and not imported.z[:, columns].any()
        return blanked, imported

    def test_blank_column_is_left_out_of_wls(self, tmp_path, generated):
        feeder, dataset = generated
        column = [c.kind for c in dataset.schema].index("V_magnitude")
        blanked, imported = self.round_trip(tmp_path, dataset, [column])
        window = 4
        metrics, counts, estimates, steps = bench.evaluate_wls(feeder, imported, 0.0, 0, window)
        # The in-memory dataset keeps the true readings under its mask, so the
        # two agree only when the masked column is left out.
        want = bench.evaluate_wls(feeder, blanked, 0.0, 0, window)
        assert (metrics, counts, steps) == (want[0], want[1], want[3])
        assert np.array_equal(estimates, want[2])
        assert counts["feasible_fraction"] == 1.0
        generated_mae = bench.evaluate_wls(feeder, dataset, 0.0, 0, window)[0]["mae_mag"]
        assert metrics["mae_mag"] < 2 * generated_mae

    def test_blank_columns_count_against_observability(self, tmp_path, generated):
        feeder, dataset = generated
        spare = len(dataset.schema) - dataset.n_states
        _, imported = self.round_trip(tmp_path, dataset, list(range(spare + 1)))
        assert bench.wls_failure_fraction(feeder, imported, 0.0, 0, 4) == 1.0
        _, counts, _, _ = bench.evaluate_wls(feeder, imported, 0.0, 0, 4)
        assert counts == {"feasible_fraction": 0.0, "rank_deficient_fraction": 1.0}
