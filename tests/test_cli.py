import dataclasses
import json
import subprocess
import sys

import pytest
import yaml

from gridtwin import autodiff as ad
from gridtwin.bench import read_metrics_csv
from gridtwin.model import ConcatBaselineModel, ModelConfig

CONFIG = {
    "format_version": 1,
    "feeder": "feeder_8bus",
    "steps": 40,
    "train_fraction": 0.8,
    "profile": {"seed": 11, "day_steps": 24, "amplitude": 0.35, "jitter": 0.05},
    "noise_seed": 23,
    "schema": {
        "power_sigma": 0.01, "vmag_sigma": 0.004, "vang_sigma": 0.002,
        "train_alpha": 0.05,
        "vmag_buses": ["b2", "b4", "b6", "b8"],
        "vang_nodes": ["b5:a", "b5:b", "b5:c", "b8:a"],
    },
    "model": {"d": 8, "d_ff": 16, "blocks": 1, "heads": 2, "groups": 1,
              "window": 4, "lr": 0.001, "epochs": 2, "seed": 7},
    "evaluation": {"alphas": [0.0, 0.4], "seeds": [0], "wls_failure_seeds": 2,
                   "timeseries_node": "b5:a"},
    "output_dir": "OVERRIDDEN",
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gridtwin.cli", *args],
        capture_output=True, text=True,
    )


@pytest.fixture()
def config_path(tmp_path):
    cfg = dict(CONFIG)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestGen:
    def test_writes_csvs(self, config_path, tmp_path):
        result = run_cli("gen", "--config", str(config_path))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "out"
        assert (out / "measurements.csv").exists()
        assert (out / "states.csv").exists()
        assert (out / "config_used.yaml").exists()
        header = (out / "measurements.csv").read_text().splitlines()[0]
        assert header.startswith("P_injection:b2:a,")

    def test_missing_fixture_is_config_error(self, config_path):
        result = run_cli("gen", "--config", str(config_path),
                         "--feeder", "no/such/feeder.yaml")
        assert result.returncode == 2
        assert "no/such/feeder.yaml" in result.stderr

    def test_missing_config_file(self, tmp_path):
        result = run_cli("gen", "--config", str(tmp_path / "absent.yaml"))
        assert result.returncode == 2


class TestTrainEval:
    def test_train_then_eval(self, config_path, tmp_path):
        result = run_cli("train", "--config", str(config_path))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "out"
        assert (out / "checkpoint.json").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 3  # header + 2 epochs

        result = run_cli("eval", "--config", str(config_path))
        assert result.returncode == 0, result.stderr
        rows = read_metrics_csv(out / "metrics.csv")
        assert {r["method"] for r in rows} == {"dt"}
        assert {r["alpha"] for r in rows} == {0.0, 0.4}

    def test_eval_labels_rows_by_the_checkpoints_model_kind(self, config_path, tmp_path):
        assert run_cli("sweep", "--config", str(config_path)).returncode == 0
        out = tmp_path / "out"
        result = run_cli("eval", "--config", str(config_path), "--out", str(tmp_path / "ab"),
                         "--checkpoint", str(out / "checkpoint_ablation.json"))
        assert result.returncode == 0, result.stderr
        rows = read_metrics_csv(tmp_path / "ab" / "metrics.csv")
        assert {r["method"] for r in rows} == {"ablation"}
        assert rows == [r for r in read_metrics_csv(out / "metrics.csv")
                        if r["method"] == "ablation"]

    def test_eval_without_checkpoint(self, config_path, tmp_path):
        result = run_cli("eval", "--config", str(config_path))
        assert result.returncode == 2
        assert "checkpoint" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_train_from_imported_csvs(self, config_path, tmp_path):
        assert run_cli("gen", "--config", str(config_path)).returncode == 0
        out = tmp_path / "out"
        result = run_cli(
            "train", "--config", str(config_path),
            "--measurements", str(out / "measurements.csv"),
            "--states", str(out / "states.csv"),
        )
        assert result.returncode == 0, result.stderr


class TestWls:
    def test_wls_rows(self, config_path, tmp_path):
        result = run_cli("wls", "--config", str(config_path), "--alphas", "0")
        assert result.returncode == 0, result.stderr
        rows = read_metrics_csv(tmp_path / "out" / "metrics.csv")
        metrics = {r["metric"] for r in rows}
        assert "feasible_fraction" in metrics
        assert "mae_mag" in metrics


class TestSweepDeterminism:
    def test_metrics_csv_byte_identical_across_runs(self, config_path, tmp_path):
        result = run_cli("sweep", "--config", str(config_path), "--jobs", "1")
        assert result.returncode == 0, result.stderr
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        result = run_cli("sweep", "--config", str(config_path), "--jobs", "1")
        assert result.returncode == 0, result.stderr
        second = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert first == second

    def test_report_rebuild_matches(self, config_path, tmp_path):
        assert run_cli("sweep", "--config", str(config_path)).returncode == 0
        out = tmp_path / "out"
        rebuilt = tmp_path / "rebuilt"
        result = run_cli("report", "--metrics", str(out / "metrics.csv"),
                         "--out", str(rebuilt))
        assert result.returncode == 0, result.stderr
        for name in ("metrics.csv", "summary.csv", "timeseries.csv"):
            assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name
        assert (rebuilt / "sweep.svg").exists()
        assert (rebuilt / "timeseries.svg").exists()

    def test_report_missing_metrics(self, tmp_path):
        result = run_cli("report", "--metrics", str(tmp_path / "nope.csv"))
        assert result.returncode == 2


class TestExitCodes:
    def test_numeric_failure_is_exit_3(self, tmp_path):
        cfg = dict(CONFIG)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["model"] = dict(cfg["model"], lr=1e6, epochs=30)
        path = tmp_path / "diverge.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = run_cli("train", "--config", str(path))
        assert result.returncode == 3
        assert "numeric failure" in result.stderr

    def test_io_failure_is_exit_4(self, config_path):
        result = run_cli("gen", "--config", str(config_path),
                         "--out", "/dev/null/not-a-dir")
        assert result.returncode == 4

    def test_unknown_model_key_is_exit_2(self, tmp_path):
        cfg = dict(CONFIG)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["model"] = dict(cfg["model"], dropout=0.1)
        path = tmp_path / "unknown_key.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = run_cli("train", "--config", str(path))
        assert result.returncode == 2
        assert "dropout" in result.stderr

    @pytest.mark.parametrize("key, value", [("heads", 3), ("optimizer", "rmsprop")])
    def test_invalid_model_value_is_exit_2(self, tmp_path, key, value):
        cfg = dict(CONFIG)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["model"] = dict(cfg["model"], **{key: value})
        path = tmp_path / "bad_model.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = run_cli("train", "--config", str(path))
        assert result.returncode == 2
        assert "config error" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("key, value", [("steps", "abc"),
                                            ("evaluation", {"alpha": [0.0]})])
    def test_bad_config_value_or_section_key_is_exit_2(self, tmp_path, key, value):
        cfg = dict(CONFIG, output_dir=str(tmp_path / "out"), **{key: value})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = run_cli("gen", "--config", str(path))
        assert result.returncode == 2
        assert "config error" in result.stderr and "Traceback" not in result.stderr

    def test_sweep_jobs_other_than_one_is_exit_2(self, config_path):
        result = run_cli("sweep", "--config", str(config_path), "--jobs", "2")
        assert result.returncode == 2
        assert "--jobs" in result.stderr

    @pytest.mark.parametrize("key, value", [("groups", 0), ("heads", 0), ("d", 0), ("d_ff", 0),
                                            ("blocks", -1), ("window", -2), ("epochs", -1),
                                            ("lr", -1), ("lr", ".nan"), ("lr", ".inf"),
                                            ("lr", "1e-3"), ("epochs", 8.5), ("window", "6.0"),
                                            ("positional_encoding", 1)])
    def test_impossible_model_size_or_rate_is_exit_2(self, tmp_path, key, value):
        cfg = dict(CONFIG, output_dir=str(tmp_path / "out"))
        cfg["model"] = dict(cfg["model"], **{key: "VALUE"})
        path = tmp_path / "bad_model.yaml"
        path.write_text(yaml.safe_dump(cfg).replace("VALUE", str(value)))
        result = run_cli("train", "--config", str(path))
        assert_input_error(result, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("evaluation", "seeds", '"12"'), ("evaluation", "seeds", "12"),
        ("evaluation", "alphas", '"0.2"'), ("schema", "vang_nodes", '"b5:a"'),
        ("schema", "vmag_buses", "b2")])
    def test_list_key_given_a_string_or_scalar_is_exit_2(self, tmp_path, section, key, value):
        cfg = dict(CONFIG, output_dir=str(tmp_path / "out"))
        cfg[section] = dict(cfg[section], **{key: "VALUE"})
        path = tmp_path / "scalar.yaml"
        path.write_text(yaml.safe_dump(cfg).replace("VALUE", value))
        for command in ("gen", "sweep"):
            assert_input_error(run_cli(command, "--config", str(path)), f"{section}.{key}")
        assert not (tmp_path / "out").exists()

    def test_training_split_shorter_than_the_window_is_exit_2(self, tmp_path):
        cfg = dict(CONFIG, output_dir=str(tmp_path / "out"), train_fraction=0.1)
        cfg["model"] = dict(cfg["model"], window=8)
        path = tmp_path / "short_split.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert_input_error(run_cli("sweep", "--config", str(path)), "training split (4 of 40 steps")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["wls", "eval", "sweep"])
    def test_training_split_without_evaluation_steps_is_exit_2(self, tmp_path, command):
        cfg = dict(CONFIG, output_dir=str(tmp_path / "out"), train_fraction=0.99)
        path = tmp_path / "no_eval.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert_input_error(run_cli(command, "--config", str(path)),
                           "training split (40 of 40 steps at train_fraction 0.99) leaves no "
                           "evaluation step")
        assert not (tmp_path / "out").exists()

    def test_window_not_shorter_than_steps_is_exit_2(self, tmp_path):
        cfg = dict(CONFIG)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["model"] = dict(cfg["model"], window=40)
        path = tmp_path / "long_window.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = run_cli("sweep", "--config", str(path))
        assert result.returncode == 2
        assert "window" in result.stderr


    @pytest.mark.parametrize("section, key, value, text", [
        ("schema", "power_sigma", 0.0, "schema.power_sigma"),
        ("schema", "vmag_sigma", -0.001, "schema.vmag_sigma"),
        ("schema", "vang_sigma", 0.0, "schema.vang_sigma"),
        ("profile", "day_steps", 0, "profile.day_steps"),
        (None, "noise_seed", -1, "noise_seed"),
        ("profile", "seed", -1, "profile.seed"),
        ("model", "seed", -1, "seed"),
        ("evaluation", "seeds", [0, -1], "evaluation.seeds"),
        ("evaluation", "wls_failure_seeds", -1, "evaluation.wls_failure_seeds"),
        ("profile", "amplitude", float("nan"), "profile.amplitude"),
        ("profile", "jitter", float("inf"), "profile.jitter"),
        (None, "steps", 120.7, "steps"),
        ("evaluation", "wls_failure_seeds", True, "evaluation.wls_failure_seeds"),
        ("evaluation", "seeds", [0, 1.5], "evaluation.seeds"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_out_of_range_or_mistyped_value_is_exit_2(
            self, tmp_path, section, key, value, text):
        cfg = dict(CONFIG, output_dir=str(tmp_path / "out"))
        if section is None:
            cfg[key] = value
        else:
            cfg[section] = dict(cfg[section], **{key: value})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert_input_error(run_cli("sweep", "--config", str(path)), text)
        assert not (tmp_path / "out").exists()


def assert_input_error(result, text):
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert text in result.stderr


class TestBadInputFiles:
    def test_numeric_feeder_name(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(CONFIG, feeder=123, output_dir=str(tmp_path))))
        assert_input_error(run_cli("gen", "--config", str(path)), "feeder fixture not found")

    @pytest.mark.parametrize("text, message", [
        ('{"format": "something-else"}', "not a parameter checkpoint"),
        ("not json at all", "unusable checkpoint"),
        ('{"format": "gridtwin-params", "format_version": 2, "params": [],'
         ' "extra": {"model_kind": "transformer"}}', "transformer"),
    ], ids=["json-not-checkpoint", "not-json", "unknown-model-kind"])
    def test_unusable_checkpoint(self, config_path, tmp_path, text, message):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(text)
        result = run_cli("eval", "--config", str(config_path), "--checkpoint", str(checkpoint))
        assert_input_error(result, message)

    def test_checkpoint_of_the_unstacked_ablation(self, config_path, tmp_path):
        # the layout the ablation had before it became the one-branch pipeline
        config = dict(CONFIG["model"], n_states=2, power_channels=(0,), voltage_channels=(1,))
        model = ConcatBaselineModel(ModelConfig(**config))
        old = [ad.Parameter("ab." + p.name.replace("proj1", "proj"),
                            p.value[0] if p.name.startswith(("block", "out")) else p.value)
               for p in model.parameters()]
        checkpoint = tmp_path / "checkpoint_ablation.json"
        ad.save_params(checkpoint, old, extra={"model_kind": model.kind,
                                               "model_config": dataclasses.asdict(model.config)})
        result = run_cli("eval", "--config", str(config_path), "--checkpoint", str(checkpoint))
        assert_input_error(result, "'proj1.w' is missing")

    def test_report_on_csv_without_metrics_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("a,b\n1,2\n")
        assert_input_error(run_cli("report", "--metrics", str(path)), "header")

    def test_report_on_unparseable_metrics_row(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("method,alpha,seed,metric,value\ndt,zero,0,mae_mag,1.0\n")
        assert_input_error(run_cli("report", "--metrics", str(path)), "zero")

    def test_imported_csv_with_bad_header(self, config_path, tmp_path):
        assert run_cli("gen", "--config", str(config_path)).returncode == 0
        out = tmp_path / "out"
        states = out / "states.csv"
        states.write_text("re:nowhere\n" + states.read_text().split("\n", 1)[1])
        result = run_cli("train", "--config", str(config_path), "--measurements",
                         str(out / "measurements.csv"), "--states", str(states))
        assert_input_error(result, "state layout")

    @pytest.mark.parametrize("command", ["train", "eval", "wls"])
    @pytest.mark.parametrize("rows, text", [(4, "model window 4 must be shorter than the 4 steps"),
                                            (5, "training split (3 of 5 steps")],
                             ids=["rows-within-window", "split-within-window"])
    def test_imported_csv_that_does_not_fit_the_window(self, config_path, tmp_path, command,
                                                       rows, text):
        assert run_cli("gen", "--config", str(config_path)).returncode == 0
        cut = {}
        for name in ("measurements", "states"):
            cut[name] = tmp_path / f"{name}.csv"
            lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
            cut[name].write_text("\n".join(lines[:1 + rows]) + "\n")
        # at train_fraction 0.6, 5 rows keep a training split of 3 rows
        path = tmp_path / "cut.yaml"
        path.write_text(yaml.safe_dump(dict(CONFIG, train_fraction=0.6)))
        out = tmp_path / "cut_out"
        result = run_cli(command, "--config", str(path), "--out", str(out),
                         "--measurements", str(cut["measurements"]), "--states", str(cut["states"]))
        assert_input_error(result, text)
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"schema": dict(CONFIG["schema"], vmag_buses=["b2"])},
        {"feeder": "feeder_2bus",
         "schema": dict(CONFIG["schema"], vmag_buses=["b2"], vang_nodes=["b2:a"]),
         "evaluation": dict(CONFIG["evaluation"], timeseries_node="b2:a")},
    ], ids=["fewer-voltage-channels", "other-feeder"])
    def test_eval_on_dataset_of_another_layout(self, config_path, tmp_path, change):
        assert run_cli("train", "--config", str(config_path)).returncode == 0
        other = tmp_path / "other.yaml"
        other.write_text(yaml.safe_dump(dict(CONFIG, output_dir=str(tmp_path / "other"),
                                             **change)))
        result = run_cli("eval", "--config", str(other),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint.json"))
        assert_input_error(result, "channel layout")

    def test_eval_with_permuted_angle_channels(self, config_path, tmp_path):
        # the same channels, so the same positions and counts, in another order
        assert run_cli("train", "--config", str(config_path)).returncode == 0
        schema = dict(CONFIG["schema"], vang_nodes=["b8:a", "b5:a", "b5:b", "b5:c"])
        other = tmp_path / "permuted.yaml"
        other.write_text(yaml.safe_dump(dict(CONFIG, schema=schema,
                                             output_dir=str(tmp_path / "permuted"))))
        result = run_cli("eval", "--config", str(other),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint.json"))
        assert_input_error(result, "channel layout")
        angles = ["'V_angle:b5:a'", "'V_angle:b5:b'", "'V_angle:b5:c'", "'V_angle:b8:a'"]
        assert ", ".join(angles) + "] in the checkpoint" in result.stderr
        assert ", ".join(angles[3:] + angles[:3]) + "] here" in result.stderr
        assert "power_channels" not in result.stderr and "states" not in result.stderr
        assert not (tmp_path / "permuted").exists()

    def test_eval_of_a_version_1_checkpoint(self, config_path, tmp_path):
        assert run_cli("train", "--config", str(config_path)).returncode == 0
        checkpoint = tmp_path / "out" / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["format_version"] = 1
        for key in ("target_mean", "target_std", "layout"):
            del payload["extra"][key]
        checkpoint.write_text(json.dumps(payload))
        out = tmp_path / "v1_out"
        result = run_cli("eval", "--config", str(config_path), "--checkpoint", str(checkpoint),
                         "--out", str(out))
        assert_input_error(result, "checkpoint format_version 1 is not 2")
        assert result.stderr.startswith(f"config error: {checkpoint}: unusable checkpoint: ")
        assert result.stderr.count(str(checkpoint)) == 1
        assert not out.exists()

    def test_imported_csv_with_a_nan_cell_is_an_input_error(self, config_path, tmp_path):
        assert run_cli("gen", "--config", str(config_path)).returncode == 0
        out = tmp_path / "out"
        lines = (out / "measurements.csv").read_text().splitlines()
        cells = lines[10].split(",")
        lines[10] = ",".join(cells[:1] + ["nan"] + cells[2:])
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = run_cli("wls", "--config", str(config_path), "--out", str(tmp_path / "wls"),
                         "--measurements", str(bad), "--states", str(out / "states.csv"))
        assert_input_error(result, "'nan' is not finite")
        assert result.stderr.startswith("input error: ")

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_schema_naming_what_the_feeder_lacks(self, tmp_path, command):
        schema = dict(CONFIG["schema"], vmag_buses=["b2", "b99"], vang_nodes=["b5:a", "b9:c"])
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(CONFIG, schema=schema,
                                            output_dir=str(tmp_path / "out"))))
        assert_input_error(run_cli(command, "--config", str(path)), "['b99', 'b9:c']")

    def test_other_feeder_with_this_feeders_schema(self, config_path):
        result = run_cli("gen", "--config", str(config_path), "--feeder", "feeder_2bus")
        assert_input_error(result, "['b4', 'b6', 'b8', 'b5:a', 'b5:b', 'b5:c', 'b8:a']")

    def test_sweep_with_unknown_timeseries_node_stops_before_training(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(
            CONFIG, output_dir=str(out),
            evaluation=dict(CONFIG["evaluation"], timeseries_node="b9:a"))))
        assert_input_error(run_cli("sweep", "--config", str(path)), "'b9:a'")
        assert sorted(p.name for p in out.iterdir()) == ["config_used.yaml"]
