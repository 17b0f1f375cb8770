from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gridtwin.errors import (
    HeaderMismatch,
    InvalidAlpha,
    NoConvergence,
    RaggedRows,
    UnknownChannelTarget,
    UnparseableNumber,
)
from gridtwin.feeder import (
    LoadScenario,
    admittance_matrix,
    flat_voltages,
    solve_power_flow,
    solve_power_flows,
    voltages_to_state,
)
from gridtwin.model import ModelConfig, build_windows
from gridtwin.telemetry import (
    Channel,
    MeasurementSchema,
    _add_noise,
    add_noise,
    build_dataset,
    draw_mask,
    export_csv,
    import_csv,
    measure,
    measure_many,
)

from conftest import two_bus_oracle


class TestSchema:
    def test_alpha_one_rejected(self, feeder2):
        feeder, _ = feeder2
        with pytest.raises(InvalidAlpha):
            MeasurementSchema([Channel("V_magnitude", "b2", "a", 0.01, 1.0)], feeder)

    def test_unknown_target_rejected(self, feeder2):
        feeder, _ = feeder2
        with pytest.raises(UnknownChannelTarget):
            MeasurementSchema([Channel("V_magnitude", "b2", "b", 0.01, 0.0)], feeder)

    def test_sigma_positive(self, feeder2):
        feeder, _ = feeder2
        with pytest.raises(ValueError):
            MeasurementSchema([Channel("V_magnitude", "b2", "a", 0.0, 0.0)], feeder)

    def test_names_follow_channel_order(self, schema8):
        names = schema8.names
        assert names[0].startswith("P_injection:")
        assert len(names) == len(schema8)
        assert len(set(names)) == len(names)


    def test_subset_slices_the_arrays_of_a_rebuilt_schema(self, schema8):
        keep = np.flatnonzero(np.random.default_rng(3).random(len(schema8)) < 0.6)
        view = schema8.subset(keep)
        rebuilt = MeasurementSchema([schema8[i] for i in keep], schema8.feeder)
        assert view.channels == rebuilt.channels and view.feeder is rebuilt.feeder
        for name in ("node_idx", "sigmas", "alphas", "kind_codes", "weights"):
            assert np.array_equal(getattr(view, name), getattr(rebuilt, name))
            assert getattr(view, name).dtype == getattr(rebuilt, name).dtype
        assert len(schema8.subset([])) == 0


class TestMeasure:
    def test_slack_magnitude(self, feeder2):
        feeder, _ = feeder2
        schema = MeasurementSchema([Channel("V_magnitude", "b1", "a", 0.01, 0.0)], feeder)
        y = admittance_matrix(feeder)
        z = measure(flat_voltages(feeder), y, schema)
        assert z[0] == 1.0

    def test_injection_is_negative_load(self, feeder2, solved2):
        feeder, nominal = feeder2
        schema = MeasurementSchema(
            [Channel("P_injection", "b2", "a", 0.01, 0.0),
             Channel("Q_injection", "b2", "a", 0.01, 0.0)],
            feeder,
        )
        y = admittance_matrix(feeder)
        z = measure(solved2.v, y, schema)
        assert z[0] == pytest.approx(-0.1, abs=1e-8)
        assert z[1] == pytest.approx(-0.05, abs=1e-8)

    def test_angle_matches_fixed_point_oracle(self, feeder2, solved2):
        feeder, _ = feeder2
        schema = MeasurementSchema([Channel("V_angle", "b2", "a", 0.01, 0.0)], feeder)
        y = admittance_matrix(feeder)
        z = measure(solved2.v, y, schema)
        assert z[0] == pytest.approx(np.angle(two_bus_oracle()), abs=1e-10)

    def test_noiseless_consistency_eight_bus(self, feeder8, schema8, solved8):
        feeder, nominal = feeder8
        y = admittance_matrix(feeder)
        z = measure(solved8.v, y, schema8)
        for j, ch in enumerate(schema8):
            if ch.kind == "P_injection":
                assert z[j] == pytest.approx(-nominal.s[(ch.bus, ch.phase)].real, abs=1e-8)
            elif ch.kind == "Q_injection":
                assert z[j] == pytest.approx(-nominal.s[(ch.bus, ch.phase)].imag, abs=1e-8)

    def test_measure_many_columns_equal_measure(self, feeder8, schema8, daily8):
        feeder, _ = feeder8
        y = admittance_matrix(feeder)
        vm = solve_power_flows(feeder, daily8).v
        zm = measure_many(vm, y, schema8)
        for t in range(vm.shape[1]):
            assert zm[:, t].tobytes() == measure(vm[:, t].copy(), y, schema8).tobytes()


class TestNoise:
    def test_zero_sigma_internal_path(self):
        rng = np.random.default_rng(0)
        z = np.array([1.0, -2.0, 3.5])
        out = _add_noise(z, np.zeros(3), rng)
        assert np.array_equal(out, z)

    def test_deterministic_per_seed(self, schema8, feeder8):
        z = np.zeros(len(schema8))
        a = add_noise(z, schema8, rng_seed=42)
        b = add_noise(z, schema8, rng_seed=42)
        assert np.array_equal(a, b)
        c = add_noise(z, schema8, rng_seed=43)
        assert not np.array_equal(a, c)

    def test_sample_std_within_chi_square_bounds(self, feeder2):
        feeder, _ = feeder2
        schema = MeasurementSchema([Channel("V_magnitude", "b2", "a", 0.01, 0.0)], feeder)
        n = 100_000
        samples = np.array([add_noise(np.zeros(1), schema, rng_seed=(7, t))[0]
                            for t in range(n)])
        s = samples.std(ddof=1)
        # 99% chi-square interval for sigma=0.01 at this n is well inside
        # [0.0097, 0.0103]; assert the looser published bound.
        lo = 0.01 * np.sqrt(stats.chi2.ppf(0.005, n - 1) / (n - 1))
        hi = 0.01 * np.sqrt(stats.chi2.ppf(0.995, n - 1) / (n - 1))
        assert 0.0097 < lo < hi < 0.0103
        assert 0.0097 <= s <= 0.0103

    def test_zero_mean_t_test(self, feeder2):
        feeder, _ = feeder2
        schema = MeasurementSchema([Channel("V_magnitude", "b2", "a", 0.01, 0.0)], feeder)
        samples = np.array([add_noise(np.zeros(1), schema, rng_seed=(11, t))[0]
                            for t in range(20_000)])
        t_stat = samples.mean() / (samples.std(ddof=1) / np.sqrt(len(samples)))
        assert abs(t_stat) < 2.58  # 99% two-sided


class TestMask:
    """The model's mask path: build_windows zeroes masked normalized inputs."""

    @pytest.fixture(scope="class")
    def windows(self, feeder8, schema8):
        feeder, nominal = feeder8
        profiles = [nominal.scaled(1 + 0.2 * np.sin(t / 3)) for t in range(20)]
        ds = build_dataset(feeder, profiles, schema8, seed=3)
        config = ModelConfig.for_dataset(ds, window=4)
        ends = np.arange(config.window - 1, ds.n_steps)
        steps = ends[:, None] + np.arange(1 - config.window, 1)
        channels = list(config.power_channels) + list(config.voltage_channels)

        def build(alpha):
            masks = draw_mask(schema8.with_alpha(alpha), np.random.default_rng(5),
                              steps=ds.n_steps)
            batch = build_windows(ds, ends, masks, config)
            inputs = np.concatenate([batch.z_power, batch.z_volt], axis=-1)
            return (inputs, ds.normalize(ds.z[steps])[..., channels],
                    masks[steps][..., channels])

        return build

    def test_alpha_zero_identity(self, windows):
        inputs, rows, mask = windows(0.0)
        assert not mask.any()
        assert np.array_equal(inputs, rows)

    def test_masked_positions_exactly_zero(self, windows):
        inputs, rows, mask = windows(0.3)
        assert mask.any() and not mask.all()
        assert np.all(inputs[mask] == 0.0)
        assert np.array_equal(inputs[~mask], rows[~mask])

    def test_empirical_rate_at_table_scale(self, feeder2):
        # 350 channels x 2864 steps at alpha = 5%, through the real mask path
        feeder, _ = feeder2
        schema = MeasurementSchema(
            [Channel("V_magnitude", "b2", "a", 0.01, 0.05)] * 350, feeder)
        rng = np.random.default_rng(2024)
        draws = draw_mask(schema, rng, steps=2864)
        assert draws.shape == (2864, 350)
        rate = draws.mean()
        assert 0.047 <= rate <= 0.053


class TestDataset:
    def test_single_step_zero_load(self, feeder8, schema8):
        feeder, _ = feeder8
        ds = build_dataset(feeder, [LoadScenario.zero()], schema8, seed=3)
        v_flat = flat_voltages(feeder)
        ns = feeder.non_slack_nodes()
        expected = np.concatenate([v_flat[ns].real, v_flat[ns].imag])
        assert np.allclose(ds.x[0], expected, atol=0)
        y = admittance_matrix(feeder)
        clean = measure(v_flat, y, schema8)
        noise = ds.z[0] - clean
        assert np.all(np.abs(noise) < 6 * schema8.sigmas)

    def test_dimensions_from_profile(self, feeder8, schema8):
        feeder, nominal = feeder8
        profiles = [nominal.scaled(1 + 0.1 * np.sin(t / 7)) for t in range(40)]
        ds = build_dataset(feeder, profiles, schema8, seed=3)
        assert ds.x.shape == (40, 2 * 21)
        assert ds.z.shape == (40, len(schema8))
        assert ds.split_index == 32

    def test_divergent_step_index_surfaced(self, feeder8, schema8):
        # The lowest failing step is named, with the lone solve's diagnostics.
        feeder, nominal = feeder8
        profiles = [nominal, nominal, nominal.scaled(100.0), nominal.scaled(100.0)]
        with pytest.raises(NoConvergence) as lone:
            solve_power_flow(feeder, profiles[2])
        with pytest.raises(NoConvergence) as excinfo:
            build_dataset(feeder, profiles, schema8, seed=3)
        err = excinfo.value
        assert err.step == 2
        assert str(err) == f"power flow failed at step 2: {lone.value}"
        assert (err.iterations, err.mismatch) == (100, lone.value.mismatch)

    def test_equals_per_step_reference(self, feeder8, schema8, daily8):
        feeder, _ = feeder8
        y = admittance_matrix(feeder)
        x_rows, z_rows = [], []
        for t, loads in enumerate(daily8):
            v = solve_power_flow(feeder, loads).v
            x_rows.append(voltages_to_state(feeder, v))
            z_rows.append(add_noise(measure(v, y, schema8), schema8, rng_seed=(5, t)))
        ds = build_dataset(feeder, daily8, schema8, seed=5)
        assert ds.x.tobytes() == np.array(x_rows).tobytes()
        assert ds.z.tobytes() == np.array(z_rows).tobytes()
        assert ds.x.flags.c_contiguous and ds.z.flags.c_contiguous

    def test_normalization_stats_train_split_only(self, feeder8, schema8):
        feeder, nominal = feeder8
        profiles = [nominal.scaled(1 + 0.3 * np.sin(t / 3)) for t in range(50)]
        ds = build_dataset(feeder, profiles, schema8, seed=9)
        z_norm = ds.normalize(ds.z[: ds.split_index])
        assert np.max(np.abs(z_norm.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z_norm.std(axis=0) - 1.0)) < 1e-9


class TestCsv:
    @pytest.fixture()
    def dataset(self, feeder8, schema8):
        feeder, nominal = feeder8
        profiles = [nominal.scaled(1 + 0.2 * np.sin(t / 5)) for t in range(12)]
        return build_dataset(feeder, profiles, schema8, seed=17)

    def test_round_trip(self, tmp_path, dataset, schema8):
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(dataset, mp, sp)
        back = import_csv(mp, sp, schema8)
        assert np.max(np.abs(back.z - dataset.z)) < 1e-12
        assert np.max(np.abs(back.x - dataset.x)) < 1e-12
        assert not back.mask.any()

    def test_blank_cell_becomes_mask(self, tmp_path, dataset, schema8):
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(dataset, mp, sp)
        lines = mp.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = ""
        lines[1] = ",".join(cells)
        mp.write_text("\n".join(lines) + "\n")
        back = import_csv(mp, sp, schema8)
        assert back.mask[0, 3]
        assert back.mask.sum() == 1
        assert back.z[0, 3] == 0.0

    def test_header_permutation_rejected(self, tmp_path, dataset, schema8):
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(dataset, mp, sp)
        lines = mp.read_text().splitlines()
        header = lines[0].split(",")
        header[0], header[1] = header[1], header[0]
        lines[0] = ",".join(header)
        mp.write_text("\n".join(lines) + "\n")
        with pytest.raises(HeaderMismatch):
            import_csv(mp, sp, schema8)

    def test_ragged_row_rejected(self, tmp_path, dataset, schema8):
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(dataset, mp, sp)
        with open(mp, "a", encoding="utf-8") as fh:
            fh.write("1.0,2.0\n")
        with pytest.raises(RaggedRows):
            import_csv(mp, sp, schema8)

    @pytest.mark.parametrize("cell", ["not-a-number", "nan", "inf", "-Infinity"])
    def test_unparseable_number_rejected(self, tmp_path, dataset, schema8, cell):
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(dataset, mp, sp)
        text = mp.read_text().splitlines()
        cells = text[3].split(",")
        cells[5] = cell
        text[3] = ",".join(cells)
        mp.write_text("\n".join(text) + "\n")
        with pytest.raises(UnparseableNumber, match=f"row 2 col 5: '{cell}'"):
            import_csv(mp, sp, schema8)

    def _edit_states(self, tmp_path, dataset, edit):
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        export_csv(dataset, mp, sp)
        lines = sp.read_text().splitlines()
        edit(lines)
        sp.write_text("\n".join(lines) + "\n")
        return mp, sp

    def test_states_header_permutation_rejected(self, tmp_path, dataset, schema8):
        def swap(lines):
            header = lines[0].split(",")
            header[0], header[1] = header[1], header[0]
            lines[0] = ",".join(header)

        mp, sp = self._edit_states(tmp_path, dataset, swap)
        with pytest.raises(HeaderMismatch, match="state layout"):
            import_csv(mp, sp, schema8)

    def test_states_ragged_row_rejected(self, tmp_path, dataset, schema8):
        def shorten(lines):
            lines[2] = lines[2].rsplit(",", 1)[0]

        mp, sp = self._edit_states(tmp_path, dataset, shorten)
        with pytest.raises(RaggedRows, match="row 1 has"):
            import_csv(mp, sp, schema8)

    @pytest.mark.parametrize("cell", ["not-a-number", "", "nan", "-inf"])
    def test_states_unparseable_or_blank_number_rejected(self, tmp_path, dataset, schema8,
                                                         cell):
        def spoil(lines):
            cells = lines[1].split(",")
            cells[0] = cell
            lines[1] = ",".join(cells)

        mp, sp = self._edit_states(tmp_path, dataset, spoil)
        with pytest.raises(UnparseableNumber, match="row 0 col 0"):
            import_csv(mp, sp, schema8)

    def test_states_row_count_must_match_measurements(self, tmp_path, dataset, schema8):
        mp, sp = self._edit_states(tmp_path, dataset, lambda lines: lines.pop())
        with pytest.raises(RaggedRows, match="state rows vs"):
            import_csv(mp, sp, schema8)

    def test_export_bytes_unchanged(self, tmp_path, dataset):
        # Reference writer: the per-cell export these CSVs have always had.
        mp, sp = tmp_path / "m.csv", tmp_path / "s.csv"
        masked = replace(dataset, mask=np.arange(dataset.z.size).reshape(dataset.z.shape) % 7 == 0)
        export_csv(masked, mp, sp)
        want_m = [",".join(masked.schema.names)] + [
            ",".join("" if masked.mask[t, j] else repr(float(masked.z[t, j]))
                     for j in range(masked.n_channels)) for t in range(masked.n_steps)]
        want_s = [",".join(masked.state_labels)] + [
            ",".join(repr(float(v)) for v in row) for row in masked.x]
        assert mp.read_bytes() == ("\r\n".join(want_m) + "\r\n").encode()
        assert sp.read_bytes() == ("\r\n".join(want_s) + "\r\n").encode()
