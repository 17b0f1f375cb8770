"""Synthesize noisy telemetry with randomly missing entries.

Shows the measurement function (power injections, voltage magnitudes and
angles), per-channel Gaussian noise, and Bernoulli masking in the order the
training pipeline applies it: normalize first, then zero the missing slots.
"""

import numpy as np

from gridtwin import (
    admittance_matrix,
    build_dataset,
    daily_load_profiles,
    default_schema,
    draw_mask,
    fixture_path,
    load_fixture,
    measure,
    solve_power_flow,
)

feeder, nominal = load_fixture(fixture_path("feeder_8bus"))
schema = default_schema(feeder, alpha=0.05,
                        vmag_buses=["b2", "b4", "b6", "b8"],
                        vang_nodes=["b5:a", "b5:b", "b5:c", "b8:a"])
print(f"schema: {len(schema)} channels "
      f"({len(schema.power_indices())} power, {len(schema.voltage_indices())} voltage)")
print("first channels:", ", ".join(schema.names[:4]), "...")

# one noiseless snapshot
sol = solve_power_flow(feeder, nominal)
Y = admittance_matrix(feeder)
z = measure(sol.v, Y, schema)
print(f"\nnoiseless z: P range [{z[:21].min():.4f}, {z[:21].max():.4f}] p.u., "
      f"|V| range [{z[42:54].min():.4f}, {z[42:54].max():.4f}] p.u.")

# a 300-step day-profile dataset with per-channel noise
profiles = daily_load_profiles(nominal, steps=300, seed=11)
dataset = build_dataset(feeder, profiles, schema, seed=23)
print(f"\ndataset: {dataset.n_steps} steps x {dataset.n_channels} channels, "
      f"{dataset.n_states} states, train split at {dataset.split_index}")
z_norm = dataset.normalize(dataset.z[: dataset.split_index])
print(f"normalized train split: mean {np.max(np.abs(z_norm.mean(axis=0))):.1e}, "
      f"std-1 {np.max(np.abs(z_norm.std(axis=0) - 1)):.1e}")

# masking a normalized row: missing slots become exactly zero
row = dataset.normalize(dataset.z[0])
mask = draw_mask(schema.with_alpha(0.3), np.random.default_rng(7))
masked = np.where(mask, 0.0, row)
print(f"\nmasking at alpha=0.3: {mask.sum()} of {len(mask)} channels dropped")
print("masked entries all zero:", bool(np.all(masked[mask] == 0.0)))

# empirical mask rate over many draws approaches alpha
rates = [draw_mask(schema.with_alpha(0.3), np.random.default_rng((1, seed))).mean()
         for seed in range(200)]
print(f"empirical mask rate over 200 draws: {np.mean(rates):.4f} (target 0.3)")
