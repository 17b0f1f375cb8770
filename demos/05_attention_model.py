"""Inside the two-branch attention estimator.

Demonstrates grouped-query attention (keys/values shared across query
heads), the cross-interaction gates that exchange information between the
power branch and the voltage branch, and a short training run on a small
synthetic dataset.
"""

import numpy as np

from gridtwin import (
    ModelConfig,
    build_dataset,
    daily_load_profiles,
    default_schema,
    fixture_path,
    load_fixture,
    train,
)
from gridtwin import autodiff as ad
from gridtwin import model as M

# --- grouped-query attention in isolation -------------------------------
rng = np.random.default_rng(0)
params = M._gqa("demo", 8, 4, 2, rng)
x = rng.normal(size=(6, 8))

out = M.gqa_attention(ad.Tape().constant(x), params, heads=4, groups=2)
print(f"GQA: 4 query heads share keys of width {params.wk.value.shape[1]} and values of "
      f"width {params.wv.value.shape[1]}: one 2-wide projection per group (standard "
      "attention needs one per head, width 8)")

# with one group per head the same weights reproduce standard MHA exactly
full = M._gqa("full", 8, 4, 4, rng)
ref = M.mha_attention(ad.Tape().constant(x), full, heads=4)
print(f"MHA reference projects keys of width {full.wk.value.shape[1]}; "
      "grouping with G=H reproduces it bit for bit:",
      np.array_equal(
          M.gqa_attention(ad.Tape().constant(x), full, heads=4, groups=4).value,
          ref.value))

# --- cross-interaction gates --------------------------------------------
# The two branches' latents and gate weights are stacked on a branch axis.
gates = M._stacked("gate", M._gate("g1", 8, 16, rng), M._gate("g2", 8, 16, rng))
tape = ad.Tape()
a = tape.constant(rng.normal(size=(2, 6, 8)))
h = M.cross_gate(a, gates)
hidden = np.maximum(a.value @ gates.w1.value + gates.b1.value[:, None], 0.0)
gate_vals = 1.0 / (1.0 + np.exp(-(hidden @ gates.w2.value + gates.b2.value[:, None])))
print(f"\ngate outputs live in (0, 1): min {gate_vals.min():.3f} max {gate_vals.max():.3f}")
print("fused branch 1 = gate(a2) * a2 + a1, shape", h.value[0].shape)

# --- a short end-to-end training run ------------------------------------
feeder, nominal = load_fixture(fixture_path("feeder_8bus"))
schema = default_schema(feeder, alpha=0.05, vmag_buses=["b2", "b4", "b6", "b8"],
                        vang_nodes=["b5:a", "b5:b", "b5:c", "b8:a"])
profiles = daily_load_profiles(nominal, steps=120, seed=11, day_steps=48)
dataset = build_dataset(feeder, profiles, schema, seed=23)
config = ModelConfig.for_dataset(dataset, d=16, d_ff=32, blocks=1, heads=2, groups=1,
                                 window=6, lr=1e-3, epochs=10, seed=7, optimizer="adam")
model, history = train(dataset, config)
print(f"\ntraining ({config.epochs} epochs, {model.param_count()} parameters; "
      "losses on z-scored targets):")
shown = {rec["epoch"]: rec for rec in history[::3] + history[-1:]}
for epoch in sorted(shown):
    rec = shown[epoch]
    print(f"  epoch {rec['epoch']:3d}: train {rec['train_loss']:.5f} "
          f"val {rec['val_loss']:.5f}")
