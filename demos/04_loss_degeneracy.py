"""Symmetrized losses have symmetric minima: three measurable consequences.

1. Inversion: on a symmetrized image dataset, flipping the sign of the
   first-layer weights of a bias-free network permutes the loss terms and
   leaves their sum unchanged -- trained or not.
2. Rotation: a loss summed over all C_n rotations of a 2-D toy dataset is
   constant along the whole weight orbit, and as n grows the valley floor
   flattens toward a continuous (Goldstone-like) flat direction.
3. Sampling: keeping each (sample, transform) term with probability mu
   breaks the symmetry per draw but restores it in expectation.
"""

from pathlib import Path

import numpy as np

from symdigits import (Identity, TrainConfig, augment_shifts, init_mlp,
                       inversion_group, load_bundled_dataset,
                       sampled_loss_expectation, split, symmetrize, train)
from symdigits.degeneracy import (generator_curvature_sweep, make_toy_task,
                                  orbit_loss_scan, train_toy,
                                  weight_flip_deviation, weight_orbit_invariance)
from symdigits.digits import Dataset
from symdigits.svg import line_chart

out = Path("demo_output/degeneracy")
out.mkdir(parents=True, exist_ok=True)

# --- 1. the weight-flip identity on images --------------------------------
ds = load_bundled_dataset()
train_ds, _ = split(augment_shifts(ds), seed=0)
symmetrized = symmetrize(train_ds)

result = train(TrainConfig(seed=0, epochs=40), Identity().apply(train_ds.pixels),
               train_ds.labels)
flip_on_symmetrized = weight_orbit_invariance(result.mlp, symmetrized)
flip_witness = weight_flip_deviation(result.mlp, train_ds)
print(f"trained net, W1 -> -W1 relative loss change:")
print(f"  on the symmetrized set:   {flip_on_symmetrized:.2e}   (exact degeneracy)")
print(f"  on the plain training set: {flip_witness:.2e}   (no symmetry, no degeneracy)")

# --- 2. the flat valley of the rotation-averaged toy loss -----------------
task = make_toy_task(n=360)
w_star = train_toy(task)
scan = orbit_loss_scan(task, w_star)
print(f"\ntoy task, n=360: loss along the weight orbit spans a relative "
      f"{scan.relative_spread:.1e}")
line_chart(out / "orbit_valley.svg", scan.angles.tolist(), scan.losses.tolist(),
           title="loss along the weight orbit (n=360)",
           x_label="orbit angle", y_label="symmetrized loss")
print(f"orbit valley chart -> {out / 'orbit_valley.svg'}")

print("\ncurvature along the symmetry generator vs group order:")
for report in generator_curvature_sweep((4, 16, 64, 360)):
    print(f"  n={report.n:4d}  generator {report.generator_curvature:10.3e}   "
          f"radial {report.radial_curvature:10.3e}   "
          f"(resolution {report.curvature_resolution:.1e})")
print("finer groups, flatter valley: the discrete angular stiffness dies")
print("exponentially, leaving only the radial (symmetry-transverse) curvature.")

# --- 3. random sampling restores symmetry in expectation ------------------
subset = Dataset(ds.pixels[:200], ds.labels[:200], ds.origin_ids[:200], name="sub")
mlp = init_mlp((64, 10, 5, 10), use_bias=False, seed_or_rng=1)
one = sampled_loss_expectation(mlp, subset, inversion_group(), mu=0.5, trials=1)
many = sampled_loss_expectation(mlp, subset, inversion_group(), mu=0.5, trials=10000)
print(f"\nsampled loss at mu=0.5: single trial ratio {one.ratio:.4f} "
      f"(symmetry broken), 10000-trial mean ratio {many.ratio:.5f} "
      f"+- {many.ratio_std_error:.5f}")
