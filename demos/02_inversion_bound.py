"""The accuracy bound R + Rbar <= 1 for bias-free tanh networks.

Every layer of a bias-free tanh network is odd, so logits(-x) = -logits(x)
exactly.  The class a model ranks highest on x is the class it ranks
lowest on -x: each test image the model gets right becomes, after
inversion, an image it must get wrong.  Accuracy on the inverted test set
is therefore capped at 1 - R, no matter how the model was trained.
"""

import numpy as np

from symdigits import (Identity, TrainConfig, augment_shifts,
                       bound_check, forward, init_mlp, load_bundled_dataset,
                       softmax, split, train)

ds = load_bundled_dataset()
train_ds, test_ds = split(augment_shifts(ds), test_fraction=0.25, seed=0)
print(f"train {len(train_ds)} / test {len(test_ds)} images "
      f"(augmented x5, split by source image)")

# the antisymmetry is structural, not learned: a random network has it too
random_net = init_mlp((64, 10, 5, 10), use_bias=False, seed_or_rng=0)
x = test_ds.pixels[:5]
gap = np.abs(forward(random_net, x).logits + forward(random_net, -x).logits).max()
print(f"random net, max |logits(x) + logits(-x)| over 5 images: {gap:.2e}")

p = softmax(forward(random_net, x).logits)
p_inv = softmax(forward(random_net, -x).logits)
product = p * p_inv  # constant across classes, sample by sample
spread = (product.max(axis=1) / product.min(axis=1) - 1.0).max()
print("p_a(x) * p_a(-x) is constant across classes (unnormalized "
      f"probabilities invert): worst per-sample spread {spread:.2e}")

report = bound_check(random_net, Identity(), test_ds)
print(f"untrained model: R={report.R:.3f}  Rbar={report.R_bar:.3f}  "
      f"sum={report.bound_sum:.3f}  holds={report.holds}")

# now train for real (smaller epoch budget than the table runs, for speed)
config = TrainConfig(seed=0, epochs=60, use_bias=False)
result = train(config, Identity().apply(train_ds.pixels), train_ds.labels)
report = bound_check(result.mlp, Identity(), test_ds)
print(f"trained model:   R={report.R:.3f}  Rbar={report.R_bar:.4f}  "
      f"sum={report.bound_sum:.3f}  holds={report.holds}")
print(f"per-sample check: prediction on -x equals the argmin of logits(x) "
      f"for all {report.n_unique_min} unique-minimum samples "
      f"({report.n_argmin_violations} violations)")
print()
print("training pushed R up and crushed Rbar: high accuracy on the original")
print("polarity is paid for, one-for-one, with failure on the inverted one.")
