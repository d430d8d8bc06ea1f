"""Inversion-invariant feature maps, step by step.

Grayscale inversion (x -> -x) maps every digit to the same digit drawn in
the opposite polarity.  A feature built from products of two pixels cannot
see the flip: both factors change sign, the product does not.  This script
walks through the three invariant maps and renders the figure triptych
(original digit, inverted digit, neighbor-product features).
"""

from pathlib import Path

import numpy as np

from symdigits import (NeighborProduct, PermutationProduct, Square,
                       load_bundled_dataset, relative_sign, render_image)

out = Path("demo_output/features")
out.mkdir(parents=True, exist_ok=True)

ds = load_bundled_dataset()
print(f"corpus: {len(ds)} images of 8x8 pixels, scaled to [-1, 1]")

# pick a sample digit 6 with no exactly-zero pixel so that the inverted
# rendering is the exact photographic negative (a zero pixel sits on the
# 127.5 gray midpoint, which cannot be split into integer levels)
idx = next(i for i in range(len(ds))
           if ds.labels[i] == 6 and not np.any(ds.pixels[i] == 0.0))
pixels, label = ds.pixels[idx], int(ds.labels[idx])
print(f"sample {idx}: a handwritten {label}")

for kind in (Square(), NeighborProduct(), PermutationProduct(seed=0)):
    chi = kind.apply(pixels)
    chi_inverted = kind.apply(-pixels)
    print(f"  {kind.name:9s} features of x and -x identical: "
          f"{np.array_equal(chi, chi_inverted)}")

# the square map erases every sign: on a pure black/white image it is blind
binary = np.where(ds.pixels[0] >= 0, 1.0, -1.0)
print("square features of a pure black/white image:",
      set(Square().apply(binary).tolist()), "(all information gone)")

# neighbor products keep the signs: within each row, chaining the feature
# signs recovers the relative sign of any two pixels of that row
x = ds.pixels[idx].copy()
x[x == 0.0] = 1.0 / 8.0  # relative signs need nonzero pixels
chi_signs = np.sign(NeighborProduct().apply(x)).reshape(8, 8)
row, c1, c2 = 4, 1, 6
chained = np.prod(chi_signs[row, c1:c2])
direct = relative_sign(x, 8 * row + c1, 8 * row + c2)
print(f"relative sign of pixels ({row},{c1}) and ({row},{c2}): "
      f"chained={chained:+.0f} direct={direct:+.0f}")

# the triptych: original, inverted, and the gradient-like feature image
render_image(pixels, out / "original.pgm")
render_image(-pixels, out / "inverted.pgm")
render_image(NeighborProduct().apply(pixels), out / "features.pgm")
print(f"triptych written to {out}/ (original, inverted, features)")
print("the feature image is +1 (white) inside uniform regions and -1 (black)")
print("on color boundaries, like an edge detector wrapped on a cylinder")
