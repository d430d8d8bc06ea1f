"""The grayscale inversion group and inversion-invariant feature maps.

Grayscale inversion flips the sign of every pixel.  A feature map that is
even in the pixels (products of pairs) is exactly invariant under that
flip, which is what the Square, NeighborProduct and PermutationProduct
maps provide.  A group element is any map of (..., 64) pixel arrays;
``inversion_group`` gives the two of the inversion group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

GRID = 8
N_PIXELS = GRID * GRID


def _as_pixels(pixels) -> np.ndarray:
    """A (..., 64) float64 pixel array."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.shape[-1] != N_PIXELS:
        raise ValueError(f"expected trailing dimension {N_PIXELS}, got shape {pixels.shape}")
    return pixels


def inversion_group() -> list:
    """The grayscale inversion group {e, -1} as pixel maps: x -> +x, x -> -x."""
    return [np.positive, np.negative]


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """Raw pixels, unchanged.  Not inversion invariant.

    ``apply`` returns a read-only view of the pixels, not a copy.
    """

    name = "identity"

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        view = _as_pixels(pixels).view()
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class Square:
    """chi_i = x_i^2.  Invariant, but discards every sign."""

    name = "square"

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        return x * x


@dataclass(frozen=True)
class NeighborProduct:
    """chi_i = x_i * x_right(i), column index wrapped mod 8 (cylinder).

    The wrap stays within each row, so chain products recover relative
    signs between pixels of the same row; rows are independent cycles.
    Gradient-like: +1 inside uniform regions, -1 across color boundaries.
    """

    name = "neighbor"

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        grid = x.reshape(*x.shape[:-1], GRID, GRID)
        prod = np.roll(grid, -1, axis=-1)  # the one allocation: the result
        prod *= grid
        return prod.reshape(x.shape)


@dataclass(frozen=True)
class PermutationProduct:
    """chi_i = x_i * x_P(i) for a fixed random permutation P drawn from seed.

    The permutation is generated once and reused identically for train,
    test, and persisted models.  Fixed points i == P(i) are allowed; at
    those positions the feature degenerates to x_i^2.
    """

    seed: int

    name = "perm"

    @cached_property
    def perm(self) -> np.ndarray:
        """A uniform random permutation of 0..63 (Fisher-Yates), drawn from seed."""
        return np.random.default_rng(self.seed).permutation(N_PIXELS)

    @cached_property
    def fixed_points(self) -> int:
        """Positions with i == P(i), where the pairwise sign information is lost."""
        return int(np.sum(self.perm == np.arange(N_PIXELS)))

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        # take, not x[..., perm]: the fancy index lays its result out in
        # Fortran order, and every row gather in training then copies it whole
        prod = x.take(self.perm, axis=-1)
        prod *= x
        return prod


_KINDS = (Identity, Square, NeighborProduct, PermutationProduct)
FeatureMapKind = Union[_KINDS]
FEATURE_NAMES = tuple(kind.name for kind in _KINDS)


def feature_map_from_name(name: str, perm_seed: int = 0) -> FeatureMapKind:
    """The feature map called ``name``, one of FEATURE_NAMES; ``perm_seed``
    seeds the permutation of "perm"."""
    for kind in _KINDS:
        if kind.name == name:
            return kind(perm_seed) if kind is PermutationProduct else kind()
    raise ValueError(f"unknown feature map {name!r}; choose from {sorted(FEATURE_NAMES)}")


def relative_sign(pixels, i: int, j: int) -> float:
    """sign(x_i)/sign(x_j) computed as x_i x_j / sqrt(x_i^2 x_j^2).

    Invariant under global inversion.  Undefined (rejected) if either
    pixel is zero.
    """
    pixels = _as_pixels(pixels)
    xi, xj = float(pixels[i]), float(pixels[j])
    if xi == 0.0 or xj == 0.0:
        raise ValueError(f"relative sign undefined: pixel {i if xi == 0.0 else j} is zero")
    return xi * xj / np.sqrt(xi * xi * xj * xj)
