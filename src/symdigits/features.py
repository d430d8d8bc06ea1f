"""Pixel-space group actions and inversion-invariant feature maps.

Grayscale inversion flips the sign of every pixel.  A feature map that is
even in the pixels (products of pairs) is exactly invariant under that
flip, which is what the Square, NeighborProduct and PermutationProduct
maps provide.  Group elements also cover single-pixel shifts (used for
data augmentation), pixel permutations, and quarter-turn rotations (used
by the degeneracy probes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .digits import GrayImage

GRID = 8
N_PIXELS = GRID * GRID
SHIFT_FILL = -1.0  # scaled white background


def _as_pixels(image) -> np.ndarray:
    """Accept a GrayImage or a bare (..., 64) array; return the pixel array."""
    pixels = getattr(image, "pixels", image)
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.shape[-1] != N_PIXELS:
        raise ValueError(f"expected trailing dimension {N_PIXELS}, got shape {pixels.shape}")
    return pixels


def _wrap(image, pixels: np.ndarray):
    if hasattr(image, "pixels"):
        return replace(image, pixels=pixels)
    return pixels


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inversion:
    """x -> -x on every pixel; its own inverse."""

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        return -_as_pixels(pixels)


@dataclass(frozen=True)
class Shift:
    """Translate the 8x8 grid by (dx, dy); vacated cells get the -1 background.

    dx moves content toward higher column index (right), dy toward higher
    row index (down).  Only single-pixel shifts are allowed.
    """

    dx: int
    dy: int

    def __post_init__(self):
        if abs(self.dx) > 1 or abs(self.dy) > 1:
            raise ValueError(f"shift magnitudes must be <= 1 pixel, got ({self.dx}, {self.dy})")

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        grid = x.reshape(*x.shape[:-1], GRID, GRID)
        out = np.full_like(grid, SHIFT_FILL)
        rs = slice(max(self.dy, 0), GRID + min(self.dy, 0))
        rs_src = slice(max(-self.dy, 0), GRID + min(-self.dy, 0))
        cs = slice(max(self.dx, 0), GRID + min(self.dx, 0))
        cs_src = slice(max(-self.dx, 0), GRID + min(-self.dx, 0))
        out[..., rs, cs] = grid[..., rs_src, cs_src]
        return out.reshape(*x.shape[:-1], N_PIXELS)


@dataclass(frozen=True)
class PixelPermutation:
    """Reorder pixels: output[i] = input[perm[i]]."""

    perm: tuple

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(N_PIXELS)):
            raise ValueError("perm must be a bijection on 0..63")
        object.__setattr__(self, "perm", tuple(perm.tolist()))

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        return _as_pixels(pixels)[..., list(self.perm)]


@dataclass(frozen=True)
class Rotation90:
    """Rotate the grid by k counterclockwise quarter turns."""

    k: int

    def __post_init__(self):
        if self.k not in (0, 1, 2, 3):
            raise ValueError(f"k must be in 0..3, got {self.k}")

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        grid = x.reshape(*x.shape[:-1], GRID, GRID)
        rotated = np.ascontiguousarray(np.rot90(grid, k=self.k, axes=(-2, -1)))
        return rotated.reshape(*x.shape[:-1], N_PIXELS)


GroupElement = Union[Inversion, Shift, PixelPermutation, Rotation90]

IDENTITY: GroupElement = Rotation90(0)


def apply_group(element: GroupElement, image):
    """Apply a group element to a GrayImage (label preserved) or pixel array."""
    pixels = _as_pixels(image)
    return _wrap(image, element.apply(pixels))


def inversion_group() -> list:
    """The two-element grayscale inversion group {e, -1}."""
    return [IDENTITY, Inversion()]


def rotation_group() -> list:
    """The four quarter-turn rotations of the grid (cyclic group C4)."""
    return [Rotation90(k) for k in range(4)]


def is_closed_group(elements: list) -> bool:
    """Check closure under composition by comparing actions on probe vectors.

    Probes are the 64 basis images plus the zero image, which pin down any
    affine action exactly; equality is bit-exact (all actions here are
    sign-exact permutations or fills).
    """
    probes = np.vstack([np.eye(N_PIXELS), np.zeros((1, N_PIXELS))])
    actions = [g.apply(probes) for g in elements]
    for ga in actions:
        for h in elements:
            composed = h.apply(ga)
            if not any(np.array_equal(composed, other) for other in actions):
                return False
    return True


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


def make_permutation(seed: int) -> np.ndarray:
    """Draw a uniform random permutation of 0..63 (Fisher-Yates, seeded)."""
    return np.random.default_rng(seed).permutation(N_PIXELS)


def count_fixed_points(perm: np.ndarray) -> int:
    """Positions with i == P(i), where the pairwise sign information is lost."""
    perm = np.asarray(perm)
    return int(np.sum(perm == np.arange(len(perm))))


@dataclass(frozen=True)
class Identity:
    """Raw pixels, unchanged.  Not inversion invariant."""

    name = "identity"
    invariant = False

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        return _as_pixels(pixels).copy()


@dataclass(frozen=True)
class Square:
    """chi_i = x_i^2.  Invariant, but discards every sign."""

    name = "square"
    invariant = True

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
    invariant = True

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        grid = x.reshape(*x.shape[:-1], GRID, GRID)
        prod = grid * np.roll(grid, -1, axis=-1)
        return prod.reshape(*x.shape[:-1], N_PIXELS)


@dataclass(frozen=True)
class PermutationProduct:
    """chi_i = x_i * x_P(i) for a fixed random permutation P drawn from seed.

    The permutation is generated once and reused identically for train,
    test, and persisted models.  Fixed points i == P(i) are allowed; at
    those positions the feature degenerates to x_i^2.
    """

    seed: int

    name = "perm"
    invariant = True

    @cached_property
    def perm(self) -> np.ndarray:
        return make_permutation(self.seed)

    @cached_property
    def fixed_points(self) -> int:
        return count_fixed_points(self.perm)

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        x = _as_pixels(pixels)
        return x * x[..., self.perm]


FeatureMapKind = Union[Identity, Square, NeighborProduct, PermutationProduct]


def feature_map_from_name(name: str, perm_seed: int = 0) -> FeatureMapKind:
    table = {
        "identity": Identity(),
        "square": Square(),
        "neighbor": NeighborProduct(),
        "perm": PermutationProduct(perm_seed),
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown feature map {name!r}; choose from {sorted(table)}") from None


def relative_sign(image, i: int, j: int) -> float:
    """sign(x_i)/sign(x_j) computed as x_i x_j / sqrt(x_i^2 x_j^2).

    Invariant under global inversion.  Undefined (rejected) if either
    pixel is zero.
    """
    pixels = _as_pixels(image)
    xi, xj = float(pixels[i]), float(pixels[j])
    if xi == 0.0 or xj == 0.0:
        raise ValueError(f"relative sign undefined: pixel {i if xi == 0.0 else j} is zero")
    return xi * xj / np.sqrt(xi * xi * xj * xj)
