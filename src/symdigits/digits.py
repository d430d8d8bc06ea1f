"""The 8x8 handwritten digits corpus: loading, scaling, augmentation, splits.

The corpus is the 1797-image distribution of the UCI optical digits set
(64 pixels per image, raw values 0..16, labels 0..9).  A copy is bundled
with the package; ``load_optdigits`` reads the same CSV format from any
path.  Pixels are used scaled to [-1, 1] everywhere downstream.
"""

from __future__ import annotations

import importlib.resources
import io
import re
import warnings

import numpy as np

from .features import GRID, N_PIXELS
from .network import N_CLASSES, as_integers

RAW_MAX = 16
SHIFT_FILL = -1.0  # scaled white background


def _shift_index(dx: int, dy: int) -> np.ndarray:
    """The source pixel of each output pixel of the grid translated by
    (dx, dy), or -1 where the cell is vacated; dx moves right, dy down."""
    rows, cols = np.divmod(np.arange(N_PIXELS), GRID)
    src_rows, src_cols = rows - dy, cols - dx
    inside = (src_rows >= 0) & (src_rows < GRID) & (src_cols >= 0) & (src_cols < GRID)
    return np.where(inside, src_rows * GRID + src_cols, -1)


# (dx, dy) of each copy, in order: original, right, left, down, up
AUGMENT_SHIFTS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
# the five shifts as one gather: an image's 5*64 output pixels in order, and
# the vacated ones among them, which get the SHIFT_FILL background
_AUGMENT_INDEX = np.concatenate([_shift_index(dx, dy) for dx, dy in AUGMENT_SHIFTS])
_AUGMENT_VACATED = np.flatnonzero(_AUGMENT_INDEX == -1)
# a CSV field, once stripped: a sign and ASCII digits, not int()'s "1_0"
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _in_unit_range(pixels: np.ndarray) -> bool:
    """Every value in [-1, 1]; NaN fails too.  Two reductions, no copy."""
    return bool(pixels.min(initial=0.0) >= -1.0 and pixels.max(initial=0.0) <= 1.0)


class Dataset:
    """An ordered collection of 8x8 images: (n, 64) pixels scaled to [-1, 1],
    one row per image, and their (n,) digit labels."""

    def __init__(self, pixels, labels):
        self.pixels = np.asarray(pixels, dtype=np.float64)
        self.labels = as_integers(labels, "labels")
        if self.pixels.shape[1:] != (N_PIXELS,) or self.labels.shape != self.pixels.shape[:1]:
            raise ValueError(f"pixels must have shape (n, {N_PIXELS}) and labels (n,), "
                             f"got {self.pixels.shape} and {self.labels.shape}")
        if not _in_unit_range(self.pixels):
            raise ValueError("pixels must lie in [-1, 1]")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= N_CLASSES:
            raise ValueError("labels must be in 0..9")

    def __len__(self) -> int:
        return len(self.labels)


def scale_to_unit(raw):
    """Map raw pixel values 0..16 linearly to [-1, 1]: x = raw/8 - 1."""
    arr = np.asarray(raw)
    if np.any(arr < 0) or np.any(arr > RAW_MAX):
        raise ValueError(f"raw pixel values must be in 0..{RAW_MAX}")
    scaled = arr / 8.0 - 1.0
    return float(scaled) if np.isscalar(raw) else scaled


def unscale(x):
    """Inverse of scale_to_unit; exact on the 17-level grid."""
    return np.rint((np.asarray(x) + 1.0) * 8.0).astype(np.int64)


def load_optdigits(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an optdigits CSV: 65 comma-separated integers per line
    (64 raw pixels in 0..16, then the label).  Returns (raw, labels).

    A canonical file (only digits, commas and newlines, every value in
    range) is parsed in one vectorised pass; anything else goes through
    the line parser, the one path that names a faulty line.
    """
    with open(path, "rb") as f:
        data = f.read()
    return _parse_canonical(data) or _parse_lines(path)


def _parse_canonical(data: bytes):
    """(raw, labels) of a canonical file, or None for any other (the line
    parser then accepts it as always, or names the faulty line)."""
    if data.translate(None, b"0123456789,\n"):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt's "input contained no data"
        try:
            table = np.loadtxt(io.BytesIO(data), delimiter=",", dtype=np.int64,
                               comments=None, ndmin=2)
        except (ValueError, OverflowError, UserWarning):
            return None
    if table.shape[1] != N_PIXELS + 1:
        return None
    raw, labels = table[:, :N_PIXELS], table[:, N_PIXELS]
    if raw.min() < 0 or raw.max() > RAW_MAX or labels.min() < 0 or labels.max() >= N_CLASSES:
        return None
    return np.ascontiguousarray(raw), np.ascontiguousarray(labels)


def _parse_lines(path) -> tuple[np.ndarray, np.ndarray]:
    raw_rows, labels = [], []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != N_PIXELS + 1:
                raise ValueError(f"{path}: line {lineno}: expected 65 fields, got {len(parts)}")
            parts = [p.strip() for p in parts]
            if not all(_INTEGER.fullmatch(p) for p in parts):
                raise ValueError(f"{path}: line {lineno}: non-integer field")
            values = [int(p) for p in parts]
            row, label = values[:N_PIXELS], values[N_PIXELS]
            if min(row) < 0 or max(row) > RAW_MAX:
                raise ValueError(f"{path}: line {lineno}: pixel value outside 0..{RAW_MAX}")
            if not 0 <= label < N_CLASSES:
                raise ValueError(f"{path}: line {lineno}: label {label} outside 0..9")
            raw_rows.append(row)
            labels.append(label)
    if not raw_rows:
        raise ValueError(f"{path}: empty dataset file")
    return np.array(raw_rows, dtype=np.int64), np.array(labels, dtype=np.int64)


def load_dataset(path) -> Dataset:
    """Read an optdigits CSV and scale its pixels; the images keep file order."""
    raw, labels = load_optdigits(path)
    return Dataset(scale_to_unit(raw), labels)


def bundled_data_path():
    """Path of the CSV copy shipped inside the package."""
    return importlib.resources.files("symdigits").joinpath("assets/optdigits.csv")


def load_bundled_dataset() -> Dataset:
    return load_dataset(str(bundled_data_path()))


def augment_shifts(ds: Dataset, symmetrized: bool = False) -> Dataset:
    """Enlarge by a factor of 5: each image plus its four 1-pixel shifts
    (right, left, down, up), background filled with -1.  An image's five
    copies are consecutive rows, in its place.

    ``symmetrized=True`` gives ``symmetrize(augment_shifts(ds))`` bit for bit
    as one array, without the unsymmetrized copy: it shifts the inverted
    images too, whose vacated cells get the inverted background, +1.
    """
    source = symmetrize(ds) if symmetrized else ds
    shifted = np.take(source.pixels, _AUGMENT_INDEX, axis=1)  # (rows, 5 * 64)
    shifted[:len(ds), _AUGMENT_VACATED] = SHIFT_FILL
    shifted[len(ds):, _AUGMENT_VACATED] = -SHIFT_FILL  # the inverted half, if any
    pixels = shifted.reshape(5 * len(source), N_PIXELS)
    return Dataset(pixels, np.repeat(source.labels, 5))


def symmetrize(ds: Dataset) -> Dataset:
    """Append the grayscale-inverted copy of every image (same labels).

    Both halves are written into one array; the negation is exact, signed
    zeros included.
    """
    n = len(ds)
    pixels = np.empty((2 * n, N_PIXELS))
    pixels[:n] = ds.pixels
    np.negative(ds.pixels, out=pixels[n:])
    return Dataset(pixels, np.concatenate([ds.labels, ds.labels]))


def invert_dataset(ds: Dataset) -> Dataset:
    """The inverted copy -X of a dataset (labels unchanged), exact as in
    ``symmetrize``."""
    return Dataset(np.negative(ds.pixels), ds.labels)


def split(ds: Dataset, test_fraction: float = 0.25, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split of the rows, each side in row order:
    the test side gets the floor(test_fraction * n) rows the seed picks.

    A row split of shifted data puts copies of one image on both sides;
    ``shifted_split`` splits the images before it shifts them.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(np.floor(test_fraction * len(ds)))
    if n_test == 0 or n_test == len(ds):
        raise ValueError("split would leave one side empty")
    is_test = np.zeros(len(ds), dtype=bool)
    is_test[np.random.default_rng(seed).permutation(len(ds))[:n_test]] = True
    return (Dataset(ds.pixels[~is_test], ds.labels[~is_test]),
            Dataset(ds.pixels[is_test], ds.labels[is_test]))


def shifted_split(ds: Dataset, test_fraction: float = 0.25, seed: int = 0,
                  symmetrized: bool = False) -> tuple[Dataset, Dataset]:
    """Train and test sets: ``split`` the unshifted images, then shift each
    side (``augment_shifts``), so that no shifted copy of an image leaks
    across the split.  The peak is the two results plus the unshifted sides,
    not the whole augmented corpus.  ``symmetrized=True`` makes the train
    side +-X_train, ``augment_shifts(train, symmetrized=True)``."""
    train, test = split(ds, test_fraction, seed)
    return augment_shifts(train, symmetrized), augment_shifts(test)


def shifted_test_side(ds: Dataset, test_fraction: float = 0.25, seed: int = 0) -> Dataset:
    """``shifted_split(ds, test_fraction, seed)[1]``, without shifting the
    train side."""
    return augment_shifts(split(ds, test_fraction, seed)[1])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def pixels_to_gray_levels(pixels) -> np.ndarray:
    """Quantize [-1, 1] to 0..255: v = rint(255 * (x + 1) / 2).

    For every representable value except exactly 0.0 this commutes with
    inversion: v(-x) == 255 - v(x).  An exactly-zero pixel sits on the
    127.5 midpoint, which no integer scale can split symmetrically.
    """
    x = np.asarray(pixels, dtype=np.float64)
    if not _in_unit_range(x):
        raise ValueError("pixels must lie in [-1, 1]")
    return np.clip(np.rint(255.0 * (x + 1.0) / 2.0), 0, 255).astype(np.int64)


def render_image(pixels, path) -> None:
    """Write 64 pixels as an 8x8 plain-text PGM (P2), [-1, 1] mapped
    linearly to 0..255."""
    levels = pixels_to_gray_levels(pixels).reshape(GRID, GRID)
    lines = ["P2", f"{GRID} {GRID}", "255"]
    lines += [" ".join(str(v) for v in row) for row in levels.tolist()]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def class_counts(ds: Dataset) -> np.ndarray:
    return np.bincount(ds.labels, minlength=N_CLASSES)


def dataset_stats(ds: Dataset) -> dict:
    """Class counts and a histogram of the (unscaled) pixel levels."""
    raw = unscale(ds.pixels)
    hist = np.bincount(raw.reshape(-1), minlength=RAW_MAX + 1)
    return {
        "size": len(ds),
        "class_counts": class_counts(ds).tolist(),
        "pixel_histogram": hist.tolist(),
    }
