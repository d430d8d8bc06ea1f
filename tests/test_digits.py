import re

import numpy as np
import pytest

from symdigits.digits import (Dataset, augment_shifts, class_counts,
                              dataset_stats, invert_dataset, load_optdigits,
                              pixels_to_gray_levels, render_image, scale_to_unit,
                              split, symmetrize, unscale)

from conftest import random_images


def read_pgm(path):
    """The gray levels of a plain (P2) PGM written by render_image."""
    return np.loadtxt(path, skiprows=3, dtype=np.int64)


# ---------------------------------------------------------------------------
# loading and scaling
# ---------------------------------------------------------------------------


def test_bundled_corpus_shape(corpus):
    assert len(corpus) == 1797
    counts = class_counts(corpus)
    assert counts.sum() == 1797
    assert counts.min() >= 174 and counts.max() <= 183


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0," * 64 + "3\n" + "1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_optdigits(path)


def test_pixel_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(["17"] + ["0"] * 63 + ["3"]) + "\n")
    with pytest.raises(ValueError, match="0..16"):
        load_optdigits(path)


def test_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_optdigits(path)


def test_all_zero_line_scales_to_minus_one(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(",".join(["0"] * 64 + ["3"]) + "\n")
    raw, labels = load_optdigits(path)
    assert labels.tolist() == [3]
    assert np.all(scale_to_unit(raw[0]) == -1.0)


def test_scaling_endpoints_and_midpoints():
    assert scale_to_unit(0) == -1.0
    assert scale_to_unit(16) == 1.0
    assert scale_to_unit(8) == 0.0
    assert scale_to_unit(4) == -0.5


def test_scale_round_trip_is_exact():
    raw = np.arange(17)
    assert np.array_equal(unscale(scale_to_unit(raw)), raw)


def test_scale_rejects_out_of_range():
    with pytest.raises(ValueError):
        scale_to_unit(17)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.full((1, 64), 1.5), [0])
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 64)), [10])
    # exactly (n, 64) pixels and (n,) labels: no reshape glues rows together
    for pixels, labels in [(np.zeros((1, 63)), [0]), (np.zeros((2, 32)), [3]),
                           (np.zeros(64), [0]), (np.zeros((1, 8, 8)), [0]),
                           (np.zeros((2, 64)), np.zeros((2, 1))), (np.zeros((2, 64)), [0]),
                           (np.zeros((1, 64)), 0)]:
        shapes = f"got {np.shape(pixels)} and {np.shape(labels)}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            Dataset(pixels, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_pixels(bad):
    pixels = np.zeros((2, 64))
    pixels[1, 5] = bad
    with pytest.raises(ValueError, match="pixels"):
        Dataset(pixels, [0, 1])


@pytest.mark.parametrize("labels", [[0, 1.5], [0.9, 1], [0, np.nan]])
def test_dataset_rejects_fractional_labels(labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        Dataset(np.zeros((2, 64)), labels)


def test_dataset_accepts_integral_float_labels():
    ds = Dataset(np.zeros((2, 64)), [2.0, 7.0])
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 7]


# ---------------------------------------------------------------------------
# augmentation / symmetrization / split
# ---------------------------------------------------------------------------


def test_augment_multiplies_by_five(corpus):
    assert len(augment_shifts(corpus)) == 5 * 1797 == 8985


def test_augment_of_blank_image_is_blank():
    blank = Dataset(np.full((1, 64), -1.0), [0])
    out = augment_shifts(blank)
    assert len(out) == 5
    assert np.all(out.pixels == -1.0)


def test_augment_moves_hot_pixel_to_four_neighbours():
    x = np.full((8, 8), -1.0)
    x[3, 3] = 1.0
    ds = Dataset(x.reshape(1, 64), [5])
    out = augment_shifts(ds)
    hot = [tuple(np.argwhere(p.reshape(8, 8) == 1.0)[0]) for p in out.pixels]
    assert hot == [(3, 3), (3, 4), (3, 2), (4, 3), (2, 3)]
    assert np.all(out.labels == 5)


def test_symmetrize_doubles_and_preserves_originals(corpus):
    sym = symmetrize(corpus)
    assert len(sym) == 2 * len(corpus)
    assert np.array_equal(sym.pixels[:len(corpus)], corpus.pixels)
    assert np.array_equal(sym.pixels[len(corpus):], -corpus.pixels)
    assert sym.pixels.mean() == 0.0


def test_split_floor_rule_and_partition(corpus):
    train, test = split(corpus, test_fraction=0.25, seed=0)
    assert len(test) == 449          # floor(0.25 * 1797)
    assert len(train) == 1348
    rows = sorted(map(bytes, np.concatenate([train.pixels, test.pixels])))
    assert rows == sorted(map(bytes, corpus.pixels))


def test_split_deterministic(corpus):
    a = split(corpus, 0.25, seed=7)
    b = split(corpus, 0.25, seed=7)
    assert np.array_equal(a[1].labels, b[1].labels)
    assert np.array_equal(a[0].pixels, b[0].pixels)


def test_split_rejects_degenerate_fraction(corpus):
    with pytest.raises(ValueError):
        split(corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(corpus, 1e-9, seed=0)  # floor gives an empty test side


def test_invert_dataset_negates(corpus):
    inv = invert_dataset(corpus)
    assert np.array_equal(inv.pixels, -corpus.pixels)
    assert np.array_equal(inv.labels, corpus.labels)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_all_black_is_all_zero(tmp_path):
    path = tmp_path / "black.pgm"
    render_image(np.full(64, -1.0), path)
    assert np.all(read_pgm(path) == 0)


def test_render_complement_for_zero_free_images(tmp_path):
    x = random_images(1, seed=20, zero_free=True)[0]
    render_image(x, tmp_path / "a.pgm")
    render_image(-x, tmp_path / "b.pgm")
    a, b = read_pgm(tmp_path / "a.pgm"), read_pgm(tmp_path / "b.pgm")
    assert np.array_equal(a + b, np.full((8, 8), 255))


def test_render_feature_image_marks_boundaries(tmp_path):
    # left half black, right half white: the neighbor-product image is white
    # inside each region and black exactly on the color boundaries, which
    # include the cylinder seam between columns 7 and 0
    from symdigits.features import NeighborProduct
    x = np.full((8, 8), -1.0)
    x[:, 4:] = 1.0
    features = NeighborProduct().apply(x.reshape(64))
    path = tmp_path / "features.pgm"
    render_image(features, path)
    levels = read_pgm(path)
    expected = np.full((8, 8), 255)
    expected[:, 3] = 0   # black-to-white step between columns 3 and 4
    expected[:, 7] = 0   # white-to-black step across the wrap
    assert np.array_equal(levels, expected)


def test_gray_levels_reject_out_of_range():
    for bad in (1.01, np.nan):
        with pytest.raises(ValueError):
            pixels_to_gray_levels(np.full(64, bad))


def test_dataset_stats_fields(corpus):
    stats = dataset_stats(corpus)
    assert stats["size"] == 1797
    assert len(stats["class_counts"]) == 10
    assert sum(stats["pixel_histogram"]) == 1797 * 64
