"""The data path every data-reading command runs: CSV parse, shift
augmentation, split, symmetrization, the closure check and the feature
maps, pinned against straightforward references."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import symdigits
from symdigits.degeneracy import dataset_is_inversion_closed
from symdigits.digits import (Dataset, _parse_canonical, augment_shifts, bundled_data_path,
                              invert_dataset, load_optdigits, pixels_to_gray_levels,
                              shifted_split, shifted_test_side, split, symmetrize)
from symdigits.features import (FEATURE_NAMES, Identity, NeighborProduct, PermutationProduct,
                                feature_map_from_name)

from conftest import grid_translation, random_images


def reference_load(path):
    """The line-by-line optdigits parser the vectorised one must agree with."""
    raw_rows, labels = [], []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 65:
                raise ValueError(f"{path}: line {lineno}: expected 65 fields, got {len(parts)}")
            parts = [p.strip() for p in parts]
            if not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
                raise ValueError(f"{path}: line {lineno}: non-integer field")
            values = [int(p) for p in parts]
            row, label = values[:64], values[64]
            if min(row) < 0 or max(row) > 16:
                raise ValueError(f"{path}: line {lineno}: pixel value outside 0..16")
            if not 0 <= label < 10:
                raise ValueError(f"{path}: line {lineno}: label {label} outside 0..9")
            raw_rows.append(row)
            labels.append(label)
    if not raw_rows:
        raise ValueError(f"{path}: empty dataset file")
    return np.array(raw_rows, dtype=np.int64), np.array(labels, dtype=np.int64)


def outcome(load, path):
    try:
        raw, labels = load(path)
    except ValueError as exc:
        return "error", str(exc)
    assert raw.dtype == labels.dtype == np.int64
    assert raw.flags.c_contiguous and labels.flags.c_contiguous
    return "ok", raw.tolist(), labels.tolist()


def assert_same_outcome(path):
    assert outcome(load_optdigits, path) == outcome(reference_load, path)


# ---------------------------------------------------------------------------
# CSV parse
# ---------------------------------------------------------------------------

rows = st.lists(st.tuples(st.lists(st.integers(0, 16), min_size=64, max_size=64),
                          st.integers(0, 9)),
                min_size=1, max_size=50)


@st.composite
def canonical_files(draw):
    """Text of a canonical optdigits file: digits, commas and newlines only."""
    lines = [",".join(map(str, [*pixels, label])) for pixels, label in draw(rows)]
    for _ in range(draw(st.integers(0, 3))):  # blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


def _replace_field(text, line, field, value):
    lines = text.split("\n")
    nonblank = [i for i, s in enumerate(lines) if s]
    i = nonblank[line % len(nonblank)]
    fields = lines[i].split(",")
    if value is None:
        del fields[field % len(fields)]
    else:
        fields[field % len(fields)] = value
    lines[i] = ",".join(fields)
    return "\n".join(lines)


def _insert_char(text, pos, char):
    pos %= len(text) + 1
    return text[:pos] + char + text[pos:]


CORRUPTIONS = {
    "drop-field": lambda text, line, field: _replace_field(text, line, field, None),
    "add-field": lambda text, line, field: _replace_field(text, line, field, "0,0"),
    "level-17": lambda text, line, field: _replace_field(text, line, field % 64, "17"),
    "label-10": lambda text, line, field: _replace_field(text, line, 64, "10"),
    "letter": lambda text, line, field: _insert_char(text, line * 65 + field, "x"),
    "space": lambda text, line, field: _insert_char(text, line * 65 + field, " "),
    "plus": lambda text, line, field: _insert_char(text, line * 65 + field, "+"),
    "underscore": lambda text, line, field: _replace_field(text, line, field % 64, "1_0"),
    "crlf": lambda text, line, field: text.replace("\n", "\r\n"),
    "empty-file": lambda text, line, field: "",
    "empty-field": lambda text, line, field: _replace_field(text, line, field, ""),
    "padded-30-digits": lambda text, line, field: _replace_field(text, line, field % 64,
                                                                 "0" * 28 + "16"),
    "huge-30-digits": lambda text, line, field: _replace_field(text, line, field, "9" * 30),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=canonical_files())
def test_canonical_files_take_the_vectorised_parse(tmp_path, text):
    path = tmp_path / "canonical.csv"
    path.write_bytes(text.encode("ascii"))
    raw, labels = reference_load(path)
    fast = _parse_canonical(path.read_bytes())
    assert fast is not None
    assert np.array_equal(fast[0], raw) and np.array_equal(fast[1], labels)
    assert_same_outcome(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=canonical_files(), kind=st.sampled_from(sorted(CORRUPTIONS)),
       line=st.integers(0, 49), field=st.integers(0, 64))
def test_corrupted_files_give_the_line_parser_outcome(tmp_path, text, kind, line, field):
    path = tmp_path / "corrupted.csv"
    path.write_bytes(CORRUPTIONS[kind](text, line, field).encode("ascii"))
    assert_same_outcome(path)


@pytest.mark.parametrize("data", [
    b"", b"\n\n", b",", b"5\n", b"0," * 64 + b"3,\n", b"0," * 64 + b"3\n" + b"0," * 63 + b"3\n",
    b"0," * 64 + b"9223372036854775808\n", b"0," * 64 + b"3\r\n", b" " + b"0," * 64 + b"3\n",
    b"\xa0" + b"0," * 64 + b"3\n",
], ids=["empty", "blank-lines", "comma", "one-field", "trailing-comma", "short-second-row",
        "int64-overflow", "crlf", "leading-space", "non-ascii"])
def test_edge_files_give_the_line_parser_outcome(tmp_path, data):
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    assert_same_outcome(path)


def test_bundled_corpus_parses_as_the_line_parser_does():
    path = bundled_data_path()
    assert _parse_canonical(path.read_bytes()) is not None
    assert_same_outcome(path)


# ---------------------------------------------------------------------------
# augmentation and split
# ---------------------------------------------------------------------------


def reference_augment(pixels):
    """Each image followed by its shifts right, left, down and up, each a
    slicing translation."""
    shifted = np.stack([grid_translation(pixels, dx, dy)
                        for dx, dy in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]], axis=1)
    return shifted.reshape(5 * len(pixels), 64)


def test_augment_matches_per_shift_reference(corpus):
    pixels = np.concatenate([corpus.pixels[:300], -corpus.pixels[:300],
                             random_images(50, seed=3)])  # -0.0 pixels included
    ds = Dataset(pixels, np.arange(len(pixels)) % 10)
    out = augment_shifts(ds)
    expected = reference_augment(ds.pixels)
    assert np.array_equal(out.pixels, expected)
    assert np.array_equal(np.signbit(out.pixels), np.signbit(expected))
    assert np.array_equal(out.labels, np.repeat(ds.labels, 5))


def reference_split(ds, origin_ids, test_fraction, seed):
    """The split of shifted data by source image: ``origin_ids[i]`` is the
    source image of row i, and all rows of one image land on the side that
    the seed picks for it."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    origins = np.unique(origin_ids)
    n_test = int(np.floor(test_fraction * len(origins)))
    if n_test == 0 or n_test == len(origins):
        raise ValueError("split would leave one side empty")
    perm = np.random.default_rng(seed).permutation(origins)
    test_origins = np.sort(perm[:n_test])
    is_test = np.isin(origin_ids, test_origins)
    return (Dataset(ds.pixels[~is_test], ds.labels[~is_test]),
            Dataset(ds.pixels[is_test], ds.labels[is_test]))


def reference_shifted_split(ds, test_fraction, seed):
    """``reference_split`` of the augmented set, each row's origin its image."""
    origin_ids = np.repeat(np.arange(len(ds)), 5)
    return reference_split(augment_shifts(ds), origin_ids, test_fraction, seed)


def test_split_of_a_single_origin_leaves_one_side_empty():
    ds = Dataset(random_images(1), [0])
    with pytest.raises(ValueError, match="one side empty"):
        split(ds, test_fraction=0.5, seed=0)


def assert_same_datasets(got, expected):
    """Equal bits, dtypes and row order, side by side."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.pixels.tobytes() == b.pixels.tobytes() and a.pixels.shape == b.pixels.shape
        assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n=st.integers(1, 30), fraction=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**32 - 1))
def test_shifted_split_is_the_split_of_the_augmented_set(data, n, fraction, seed):
    # signed zeros and repeated rows among the pixels
    pixels = data.draw(arrays(np.float64, (n, 64), elements=PIXEL_VALUES))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 9)))
    ds = Dataset(pixels, labels)
    try:
        expected = reference_shifted_split(ds, test_fraction=fraction, seed=seed)
    except ValueError as exc:  # one side empty: the same error
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            shifted_split(ds, test_fraction=fraction, seed=seed)
        return
    assert_same_datasets(shifted_split(ds, test_fraction=fraction, seed=seed), expected)


@pytest.mark.parametrize("seed", range(10))
def test_shifted_split_of_the_corpus(corpus, seed):
    got = shifted_split(corpus, test_fraction=0.25, seed=seed)
    assert_same_datasets(got, reference_shifted_split(corpus, test_fraction=0.25, seed=seed))


@pytest.mark.parametrize("fraction", [0.25, 0.5])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_eval_test_side_is_the_test_side_of_shifted_split(corpus, seed, fraction):
    got = shifted_test_side(corpus, test_fraction=fraction, seed=seed)
    expected = reference_shifted_split(corpus, test_fraction=fraction, seed=seed)[1]
    assert_same_datasets([got, got],
                         [shifted_split(corpus, test_fraction=fraction, seed=seed)[1], expected])


def test_data_path_does_not_import_numpy_ma():
    src = str(Path(symdigits.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def loads_numpy_ma(code):
        proc = subprocess.run([sys.executable, "-c", code + "\nprint('numpy.ma' in sys.modules)"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        return proc.stdout.split()[-1] == "True"

    if loads_numpy_ma("import sys, numpy"):
        pytest.skip("importing numpy alone loads numpy.ma")
    assert not loads_numpy_ma(
        "import sys\n"
        "from symdigits.digits import bundled_data_path, load_dataset, shifted_split\n"
        "shifted_split(load_dataset(str(bundled_data_path())), 0.25, seed=0)")


# ---------------------------------------------------------------------------
# symmetrization, closure check and feature maps: bit-equal to the
# full-size expressions they replace
# ---------------------------------------------------------------------------

# few distinct values, both zeros among them, so that rows repeat and
# sorting meets signed-zero ties
PIXEL_VALUES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.125, 1.0]) | st.floats(-1.0, 1.0)


def images(max_rows=12):
    return st.integers(0, max_rows).flatmap(
        lambda n: arrays(np.float64, (n, 64), elements=PIXEL_VALUES))


def same_bits(a, b):
    """Equal shape and equal bit patterns: 0.0 and -0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_is_closed(ds):
    """The full-gather closure check: every sorted label block equals its
    own reversed negation."""
    order = np.lexsort((*ds.pixels.T, ds.labels))
    rows = ds.pixels[order]
    ends = np.flatnonzero(np.diff(ds.labels[order])) + 1
    return all(np.array_equal(block, -block[::-1]) for block in np.split(rows, ends))


@settings(max_examples=100, deadline=None)
@given(x=images())
def test_symmetrize_matches_concatenated_inversion(x):
    ds = Dataset(x, np.arange(len(x)) % 10)
    sym = symmetrize(ds)
    assert same_bits(sym.pixels, np.concatenate([x, x * -1.0]))
    assert np.array_equal(sym.labels, np.concatenate([ds.labels, ds.labels]))


@settings(max_examples=100, deadline=None)
@given(x=images(), data=st.data())
def test_symmetrized_augment_is_the_symmetrized_shifted_set(x, data):
    labels = data.draw(st.lists(st.integers(0, 9), min_size=len(x), max_size=len(x)))
    ds = Dataset(x, labels)
    merged = augment_shifts(ds, symmetrized=True)
    expected = symmetrize(augment_shifts(ds))
    assert same_bits(merged.pixels, expected.pixels)  # -0.0 and the +1 background too
    assert np.array_equal(merged.labels, expected.labels)
    assert merged.pixels.flags.c_contiguous
    assert dataset_is_inversion_closed(merged)


@settings(max_examples=100, deadline=None)
@given(x=images())
def test_invert_dataset_matches_inversion(x):
    ds = Dataset(x, np.arange(len(x)) % 10)
    inverted = invert_dataset(ds)
    assert same_bits(inverted.pixels, x * -1.0)
    assert np.array_equal(inverted.labels, ds.labels)


@settings(max_examples=100, deadline=None)
@given(x=images(), data=st.data())
def test_closure_check_matches_the_full_gather(x, data):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(x), max_size=len(x)))
    ds = Dataset(x, labels)
    assert dataset_is_inversion_closed(ds) == reference_is_closed(ds)
    closed = symmetrize(ds)
    assert dataset_is_inversion_closed(closed) and reference_is_closed(closed)


@settings(max_examples=100, deadline=None)
@given(x=images().filter(len), data=st.data())
def test_closure_check_finds_a_perturbed_row_or_swapped_label(x, data):
    closed = symmetrize(Dataset(x, np.arange(len(x)) % 4))
    row = data.draw(st.integers(0, len(closed) - 1))
    pixels = closed.pixels.copy()
    col = data.draw(st.integers(0, 63))
    pixels[row, col] = 0.5 if pixels[row, col] != 0.5 else -0.25
    perturbed = Dataset(pixels, closed.labels)
    assert dataset_is_inversion_closed(perturbed) == reference_is_closed(perturbed)
    labels = closed.labels.copy()
    labels[row] = (labels[row] + 1) % 10
    swapped = Dataset(closed.pixels, labels)
    assert dataset_is_inversion_closed(swapped) == reference_is_closed(swapped)


@settings(max_examples=100, deadline=None)
@given(x=images(), single=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_feature_maps_match_their_full_size_expressions(x, single, seed):
    if single:
        x = x[0] if len(x) else np.zeros(64)
    grid = x.reshape(*x.shape[:-1], 8, 8)
    assert same_bits(NeighborProduct().apply(x),
                     (grid * np.roll(grid, -1, -1)).reshape(x.shape))
    perm = PermutationProduct(seed)
    assert same_bits(perm.apply(x), x * x[..., perm.perm])
    assert same_bits(Identity().apply(x), x)
    # C-ordered rows: training gathers row blocks of them without a copy
    for name in FEATURE_NAMES:
        assert feature_map_from_name(name, seed).apply(x).flags.c_contiguous, name


# ---------------------------------------------------------------------------
# the pixel range check
# ---------------------------------------------------------------------------

ONE_PLUS_ULP = np.nextafter(1.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(x=images().filter(len), data=st.data(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, ONE_PLUS_ULP, -ONE_PLUS_ULP]))
def test_pixels_outside_the_unit_range_are_rejected_anywhere(x, data, bad):
    x = x.copy()
    x[data.draw(st.integers(0, len(x) - 1)), data.draw(st.integers(0, 63))] = bad
    with pytest.raises(ValueError, match=r"pixels must lie in \[-1, 1\]"):
        Dataset(x, np.zeros(len(x)))
    with pytest.raises(ValueError, match=r"pixels must lie in \[-1, 1\]"):
        pixels_to_gray_levels(x)


@pytest.mark.parametrize("value", [1.0, -1.0, -0.0, 0.0])
def test_unit_range_endpoints_and_signed_zero_are_accepted(value):
    x = np.full((3, 64), value)
    assert same_bits(Dataset(x, np.zeros(3)).pixels, x)
    assert pixels_to_gray_levels(x).shape == (3, 64)
