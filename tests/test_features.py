import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symdigits.digits import Dataset, _shift_index, augment_shifts
from symdigits.features import (Identity, NeighborProduct, PermutationProduct, Square,
                                feature_map_from_name, inversion_group, relative_sign)

from conftest import grid_translation, random_images

# frozen on first generation; no external truth exists for this value
GOLDEN_PERM_SEED0 = [16, 36, 27, 8, 44, 23, 53, 4, 58, 50, 10, 2, 42, 34, 19, 47,
                     11, 57, 37, 20, 18, 61, 3, 1, 30, 24, 17, 46, 21, 35, 28, 43,
                     0, 6, 22, 26, 51, 48, 62, 32, 25, 55, 9, 38, 59, 52, 40, 13,
                     12, 7, 45, 39, 63, 5, 49, 14, 54, 29, 41, 60, 56, 33, 15, 31]


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def shifted(x, dx, dy):
    """x moved by (dx, dy) through digits' shift table, vacated cells -1."""
    index = _shift_index(dx, dy)
    out = x[..., index]
    out[..., index == -1] = -1.0
    return out


def test_inversion_is_involution():
    x = random_images(50, seed=1)
    _, inv = inversion_group()
    assert np.array_equal(inv(inv(x)), x)


def test_shift_right_fills_left_column():
    x = random_images(1, seed=3)[0].reshape(8, 8)
    x[:, 0] = -1.0
    out = shifted(x.reshape(64), 1, 0).reshape(8, 8)
    assert np.all(out[:, 0] == -1.0)
    assert np.array_equal(out[:, 1:], x[:, :-1])


def test_shift_round_trip_leaves_filled_strip():
    x = random_images(1, seed=4)[0]
    back = shifted(shifted(x, 1, 0), -1, 0).reshape(8, 8)
    orig = x.reshape(8, 8)
    assert np.array_equal(back[:, :-1], orig[:, :-1])
    assert np.all(back[:, -1] == -1.0)


@pytest.mark.parametrize("dx", [-1, 0, 1])
@pytest.mark.parametrize("dy", [-1, 0, 1])
def test_shift_matches_grid_translation(dx, dy):
    x = random_images(6, seed=7)
    assert np.array_equal(shifted(x, dx, dy), grid_translation(x, dx, dy))


def test_inversion_is_negation_including_signed_zeros():
    x = random_images(3, seed=9)
    x[0, :4] = [0.0, -0.0, 1.0, -1.0]
    out = inversion_group()[1](x)
    assert np.array_equal(out, -x) and np.array_equal(np.signbit(out), np.signbit(-x))


def test_pixel_action_leaves_its_input_alone():
    x = random_images(2, seed=10)
    before = x.copy()
    out = augment_shifts(Dataset(x, [0, 1]))
    out.pixels[:] = 0.0
    assert np.array_equal(x, before)


def test_group_closure():
    # the inversion group {e, -1} composes within itself, bit for bit:
    # e e = e, e (-1) = (-1) e = -1, (-1)(-1) = e
    x = random_images(5, seed=11)
    x[0, :2] = [0.0, -0.0]
    group = inversion_group()
    for i, a in enumerate(group):
        for j, b in enumerate(group):
            want = group[i ^ j](x)
            assert np.array_equal(a(b(x)), want)
            assert np.array_equal(np.signbit(a(b(x))), np.signbit(want))


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


def test_neighbor_product_of_all_black_is_all_ones():
    features = NeighborProduct().apply(np.full(64, -1.0))
    assert np.array_equal(features, np.ones(64))


def test_neighbor_product_wraps_within_row():
    # single +1 at (row 0, col 7) on a -1 background: the wrap pairs it
    # with (0, 0), so features at (0,7) and (0,6) are -1, all others +1
    x = np.full((8, 8), -1.0)
    x[0, 7] = 1.0
    features = NeighborProduct().apply(x.reshape(64)).reshape(8, 8)
    expected = np.ones((8, 8))
    expected[0, 7] = -1.0
    expected[0, 6] = -1.0
    assert np.array_equal(features, expected)


@pytest.mark.parametrize("kind", [Square(), NeighborProduct(), PermutationProduct(0)])
def test_invariant_maps_are_bit_exact_under_inversion(kind):
    x = random_images(1000, seed=7)
    assert np.array_equal(kind.apply(-x), kind.apply(x))


# signed zeros, the 17 levels of the scaled corpus and any float in [-1, 1]
_PIXELS = (st.sampled_from([-0.0, 0.0, *(k / 8.0 - 1.0 for k in range(17))])
           | st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(x=st.integers(0, 6).flatmap(lambda n: arrays(np.float64, (n, 64), elements=_PIXELS)),
       perm_seed=st.integers(0, 2**32 - 1))
def test_invariant_maps_give_the_same_bytes_on_inverted_images(x, perm_seed):
    # array_equal would take -0.0 for 0.0; the bytes tell them apart
    for kind in (Square(), NeighborProduct(), PermutationProduct(perm_seed)):
        assert kind.apply(-x).tobytes() == kind.apply(x).tobytes()


def test_identity_map_is_not_invariant():
    x = random_images(200, seed=8)
    has_nonzero = np.any(x != 0.0, axis=1)
    differs = np.any(Identity().apply(-x) != Identity().apply(x), axis=1)
    assert np.all(differs[has_nonzero])


def test_square_loses_all_information_on_binary_images():
    rng = np.random.default_rng(9)
    x = rng.choice([-1.0, 1.0], size=(100, 64))
    features = Square().apply(x)
    assert np.array_equal(features, np.ones((100, 64)))


def test_feature_map_from_name():
    assert isinstance(feature_map_from_name("neighbor"), NeighborProduct)
    assert feature_map_from_name("perm", 5) == PermutationProduct(5)
    with pytest.raises(ValueError):
        feature_map_from_name("cubic")


# ---------------------------------------------------------------------------
# relative sign
# ---------------------------------------------------------------------------


def test_relative_sign_examples():
    x = np.zeros(64)
    x[0], x[1] = 0.5, -0.25
    assert relative_sign(x, 0, 1) == -1.0
    x[1] = 0.25
    assert relative_sign(x, 0, 1) == 1.0


def test_relative_sign_rejects_zero_pixels():
    x = np.zeros(64)
    x[0] = 0.5
    with pytest.raises(ValueError):
        relative_sign(x, 0, 1)


def test_relative_sign_is_inversion_invariant():
    x = random_images(20, seed=10, zero_free=True)
    for row in x:
        for i, j in [(0, 13), (7, 56), (20, 21)]:
            assert relative_sign(-row, i, j) == relative_sign(row, i, j)


def test_row_relative_signs_recoverable_from_neighbor_chains():
    # within each row, chaining the signs of consecutive neighbor products
    # recovers every pairwise relative sign; rows are independent cycles of
    # the column-wrapped map, so cross-row signs are out of its reach
    x = random_images(1, seed=11, zero_free=True)[0]
    chi_signs = np.sign(NeighborProduct().apply(x)).reshape(8, 8)
    for r in range(8):
        for c1 in range(8):
            for c2 in range(c1 + 1, 8):
                chained = np.prod(chi_signs[r, c1:c2])
                direct = relative_sign(x, 8 * r + c1, 8 * r + c2)
                assert chained == direct


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permutation_is_deterministic():
    assert np.array_equal(PermutationProduct(123).perm, PermutationProduct(123).perm)


def test_permutation_composes_with_inverse_to_identity():
    perm = PermutationProduct(17).perm
    inverse = np.argsort(perm)
    assert np.array_equal(perm[inverse], np.arange(64))
    assert np.array_equal(inverse[perm], np.arange(64))


def test_seed0_permutation_matches_golden():
    assert PermutationProduct(0).perm.tolist() == GOLDEN_PERM_SEED0


def test_fixed_point_count_reported():
    perm = np.array(GOLDEN_PERM_SEED0)
    assert PermutationProduct(0).fixed_points == int(np.sum(perm == np.arange(64))) == 1


def test_identity_element_is_noop():
    x = random_images(3, seed=12)
    assert np.array_equal(inversion_group()[0](x), x)
