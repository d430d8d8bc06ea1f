import numpy as np
import pytest

from symdigits import TrainConfig, augment_shifts, load_bundled_dataset
from symdigits.digits import Dataset, shifted_split


@pytest.fixture(scope="session")
def corpus():
    return load_bundled_dataset()


@pytest.fixture(scope="session")
def augmented(corpus):
    return augment_shifts(corpus)


@pytest.fixture(scope="session")
def small_splits(corpus):
    """Quick train/test pair built from a 400-image slice of the corpus."""
    head = Dataset(corpus.pixels[:400], corpus.labels[:400])
    return shifted_split(head, test_fraction=0.25, seed=0)


@pytest.fixture(scope="session")
def quick_config():
    return TrainConfig(seed=0, epochs=25)


def random_images(count, seed=0, zero_free=False):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 17, size=(count, 64))
    if zero_free:
        raw[raw == 8] = 9
    return raw / 8.0 - 1.0


def grid_translation(x, dx, dy):
    """(n, 64) images with each 8x8 grid moved dx columns right and dy rows
    down by slicing, vacated cells -1: the reference for the shift tables."""
    grids = x.reshape(-1, 8, 8)
    want = np.full_like(grids, -1.0)
    want[:, max(dy, 0):8 + min(dy, 0), max(dx, 0):8 + min(dx, 0)] = \
        grids[:, max(-dy, 0):8 + min(-dy, 0), max(-dx, 0):8 + min(-dx, 0)]
    return want.reshape(-1, 64)
