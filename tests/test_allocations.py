"""Peak memory of the data path and of training, traced with tracemalloc.

Validation, symmetrization, the closure check, the identity feature map,
training on any feature map's output and softmax build no full-size
temporary; forward holds only the two layer outputs it is using, and the
loss adds only the softmax to that; the shifted split builds no whole augmented corpus, the table
runs hold one seed's sets at a time, and a symmetrized row never holds
X_train beside +-X_train.  Each bound is the size of what the call must
hold (its result, or one label block) plus a margin over the measured
peak; the full-size copies these calls once made fail it by a wide margin.
"""

import tracemalloc

import numpy as np
import pytest

import symdigits.cli as cli
from symdigits.degeneracy import dataset_is_inversion_closed
from symdigits.digits import Dataset, shifted_split, split, symmetrize
from symdigits.experiments import reproduce_tables
from symdigits.features import Identity, NeighborProduct, PermutationProduct, Square
from symdigits.network import (N_CLASSES, TrainConfig, forward, init_mlp, sample_loss, softmax,
                               train)
from symdigits.persistence import save_model

from conftest import random_images

N_ROWS = 10_000  # 5.12 MB of pixels


def traced_peak(call):
    """(result, bytes allocated at the peak of ``call`` above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def held_bytes(*datasets):
    return sum(ds.pixels.nbytes + ds.labels.nbytes for ds in datasets)


@pytest.fixture(scope="module")
def dataset():
    labels = np.random.default_rng(1).integers(0, 10, N_ROWS)
    return Dataset(random_images(N_ROWS), labels)


def test_dataset_keeps_a_float64_array_without_copying(dataset):
    built, peak = traced_peak(
        lambda: Dataset(dataset.pixels, dataset.labels))
    assert np.shares_memory(built.pixels, dataset.pixels)
    assert peak < dataset.pixels.nbytes / 100  # measured: about 2 kB of 5.12 MB


def test_symmetrize_peaks_at_its_result(dataset):
    sym, peak = traced_peak(lambda: symmetrize(dataset))
    assert peak <= 1.05 * held_bytes(sym)  # measured: 1.000 x held; concatenating -x was 2.4 x


def test_closure_check_peaks_at_about_one_label_block(dataset):
    sym = symmetrize(dataset)
    block = np.bincount(sym.labels).max() * sym.pixels.itemsize * sym.pixels.shape[1]
    closed, peak = traced_peak(lambda: dataset_is_inversion_closed(sym))
    assert closed
    # one block of rows, plus the sort order and sorted labels (8 bytes a row
    # each); measured 1.73 MB against this 2.22 MB bound; a full gather of
    # the sorted rows was 11.6 MB
    assert peak <= 1.5 * block + 32 * len(sym)


def test_identity_features_are_a_read_only_view(dataset):
    feats, peak = traced_peak(lambda: Identity().apply(dataset.pixels))
    assert peak < 4096  # the view object only; measured under 600 bytes
    assert np.shares_memory(feats, dataset.pixels)
    with pytest.raises(ValueError):
        feats[0, 0] = 0.0
    assert dataset.pixels.flags.writeable  # the source array stays writable


@pytest.mark.parametrize("kind", [Square(), NeighborProduct(), PermutationProduct(0)],
                         ids=lambda kind: kind.name)
def test_product_maps_allocate_only_their_result(dataset, kind):
    feats, peak = traced_peak(lambda: kind.apply(dataset.pixels))
    assert peak <= 1.05 * feats.nbytes  # measured: at most 1.026 x (the perm gather)


@pytest.mark.parametrize("kind", [Identity(), Square(), NeighborProduct(), PermutationProduct(0)],
                         ids=lambda kind: kind.name)
def test_training_holds_one_gather_block_and_a_few_vectors(kind):
    # the X_train size of one table seed, as each feature map hands it over
    # (identity: a read-only view of the pixels)
    n = 6740
    feats = kind.apply(random_images(n, seed=2))
    labels = np.random.default_rng(2).integers(0, N_CLASSES, n)
    config = TrainConfig(seed=0, epochs=2)
    result, peak = traced_peak(lambda: train(config, feats, labels))
    assert len(result.epoch_losses) == 2
    # one 512-row block (16 batches of 32) of gathered features and one-hot
    # labels; a 2048-row block added 0.8 MB to the peak RSS of a table run
    block = 512 * (feats.shape[1] + N_CLASSES) * 8
    # plus six n-vectors of 8 bytes (the current and the last epoch order,
    # the label probabilities, ...); measured 534 kB against this 627 kB
    # bound for every map; a full gather of the features alone is 3.45 MB,
    # and each block's row gather made one from Fortran-ordered perm
    # features (3.93 MB peak)
    assert peak <= block + 48 * n


def test_softmax_allocates_its_result_and_one_column():
    logits = np.random.default_rng(3).normal(size=(N_ROWS, N_CLASSES))
    p, peak = traced_peak(lambda: softmax(logits))
    # the result and the (n, 1) max/sum column, 1.1 x the result; measured
    # 1.18 x; the allocating form (shifted, exp, quotient) peaked at 3.18 x
    assert peak <= 1.25 * p.nbytes


@pytest.mark.parametrize("use_bias", [False, True], ids=["no-bias", "bias"])
def test_forward_holds_two_layer_outputs_at_a_time(use_bias):
    mlp = init_mlp((64, 10, 5, 10), use_bias, 0)
    x = random_images(N_ROWS)
    logits, peak = traced_peak(lambda: forward(mlp, x))
    assert logits.shape == (N_ROWS, N_CLASSES)
    # the widest adjacent pair of outputs, 10 + 5 or 5 + 10 floats a row,
    # plus 4 kB; measured 15 floats a row and 408 bytes; holding all three
    # outputs at once would be 25
    assert peak <= 15 * 8 * N_ROWS + 4096


def test_sample_loss_adds_only_the_softmax_to_forward():
    mlp = init_mlp((64, 10, 5, 10), False, 0)
    x = random_images(N_ROWS)
    labels = np.random.default_rng(4).integers(0, N_CLASSES, N_ROWS)
    losses, peak = traced_peak(lambda: sample_loss(mlp, x, labels))
    assert losses.shape == (N_ROWS,)
    # the logits and their softmax copy (10 floats a row each), its max/sum
    # column and the picked probabilities, after forward's 15 have gone:
    # measured 21.8 floats a row; holding all three layer outputs would be 25
    assert peak <= 22 * 8 * N_ROWS


def test_shifted_split_holds_its_results_and_the_unshifted_sides(corpus):
    # split first: its first draw imports numpy.random, which the trace
    # would otherwise count
    unshifted = held_bytes(*split(corpus, test_fraction=0.25, seed=0))
    sides, peak = traced_peak(lambda: shifted_split(corpus, test_fraction=0.25, seed=0))
    # measured: 1.001 x (results + unshifted sides), where the unshifted
    # sides are a fifth of the results; shifting the whole corpus before the
    # split held the augmented corpus and both sides gathered from it, 1.80 x
    assert peak <= 1.05 * (held_bytes(*sides) + unshifted)


@pytest.mark.parametrize("invert", [[], ["--invert"]], ids=["X_test", "-X_test"])
def test_eval_shifts_only_the_test_side(corpus, tmp_path, monkeypatch, invert):
    model = tmp_path / "model.json"
    save_model(model, init_mlp((64, 10, 5, 10), False, 0), Identity())
    monkeypatch.setattr(cli, "load_dataset", lambda path: corpus)  # loaded before the trace
    argv = ["eval", "--model", str(model), "--out", str(tmp_path / "out"), *invert]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    train_side, _ = shifted_split(corpus, test_fraction=0.25, seed=0)
    # measured: 2.81 MB against the train side's 3.56 MB; shifting both
    # sides and dropping the train side peaked at 6.46 MB
    assert peak < held_bytes(train_side)


def test_table_runs_hold_one_seeds_sets_at_a_time(corpus):
    head = Dataset(corpus.pixels[:400], corpus.labels[:400])

    def run(seeds):
        return reproduce_tables(head, seeds, config=TrainConfig(epochs=1), tables=("table1",))

    _, one_seed = traced_peak(lambda: run([0]))
    _, two_seeds = traced_peak(lambda: run([0, 1]))
    sets = held_bytes(*shifted_split(head, test_fraction=0.25, seed=0))
    # a second seed adds its reports, not its sets: measured +0.01 x one
    # seed's sets; building every seed's sets before the first row added 1.01 x
    assert two_seeds <= one_seed + 0.25 * sets


def test_a_symmetrized_table_row_never_holds_x_train_and_its_symmetrized_copy(corpus):
    _, peak = traced_peak(lambda: reproduce_tables(corpus, [0], config=TrainConfig(epochs=1),
                                                   tables=("table1",)))
    x_train, x_test = shifted_split(corpus, test_fraction=0.25, seed=0)
    pm_train, _ = shifted_split(corpus, test_fraction=0.25, seed=0, symmetrized=True)
    # the pmX_train rows peak with +-X_train, X_test and the row's training
    # and evaluation buffers; holding X_train besides would take the peak
    # past all three sets.  Measured 9.87 MB against this 11.68 MB bound;
    # symmetrizing the shifted X_train inside run_row peaked at 13.38 MB
    assert peak < held_bytes(x_train, pm_train, x_test)
