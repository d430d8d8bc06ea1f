import concurrent.futures
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symdigits.digits import Dataset, invert_dataset, shifted_split, symmetrize
from symdigits.experiments import (CELLS, CSV_FIELDS, TABLE_ROWS, accuracy, bound_check,
                                   evaluate, reproduce_tables, run_row)
from symdigits.features import Identity, NeighborProduct, PermutationProduct, Square
from symdigits.network import Layer, Mlp, TrainConfig, forward, init_mlp, train


def zero_model():
    # all-zero weights: every logit is 0, ties break to class 0
    return Mlp([Layer(np.zeros((10, 64)))])


def balanced_dataset(per_class=7):
    rng = np.random.default_rng(0)
    n = 10 * per_class
    pixels = rng.integers(0, 17, size=(n, 64)) / 8.0 - 1.0
    labels = np.repeat(np.arange(10), per_class)
    return Dataset(pixels, labels)


def test_constant_predictor_scores_one_tenth_on_balanced_set():
    ds = balanced_dataset()
    acc, confusion = accuracy(zero_model(), Identity(), ds)
    assert acc == 0.1
    assert confusion[:, 0].sum() == len(ds)  # everything predicted as class 0


def test_accuracy_consistent_with_confusion():
    ds = balanced_dataset()
    mlp = init_mlp((64, 10, 5, 10), False, 1)
    acc, confusion = accuracy(mlp, Identity(), ds)
    assert acc == np.trace(confusion) / confusion.sum()
    assert confusion.sum() == len(ds)


def test_accuracy_rejects_empty_dataset():
    empty = Dataset(np.zeros((0, 64)), [])
    with pytest.raises(ValueError):
        accuracy(zero_model(), Identity(), empty)


def test_bound_holds_for_random_models():
    ds = balanced_dataset()
    for seed in range(20):
        report = bound_check(init_mlp((64, 10, 5, 10), False, seed), Identity(), ds)
        assert report.holds
        assert report.n_argmin_violations == 0
        assert report.bound_sum <= 1.0


@st.composite
def bias_free_models_and_test_sets(draw):
    hidden = draw(st.lists(st.integers(1, 12), max_size=3))
    mlp = init_mlp((64, *hidden, 10), False, draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 12))
    pixels = draw(hnp.arrays(np.float64, (rows, 64), elements=st.floats(-1.0, 1.0)))
    pixels[draw(hnp.arrays(np.bool_, rows))] = 0.0  # zero rows: every logit ties
    labels = draw(hnp.arrays(np.int64, rows, elements=st.integers(0, 9)))
    return mlp, Dataset(pixels, labels)


@settings(max_examples=200, deadline=None)
@given(bias_free_models_and_test_sets())
def test_bound_exceeds_one_only_by_label_zero_rows_with_tied_logits(model_and_set):
    mlp, ds = model_and_set
    report = bound_check(mlp, Identity(), ds)
    logits = forward(mlp, ds.pixels)
    tied = (logits == logits[:, :1]).all(axis=1)
    n = len(ds)
    correct, correct_inverted = round(report.R * n), round(report.R_bar * n)
    assert correct + correct_inverted <= n + int(np.sum(tied & (ds.labels == 0)))
    assert report.n_argmin_violations == 0


def test_zero_image_of_class_zero_is_correct_on_both_sides():
    # all ten logits are 0, so x and -x are both predicted as class 0
    report = bound_check(init_mlp((64, 10, 5, 10), False, 0), Identity(),
                         Dataset(np.zeros((1, 64)), [0]))
    assert (report.R, report.R_bar, report.holds) == (1.0, 1.0, False)


def test_bound_check_rejects_bias_or_invariant_features():
    ds = balanced_dataset()
    with pytest.raises(ValueError, match="bias"):
        bound_check(init_mlp((64, 10, 5, 10), True, 0), Identity(), ds)
    with pytest.raises(ValueError, match="identity"):
        bound_check(init_mlp((64, 10, 5, 10), False, 0), Square(), ds)


def test_bound_check_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        bound_check(zero_model(), Identity(), Dataset(np.zeros((0, 64)), []))


def test_evaluate_report_self_consistency():
    ds = balanced_dataset()
    mlp = init_mlp((64, 10, 5, 10), False, 2)
    report = evaluate(mlp, Identity(), ds, "m", "train", 10)
    assert report.R == np.trace(report.confusion) / len(ds)
    assert report.R_bar == np.trace(report.confusion_inverted) / len(ds)
    assert report.bound_sum == report.R + report.R_bar
    assert report.bound_holds is True
    payload = report.to_dict()
    assert payload["R"] == report.R and len(payload["confusion"]) == 10


def test_invariant_features_make_accuracies_identical():
    ds = balanced_dataset()
    mlp = init_mlp((64, 10, 5, 10), False, 3)
    r, _ = accuracy(mlp, NeighborProduct(), ds)
    r_inv, _ = accuracy(mlp, NeighborProduct(), invert_dataset(ds))
    assert r == r_inv
    report = evaluate(mlp, NeighborProduct(), ds, "m", "train", 10)
    assert report.bound_holds is None  # theorem hypotheses do not apply


def test_correct_on_x_implies_wrong_on_inverted_x(small_splits, quick_config):
    # A subset of B-bar: every identity-feature no-bias hit on X_test is a
    # miss on -X_test (up to exact logit ties, which do not occur here)
    from symdigits.network import predict, train
    train_ds, test_ds = small_splits
    result = train(quick_config, train_ds.pixels, train_ds.labels)
    preds = predict(result.mlp, test_ds.pixels)
    preds_inv = predict(result.mlp, -test_ds.pixels)
    hits = preds == test_ds.labels
    assert np.all(preds_inv[hits] != test_ds.labels[hits])


def test_run_row_trains_and_reports(small_splits):
    train_ds, test_ds = small_splits
    config = TrainConfig(seed=0, epochs=8)
    report = run_row(config, Identity(), "X_train", train_ds, test_ds)
    assert report.model_id == "nobias-identity-X_train-seed0"
    assert report.sample_counts["train"] == len(train_ds)
    assert report.bound_holds is True
    assert 0.0 <= report.R <= 1.0


def test_symmetrized_split_doubles_the_training_set_and_run_row_trains_on_it(corpus,
                                                                            small_splits):
    train_ds, test_ds = small_splits
    head = Dataset(corpus.pixels[:400], corpus.labels[:400])
    pm_train, pm_test = shifted_split(head, test_fraction=0.25, seed=0, symmetrized=True)
    assert len(pm_train) == 2 * len(train_ds)
    assert np.array_equal(pm_test.pixels, test_ds.pixels)
    config = TrainConfig(seed=0, epochs=4)
    report = run_row(config, Identity(), "pmX_train", pm_train, test_ds)
    assert report.sample_counts["train"] == len(pm_train)
    direct = train(config, pm_train.pixels, pm_train.labels).mlp  # the set as given
    assert all(np.array_equal(a.weights, b.weights)
               for a, b in zip(report.mlp.layers, direct.layers))
    assert report.train_set_name.startswith("+-")


def test_run_row_rejects_unknown_variant(small_splits):
    with pytest.raises(ValueError, match="train_variant"):
        run_row(TrainConfig(), Identity(), "Y_train", *small_splits)


def test_table_row_definitions():
    rows1 = TABLE_ROWS["table1"]
    assert len(rows1) == 4
    assert all(features == "identity" for _, features, _ in rows1)
    rows2 = TABLE_ROWS["table2"]
    assert len(rows2) == 6
    assert all(variant == "X_train" for _, _, variant in rows2)


@pytest.fixture(scope="module")
def head_tables(corpus):
    """Both tables for seed 1 at 2 epochs on a 300-image slice: the slice
    and the report.  Seed 1, not 0, so that a row which
    missed the seed would train with the default seed 0 and show."""
    head = Dataset(corpus.pixels[:300], corpus.labels[:300])
    return head, reproduce_tables(head, seeds=[1], config=TrainConfig(epochs=2))


def test_reproduce_tables_single_seed_emits_14_rows(head_tables):
    # tiny epoch budget: exercises plumbing, not the acceptance bands
    _, report = head_tables
    rows = report.csv_rows()
    assert len(rows) == 14  # 8 table-1 cells + 6 table-2 rows
    assert {r["table"] for r in rows} == {"table1", "table2"}
    # invariant-feature cells evaluate identically on the inverted test set
    for cell, by_seed in report.cells.items():
        if cell[0] == "table2" and cell[4] == "X_test":
            assert by_seed[1] == report.cells[cell[:4] + ("-X_test",)][1]
    payload = report.to_dict()
    assert set(payload) >= {"seeds", "cells", "cell_means", "verdicts", "reports"}
    # one CSV row per published cell, and no other
    assert sorted(tuple(r[k] for k in CSV_FIELDS[:5]) for r in rows) == sorted(CELLS)
    assert all(r["accuracy"] == report.cells[tuple(r[k] for k in CSV_FIELDS[:5])][1]
               for r in rows)


def test_reproduce_tables_cells_equal_an_independent_loop(head_tables):
    head, report = head_tables
    train_ds, test_ds = shifted_split(head, test_fraction=0.25, seed=1)
    rows = [("table1", bias, Identity(), symmetrized)
            for bias in (False, True) for symmetrized in (False, True)]
    rows += [("table2", bias, feature_map, False) for bias in (False, True)
             for feature_map in (Square(), NeighborProduct(), PermutationProduct(1))]
    expected = {}
    for table, bias, feature_map, symmetrized in rows:
        effective = symmetrize(train_ds) if symmetrized else train_ds
        result = train(TrainConfig(seed=1, epochs=2, use_bias=bias),
                       feature_map.apply(effective.pixels), effective.labels)
        cell = (table, "bias" if bias else "no_bias", feature_map.name,
                "pmX_train" if symmetrized else "X_train")
        expected[cell + ("X_test",)] = {1: accuracy(result.mlp, feature_map, test_ds)[0]}
        expected[cell + ("-X_test",)] = {
            1: accuracy(result.mlp, feature_map, invert_dataset(test_ds))[0]}
    assert report.cells == expected


@pytest.mark.parametrize("kwargs, match", [
    ({"seeds": [0, 1, 0]}, "duplicate seeds"),
    ({"seeds": [0], "jobs": 0}, "jobs must be >= 1"),
    ({"seeds": [0], "tables": ("table3",)}, "tables must be"),
    ({"seeds": [0], "tables": ()}, "tables must be"),
], ids=["duplicate-seeds", "zero-jobs", "unknown-table", "no-table"])
def test_reproduce_tables_rejects_bad_inputs(corpus, kwargs, match):
    with pytest.raises(ValueError, match=match):
        reproduce_tables(corpus, config=TrainConfig(epochs=1), **kwargs)


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 5000, 2),      # capped at the CPU count
    (64, 5000, 4),     # capped at the four table-1 cells
    (None, 8, None),   # unknown CPU count: one process, no pool
], ids=["cpus", "cells", "unknown-cpus"])
def test_reproduce_tables_caps_worker_processes(monkeypatch, corpus, cpus, jobs, workers):
    started = []

    class InlinePool:  # records the pool size and runs the cells in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    head = Dataset(corpus.pixels[:100], corpus.labels[:100])
    kwargs = dict(seeds=[0], config=TrainConfig(epochs=1), tables=("table1",))
    report = reproduce_tables(head, jobs=jobs, **kwargs)
    assert started == ([] if workers is None else [workers])
    assert report.cells == reproduce_tables(head, **kwargs).cells


def test_process_pool_with_unsorted_seeds_matches_serial(corpus):
    # the pool takes the rows of every seed at once, symmetrized rows first;
    # the report keeps the seeds' given order, which cell_mean sums in
    head = Dataset(corpus.pixels[:100], corpus.labels[:100])
    kwargs = dict(seeds=[2, 0], config=TrainConfig(epochs=1))
    pooled = reproduce_tables(head, jobs=2, **kwargs)
    serial = reproduce_tables(head, **kwargs)
    keys = [(table, seed, idx) for seed in (2, 0) for table in ("table1", "table2")
            for idx in range(len(TABLE_ROWS[table]))]
    assert list(pooled.reports) == list(serial.reports) == keys
    assert pooled.to_dict() == serial.to_dict()


def test_reproduce_tables_csv_output(tmp_path, corpus):
    head = Dataset(corpus.pixels[:200], corpus.labels[:200])
    report = reproduce_tables(head, seeds=[0, 1],
                              config=TrainConfig(epochs=1), tables=("table1",))
    path = tmp_path / "results.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "table,bias_mode,features,train_set,test_set,seed,accuracy"
    assert len(lines) == 1 + 8 * 2
