import numpy as np
import pytest

from symdigits.digits import Dataset, invert_dataset
from symdigits.experiments import (RowSpec, TablesReport, accuracy, bound_check,
                                   evaluate, reproduce_tables, run_row,
                                   table1_rows, table2_rows)
from symdigits.features import Identity, NeighborProduct, Square
from symdigits.network import Layer, Mlp, TrainConfig, init_mlp


def zero_model():
    # all-zero weights: every logit is 0, ties break to class 0
    return Mlp([Layer(np.zeros((10, 64)))])


def balanced_dataset(per_class=7):
    rng = np.random.default_rng(0)
    n = 10 * per_class
    pixels = rng.integers(0, 17, size=(n, 64)) / 8.0 - 1.0
    labels = np.repeat(np.arange(10), per_class)
    return Dataset(pixels, labels, np.arange(n), name="balanced")


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
    empty = Dataset(np.zeros((0, 64)), [], [])
    with pytest.raises(ValueError):
        accuracy(zero_model(), Identity(), empty)


def test_bound_holds_for_random_models():
    ds = balanced_dataset()
    for seed in range(20):
        report = bound_check(init_mlp((64, 10, 5, 10), False, seed), Identity(), ds)
        assert report.holds
        assert report.n_argmin_violations == 0
        assert report.bound_sum <= 1.0


def test_bound_check_rejects_bias_or_invariant_features():
    ds = balanced_dataset()
    with pytest.raises(ValueError, match="bias"):
        bound_check(init_mlp((64, 10, 5, 10), True, 0), Identity(), ds)
    with pytest.raises(ValueError, match="identity"):
        bound_check(init_mlp((64, 10, 5, 10), False, 0), Square(), ds)


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
    row = RowSpec(False, Identity(), "X_train", config)
    report = run_row(row, train_ds, test_ds)
    assert report.sample_counts["train"] == len(train_ds)
    assert report.bound_holds is True
    assert 0.0 <= report.R <= 1.0


def test_run_row_symmetrized_variant_doubles_training_set(small_splits):
    train_ds, test_ds = small_splits
    config = TrainConfig(seed=0, epochs=4)
    report = run_row(RowSpec(False, Identity(), "pmX_train", config), train_ds, test_ds)
    assert report.sample_counts["train"] == 2 * len(train_ds)
    assert report.train_set_name.startswith("+-")


def test_row_spec_rejects_unknown_variant():
    with pytest.raises(ValueError):
        RowSpec(False, Identity(), "Y_train", TrainConfig())


def test_table_row_definitions():
    rows1 = table1_rows(0, TrainConfig())
    assert len(rows1) == 4
    assert all(isinstance(r.feature_map, Identity) for r in rows1)
    rows2 = table2_rows(0, TrainConfig())
    assert len(rows2) == 6
    assert all(r.train_variant == "X_train" for r in rows2)


def test_reproduce_tables_single_seed_emits_14_rows(corpus):
    # tiny epoch budget: exercises plumbing, not the acceptance bands
    from symdigits.digits import augment_shifts
    head = Dataset(corpus.pixels[:300], corpus.labels[:300],
                   corpus.origin_ids[:300], name="head")
    augmented = augment_shifts(head)
    report = reproduce_tables(augmented, seeds=[0], config=TrainConfig(epochs=2))
    rows = report.csv_rows()
    assert len(rows) == 14  # 8 table-1 cells + 6 table-2 rows
    assert {r["table"] for r in rows} == {"table1", "table2"}
    # invariant-feature cells evaluate identically on the inverted test set
    for cell, by_seed in report.cells.items():
        if cell[0] == "table2" and cell[4] == "X_test":
            assert by_seed[0] == report.cells[cell[:4] + ("-X_test",)][0]
    payload = report.to_dict()
    assert set(payload) >= {"seeds", "cells", "cell_means", "verdicts", "reports"}


@pytest.mark.parametrize("kwargs, match", [
    ({"seeds": [0, 1, 0]}, "duplicate seeds"),
    ({"seeds": [0], "jobs": 0}, "jobs must be >= 1"),
], ids=["duplicate-seeds", "zero-jobs"])
def test_reproduce_tables_rejects_bad_inputs(corpus, kwargs, match):
    with pytest.raises(ValueError, match=match):
        reproduce_tables(corpus, config=TrainConfig(epochs=1), **kwargs)


def test_reproduce_tables_csv_output(tmp_path, corpus):
    from symdigits.digits import augment_shifts
    head = Dataset(corpus.pixels[:200], corpus.labels[:200],
                   corpus.origin_ids[:200], name="head")
    report = reproduce_tables(augment_shifts(head), seeds=[0, 1],
                              config=TrainConfig(epochs=1), tables=("table1",))
    path = tmp_path / "results.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "table,bias_mode,features,train_set,test_set,seed,accuracy"
    assert len(lines) == 1 + 8 * 2
