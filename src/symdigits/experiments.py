"""Accuracy measurements, the R + Rbar <= 1 bound, and the result tables.

R is accuracy on the test set, Rbar accuracy on its pixel-inverted copy.
For a bias-free network on raw pixels the logits are odd in the input, so
the top class on x is the bottom class on -x and R + Rbar <= 1 holds
exactly, for trained and untrained models alike.  Invariant feature maps
make the two accuracies identical instead.

``reproduce_tables`` reruns the full accuracy matrix (four identity-feature
rows, six invariant-feature rows) over several seeds and grades every cell
against its acceptance band.  ``TABLE_ROWS`` lists the rows of each table;
``CELLS`` lists the published cells with their paper values and bands.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .digits import Dataset, invert_dataset, shifted_split
from .features import FeatureMapKind, Identity, feature_map_from_name
from .network import N_CLASSES, Mlp, TrainConfig, predict, forward, train


def accuracy(mlp: Mlp, feature_map: FeatureMapKind, dataset: Dataset):
    """(accuracy, confusion) on a dataset; confusion rows are true labels,
    columns predicted labels."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    feats = feature_map.apply(dataset.pixels)
    preds = predict(mlp, feats)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (dataset.labels, preds), 1)
    acc = float(np.trace(confusion)) / float(len(dataset))
    return acc, confusion


@dataclass
class BoundCheckReport:
    R: float
    R_bar: float
    bound_sum: float
    holds: bool
    n_unique_min: int
    n_argmin_violations: int


def bound_check(mlp: Mlp, feature_map: FeatureMapKind, test: Dataset) -> BoundCheckReport:
    """Verify R + Rbar <= 1 for a bias-free network on raw pixels.

    The bound assumes that no sample has all of its logits tied: such a
    sample is predicted as class 0 on x and on -x, so one of class 0 (the
    zero image, for one) counts as correct on both.

    Also checks, sample by sample, that the prediction on -x equals the
    argmin of the logits on x whenever that minimum is unique.  Rejects
    models with biases or non-identity features: the theorem's hypotheses
    would not hold (with invariant features R == Rbar trivially).
    """
    if mlp.use_bias:
        raise ValueError("bound_check requires a bias-free model")
    if not isinstance(feature_map, Identity):
        raise ValueError("bound_check requires identity features")
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = forward(mlp, test.pixels)
    preds_inverted = predict(mlp, -test.pixels)
    # correct/total: the same double as accuracy's trace/total
    R = np.count_nonzero(np.argmax(logits, axis=1) == test.labels) / len(test)
    R_bar = np.count_nonzero(preds_inverted == test.labels) / len(test)
    argmins = np.argmin(logits, axis=1)
    unique = (logits == logits.min(axis=1, keepdims=True)).sum(axis=1) == 1
    violations = int(np.sum(preds_inverted[unique] != argmins[unique]))
    total = R + R_bar
    return BoundCheckReport(
        R=R, R_bar=R_bar, bound_sum=total, holds=bool(total <= 1.0),
        n_unique_min=int(unique.sum()), n_argmin_violations=violations)


@dataclass
class EvalReport:
    """Evaluation of one trained model on a test set and its inversion."""

    model_id: str
    feature_map_name: str
    bias_mode: bool
    train_set_name: str
    R: float
    R_bar: float
    bound_sum: float
    confusion: np.ndarray
    confusion_inverted: np.ndarray
    sample_counts: dict
    bound_holds: bool | None  # None when the theorem's hypotheses do not apply
    mlp: Mlp = field(repr=False, compare=False)  # the model evaluated; not in to_dict

    def __post_init__(self):
        n_test = self.sample_counts["test"]
        if self.R != float(np.trace(self.confusion)) / n_test:
            raise ValueError("R does not equal correct/total from the confusion matrix")
        if self.R_bar != float(np.trace(self.confusion_inverted)) / n_test:
            raise ValueError("R_bar does not equal correct/total from the confusion matrix")

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "feature_map": self.feature_map_name,
            "bias_mode": self.bias_mode,
            "train_set": self.train_set_name,
            "R": self.R,
            "R_bar": self.R_bar,
            "bound_sum": self.bound_sum,
            "bound_holds": self.bound_holds,
            "confusion": self.confusion.tolist(),
            "confusion_inverted": self.confusion_inverted.tolist(),
            "sample_counts": dict(self.sample_counts),
        }


def evaluate(mlp: Mlp, feature_map: FeatureMapKind, test: Dataset,
             model_id: str, train_set_name: str, n_train: int) -> EvalReport:
    R, confusion = accuracy(mlp, feature_map, test)
    R_bar, confusion_inv = accuracy(mlp, feature_map, invert_dataset(test))
    theorem_applies = (not mlp.use_bias) and isinstance(feature_map, Identity)
    return EvalReport(
        model_id=model_id,
        feature_map_name=feature_map.name,
        bias_mode=mlp.use_bias,
        train_set_name=train_set_name,
        R=R, R_bar=R_bar, bound_sum=R + R_bar,
        confusion=confusion, confusion_inverted=confusion_inv,
        sample_counts={"train": n_train, "test": len(test)},
        bound_holds=bool(R + R_bar <= 1.0) if theorem_applies else None, mlp=mlp)


def run_row(config: TrainConfig, feature_map: FeatureMapKind, train_variant: str,
            train_ds: Dataset, test_ds: Dataset) -> EvalReport:
    """Train one table row on ``train_ds`` and evaluate it on X_test and
    -X_test.

    ``train_variant`` names the training set: "X_train", or "pmX_train" when
    ``train_ds`` is already symmetrized (``shifted_split(...,
    symmetrized=True)``); ``config`` carries the row's seed and bias mode.
    """
    if train_variant not in ("X_train", "pmX_train"):
        raise ValueError(f"train_variant must be X_train or pmX_train, got {train_variant!r}")
    result = train(config, feature_map.apply(train_ds.pixels), train_ds.labels)
    bias = "bias" if config.use_bias else "nobias"
    model_id = f"{bias}-{feature_map.name}-{train_variant}-seed{config.seed}"
    train_set_name = "+-X_train" if train_variant == "pmX_train" else "X_train"
    return evaluate(result.mlp, feature_map, test_ds, model_id, train_set_name, len(train_ds))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# table -> its rows in output order: (bias mode, feature-map name, training set)
TABLE_ROWS = {
    "table1": ((False, "identity", "X_train"), (False, "identity", "pmX_train"),
               (True, "identity", "X_train"), (True, "identity", "pmX_train")),
    "table2": tuple((bias, name, "X_train") for bias in (False, True)
                    for name in ("square", "neighbor", "perm")),
}

# published cell -> (paper value, low, high), in verdict order.  The paper
# omits all training hyperparameters, so a cell is graded against a band on
# its across-seed mean rather than against the published number; None means
# unbounded.  These are the cells the CSV, the chart and the bands report.
CELLS = {
    ("table1", "no_bias", "identity", "X_train", "X_test"): (0.84, 0.75, None),
    ("table1", "no_bias", "identity", "X_train", "-X_test"): (0.001, None, 0.05),
    ("table1", "bias", "identity", "X_train", "X_test"): (0.81, 0.72, None),
    ("table1", "bias", "identity", "X_train", "-X_test"): (0.02, None, 0.10),
    ("table1", "bias", "identity", "pmX_train", "X_test"): (0.68, 0.55, 0.80),
    ("table1", "bias", "identity", "pmX_train", "-X_test"): (0.69, 0.55, 0.80),
    ("table1", "no_bias", "identity", "pmX_train", "X_test"): (0.12, None, 0.55),
    ("table1", "no_bias", "identity", "pmX_train", "-X_test"): (0.09, None, 0.55),
    ("table2", "no_bias", "square", "X_train", "X_test"): (0.65, 0.50, 0.75),
    ("table2", "no_bias", "neighbor", "X_train", "X_test"): (0.84, 0.78, None),
    ("table2", "no_bias", "perm", "X_train", "X_test"): (0.81, 0.72, None),
    # with-bias bands: same lower edges, upper edges +0.05
    ("table2", "bias", "square", "X_train", "X_test"): (0.66, 0.50, 0.80),
    ("table2", "bias", "neighbor", "X_train", "X_test"): (0.87, 0.78, None),
    ("table2", "bias", "perm", "X_train", "X_test"): (0.82, 0.72, None),
}

CSV_FIELDS = ("table", "bias_mode", "features", "train_set", "test_set", "seed", "accuracy")


@dataclass
class TablesReport:
    """All per-seed evaluations plus per-cell accuracies and band verdicts."""

    seeds: list[int]
    reports: dict  # (table, seed, index into TABLE_ROWS[table]) -> EvalReport
    cells: dict = field(init=False)     # cell tuple -> {seed: accuracy}
    verdicts: list = field(init=False)  # dicts: cell/value/band/paper/inside

    def __post_init__(self):
        self.cells = {}
        for seed, cell, value in self._accuracies(self.reports.items()):
            self.cells.setdefault(cell, {})[seed] = value
        self.verdicts = grade_bands(self)

    @staticmethod
    def _accuracies(reports):
        """(seed, cell, accuracy) on X_test and on -X_test for every report."""
        for (table, seed, idx), report in reports:
            bias, features, variant = TABLE_ROWS[table][idx]
            row = (table, "bias" if bias else "no_bias", features, variant)
            yield seed, row + ("X_test",), report.R
            yield seed, row + ("-X_test",), report.R_bar

    def csv_rows(self) -> list[dict]:
        """One row per seed and published cell (a key of CELLS)."""
        return [dict(zip(CSV_FIELDS, (*cell, seed, value)))
                for seed, cell, value in self._accuracies(sorted(self.reports.items()))
                if cell in CELLS]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as f:
            writer = csv.DictWriter(f, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(self.csv_rows())

    def cell_mean(self, cell: tuple) -> float:
        return float(np.mean(list(self.cells[cell].values())))

    def all_bands_pass(self) -> bool:
        return all(v["inside"] for v in self.verdicts)

    def cell_spread(self, cell: tuple) -> tuple[float, float]:
        values = list(self.cells[cell].values())
        return (float(min(values)), float(max(values)))

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "cells": {"/".join(k): {str(s): a for s, a in v.items()}
                      for k, v in sorted(self.cells.items())},
            "cell_means": {"/".join(k): self.cell_mean(k) for k in sorted(self.cells)},
            "cell_spreads": {"/".join(k): self.cell_spread(k) for k in sorted(self.cells)},
            "verdicts": self.verdicts,
            "reports": [r.to_dict() for _, r in sorted(self.reports.items())],
        }


def _table_row(corpus: Dataset, test_fraction: float, config: TrainConfig, table: str,
               seed: int, idx: int) -> EvalReport:
    """Row ``idx`` of ``table`` at ``seed``, on that seed's X_train (or
    +-X_train) and X_test.  The sets are built here and live only in this
    call."""
    bias, features, variant = TABLE_ROWS[table][idx]
    train_ds, test_ds = shifted_split(corpus, test_fraction=test_fraction, seed=seed,
                                      symmetrized=variant == "pmX_train")
    return run_row(replace(config, seed=seed, use_bias=bias),
                   feature_map_from_name(features, seed), variant, train_ds, test_ds)


def reproduce_tables(corpus: Dataset, seeds, config: TrainConfig | None = None,
                     tables=("table1", "table2"), test_fraction: float = 0.25,
                     jobs: int = 1) -> TablesReport:
    """Train and evaluate every row of the given tables for each seed.

    ``corpus`` is the unaugmented set: each row builds its seed's X_train and
    X_test, the split of its images shifted (``shifted_split``), and drops
    them when it ends.  The seed controls the split, the parameter init, the
    epoch shuffles, and (for PermutationProduct) the permutation.  Cells are
    graded against their acceptance bands on the across-seed mean.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}")
    if not tables or not set(tables) <= set(TABLE_ROWS):
        raise ValueError(f"tables must be a non-empty subset of {sorted(TABLE_ROWS)}, "
                         f"got {tables!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    row = partial(_table_row, corpus, test_fraction, config or TrainConfig())
    keys = [(table, seed, idx) for seed in seeds for table in TABLE_ROWS if table in tables
            for idx in range(len(TABLE_ROWS[table]))]
    # the symmetrized rows train on twice the rows: start them first, so that
    # a pool's workers finish together
    order = sorted(keys, key=lambda key: TABLE_ROWS[key[0]][key[2]][2] != "pmX_train")
    # never more worker processes than CPUs or rows: a pool forks all of
    # its workers at the first submit
    workers = min(jobs, os.cpu_count() or 1, len(keys))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = dict(zip(order, pool.map(row, *zip(*order))))
    else:
        done = dict(zip(order, map(row, *zip(*order))))
    # in key order: cell_mean averages the seeds in insertion order
    return TablesReport(seeds, {key: done[key] for key in keys})


# ---------------------------------------------------------------------------
# acceptance bands
# ---------------------------------------------------------------------------

NEIGHBOR_OVER_SQUARE_MARGIN = 0.08
PM_TRAIN_GAP_LIMIT = 0.10


def _band_text(low, high) -> str:
    if low is None:
        return f"<= {high}"
    if high is None:
        return f">= {low}"
    return f"in [{low}, {high}]"


def grade_bands(report: TablesReport) -> list:
    """Grade the published cells of the report's tables against their bands,
    then check each table's exact and ordering statements."""
    tables = {table for table, _, _ in report.reports}
    verdicts = []

    def add(cell, value, band, inside, paper=None):
        verdicts.append({"cell": cell, "value": value, "band": band,
                         "paper": paper, "inside": bool(inside)})

    for cell, (paper, low, high) in CELLS.items():
        if cell[0] in tables:
            value = report.cell_mean(cell)
            ok = (low is None or value >= low) and (high is None or value <= high)
            add("/".join(cell), value, f"mean {_band_text(low, high)}", ok, paper)

    if "table1" in tables:
        # |R - Rbar| on the symmetrized with-bias row
        row = ("table1", "bias", "identity", "pmX_train")
        gap = abs(report.cell_mean(row + ("X_test",)) - report.cell_mean(row + ("-X_test",)))
        add("/".join(row) + "/|R-Rbar|", gap,
            f"mean <= {PM_TRAIN_GAP_LIMIT}", gap <= PM_TRAIN_GAP_LIMIT)
        # exact theorem on the no-bias symmetrized row, per seed
        row = ("table1", "no_bias", "identity", "pmX_train")
        sums = [report.cells[row + ("X_test",)][s] + report.cells[row + ("-X_test",)][s]
                for s in report.seeds]
        add("/".join(row) + "/R+Rbar", max(sums),
            "<= 1 exactly, every seed", all(v <= 1.0 for v in sums))

    if "table2" in tables:
        # invariant features: identical accuracy on X_test and -X_test, every seed
        exact = all(by_seed[s] == report.cells[cell[:4] + ("-X_test",)][s]
                    for cell, by_seed in report.cells.items()
                    if cell[0] == "table2" and cell[4] == "X_test" for s in report.seeds)
        add("table2/*/R==Rbar", float(exact), "bit-exact, every cell and seed", exact)
        # ordering: neighbor beats square by the margin in every seed
        for bias in ("no_bias", "bias"):
            gaps = [
                report.cells[("table2", bias, "neighbor", "X_train", "X_test")][s]
                - report.cells[("table2", bias, "square", "X_train", "X_test")][s]
                for s in report.seeds
            ]
            add(f"table2/{bias}/neighbor-square", min(gaps),
                f">= {NEIGHBOR_OVER_SQUARE_MARGIN} in every seed",
                all(g >= NEIGHBOR_OVER_SQUARE_MARGIN for g in gaps))

    return verdicts


def format_verdicts(verdicts) -> str:
    out = io.StringIO()
    for v in verdicts:
        status = "PASS" if v["inside"] else "FAIL"
        paper = f"  (paper {v['paper']})" if v.get("paper") is not None else ""
        out.write(f"{status}  {v['cell']}: {v['value']:.4f}  band {v['band']}{paper}\n")
    return out.getvalue()
