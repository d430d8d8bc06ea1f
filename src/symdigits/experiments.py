"""Accuracy measurements, the R + Rbar <= 1 bound, and the result tables.

R is accuracy on the test set, Rbar accuracy on its pixel-inverted copy.
For a bias-free network on raw pixels the logits are odd in the input, so
the top class on x is the bottom class on -x and R + Rbar <= 1 holds
exactly, for trained and untrained models alike.  Invariant feature maps
make the two accuracies identical instead.

``reproduce_tables`` reruns the full accuracy matrix (four identity-feature
rows, six invariant-feature rows) over several seeds and grades every cell
against its acceptance band.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .digits import Dataset, N_CLASSES, invert_dataset, split, symmetrize
from .features import (FeatureMapKind, Identity, NeighborProduct,
                       PermutationProduct, Square)
from .network import Mlp, TrainConfig, predict, forward, train


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
    n_samples: int
    n_unique_min: int
    n_argmin_violations: int


def bound_check(mlp: Mlp, feature_map: FeatureMapKind, test: Dataset) -> BoundCheckReport:
    """Verify R + Rbar <= 1 for a bias-free network on raw pixels.

    Also checks, sample by sample, that the prediction on -x equals the
    argmin of the logits on x whenever that minimum is unique.  Rejects
    models with biases or non-identity features: the theorem's hypotheses
    would not hold (with invariant features R == Rbar trivially).
    """
    if mlp.use_bias:
        raise ValueError("bound_check requires a bias-free model")
    if not isinstance(feature_map, Identity):
        raise ValueError("bound_check requires identity features")
    R, _ = accuracy(mlp, feature_map, test)
    R_bar, _ = accuracy(mlp, feature_map, invert_dataset(test))
    logits = forward(mlp, test.pixels).logits
    preds_inverted = predict(mlp, -test.pixels)
    argmins = np.argmin(logits, axis=1)
    unique = (logits == logits.min(axis=1, keepdims=True)).sum(axis=1) == 1
    violations = int(np.sum(preds_inverted[unique] != argmins[unique]))
    total = R + R_bar
    return BoundCheckReport(
        R=R, R_bar=R_bar, bound_sum=total, holds=bool(total <= 1.0),
        n_samples=len(test), n_unique_min=int(unique.sum()),
        n_argmin_violations=violations)


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


TRAIN_VARIANTS = ("X_train", "pmX_train")


@dataclass(frozen=True)
class RowSpec:
    """One table row: bias mode, feature map, and which training-set variant."""

    bias_mode: bool
    feature_map: FeatureMapKind
    train_variant: str
    config: TrainConfig

    def __post_init__(self):
        if self.train_variant not in TRAIN_VARIANTS:
            raise ValueError(f"train_variant must be one of {TRAIN_VARIANTS}")

    @property
    def model_id(self) -> str:
        bias = "bias" if self.bias_mode else "nobias"
        return f"{bias}-{self.feature_map.name}-{self.train_variant}-seed{self.config.seed}"


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
        bound_holds=bool(R + R_bar <= 1.0) if theorem_applies else None)


def run_row(row: RowSpec, train_ds: Dataset, test_ds: Dataset) -> EvalReport:
    """Build the row's training set, train, and evaluate on X_test and -X_test."""
    config = replace(row.config, use_bias=row.bias_mode)
    effective = symmetrize(train_ds) if row.train_variant == "pmX_train" else train_ds
    result = train(config, row.feature_map.apply(effective.pixels), effective.labels)
    return evaluate(result.mlp, row.feature_map, test_ds,
                    row.model_id, effective.name, len(effective))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def table1_rows(seed: int, config: TrainConfig) -> list[RowSpec]:
    cfg = replace(config, seed=seed)
    return [
        RowSpec(False, Identity(), "X_train", cfg),
        RowSpec(False, Identity(), "pmX_train", cfg),
        RowSpec(True, Identity(), "X_train", cfg),
        RowSpec(True, Identity(), "pmX_train", cfg),
    ]


def table2_rows(seed: int, config: TrainConfig) -> list[RowSpec]:
    cfg = replace(config, seed=seed)
    maps = [Square(), NeighborProduct(), PermutationProduct(seed)]
    return [RowSpec(bias, fm, "X_train", cfg) for bias in (False, True) for fm in maps]


@dataclass
class TablesReport:
    """All per-seed evaluations plus per-cell summaries and band verdicts."""

    seeds: list[int]
    reports: dict        # (table, seed, row index) -> (train_variant, EvalReport)
    cells: dict          # cell tuple -> {seed: accuracy}
    verdicts: list       # dicts: cell/value/band/inside

    def csv_rows(self) -> list[dict]:
        out = []
        for (table, seed, _idx), (variant, report) in sorted(self.reports.items()):
            def row(test_set, value):
                return {
                    "table": table,
                    "bias_mode": "bias" if report.bias_mode else "no_bias",
                    "features": report.feature_map_name,
                    "train_set": variant,
                    "test_set": test_set,
                    "seed": seed,
                    "accuracy": value,
                }
            out.append(row("X_test", report.R))
            if table == "table1":
                out.append(row("-X_test", report.R_bar))
        return out

    def write_csv(self, path) -> None:
        rows = self.csv_rows()
        with open(path, "w", newline="", encoding="ascii") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)

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
            "reports": [r.to_dict() for _, (_, r) in sorted(self.reports.items())],
        }


def _run_cell_job(args) -> tuple:
    """Worker for one (table, seed, row) training; top level for pickling."""
    table, seed, idx, row, train_ds, test_ds = args
    return (table, seed, idx), (row.train_variant, run_row(row, train_ds, test_ds))


def reproduce_tables(augmented: Dataset, seeds, config: TrainConfig | None = None,
                     tables=("table1", "table2"), test_fraction: float = 0.25,
                     jobs: int = 1) -> TablesReport:
    """Train and evaluate every table cell for each seed.

    The seed controls the origin-group split, the parameter init, the
    epoch shuffles, and (for PermutationProduct) the permutation.  Cells
    are graded against their acceptance bands on the across-seed mean.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = config or TrainConfig()
    jobs_list = []
    for seed in seeds:
        train_ds, test_ds = split(augmented, test_fraction=test_fraction, seed=seed)
        train_ds = Dataset(train_ds.pixels, train_ds.labels, train_ds.origin_ids, name="X_train")
        test_ds = Dataset(test_ds.pixels, test_ds.labels, test_ds.origin_ids, name="X_test")
        if "table1" in tables:
            for idx, row in enumerate(table1_rows(seed, config)):
                jobs_list.append(("table1", seed, idx, row, train_ds, test_ds))
        if "table2" in tables:
            for idx, row in enumerate(table2_rows(seed, config)):
                jobs_list.append(("table2", seed, idx, row, train_ds, test_ds))

    # never more worker processes than CPUs or cells: a pool forks all of
    # its workers at the first submit
    workers = min(jobs, os.cpu_count() or 1, len(jobs_list))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_run_cell_job, jobs_list))
    else:
        results = dict(map(_run_cell_job, jobs_list))

    cells: dict = {}
    for (table, seed, idx), (variant, report) in results.items():
        bias = "bias" if report.bias_mode else "no_bias"
        key_r = (table, bias, report.feature_map_name, variant, "X_test")
        cells.setdefault(key_r, {})[seed] = report.R
        key_rb = (table, bias, report.feature_map_name, variant, "-X_test")
        cells.setdefault(key_rb, {})[seed] = report.R_bar
    report = TablesReport(seeds=seeds, reports=results, cells=cells, verdicts=[])
    report.verdicts = grade_bands(report, tables)
    return report


# ---------------------------------------------------------------------------
# acceptance bands (the paper omits all training hyperparameters, so cells
# are graded against bands rather than the exact published numbers)
# ---------------------------------------------------------------------------

PAPER_VALUES = {
    ("table1", "no_bias", "identity", "X_train", "X_test"): 0.84,
    ("table1", "no_bias", "identity", "X_train", "-X_test"): 0.001,
    ("table1", "no_bias", "identity", "pmX_train", "X_test"): 0.12,
    ("table1", "no_bias", "identity", "pmX_train", "-X_test"): 0.09,
    ("table1", "bias", "identity", "X_train", "X_test"): 0.81,
    ("table1", "bias", "identity", "X_train", "-X_test"): 0.02,
    ("table1", "bias", "identity", "pmX_train", "X_test"): 0.68,
    ("table1", "bias", "identity", "pmX_train", "-X_test"): 0.69,
    ("table2", "no_bias", "square", "X_train", "X_test"): 0.65,
    ("table2", "no_bias", "neighbor", "X_train", "X_test"): 0.84,
    ("table2", "no_bias", "perm", "X_train", "X_test"): 0.81,
    ("table2", "bias", "square", "X_train", "X_test"): 0.66,
    ("table2", "bias", "neighbor", "X_train", "X_test"): 0.87,
    ("table2", "bias", "perm", "X_train", "X_test"): 0.82,
}

# cell -> (low, high) on the across-seed mean; None means unbounded
TABLE1_MEAN_BANDS = {
    ("table1", "no_bias", "identity", "X_train", "X_test"): (0.75, None),
    ("table1", "no_bias", "identity", "X_train", "-X_test"): (None, 0.05),
    ("table1", "bias", "identity", "X_train", "X_test"): (0.72, None),
    ("table1", "bias", "identity", "X_train", "-X_test"): (None, 0.10),
    ("table1", "bias", "identity", "pmX_train", "X_test"): (0.55, 0.80),
    ("table1", "bias", "identity", "pmX_train", "-X_test"): (0.55, 0.80),
    ("table1", "no_bias", "identity", "pmX_train", "X_test"): (None, 0.55),
    ("table1", "no_bias", "identity", "pmX_train", "-X_test"): (None, 0.55),
}

TABLE2_MEAN_BANDS = {
    ("table2", "no_bias", "square", "X_train", "X_test"): (0.50, 0.75),
    ("table2", "no_bias", "neighbor", "X_train", "X_test"): (0.78, None),
    ("table2", "no_bias", "perm", "X_train", "X_test"): (0.72, None),
    # with-bias bands: same lower edges, upper edges +0.05
    ("table2", "bias", "square", "X_train", "X_test"): (0.50, 0.80),
    ("table2", "bias", "neighbor", "X_train", "X_test"): (0.78, None),
    ("table2", "bias", "perm", "X_train", "X_test"): (0.72, None),
}

NEIGHBOR_OVER_SQUARE_MARGIN = 0.08
PM_TRAIN_GAP_LIMIT = 0.10


def _band_text(low, high) -> str:
    if low is None:
        return f"<= {high}"
    if high is None:
        return f">= {low}"
    return f"in [{low}, {high}]"


def grade_bands(report: TablesReport, tables=("table1", "table2")) -> list:
    """Grade every cell of the computed tables against its band."""
    verdicts = []

    def add(cell, value, band, inside):
        verdicts.append({
            "cell": "/".join(cell) if isinstance(cell, tuple) else cell,
            "value": value,
            "band": band,
            "paper": PAPER_VALUES.get(cell),
            "inside": bool(inside),
        })

    mean_bands = {}
    if "table1" in tables:
        mean_bands.update(TABLE1_MEAN_BANDS)
    if "table2" in tables:
        mean_bands.update(TABLE2_MEAN_BANDS)
    for cell, (low, high) in mean_bands.items():
        value = report.cell_mean(cell)
        ok = (low is None or value >= low) and (high is None or value <= high)
        add(cell, value, f"mean {_band_text(low, high)}", ok)

    if "table1" in tables:
        # |R - Rbar| on the symmetrized with-bias row
        r = report.cell_mean(("table1", "bias", "identity", "pmX_train", "X_test"))
        rb = report.cell_mean(("table1", "bias", "identity", "pmX_train", "-X_test"))
        add("table1/bias/identity/pmX_train/|R-Rbar|", abs(r - rb),
            f"mean <= {PM_TRAIN_GAP_LIMIT}", abs(r - rb) <= PM_TRAIN_GAP_LIMIT)
        # exact theorem on the no-bias symmetrized row, per seed
        sums = [
            report.cells[("table1", "no_bias", "identity", "pmX_train", "X_test")][s]
            + report.cells[("table1", "no_bias", "identity", "pmX_train", "-X_test")][s]
            for s in report.seeds
        ]
        add("table1/no_bias/identity/pmX_train/R+Rbar", max(sums),
            "<= 1 exactly, every seed", all(v <= 1.0 for v in sums))

    if "table2" in tables:
        # invariant features: identical accuracy on X_test and -X_test, every seed
        exact = True
        for cell, by_seed in report.cells.items():
            if cell[0] == "table2" and cell[4] == "X_test":
                inv = report.cells[cell[:4] + ("-X_test",)]
                exact &= all(by_seed[s] == inv[s] for s in report.seeds)
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
