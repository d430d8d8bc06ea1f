"""Command-line entry point: data handling, training, table reproduction,
and symmetry probes, all with deterministic file outputs.

Exit status: 0 = success and every asserted invariant passed; 1 = usage or
configuration error; 2 = an invariant or acceptance band failed, or training
diverged.
Every command writes a manifest echoing the fully resolved configuration
(timestamps live only there, so reruns are byte-identical elsewhere).
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .degeneracy import (generator_curvature_sweep, make_toy_task,
                         orbit_loss_scan, sampled_loss_expectation, train_toy,
                         weight_orbit_invariance, weight_flip_deviation)
from .digits import (Dataset, augment_shifts, bundled_data_path, dataset_stats,
                     invert_dataset, load_dataset, pixels_to_gray_levels,
                     render_image, split, symmetrize)
from .experiments import (PAPER_VALUES, bound_check, evaluate, format_verdicts,
                          reproduce_tables)
from .features import (Identity, NeighborProduct, apply_feature_map,
                       feature_map_from_name, inversion_group)
from .network import TrainConfig, TrainingDiverged, init_mlp, train
from .persistence import load_model, save_model
from .svg import bar_chart, line_chart


class CliError(Exception):
    """Usage or configuration problem (exit status 1)."""


class CheckFailed(Exception):
    """An invariant or acceptance band failed (exit status 2)."""


DEFAULTS = {
    "data": None,          # None -> bundled CSV
    "out": "out",
    "seed": 0,
    "seeds": "0,1,2,3,4",
    "bias": False,
    "features": "identity",
    "perm_seed": 0,
    "epochs": 200,
    "lr": 0.05,
    "batch": 32,
    "momentum": 0.9,
    "invert": False,
    "jobs": 1,
    "n": 360,
    "mu": 0.5,
    "trials": 10000,
    "samples": 200,
    "test_fraction": 0.25,
}

_BOOL_KEYS = {"bias", "invert"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_INT_KEYS = {"seed", "perm_seed", "epochs", "batch", "jobs", "n", "trials", "samples"}
_FLOAT_KEYS = {"lr", "momentum", "mu", "test_fraction"}


def _parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise CliError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            if key in _BOOL_KEYS:
                values[key] = _BOOL_WORDS[value.lower()]
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except (KeyError, ValueError):
            raise CliError(f"{path}: line {lineno}: bad value for {key}") from None
    return values


def _resolve(args) -> dict:
    """Merge precedence: command-line flags > config file > defaults."""
    file_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = default
    return resolved


def _out_dir(resolved) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, resolved: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(resolved.items())},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(out / "manifest.json", "w", encoding="ascii") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")


def _data_path(resolved) -> str:
    return resolved["data"] if resolved["data"] else str(bundled_data_path())


def _load_splits(resolved) -> tuple[Dataset, Dataset]:
    ds = load_dataset(_data_path(resolved))
    augmented = augment_shifts(ds)
    return split(augmented, test_fraction=resolved["test_fraction"], seed=resolved["seed"])


def _feature_map(resolved):
    return feature_map_from_name(resolved["features"], resolved["perm_seed"])


def _train_config(resolved, use_bias) -> TrainConfig:
    return TrainConfig(
        seed=resolved["seed"], epochs=resolved["epochs"], batch_size=resolved["batch"],
        learning_rate=resolved["lr"], momentum=resolved["momentum"], use_bias=use_bias)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


def cmd_data(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    if args.action == "fetch":
        target = out / "optdigits.csv"
        try:
            from sklearn.datasets import load_digits
        except ImportError:
            raise CliError(
                "fetch needs scikit-learn (install the fetch extra: "
                "pip install -e .[fetch]); "
                f"a bundled copy is available at {bundled_data_path()}") from None
        bunch = load_digits()
        raw = bunch.data.astype(np.int64)
        with open(target, "w", encoding="ascii") as f:
            for row, label in zip(raw, bunch.target):
                f.write(",".join(str(v) for v in [*row.tolist(), int(label)]) + "\n")
        print(f"wrote {len(raw)} images to {target}")
    elif args.action == "convert":
        ds = load_dataset(_data_path(resolved))
        target = out / "optdigits.csv"
        shutil.copyfile(_data_path(resolved), target)
        print(f"validated {len(ds)} images, {len(np.unique(ds.labels))} classes -> {target}")
    elif args.action == "stats":
        ds = load_dataset(_data_path(resolved))
        stats = dataset_stats(ds)
        _write_json(out / "stats.json", stats)
        print(f"{ds.name}: {len(ds)} images, class counts {stats['class_counts']}")
    _write_manifest(out, f"data {args.action}", resolved)
    return 0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    feature_map = _feature_map(resolved)
    config = _train_config(resolved, resolved["bias"])
    train_ds, test_ds = _load_splits(resolved)
    result = train(config, feature_map.apply(train_ds.pixels), train_ds.labels)
    save_model(out / "model.json", result.mlp, feature_map)
    with open(out / "training_curve.csv", "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_loss"])
        writer.writerows((i + 1, loss) for i, loss in enumerate(result.epoch_losses))
    report = evaluate(result.mlp, feature_map, test_ds,
                      model_id=f"train-seed{config.seed}",
                      train_set_name=train_ds.name, n_train=len(train_ds))
    _write_json(out / "train_report.json", report.to_dict())
    _write_manifest(out, "train", resolved)
    print(f"model -> {out / 'model.json'}  R={report.R:.4f}  Rbar={report.R_bar:.4f}")
    return 0


def cmd_eval(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    if not args.model:
        raise CliError("eval requires --model")
    try:
        mlp, feature_map = load_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot load model {args.model}: {exc}") from None
    _, test_ds = _load_splits(resolved)
    if resolved["invert"]:
        test_ds = invert_dataset(test_ds)
    if mlp.layers[0].fan_in != test_ds.pixels.shape[1]:
        raise CliError(
            f"model input dimension {mlp.layers[0].fan_in} does not match data")
    report = evaluate(mlp, feature_map, test_ds,
                      model_id=Path(args.model).stem,
                      train_set_name="(loaded model)", n_train=0)
    _write_json(out / "eval_report.json", report.to_dict())
    _write_manifest(out, "eval", resolved)
    print(f"R={report.R:.4f}  Rbar={report.R_bar:.4f}  sum={report.bound_sum:.4f}")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _figure1_index(ds: Dataset, label: int = 6) -> int:
    """First sample with the given label and no exactly-zero pixel.

    A zero pixel sits on the 127.5 gray midpoint, which no 0..255 scale
    can complement exactly; skipping those samples keeps the inverted
    rendering an exact photographic negative.
    """
    for i in range(len(ds)):
        if int(ds.labels[i]) == label and not np.any(ds.pixels[i] == 0.0):
            return i
    for i in range(len(ds)):  # fallback: complement exact except midpoints
        if int(ds.labels[i]) == label:
            return i
    raise CliError(f"no sample with label {label} in the dataset")


def cmd_reproduce(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    if args.what == "figure1":
        ds = load_dataset(_data_path(resolved))
        idx = _figure1_index(ds)
        image = ds[idx]
        inverted = -image.pixels
        features = apply_feature_map(NeighborProduct(), image.pixels)
        render_image(image.pixels, out / "figure1_original.pgm")
        render_image(inverted, out / "figure1_inverted.pgm")
        render_image(features, out / "figure1_features.pgm")
        complement_exact = bool(np.all(
            pixels_to_gray_levels(image.pixels) + pixels_to_gray_levels(inverted) == 255))
        _write_json(out / "figure1.json", {
            "sample_index": idx, "label": int(image.label),
            "inverted_is_255_complement": complement_exact,
        })
        _write_manifest(out, "reproduce figure1", resolved)
        print(f"triptych for sample {idx} (label {image.label}) -> {out}")
        if not complement_exact:
            raise CheckFailed("inverted rendering is not the exact 255-complement")
        return 0

    seeds = [int(s) for s in str(resolved["seeds"]).split(",") if s.strip() != ""]
    ds = load_dataset(_data_path(resolved))
    augmented = augment_shifts(ds)
    config = _train_config(resolved, use_bias=False)
    tables = (args.what,) if args.what in ("table1", "table2") else ("table1", "table2")
    report = reproduce_tables(augmented, seeds, config=config, tables=tables,
                              test_fraction=resolved["test_fraction"],
                              jobs=resolved["jobs"])
    report.write_csv(out / "results.csv")
    _write_json(out / "report.json", report.to_dict())

    cells = sorted(c for c in report.cells if c[4] == "X_test" or c[0] == "table1")
    bar_chart(out / "accuracies.svg",
              labels=["/".join(c[1:]) for c in cells],
              values=[report.cell_mean(c) for c in cells],
              reference=[PAPER_VALUES.get(c) for c in cells],
              title="accuracy per cell (red tick: published value)")

    # the no-bias cells must also pass the full bound check (per-sample
    # argmin included); retraining reproduces the table models bit-exactly
    bound_failures = []
    if "table1" in tables:
        for seed in seeds:
            train_ds, test_ds = split(augmented, test_fraction=resolved["test_fraction"],
                                      seed=seed)
            result = train(replace(config, seed=seed), Identity().apply(train_ds.pixels),
                           train_ds.labels)
            verdict = bound_check(result.mlp, Identity(), test_ds)
            if not verdict.holds or verdict.n_argmin_violations:
                bound_failures.append((seed, verdict.to_dict()))

    summary = format_verdicts(report.verdicts)
    (out / "bands.txt").write_text(summary, encoding="ascii")
    print(summary, end="")
    _write_manifest(out, f"reproduce {args.what}", resolved)
    if bound_failures:
        raise CheckFailed(f"bound violated for seeds {[s for s, _ in bound_failures]}")
    if not report.all_bands_pass():
        raise CheckFailed("one or more table cells fell outside their acceptance band")
    return 0


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def cmd_probe(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    probe = args.which

    if probe == "weight-flip":
        ds = load_dataset(_data_path(resolved))
        subset = symmetrize(augment_shifts(ds))
        if args.model:
            mlp, feature_map = load_model(args.model)
            if mlp.use_bias or not isinstance(feature_map, Identity):
                raise CliError("weight-flip probe needs a bias-free identity-feature model")
        else:
            mlp = init_mlp((64, 10, 5, 10), use_bias=False, seed_or_rng=resolved["seed"])
        deviation = weight_orbit_invariance(mlp, subset)
        witness = weight_flip_deviation(mlp, augment_shifts(ds))
        payload = {
            "deviation_symmetrized": deviation, "tolerance": 1e-9,
            "deviation_unsymmetrized_witness": witness,
            "passed": deviation <= 1e-9,
        }
        _write_json(out / "probe_weight_flip.json", payload)
        _write_manifest(out, "probe weight-flip", resolved)
        print(f"weight-flip deviation {deviation:.3e} (tolerance 1e-9); "
              f"unsymmetrized witness {witness:.3e}")
        if not payload["passed"]:
            raise CheckFailed(f"weight-flip deviation {deviation:.3e} > 1e-9")
        return 0

    if probe == "orbit":
        task = make_toy_task(resolved["n"], seed=resolved["seed"])
        w_star = train_toy(task)
        scan = orbit_loss_scan(task, w_star)
        with open(out / "orbit_profile.csv", "w", newline="", encoding="ascii") as f:
            writer = csv.writer(f)
            writer.writerow(["theta", "omega"])
            writer.writerows(scan.to_rows())
        line_chart(out / "orbit_valley.svg", scan.angles.tolist(), scan.losses.tolist(),
                   title=f"loss along the weight orbit (n={task.n})",
                   x_label="orbit angle", y_label="symmetrized loss")
        payload = {"n": task.n, "relative_spread": scan.relative_spread,
                   "tolerance": 1e-9, "passed": scan.relative_spread <= 1e-9}
        _write_json(out / "probe_orbit.json", payload)
        _write_manifest(out, "probe orbit", resolved)
        print(f"orbit spread {scan.relative_spread:.3e} over n={task.n} (tolerance 1e-9)")
        if not payload["passed"]:
            raise CheckFailed(f"orbit spread {scan.relative_spread:.3e} > 1e-9")
        return 0

    if probe == "goldstone":
        sweep_ns = (4, 16, 64, resolved["n"]) if resolved["n"] > 64 else (4, 16, 64)
        reports = generator_curvature_sweep(sweep_ns, seed=resolved["seed"])
        curvatures = [r.generator_curvature for r in reports]
        final = reports[-1]
        monotone = all(a >= b for a, b in zip(curvatures, curvatures[1:]))
        payload = {
            "sweep": [r.to_dict() for r in reports],
            "curvature_non_increasing": monotone,
            "directional_derivative": final.directional_derivative,
            "curvature_ratio": final.curvature_ratio,
            "passed": monotone and abs(final.directional_derivative) <= 1e-8
                      and final.curvature_ratio <= 0.01,
        }
        _write_json(out / "probe_goldstone.json", payload)
        _write_manifest(out, "probe goldstone", resolved)
        print("generator curvature by n: "
              + ", ".join(f"{r.n}: {r.generator_curvature:.3e}" for r in reports))
        if not payload["passed"]:
            raise CheckFailed("goldstone probe failed its exact tolerances")
        return 0

    if probe == "sampled-loss":
        ds = load_dataset(_data_path(resolved))
        head = Dataset(ds.pixels[:resolved["samples"]], ds.labels[:resolved["samples"]],
                       ds.origin_ids[:resolved["samples"]], name="subset")
        mlp = init_mlp((64, 10, 5, 10), use_bias=False, seed_or_rng=resolved["seed"])
        report = sampled_loss_expectation(mlp, head, inversion_group(),
                                          mu=resolved["mu"], trials=resolved["trials"],
                                          seed=resolved["seed"])
        if resolved["mu"] == 1.0:
            passed = report.trial_min == report.omega == report.trial_max
        else:
            passed = abs(report.ratio - 1.0) <= 3.0 * report.ratio_std_error
        payload = {**report.to_dict(), "passed": bool(passed)}
        _write_json(out / "probe_sampled_loss.json", payload)
        _write_manifest(out, "probe sampled-loss", resolved)
        print(f"sampled-loss ratio {report.ratio:.6f} "
              f"(+- {report.ratio_std_error:.6f}, mu={report.mu})")
        if not passed:
            raise CheckFailed("sampled-loss mean is outside three standard errors")
        return 0

    raise CliError(f"unknown probe {probe!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="optdigits CSV (default: bundled copy)")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="seed for split/init/shuffles")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--test-fraction", dest="test_fraction", type=float,
                   help="held-out origin fraction (default 0.25)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    bias = p.add_mutually_exclusive_group()
    bias.add_argument("--bias", dest="bias", action="store_true", default=None)
    bias.add_argument("--no-bias", dest="bias", action="store_false", default=None)
    p.add_argument("--features", choices=["identity", "square", "neighbor", "perm"])
    p.add_argument("--perm-seed", dest="perm_seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--momentum", type=float)


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on usage errors; the exit-status
    contract reserves 2 for invariant failures, so route them to CliError."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symdigits",
        description="Inversion-symmetric digit models: training, tables, probes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("data", help="fetch/convert/inspect the digits corpus")
    p.add_argument("action", choices=["fetch", "convert", "stats"])
    _add_common(p)
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("train", help="train one model, save it with its feature map")
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on the test split")
    _add_common(p)
    p.add_argument("--model", help="model JSON written by train")
    p.add_argument("--invert", action="store_true", default=None,
                   help="invert the test set before prediction")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="rebuild the accuracy tables or figure")
    p.add_argument("what", choices=["table1", "table2", "figure1"])
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--seeds", help="comma-separated seeds (default 0,1,2,3,4)")
    p.add_argument("--jobs", type=int, help="parallel table cells (default 1)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("probe", help="run a symmetry-degeneracy probe")
    p.add_argument("which", choices=["weight-flip", "orbit", "goldstone", "sampled-loss"])
    _add_common(p)
    p.add_argument("--model", help="model JSON (weight-flip: default fresh random)")
    p.add_argument("--n", type=int, help="cyclic group order (default 360)")
    p.add_argument("--mu", type=float, help="inclusion probability (default 0.5)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (default 10000)")
    p.add_argument("--samples", type=int, help="dataset subset size (default 200)")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CheckFailed, TrainingDiverged) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
