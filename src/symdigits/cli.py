"""Command-line entry point: data handling, training, table reproduction,
and symmetry probes, all with deterministic file outputs.

Exit status: 0 = success and every asserted invariant passed; 1 = usage or
configuration error; 2 = an invariant or acceptance band failed, or training
diverged.

``main`` runs every command the same way: it resolves the configuration,
creates the output directory, runs the command, and writes a manifest
echoing the fully resolved configuration (timestamps live only there, so
reruns are byte-identical elsewhere), also when a check failed.  A command
returns None when its checks pass, or the failure message when one fails.
It takes only the flags and config keys it reads: ``out`` and the keys
that ``COMMANDS`` gives it, each a flag of ``FLAGS``.
"""

from __future__ import annotations

import argparse
import csv
import math
import shutil
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .degeneracy import (generator_curvature_sweep, make_toy_task,
                         orbit_loss_scan, sampled_loss_expectation, train_toy,
                         weight_orbit_invariance, weight_flip_deviation)
from .digits import (Dataset, augment_shifts, bundled_data_path, class_counts,
                     dataset_stats, invert_dataset, load_dataset, pixels_to_gray_levels,
                     render_image, shifted_split, shifted_test_side)
from .experiments import CELLS, bound_check, evaluate, format_verdicts, reproduce_tables
from .features import (FEATURE_NAMES, N_PIXELS, Identity, NeighborProduct,
                       feature_map_from_name, inversion_group)
from .network import (N_CLASSES, PAPER_HIDDEN_DIMS, TrainConfig, TrainingDiverged, init_mlp,
                      train)
from .persistence import load_model, save_model, write_json
from .svg import bar_chart, line_chart


class CliError(Exception):
    """Usage or configuration problem (exit status 1)."""


def _must(is_legal, legal):
    """A legal test: None for a legal value, else what the value must be."""
    return lambda value, resolved: None if is_legal(value) else f"must be {legal}"


def _seeds_fault(text, resolved):
    seeds = [s.strip() for s in text.split(",")]
    if not all(s.isascii() and s.isdecimal() for s in seeds):  # an empty item included
        return "must be comma-separated non-negative integers"
    try:
        values = set(map(int, seeds))
    except ValueError:  # beyond int()'s digit limit
        return f"must have at most {sys.get_int_max_str_digits()} digits per seed"
    if len(values) != len(seeds):
        return "must not repeat a seed"
    return None


def _trials_fault(trials, resolved):
    # one trial at mu < 1 has no standard error to test against
    least = 1 if resolved["mu"] == 1 else 2
    return None if trials >= least else f"must be >= {least} at --mu {resolved['mu']}"


_NON_NEGATIVE = _must(lambda v: v >= 0, "a non-negative integer")
_POSITIVE = _must(lambda v: v >= 1, ">= 1")
_PATH = _must(lambda v: v != "", "a non-empty path")
_FEATURES = ", ".join(FEATURE_NAMES)

# key -> (default, help, legal test or None).  The key's flag is --key with
# "-" for "_"; the default's type picks the parser (_PARSERS) of the flag and
# the config-file value.
# The library checks these values too; _resolve checks them first, from a
# flag or a config file alike, so that the message names the flag.
FLAGS = {
    "data": (None, "optdigits CSV (default: the bundled corpus)", _PATH),
    "out": ("out", "output directory", _PATH),
    "seed": (0, "seed of the split, the initial weights and the shuffles", _NON_NEGATIVE),
    "seeds": ("0,1,2,3,4", "comma-separated seeds, one per table run", _seeds_fault),
    "bias": (False, "fit biases; --no-bias fits none", None),
    "features": ("identity", f"feature map: {_FEATURES}",
                 _must(lambda v: v in FEATURE_NAMES, f"one of {_FEATURES}")),
    "perm_seed": (0, "seed of the perm map's pixel permutation", _NON_NEGATIVE),
    "epochs": (200, "passes over the training set", _POSITIVE),
    "lr": (0.05, "SGD learning rate",
           _must(lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")),
    "batch": (32, "mini-batch size", _POSITIVE),
    "momentum": (0.9, "SGD momentum", _must(lambda v: 0 <= v < 1, "in [0, 1)")),
    "invert": (False, "invert the test set before prediction", None),
    "jobs": (1, "parallel table cells, at most the CPU count", _POSITIVE),
    "n": (360, "cyclic group order (goldstone: the last of its sweep)", _POSITIVE),
    "mu": (0.5, "inclusion probability", _must(lambda v: 0 < v <= 1, "in (0, 1]")),
    "trials": (10000, "Monte Carlo trials", _trials_fault),  # after mu, which it reads
    "samples": (200, "dataset subset size, at most the corpus size", None),
    "test_fraction": (0.25, "held-out fraction of the images",
                      _must(lambda v: 0 < v < 1, "in (0, 1)")),
}
DEFAULTS = {key: default for key, (default, _, _) in FLAGS.items()}
# the probes' fresh networks
PAPER_DIMS = (N_PIXELS, *PAPER_HIDDEN_DIMS, N_CLASSES)

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _ascii_number(kind):
    """``kind`` (int or float) of an ASCII text with no '_': int() and
    float() would also read other scripts' digits and digit-group
    underscores.  So an int is a sign and ASCII digits, as in a CSV field."""
    def parse(text):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)
    parse.__name__ = kind.__name__  # argparse's message: "invalid int value"
    return parse


# value parser, for a flag and a config-file value alike, by the type of the
# key's default; the rest are strings (and bool flags take no value)
_PARSERS = {bool: lambda value: _BOOL_WORDS[value.lower()], int: _ascii_number(int),
            float: _ascii_number(float)}


def _parse_config_file(path, keys) -> dict:
    """Flat key=value lines; '#' starts a comment; each key is in ``keys``, set once."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise CliError(f"{path}: line {lineno}: not ASCII") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise CliError(f"{path}: line {lineno}: unknown key {key!r}")
        if lines.setdefault(key, lineno) != lineno:
            raise CliError(f"{path}: line {lineno}: key {key!r} repeats line {lines[key]}")
        try:
            values[key] = _PARSERS.get(type(DEFAULTS[key]), str)(value)
        except (KeyError, ValueError):
            raise CliError(f"{path}: line {lineno}: bad value for {key}") from None
    return values


def _resolve(args) -> dict:
    """The command's keys (those its parser defines), merged by precedence
    (command-line flags > config file > defaults) and checked in FLAGS order."""
    keys = [key for key in FLAGS if hasattr(args, key)]
    file_values = _parse_config_file(args.config, keys) if args.config else {}
    resolved = {}
    for key in keys:
        flag = getattr(args, key)
        value = resolved[key] = flag if flag is not None else file_values.get(key, DEFAULTS[key])
        legal = FLAGS[key][2]
        fault = legal(value, resolved) if legal else None
        if fault:
            raise CliError(f"--{key.replace('_', '-')} {fault}, got {value!r}")
    return resolved


def _write_manifest(out: Path, command: str, resolved: dict) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config": dict(sorted(resolved.items())),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })


def _data_path(resolved) -> str:
    return resolved["data"] if resolved["data"] else str(bundled_data_path())


def _load_split(resolved, sides=shifted_split):
    """``sides`` (``shifted_split`` or ``shifted_test_side``) of the corpus."""
    return sides(load_dataset(_data_path(resolved)),
                 test_fraction=resolved["test_fraction"], seed=resolved["seed"])


def _train_config(resolved, **fixed) -> TrainConfig:
    """The SGD flags, plus the ``fixed`` fields of TrainConfig."""
    return TrainConfig(
        epochs=resolved["epochs"], batch_size=resolved["batch"],
        learning_rate=resolved["lr"], momentum=resolved["momentum"], **fixed)


def _load_model(path):
    """``load_model(path)`` of a model that maps the 64 pixels to the 10 classes."""
    mlp, feature_map = load_model(path)
    if (mlp.dims[0], mlp.dims[-1]) != (N_PIXELS, N_CLASSES):
        raise CliError(f"model file {path} maps {mlp.dims[0]} inputs to {mlp.dims[-1]} "
                       f"outputs; need {N_PIXELS} pixels to {N_CLASSES} classes")
    return mlp, feature_map


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


def cmd_data(args, resolved, out):
    if args.what == "convert":
        ds = load_dataset(_data_path(resolved))
        target = out / "optdigits.csv"
        shutil.copyfile(_data_path(resolved), target)
        print(f"validated {len(ds)} images, {np.count_nonzero(class_counts(ds))} classes "
              f"-> {target}")
    elif args.what == "stats":
        ds = load_dataset(_data_path(resolved))
        stats = dataset_stats(ds)
        write_json(out / "stats.json", stats)
        print(f"{len(ds)} images, class counts {stats['class_counts']}")


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def cmd_train(args, resolved, out):
    feature_map = feature_map_from_name(resolved["features"], resolved["perm_seed"])
    config = _train_config(resolved, seed=resolved["seed"], use_bias=resolved["bias"])
    train_ds, test_ds = _load_split(resolved)
    result = train(config, feature_map.apply(train_ds.pixels), train_ds.labels)
    save_model(out / "model.json", result.mlp, feature_map)
    with open(out / "training_curve.csv", "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_loss"])
        writer.writerows((i + 1, loss) for i, loss in enumerate(result.epoch_losses))
    report = evaluate(result.mlp, feature_map, test_ds,
                      model_id=f"train-seed{config.seed}",
                      train_set_name="optdigits+shifts.train", n_train=len(train_ds))
    write_json(out / "train_report.json", report.to_dict())
    print(f"model -> {out / 'model.json'}  R={report.R:.4f}  Rbar={report.R_bar:.4f}")


def cmd_eval(args, resolved, out):
    if not args.model:
        raise CliError("eval requires --model")
    mlp, feature_map = _load_model(args.model)
    test_ds = _load_split(resolved, shifted_test_side)
    if resolved["invert"]:
        test_ds = invert_dataset(test_ds)
    report = evaluate(mlp, feature_map, test_ds,
                      model_id=Path(args.model).stem,
                      train_set_name="(loaded model)", n_train=0)
    write_json(out / "eval_report.json", report.to_dict())
    print(f"R={report.R:.4f}  Rbar={report.R_bar:.4f}  sum={report.bound_sum:.4f}")


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _figure1_index(ds: Dataset) -> int:
    """First sample of a 6 with no exactly-zero pixel.

    A zero pixel sits on the 127.5 gray midpoint, which no 0..255 scale
    can complement exactly; skipping those samples keeps the inverted
    rendering an exact photographic negative.
    """
    for i in range(len(ds)):
        if int(ds.labels[i]) == 6 and not np.any(ds.pixels[i] == 0.0):
            return i
    for i in range(len(ds)):  # fallback: complement exact except midpoints
        if int(ds.labels[i]) == 6:
            return i
    raise CliError("no sample with label 6 in the dataset")


def cmd_reproduce(args, resolved, out):
    if args.what == "figure1":
        ds = load_dataset(_data_path(resolved))
        idx = _figure1_index(ds)
        pixels, label = ds.pixels[idx], int(ds.labels[idx])
        inverted = -pixels
        render_image(pixels, out / "figure1_original.pgm")
        render_image(inverted, out / "figure1_inverted.pgm")
        render_image(NeighborProduct().apply(pixels), out / "figure1_features.pgm")
        complement_exact = bool(np.all(
            pixels_to_gray_levels(pixels) + pixels_to_gray_levels(inverted) == 255))
        write_json(out / "figure1.json", {
            "sample_index": idx, "label": label,
            "inverted_is_255_complement": complement_exact,
        })
        print(f"triptych for sample {idx} (label {label}) -> {out}")
        return None if complement_exact else "inverted rendering is not the exact 255-complement"

    seeds = [int(seed) for seed in resolved["seeds"].split(",")]  # checked by _resolve
    ds = load_dataset(_data_path(resolved))
    config = _train_config(resolved)  # reproduce_tables sets each row's seed and bias
    report = reproduce_tables(ds, seeds, config=config, tables=(args.what,),
                              test_fraction=resolved["test_fraction"],
                              jobs=resolved["jobs"])
    report.write_csv(out / "results.csv")
    write_json(out / "report.json", report.to_dict())

    cells = sorted(c for c in report.cells if c in CELLS)
    bar_chart(out / "accuracies.svg",
              labels=["/".join(c[1:]) for c in cells],
              values=[report.cell_mean(c) for c in cells],
              reference=[CELLS[c][0] for c in cells],
              title="accuracy per cell (red tick: published value)")

    # the no-bias cells must also pass the full bound check (per-sample
    # argmin included); retraining reproduces the table models bit-exactly
    bound_failures = []
    if args.what == "table1":
        for seed in seeds:
            train_ds, test_ds = shifted_split(ds, test_fraction=resolved["test_fraction"],
                                              seed=seed)
            result = train(replace(config, seed=seed), Identity().apply(train_ds.pixels),
                           train_ds.labels)
            verdict = bound_check(result.mlp, Identity(), test_ds)
            if not verdict.holds or verdict.n_argmin_violations:
                bound_failures.append(seed)

    summary = format_verdicts(report.verdicts)
    (out / "bands.txt").write_text(summary, encoding="ascii")
    print(summary, end="")
    if bound_failures:
        return f"bound violated for seeds {bound_failures}"
    if not report.all_bands_pass():
        return "one or more table cells fell outside their acceptance band"
    return None


# ---------------------------------------------------------------------------
# probes: each returns (payload, summary line, failure message); cmd_probe
# writes the payload, prints the summary and returns the failure unless the
# payload passed
# ---------------------------------------------------------------------------


def _probe_weight_flip(args, resolved, out):
    # +-X as one array; its first half is the shifted corpus X, a view
    subset = augment_shifts(load_dataset(_data_path(resolved)), symmetrized=True)
    half = len(subset) // 2
    if args.model:
        mlp, feature_map = _load_model(args.model)
        if mlp.use_bias or not isinstance(feature_map, Identity):
            raise CliError("weight-flip probe needs a bias-free identity-feature model")
    else:
        mlp = init_mlp(PAPER_DIMS, use_bias=False, seed_or_rng=resolved["seed"])
    witness = weight_flip_deviation(mlp, Dataset(subset.pixels[:half], subset.labels[:half]))
    deviation = weight_orbit_invariance(mlp, subset)
    payload = {
        "deviation_symmetrized": deviation, "tolerance": 1e-9,
        "deviation_unsymmetrized_witness": witness,
        "passed": deviation <= 1e-9,
    }
    return (payload,
            f"weight-flip deviation {deviation:.3e} (tolerance 1e-9); "
            f"unsymmetrized witness {witness:.3e}",
            f"weight-flip deviation {deviation:.3e} > 1e-9")


def _probe_orbit(args, resolved, out):
    task = make_toy_task(resolved["n"], seed=resolved["seed"])
    w_star = train_toy(task)
    scan = orbit_loss_scan(task, w_star)
    with open(out / "orbit_profile.csv", "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(["theta", "omega"])
        writer.writerows(zip(scan.angles.tolist(), scan.losses.tolist()))
    line_chart(out / "orbit_valley.svg", scan.angles.tolist(), scan.losses.tolist(),
               title=f"loss along the weight orbit (n={task.n})",
               x_label="orbit angle", y_label="symmetrized loss")
    payload = {"n": task.n, "relative_spread": scan.relative_spread,
               "tolerance": 1e-9, "passed": scan.relative_spread <= 1e-9}
    return (payload,
            f"orbit spread {scan.relative_spread:.3e} over n={task.n} (tolerance 1e-9)",
            f"orbit spread {scan.relative_spread:.3e} > 1e-9")


def _probe_goldstone(args, resolved, out):
    sweep_ns = tuple(k for k in (4, 16, 64) if k < resolved["n"]) + (resolved["n"],)
    reports = generator_curvature_sweep(sweep_ns, seed=resolved["seed"])
    curvatures = [r.generator_curvature for r in reports]
    final = reports[-1]
    monotone = all(a >= b for a, b in zip(curvatures, curvatures[1:]))
    payload = {
        "sweep": [asdict(r) for r in reports],
        "curvature_non_increasing": monotone,
        "directional_derivative": final.directional_derivative,
        "curvature_ratio": final.curvature_ratio,
        "passed": monotone and abs(final.directional_derivative) <= 1e-8
                  and final.curvature_ratio <= 0.01,
    }
    return (payload,
            "generator curvature by n: "
            + ", ".join(f"{r.n}: {r.generator_curvature:.3e}" for r in reports),
            "goldstone probe failed its exact tolerances")


def _probe_sampled_loss(args, resolved, out):
    ds = load_dataset(_data_path(resolved))
    samples = resolved["samples"]
    if not 1 <= samples <= len(ds):
        raise CliError(f"--samples must be in 1..{len(ds)}, got {samples}")
    head = Dataset(ds.pixels[:samples], ds.labels[:samples])
    mlp = init_mlp(PAPER_DIMS, use_bias=False, seed_or_rng=resolved["seed"])
    report = sampled_loss_expectation(mlp, head, inversion_group(),
                                      mu=resolved["mu"], trials=resolved["trials"],
                                      seed=resolved["seed"])
    if resolved["mu"] == 1.0:
        passed = report.trial_min == report.omega == report.trial_max
    else:
        passed = abs(report.ratio - 1.0) <= 3.0 * report.ratio_std_error
    return ({**asdict(report), "passed": bool(passed)},
            f"sampled-loss ratio {report.ratio:.6f} "
            f"(+- {report.ratio_std_error:.6f}, mu={report.mu})",
            "sampled-loss mean is outside three standard errors")


PROBES = {
    "weight-flip": _probe_weight_flip,
    "orbit": _probe_orbit,
    "goldstone": _probe_goldstone,
    "sampled-loss": _probe_sampled_loss,
}


def cmd_probe(args, resolved, out):
    payload, summary, failure = PROBES[args.what](args, resolved, out)
    write_json(out / f"probe_{args.what.replace('-', '_')}.json", payload)
    print(summary)
    return None if payload["passed"] else failure


# ---------------------------------------------------------------------------
# parser: one leaf parser per command, with --out, --config and its keys' flags
# ---------------------------------------------------------------------------

# the table rows fix the bias mode and the feature maps
_TABLE_KEYS = "data test_fraction epochs lr batch momentum seeds jobs"
# command -> (runner, help, the keys it reads besides out, its other flags)
COMMANDS = {
    "data convert": (cmd_data, "validate a CSV and copy it to --out", "data", {}),
    "data stats": (cmd_data, "class counts and pixel histogram", "data", {}),
    "train": (cmd_train, "train one model, save it with its feature map",
              "data seed test_fraction bias features perm_seed epochs lr batch momentum", {}),
    "eval": (cmd_eval, "evaluate a saved model on the test split",
             "data seed test_fraction invert", {"--model": "model JSON written by train"}),
    "reproduce table1": (cmd_reproduce, "train and grade the table1 cells", _TABLE_KEYS, {}),
    "reproduce table2": (cmd_reproduce, "train and grade the table2 cells", _TABLE_KEYS, {}),
    "reproduce figure1": (cmd_reproduce, "render a digit, its inversion and its features",
                          "data", {}),
    "probe weight-flip": (cmd_probe, "loss change under W1 -> -W1", "data seed",
                          {"--model": "model JSON (default: fresh random)"}),
    "probe orbit": (cmd_probe, "loss along the C_n weight orbit", "seed n", {}),
    "probe goldstone": (cmd_probe, "curvature along the orbit generator", "seed n", {}),
    "probe sampled-loss": (cmd_probe, "symmetry in expectation under sampling",
                           "data seed mu trials samples", {}),
}
# the help of each first word of a two-word command
_GROUPS = {"data": "validate or inspect the digits corpus",
           "reproduce": "rebuild the accuracy tables or figure",
           "probe": "run a symmetry-degeneracy probe"}


def _add_flag(p: argparse.ArgumentParser, key: str) -> None:
    default, text, _ = FLAGS[key]
    flag = "--" + key.replace("_", "-")
    if default is not None:
        text = f"{text} (default {default})"
    if not isinstance(default, bool):
        p.add_argument(flag, dest=key, type=_PARSERS.get(type(default), str), help=text)
        return
    group = p.add_mutually_exclusive_group()
    group.add_argument(flag, dest=key, action="store_true", default=None, help=text)
    # --no-KEY, so that a flag overrides a config file's true
    group.add_argument("--no-" + flag[2:], dest=key, action="store_false", default=None)


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on usage errors; the exit-status
    contract reserves 2 for invariant failures, so route them to CliError.
    Flags are never abbreviated: ``reproduce --seed`` is an error, not
    ``--seeds``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``p`` the arguments of command ``name`` (a COMMANDS key)."""
    runner, _, keys, others = COMMANDS[name]
    command, _, what = name.partition(" ")
    p.set_defaults(func=runner, command=command, what=what or None)
    p.add_argument("--config", help="flat key=value config file")
    for key in ("out", *keys.split()):
        _add_flag(p, key)
    for flag, flag_text in others.items():
        p.add_argument(flag, help=flag_text)
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or only the leaf parser of ``command`` (a COMMANDS
    key), which parses the arguments after the command's words."""
    if command is not None:
        return _add_command(_Parser(prog=f"symdigits {command}"), command)
    parser = _Parser(
        prog="symdigits",
        description="Inversion-symmetric digit models: training, tables, probes.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (_, text, _, _) in COMMANDS.items():
        command, _, what = name.partition(" ")
        if what and command not in groups:
            group = commands.add_parser(command, help=_GROUPS[command])
            groups[command] = group.add_subparsers(dest="what", required=True)
        _add_command((groups[command] if what else commands).add_parser(what or command,
                                                                       help=text), name)
    return parser


def _command_of(argv: list) -> str | None:
    """The COMMANDS key that argv's first words name, or None when argv names
    none or asks for help or the version: only the full parser prints
    those, and every message about a command word."""
    if {"-h", "--help", "--version"}.isdisjoint(argv):
        for name in COMMANDS:
            if argv[:name.count(" ") + 1] == name.split():
                return name
    return None


def _outermost_missing(path: Path) -> Path | None:
    """The outermost directory that ``path.mkdir(parents=True)`` would create."""
    missing = None
    for directory in (path, *path.parents):
        if directory.exists():
            break
        missing = directory
    return missing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _command_of(argv)
    created = None
    try:
        # the named command's parser alone: all of them cost more than a parse
        args = build_parser(command).parse_args(
            argv[command.count(" ") + 1:] if command else argv)
        resolved = _resolve(args)
        out = Path(resolved["out"])
        created = _outermost_missing(out)
        out.mkdir(parents=True, exist_ok=True)
        failure = args.func(args, resolved, out)
        _write_manifest(out, f"{args.command} {args.what}" if args.what else args.command,
                        resolved)
    except TrainingDiverged as exc:
        failure = str(exc)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a usage error records no run: remove what this call created
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        return 1
    if failure is None:
        return 0
    print(f"check failed: {failure}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
