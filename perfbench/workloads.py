"""The benchmark's workloads: the CLI commands one pass issues, in order.

Every pass uses the bundled corpus (6740 train and 2245 test images for any
seed) and leaves ``--jobs`` at its default of 1.
"""

from __future__ import annotations

from pathlib import Path

# Fewer than the CLI default of 200, so a tables pass takes seconds; the
# step count stays exactly 2743 per epoch.
TABLE_EPOCHS = 20
# Fewer again, so loading, splitting, evaluation and model I/O show.
TRAIN_EPOCHS = 5

# The acceptance bands grade the mean over five seeds.  A single seed misses
# one of them for about one seed in four, at 20, 40 and 60 epochs alike
# (seeds 1, 10 and 11 at 20 epochs), and ``reproduce`` then exits 2.  The
# tables workload therefore draws its seed from these seeds, each of which
# passes every band at TABLE_EPOCHS.
TABLE_SEEDS = (0, 2, 3, 4, 5, 6, 7, 8, 9)
# The other workloads draw theirs from 0-9, the seeds with recorded output
# digests, so that every run is checked against a recorded digest.
RECORDED_SEEDS = 10

WORKLOADS = ("tables", "train_eval", "probes")


def command_seed(workload: str, seed: int) -> int:
    """The seed the workload's commands receive for benchmark seed ``seed``."""
    if workload == "tables":
        return TABLE_SEEDS[seed % len(TABLE_SEEDS)]
    return seed % RECORDED_SEEDS


def commands(workload: str, seed: int, out: Path) -> list[tuple[str, list[str], Path]]:
    """(name, argv for symdigits.cli.main, output directory) per command."""
    s = str(command_seed(workload, seed))
    if workload == "tables":
        return [(f"reproduce-{table}",
                 ["reproduce", table, "--seeds", s, "--epochs", str(TABLE_EPOCHS),
                  "--out", str(out / table)], out / table)
                for table in ("table1", "table2")]
    if workload == "train_eval":
        model = str(out / "train" / "model.json")
        return [
            ("train", ["train", "--seed", s, "--epochs", str(TRAIN_EPOCHS),
                       "--out", str(out / "train")], out / "train"),
            ("eval", ["eval", "--model", model, "--seed", s,
                      "--out", str(out / "eval")], out / "eval"),
            ("eval-invert", ["eval", "--model", model, "--invert", "--seed", s,
                             "--out", str(out / "eval_invert")], out / "eval_invert"),
        ]
    if workload == "probes":
        return [(f"probe-{probe}", ["probe", probe, "--seed", s, "--out", str(out / probe)],
                 out / probe)
                for probe in ("weight-flip", "orbit", "goldstone", "sampled-loss")]
    raise ValueError(f"unknown workload {workload!r}")
