"""Run-to-run spread of the benchmark, as the acceptance check measures it.

Runs ``run.py`` once per seed 0-9 for each workload, one run at a time,
with BENCHMARK.json's ``run_seconds``, and prints for every end-to-end
metric the median, the quartiles, the interquartile distance as a share of
the median, and the largest deviation of a single run from the median,
next to the metric's bound.  ``--json FILE`` also writes a trajectory point
(the environment, every run's metrics, the spread, and the per-layer
metrics of one traced run per workload at seed 0) and records the output
digests of every run in ``digests.json`` in the same directory.  That is
how ``baseline.json`` and ``digests.json`` were made:

    python3 perfbench/spread.py [--json perfbench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(10))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(summary, result) of one benchmark run."""
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[0])["summary"], json.loads(lines[-1])


def _rounded(value):
    return round(value, 6) if isinstance(value, float) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write a trajectory point here")
    args = parser.parse_args(argv)

    seconds = SPEC["run_seconds"]
    point = {"run_seconds": seconds, "seeds": SEEDS, "environment": None, "workloads": {}}
    digests = {}
    for workload, why in ((w["name"], w["why"]) for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            summary, result = _run(workload, seed, seconds, 0)
            point["environment"] = point["environment"] or summary["environment"]
            if summary["digests"] is None:
                raise RuntimeError(f"{workload} seed {seed}: the passes disagree or failed")
            digests.setdefault(workload, {})[str(summary["command_seed"])] = summary["digests"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "command_seed": summary["command_seed"],
                         "passes": summary["passes"], "correct": result["correct"],
                         "loadavg": [summary["environment"]["loadavg_start"],
                                     summary["environment"]["loadavg_end"]],
                         **{k: _rounded(v) for k, v in metrics.items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in metrics.items()), flush=True)
        spread = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            max_dev = max(abs(v - median) for v in values) / median
            spread[name] = {"median": _rounded(median), "q1": _rounded(q1), "q3": _rounded(q3),
                            "spread": _rounded((q3 - q1) / median),
                            "max_dev": _rounded(max_dev), "bound": metric["bound"]}
            print(f"  {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / median:6.3f}  max_dev {max_dev:6.3f}"
                  f"  bound {metric['bound']}", flush=True)
        entry = {"why": why, "end_to_end": spread, "runs": runs}
        if args.json:
            _, result = _run(workload, SEEDS[0], seconds, 1)
            entry["per_layer"] = {k: _rounded(v["value"]) for k, v in result["metrics"].items()}
        point["workloads"][workload] = entry
    if args.json:
        args.json.write_text(json.dumps(point, indent=1) + "\n")
        (args.json.parent / "digests.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
