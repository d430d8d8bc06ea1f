"""symdigits benchmark: one workload, measured for a fixed time.

Run from the root of a source checkout, as BENCHMARK.json does:

    env OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py \
        --workload tables --seed 0 --seconds 35 --trace 0

One caller issues the workload's CLI commands in a closed loop, a pass at a
time; every pass runs in a fresh interpreter (``worker.py``) so that its
CPU time and peak memory are its own.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics.  The lines before it give the environment, every pass's
wall time and the failed fraction of commands.

Output files are checked against the SHA-256 digests in ``digests.json``.
The summary line carries the digests the run's passes wrote, so that
``spread.py --json`` can record them after a deliberate behaviour change.

OpenBLAS is pinned to one thread in BENCHMARK.json: with its default, the
second BLAS thread spins on whichever core is free, and ``cpu_s`` moved by
about a third between otherwise equal runs.  The digests are the same
either way.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

DIGESTS = HERE / "digests.json"
SETUP_RUNS = 5          # set-up-only interpreters per run, on top of one per pass
RUN_BUDGET_S = 150.0    # no pass starts after this; every run ends well within 180 s
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _environment(root: Path) -> dict:
    env = {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": None,
    }
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        if rev.returncode == 0:
            env["git_revision"] = rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


class Worker:
    """Starts ``worker.py`` interpreters against the checkout's ``src``."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PERFBENCH_SRC": src,
                    "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def run(self, *args: str) -> dict | None:
        """The worker's JSON result, or None if it failed."""
        timeout = max(1.0, min(WORKER_TIMEOUT_S, self.deadline - time.monotonic()))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {timeout:.0f} s: {args}", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker failed ({proc.returncode}): {args}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(lines[-1])


def _tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    if not (root / "src" / "symdigits" / "cli.py").is_file():
        print(f"error: {root} has no src/symdigits; run from a symdigits checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    worker = Worker(root, start + RUN_BUDGET_S + 20.0)
    work = root / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    environment = {**_environment(root), "loadavg_start": _loadavg()}
    command_seed = workloads.command_seed(workload, seed)

    setups, versions = [], None
    for _ in range(SETUP_RUNS):
        result = worker.run("--setup-only")
        if result is None:
            return 1
        setups.append(result["setup_s"])
        versions = result["versions"]
    environment["versions"] = versions

    passes = []   # (traced, worker result or None)
    measure_start = time.monotonic()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            elapsed = time.monotonic() - measure_start
            n_untraced = sum(1 for t, _ in passes if not t)
            n_traced = len(passes) - n_untraced
            enough = n_untraced >= 1 and (n_traced >= 1 or not trace)
            if enough and (elapsed >= seconds or time.monotonic() - start > RUN_BUDGET_S):
                break
            out = work / f"pass{len(passes)}"
            args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
            result = worker.run(*args, *(["--trace"] if traced else []))
            passes.append((traced, result))
            if result is None:
                break
            setups.append(result["setup_s"])
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    environment["loadavg_end"] = _loadavg()

    # correctness: every command exits 0 and writes the same bytes in every
    # pass, traced or not; at a seed in digests.json, the recorded bytes
    n_commands = len(workloads.commands(workload, seed, work))
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(command_seed))
    if recorded is None:
        print(f"note: digests.json has no entry for {workload} at seed {command_seed}; "
              "the passes are checked only against each other", file=sys.stderr)
    attempted = failed = 0
    crashed = False
    observed = None       # the digests of the first pass
    consistent = True     # every pass exited 0 and wrote the first pass's bytes
    for _, result in passes:
        attempted += n_commands
        if result is None:
            failed += n_commands
            crashed = True
            continue
        digests = {c["name"]: c["digest"] for c in result["commands"]}
        if observed is None:
            observed = digests
        consistent = consistent and digests == observed and all(
            c["exit"] == 0 for c in result["commands"])
        reference = recorded or observed
        for c in result["commands"]:
            if c["exit"] != 0 or c["digest"] != reference.get(c["name"]):
                failed += 1
                print(f"failed: {c['name']} exit {c['exit']} digest {c['digest'][:16]} "
                      f"(expected {str(reference.get(c['name']))[:16]}) {c['log_tail']}",
                      file=sys.stderr)

    untraced = [r for t, r in passes if not t and r is not None]
    traced_runs = [r for t, r in passes if t and r is not None]
    if not untraced or (trace and not traced_runs):
        return 1

    walls = [r["wall_s"] for r in untraced]
    summary = {
        "workload": workload, "seed": seed, "command_seed": command_seed,
        "passes": len(untraced),
        "traced_passes": len(traced_runs), "setup_samples": len(setups),
        "pass_walls_s": walls, "wall_s_tail": _tail(walls),
        "fail_frac": failed / attempted,
        "digests_recorded": recorded is not None,
        "digests": observed if consistent and not crashed else None,
        "environment": environment,
    }
    print(json.dumps({"summary": summary}))
    if trace:
        metrics = {}
        for name in traced_runs[0]["layers"]:
            values = [r["layers"][name] for r in traced_runs]
            # counts repeat exactly from pass to pass; times vary
            metrics[name] = values[0] if isinstance(values[0], int) \
                else statistics.median(values)
        traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
        traced_rss = statistics.median(r["peak_rss_mb"] for r in traced_runs)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics["trace.peak_rss_mb"] = traced_rss
        metrics["trace.rss_ratio"] = traced_rss / statistics.median(
            r["peak_rss_mb"] for r in untraced)
        units = _per_layer_units()
        metrics = {name: {"value": metrics.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        for name, value in values.items():
            print(f"{name:12s} {value:12.6f} {END_TO_END_UNITS[name]}")
        tail = summary["wall_s_tail"]
        print(f"wall_s       {len(walls)} passes; " + (
            f"p{tail[0]:.0f} {tail[1]:.6f} s" if tail else "too few for a tail percentile"))
        print(f"fail_frac    {failed / attempted:12.6f} ({failed} of {attempted} commands)")
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": failed == 0 and not crashed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _per_layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
