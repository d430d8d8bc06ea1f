"""One benchmark pass in a fresh interpreter.

Measures set-up (importing ``symdigits.cli`` and loading the bundled corpus
once), then issues the workload's commands one after another through
``symdigits.cli.main``, as a single caller would, and prints one JSON line
with the pass's wall and CPU seconds, its peak resident memory, the exit
status and output digest of every command and, when traced, the per-layer
aggregates.

    python3 perfbench/worker.py --workload probes --seed 0 --out DIR [--trace]
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads


def _setup() -> float:
    start = time.perf_counter()
    import symdigits.cli  # noqa: F401
    from symdigits.digits import load_bundled_dataset
    load_bundled_dataset()
    return time.perf_counter() - start


def _versions() -> dict:
    import numpy as np
    try:  # mode= is numpy 1.26 or later; before that the BLAS is not recorded
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def output_digest(directory: Path) -> str:
    """SHA-256 over every file a command wrote, except manifest.json
    (the only output that carries a timestamp)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        if rel == "manifest.json":
            continue
        digest.update(rel.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # every thread, BLAS included
    return usage.ru_utime + usage.ru_stime


def run_pass(workload: str, seed: int, out: Path, tracer=None) -> dict:
    """Run one pass in this process; ``tracer`` is installed around it."""
    import symdigits.cli as cli  # cli.main is looked up per call: the tracer wraps it

    commands = workloads.commands(workload, seed, out)
    for _, _, directory in commands:
        directory.mkdir(parents=True, exist_ok=True)
    exits, logs = [], []
    if tracer is not None:
        tracer.install()
    try:
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        for _, argv, _ in commands:
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                exits.append(cli.main(argv))
            logs.append(log.getvalue())
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": [
            {"name": name, "exit": code, "digest": output_digest(directory),
             "log_tail": log.splitlines()[-3:] if code else []}
            for (name, _, directory), code, log in zip(commands, exits, logs)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    result = {"setup_s": _setup()}
    import symdigits
    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(symdigits.__file__).resolve().parents:
        print(f"symdigits imported from {symdigits.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    if args.setup_only:
        result["versions"] = _versions()
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        result.update(run_pass(args.workload, args.seed, args.out, tracer))
        if tracer is not None:
            result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
