"""Self-tests of the benchmark: exact per-layer counts from a short traced
run of each workload, traced and untraced digests agreeing, a wrong or
missing recorded digest showing, tracer memory, and the refusal to run
outside a checkout.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(workload: str, cwd: Path = ROOT, trace: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=180)


def _copy_benchmark(dest: Path, with_src: bool) -> None:
    """BENCHMARK.json and the benchmark's files, and the sources if asked."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copyfile(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in SPEC["paths"] + (["src"] if with_src else []):
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)


@pytest.fixture(scope="module")
def traced():
    """Per workload: one untraced and one traced pass, and their result."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = _run(workload)
        assert proc.returncode == 0, proc.stderr
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def _value(result: dict, name: str):
    return result["metrics"][name]["value"]


def test_traced_and_untraced_passes_agree(traced):
    # run.py fails a command whose digest differs between passes, traced or
    # not, and at a recorded seed from the digest in digests.json
    for workload, result in traced.items():
        assert result["correct"], workload
        assert result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload, counts", [
    ("tables", {"network.train.calls": 11, "experiments.run_row.calls": 10,
                "network.train.steps": 2743 * workloads.TABLE_EPOCHS,
                "digits.load_dataset.calls": 2}),
    ("train_eval", {"digits.load_dataset.calls": 3, "persistence.save_model.calls": 1,
                    "persistence.load_model.calls": 2}),
    ("probes", {"digits.load_dataset.calls": 2}),
])
def test_exact_counts(traced, workload, counts):
    for name, expected in counts.items():
        assert _value(traced[workload], name) == expected, name


def test_every_per_layer_metric_is_measured(traced):
    for metric in SPEC["per_layer"]:
        if metric["name"] == "trace.overhead_s":
            continue  # a difference of two timings; may be zero or negative
        values = [_value(result, metric["name"]) for result in traced.values()]
        assert any(v > 0 for v in values), metric["name"]


def test_tracing_keeps_memory_within_the_rss_bound(traced):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "peak_rss_mb")
    for workload, result in traced.items():
        assert _value(result, "trace.rss_ratio") <= 1.0 + bound, workload


def test_tracer_wraps_every_lookup_and_restores_it():
    import symdigits
    import symdigits.cli as cli
    import symdigits.experiments as experiments
    import symdigits.network as network

    original = network.train
    tracer = Tracer().install()
    try:
        assert cli.train is experiments.train is network.train is symdigits.train
        assert network.train is not original
    finally:
        tracer.uninstall()
    assert cli.train is experiments.train is network.train is original


def _edit_digests(root: Path, edit) -> None:
    path = root / "perfbench" / "digests.json"
    table = json.loads(path.read_text())
    edit(table)
    path.write_text(json.dumps(table))


def test_a_digest_mismatch_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    _edit_digests(tmp_path, lambda table: table["train_eval"]["0"].update(eval="0" * 64))
    proc = _run("train_eval", cwd=tmp_path, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary, result = json.loads(lines[0])["summary"], json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == summary["passes"]  # the eval command of every pass
    assert summary["fail_frac"] > 0


def test_a_seed_without_recorded_digests_is_reported(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    _edit_digests(tmp_path, lambda table: table["train_eval"].pop("0"))
    proc = _run("train_eval", cwd=tmp_path, trace=0)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[0])["summary"]
    assert not summary["digests_recorded"]
    assert "no entry for train_eval at seed 0" in proc.stderr


def test_refuses_to_run_outside_a_checkout(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    proc = _run("probes", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
