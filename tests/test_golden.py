"""Seed-0 output bits of the benchmark workloads.

Each workload's commands run in this process through ``symdigits.cli.main``,
by ``run_pass`` of ``perfbench/worker.py``, and every command must exit 0
with the output digest recorded in ``perfbench/digests.json``.  A change
that alters a saved model, a table value or a probe result fails here.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))

import worker  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
RECORDED_WITH = json.loads((PERFBENCH / "baseline.json").read_text())["environment"]["versions"]


@pytest.mark.parametrize("workload", ["tables", "train_eval", "probes"])
def test_seed0_outputs_match_recorded_digests(tmp_path, workload):
    commands = worker.run_pass(workload, 0, tmp_path)["commands"]
    assert {c["name"]: c["exit"] for c in commands} == {c["name"]: 0 for c in commands}, \
        [c["log_tail"] for c in commands]
    assert {c["name"]: c["digest"] for c in commands} == DIGESTS[workload]["0"], (
        f"this interpreter runs {worker._versions()}; "
        f"perfbench/digests.json was recorded with {RECORDED_WITH}")
