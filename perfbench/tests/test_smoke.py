"""A tiny run of each workload prints every declared metric and passes
its output checks; the command refuses a checkout with no source tree."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench.host import ROOT
from perfbench.metrics import END_TO_END, per_layer
from perfbench.run import report, result_line, run_workload

TINY = {
    "campaign-paper": {"branches": 300},
    "campaign-kernel": {"branches": 1_500},
    "serve-mixed": {"batch": 128, "session_batches": 2, "warmup": 200},
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(workload, trace):
    record = run_workload(workload, 5, 0.5, trace, sizes=TINY[workload])
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    expected = per_layer() if trace else END_TO_END
    assert list(record["metrics"]) == list(expected)
    for name, unit in expected.items():
        assert record["metrics"][name]["unit"] == unit
    printed = "\n".join(report(record))
    assert all(name in printed for name in expected)
    assert "failed_share" in printed
    result = json.loads(result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    if workload == "serve-mixed" and not trace:
        for cls in ("gshare", "tage10", "bf-neural"):
            assert f"batch_p50_ms.{cls}" in printed and f"batch_tail_ms.{cls}" in printed


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
