"""``BENCHMARK.json`` declares exactly the metrics the code prints."""

import json

from perfbench.host import ROOT
from perfbench.metrics import END_TO_END, per_layer
from perfbench.run import WORKLOADS


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    bench = declared()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_per_layer_metrics_match():
    bench = declared()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer()


def test_workloads_match():
    assert tuple(w["name"] for w in declared()["workloads"]) == WORKLOADS
