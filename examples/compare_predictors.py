#!/usr/bin/env python3
"""Compare every implemented predictor family on a workload category.

Runs the whole predictor zoo — from always-taken to BF-TAGE — on the
traces of one category and prints an MPKI leaderboard plus each
predictor's modelled storage budget.

Usage::

    python examples/compare_predictors.py [CATEGORY] [BRANCHES]

Categories: SPEC, FP, INT, MM, SERV (default INT, 15 000 branches).
"""

import sys

from repro.core import BFTage, BFTageConfig, bf_neural_64kb
from repro.orchestration import CampaignPlan, run_plan
from repro.predictors import (
    AlwaysTaken,
    Bimodal,
    GShare,
    GlobalPerceptron,
    ISLTage,
    ScaledNeural,
    Tage,
    TageConfig,
)
from repro.sim import aggregate_mpki
from repro.workloads import build_trace, trace_names


def main() -> None:
    category = sys.argv[1] if len(sys.argv) > 1 else "INT"
    branches = int(sys.argv[2]) if len(sys.argv) > 2 else 15_000

    names = trace_names([category])
    print(f"generating {len(names)} {category} traces x {branches} branches...")
    traces = [build_trace(name, branches) for name in names]

    contenders = {
        "always-taken": AlwaysTaken,
        "bimodal 16K": Bimodal,
        "gshare 64K": GShare,
        "perceptron h=32": lambda: GlobalPerceptron(rows=512, history_length=32),
        "oh-snap h=128": ScaledNeural,
        "tage x10": lambda: Tage(TageConfig.for_tables(10)),
        "isl-tage x10": lambda: ISLTage(TageConfig.for_tables(10)),
        "bf-tage x10": lambda: BFTage(BFTageConfig.for_tables(10)),
        "bf-neural 64KB": bf_neural_64kb,
    }

    # One grid, each predictor on its batch kernel where one exists.
    results = run_plan(CampaignPlan(factories=contenders, traces=traces, kernel="auto"))
    rows = [
        (label, aggregate_mpki(results[label]), factory().storage_bits() // 8192)
        for label, factory in contenders.items()
    ]
    rows.sort(key=lambda row: row[1])

    print(f"\n{'predictor':18s} {'avg MPKI':>9s} {'~KB':>5s}")
    for label, mpki, kb in rows:
        print(f"{label:18s} {mpki:9.3f} {kb:5d}")


if __name__ == "__main__":
    main()
