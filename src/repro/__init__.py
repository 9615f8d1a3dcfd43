"""repro — a full reproduction of the Bias-Free Branch Predictor.

Gope & Lipasti, "Bias-Free Branch Predictor", MICRO 2014.

The package provides:

* ``repro.core`` — the paper's contribution: the Branch Status Table,
  recency-stack history management, BF-Neural and BF-TAGE;
* ``repro.predictors`` — every baseline implemented from scratch
  (bimodal, gshare, perceptron, piecewise-linear, OH-SNAP-style scaled
  neural, loop predictor, TAGE, ISL-TAGE);
* ``repro.workloads`` — a deterministic synthetic 40-trace suite
  standing in for the proprietary CBP-4 traces;
* ``repro.trace`` — trace records, a binary on-disk format, statistics;
* ``repro.sim`` — the trace-driven simulator, its batch kernels and
  metrics;
* ``repro.orchestration`` — the campaign engine that runs predictor ×
  trace grids (``CampaignPlan`` + ``run_plan``);
* ``repro.experiments`` — one runnable module per paper table/figure.

Quickstart::

    from repro.workloads import build_trace
    from repro.sim import simulate
    from repro.core import bf_neural_64kb

    trace = build_trace("SPEC02")
    result = simulate(bf_neural_64kb(), trace)
    print(result.mpki)
"""

from repro.core import (
    BFISLTage,
    BFNeural,
    BFNeuralConfig,
    BFTage,
    BFTageConfig,
    BranchStatus,
    BranchStatusTable,
    RecencyStack,
    bf_neural_32kb,
    bf_neural_64kb,
)
from repro.predictors import (
    Bimodal,
    BranchPredictor,
    GShare,
    GlobalPerceptron,
    ISLTage,
    LoopPredictor,
    PiecewiseLinear,
    ScaledNeural,
    Tage,
    TageConfig,
)
from repro.sim import SimulationResult, aggregate_mpki, simulate
from repro.trace import Trace, TraceMetadata, compute_stats, read_trace, write_trace
from repro.workloads import SUITE_NAMES, build_suite, build_trace, trace_names

__version__ = "1.0.0"

__all__ = [
    "BFISLTage",
    "BFNeural",
    "BFNeuralConfig",
    "BFTage",
    "BFTageConfig",
    "Bimodal",
    "BranchPredictor",
    "BranchStatus",
    "BranchStatusTable",
    "GShare",
    "GlobalPerceptron",
    "ISLTage",
    "LoopPredictor",
    "PiecewiseLinear",
    "RecencyStack",
    "SUITE_NAMES",
    "ScaledNeural",
    "SimulationResult",
    "Tage",
    "TageConfig",
    "Trace",
    "TraceMetadata",
    "aggregate_mpki",
    "bf_neural_32kb",
    "bf_neural_64kb",
    "build_suite",
    "build_trace",
    "compute_stats",
    "read_trace",
    "simulate",
    "trace_names",
    "write_trace",
    "__version__",
]
