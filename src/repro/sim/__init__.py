"""Evaluation substrate: the trace-driven simulator and result handling.

``simulate`` drives one predictor over one trace in commit order and
returns a :class:`SimulationResult` (MPKI, misprediction rate, provider
hit attribution).  ``batchkernel.simulate_batch`` is its bit-identical
vectorized counterpart.  Whole suites run through
:mod:`repro.orchestration` (``CampaignPlan`` + ``run_plan``): parallel
workers, content-addressed result caching and checkpoint/resume.
"""

from repro.sim.attribution import AttributionResult, attribute, format_attribution
from repro.sim.metrics import SimulationResult, aggregate_mpki
from repro.sim.simulator import simulate

__all__ = [
    "AttributionResult",
    "SimulationResult",
    "aggregate_mpki",
    "attribute",
    "format_attribution",
    "simulate",
]
