"""Tests for the simulator, metrics and campaign grids."""

import pytest

from repro.predictors import AlwaysTaken, Bimodal
from repro.sim.metrics import SimulationResult, aggregate_mpki, relative_improvement
from repro.orchestration import CampaignPlan, run_plan
from repro.sim.simulator import simulate
from repro.trace.records import Trace, TraceMetadata


def trace_of(events, name="t", instructions=None):
    meta = TraceMetadata(
        name=name, category="SPEC", instruction_count=instructions or max(1, len(events) * 5)
    )
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


class TestSimulate:
    def test_counts_mispredictions(self):
        trace = trace_of([(4, True), (4, False), (4, True)])
        result = simulate(AlwaysTaken(), trace)
        assert result.mispredictions == 1
        assert result.branches == 3

    def test_mpki_uses_instruction_count(self):
        trace = trace_of([(4, False)] * 10, instructions=1000)
        result = simulate(AlwaysTaken(), trace)
        assert result.mpki == pytest.approx(10.0)

    def test_warmup_excluded(self):
        events = [(4, False)] * 10 + [(4, True)] * 10
        result = simulate(AlwaysTaken(), trace_of(events), warmup_branches=10)
        assert result.mispredictions == 0
        assert result.branches == 10

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            simulate(AlwaysTaken(), trace_of([(4, True)]), warmup_branches=-1)

    def test_provider_tracking(self):
        trace = trace_of([(4, True)] * 5)
        result = simulate(AlwaysTaken(), trace, track_providers=True)
        assert result.provider_hits == {"always-taken": 5}

    def test_progress_callback(self):
        calls = []
        trace = trace_of([(4, True)] * 5)
        simulate(AlwaysTaken(), trace, progress=calls.append)
        assert calls == [0]

    def test_training_happens(self):
        trace = trace_of([(4, False)] * 20)
        predictor = Bimodal()
        result = simulate(predictor, trace)
        assert result.mispredictions <= 2
        assert not predictor.predict(4)


class TestMetrics:
    def make(self, mispredictions=10, instructions=1000, branches=200, **kw):
        return SimulationResult(
            trace_name=kw.get("trace_name", "t"),
            predictor_name="p",
            branches=branches,
            instructions=instructions,
            mispredictions=mispredictions,
        )

    def test_mpki(self):
        assert self.make(25, 5000).mpki == 5.0

    def test_misprediction_rate(self):
        assert self.make(10, branches=100).misprediction_rate == 0.1

    def test_zero_branches(self):
        assert self.make(0, branches=0).misprediction_rate == 0.0

    def test_provider_fraction(self):
        result = SimulationResult(
            trace_name="t",
            predictor_name="p",
            branches=10,
            instructions=100,
            mispredictions=0,
            provider_hits={"T3": 4},
        )
        assert result.provider_fraction("T3") == 0.4
        assert result.provider_fraction("T9") == 0.0

    def test_aggregate_mpki(self):
        results = [self.make(10, 1000), self.make(30, 1000)]
        assert aggregate_mpki(results) == pytest.approx(20.0)

    def test_aggregate_empty(self):
        with pytest.raises(ValueError):
            aggregate_mpki([])

    def test_relative_improvement(self):
        assert relative_improvement(4.0, 3.0) == pytest.approx(0.25)
        assert relative_improvement(0.0, 3.0) == 0.0


class TestRunner:
    def traces(self):
        return [
            trace_of([(4, True)] * 50, name="A"),
            trace_of([(4, False)] * 50, name="B"),
        ]

    def test_run_plan_shapes(self):
        plan = CampaignPlan(
            factories={"always": AlwaysTaken, "bimodal": Bimodal},
            traces=self.traces(),
        )
        results = run_plan(plan)
        assert set(results) == {"always", "bimodal"}
        assert [r.trace_name for r in results["always"]] == ["A", "B"]

    def test_fresh_predictor_per_trace(self):
        """State must not leak between traces."""
        plan = CampaignPlan(factories={"bimodal": Bimodal}, traces=self.traces())
        results = run_plan(plan)
        # Trace B is all not-taken; a fresh bimodal mispredicts the first
        # couple only.  A leaked, taken-saturated bimodal would do worse.
        assert results["bimodal"][1].mispredictions <= 3

    def test_cache_roundtrip(self, tmp_path):
        plan = CampaignPlan(
            factories={"always": AlwaysTaken},
            traces=self.traces(),
            store_dir=tmp_path,
        )
        first = run_plan(plan)
        assert len(list(tmp_path.glob("*.json"))) == 2
        second = run_plan(plan)
        assert first["always"][0].mispredictions == second["always"][0].mispredictions

    def test_cache_rejects_missing_providers(self, tmp_path):
        base = CampaignPlan(
            factories={"always": AlwaysTaken}, traces=self.traces(), store_dir=tmp_path
        )
        run_plan(base)
        with_providers = CampaignPlan(
            factories={"always": AlwaysTaken},
            traces=self.traces(),
            store_dir=tmp_path,
            track_providers=True,
        )
        results = run_plan(with_providers)
        assert results["always"][0].provider_hits  # re-simulated

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        plan = CampaignPlan(
            factories={"always": AlwaysTaken}, traces=self.traces(), store_dir=tmp_path
        )
        run_plan(plan)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        results = run_plan(plan)
        assert results["always"][0].branches == 50
