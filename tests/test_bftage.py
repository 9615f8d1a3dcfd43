"""Tests for BF-TAGE and BF-ISL-TAGE."""

import dataclasses

import pytest

from repro.common.state import PredictorState

from repro.core.bftage import (
    BF_10_TABLE_LENGTHS,
    BFISLTage,
    BFTage,
    BFTageConfig,
    bf_lengths,
)
from repro.sim import simulate
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import build_trace
from tests.test_neural_predictors import correlated_stream, follower_misses


class TestBFLengths:
    def test_10_table_lengths_match_paper(self):
        assert bf_lengths(10) == [3, 8, 14, 26, 40, 54, 70, 94, 118, 142]

    def test_prefixes_for_fewer_tables(self):
        assert bf_lengths(4) == [3, 8, 14, 26]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            bf_lengths(0)
        with pytest.raises(ValueError):
            bf_lengths(11)


class TestBFTageConfig:
    def test_defaults(self):
        config = BFTageConfig()
        assert config.num_tables == 10
        assert config.history_lengths == BF_10_TABLE_LENGTHS
        assert config.bst_entries == 8192
        assert config.rs_size == 8
        assert config.unfiltered_bits == 16

    def test_boundaries_match_paper(self):
        config = BFTageConfig()
        assert config.boundaries == [
            16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768,
            1024, 1280, 1536, 2048,
        ]

    def test_to_tage_config(self):
        tage_config = BFTageConfig.for_tables(7).to_tage_config()
        assert tage_config.num_tables == 7
        assert tage_config.history_lengths == bf_lengths(7)


class TestBFTageBehaviour:
    def test_learns_biased_branch(self):
        p = BFTage(BFTageConfig.for_tables(4))
        for _ in range(10):
            p.predict(0x40)
            p.train(0x40, True)
        assert p.predict(0x40)

    def test_biased_branches_stay_out_of_segments(self):
        p = BFTage(BFTageConfig.for_tables(4))
        for _ in range(200):
            p.predict(0x40)
            p.train(0x40, True)
        assert sum(p.segments.segment_fill()) == 0

    def test_non_biased_branches_enter_segments(self):
        p = BFTage(BFTageConfig.for_tables(4))
        for i in range(200):
            p.predict(0x40)
            p.train(0x40, bool(i & 1))
        assert sum(p.segments.segment_fill()) > 0

    def test_captures_correlation_beyond_raw_table_reach(self):
        """A 4-table BF-TAGE (compressed L=26) reaches a correlation at
        raw distance 60 because the biased filler is filtered out; a
        4-table conventional TAGE (raw L=26) cannot (see test_tage)."""
        p = BFTage(BFTageConfig.for_tables(4))
        misses, seen = follower_misses(p, correlated_stream(60, activations=400), skip=200)
        assert misses < 0.2 * seen

    def test_provider_attribution(self):
        p = BFTage(BFTageConfig.for_tables(4))
        p.predict(0x40)
        assert p.provider == "base"

    def test_storage_accounting_matches_table1_scale(self):
        p = BFTage(BFTageConfig.for_tables(10))
        total_kb = p.storage_bits() / 8 / 1024
        assert 45 < total_kb < 62  # paper: 51100 bytes = 49.9 KB


class TestBFISLTage:
    def test_construction_wraps_bftage(self):
        p = BFISLTage(BFTageConfig.for_tables(4))
        assert isinstance(p.tage, BFTage)
        assert p.loop is not None

    def test_runs_end_to_end(self):
        p = BFISLTage(BFTageConfig.for_tables(4))
        events = correlated_stream(20, activations=50)
        meta = TraceMetadata(name="x", category="SPEC", instruction_count=len(events) * 5)
        result = simulate(p, Trace(meta, [e[0] for e in events], [e[1] for e in events]))
        assert result.misprediction_rate < 0.5

    def test_loop_component_present(self):
        p = BFISLTage(BFTageConfig.for_tables(4))
        trip = 50
        for _ in range(30):
            for i in range(trip):
                p.predict(0x800)
                p.train(0x800, i < trip - 1)
        providers = set()
        for i in range(trip):
            p.predict(0x800)
            providers.add(p.provider)
            p.train(0x800, i < trip - 1)
        assert "loop" in providers


class TestCheckpointResume:
    """Checkpoints of a real run pass ``SegmentedRecencyStacks.restore``'s
    invariant checks, and resuming one reproduces a straight run."""

    @pytest.fixture(scope="class")
    def trace(self):
        return build_trace("SPEC03", 3000)

    @pytest.fixture(scope="class")
    def straight(self, trace):
        predictor = BFTage()
        result = simulate(predictor, trace)
        return result.mispredictions, predictor.state_hash()

    @pytest.mark.parametrize("cut", [10, 2600])
    def test_resume_matches_straight_run(self, trace, straight, cut):
        first = BFTage()
        checkpoint = simulate(first, trace, stop_after=cut).checkpoint
        segments = first.segments
        if cut < segments.unfiltered_bits:
            assert segments.segment_fill() == [0] * segments.num_segments
        else:
            # Past the deepest boundary with full recency stacks.
            assert cut > segments.boundaries[-1]
            assert max(segments.segment_fill()) == segments.rs_size
        # Through the JSON document form, as a campaign store keeps it.
        stored = PredictorState.from_json(checkpoint.predictor_state.to_json())
        resumed = BFTage()
        result = simulate(
            resumed, trace, resume_from=dataclasses.replace(checkpoint, predictor_state=stored)
        )
        assert (result.mispredictions, resumed.state_hash()) == straight
