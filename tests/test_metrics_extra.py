"""Additional coverage: TAGE internals, campaign verbosity, config edges."""

import pytest

from repro.core.bftage import BFTage, BFTageConfig
from repro.orchestration import CampaignPlan, run_plan
from repro.predictors import Tage, TageConfig
from repro.predictors.tage.tage import MAX_HISTORY_BY_TABLES, _default_sizing
from repro.trace.records import Trace, TraceMetadata


def trace_of(events, name="t"):
    meta = TraceMetadata(name=name, category="SPEC", instruction_count=max(1, len(events) * 5))
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


class TestSizing:
    def test_table_i_sizing_for_10(self):
        log2, tags = _default_sizing(10)
        assert log2 == [11, 11, 11, 12, 12, 12, 11, 11, 10, 10]
        assert tags == [7, 7, 8, 9, 10, 11, 11, 13, 14, 15]

    @pytest.mark.parametrize("count", [4, 6, 8, 12, 15])
    def test_sizing_shapes(self, count):
        log2, tags = _default_sizing(count)
        assert len(log2) == len(tags) == count
        assert all(7 <= t <= 15 for t in tags)
        assert tags == sorted(tags)

    def test_15_table_budget_below_64kb(self):
        predictor = Tage(TageConfig.for_tables(15))
        assert predictor.storage_bits() / 8 / 1024 < 64

    def test_max_history_map_is_monotone(self):
        counts = sorted(MAX_HISTORY_BY_TABLES)
        values = [MAX_HISTORY_BY_TABLES[c] for c in counts]
        assert values == sorted(values)


class TestUsefulBitDynamics:
    def test_useful_reset_fires(self):
        config = TageConfig(num_tables=4, useful_reset_period=64)
        predictor = Tage(config)
        table = predictor.tables[0]
        table.useful[0] = 3
        for i in range(64):
            predictor.predict(0x40)
            predictor.train(0x40, bool(i % 3))
        assert table.useful[0] <= 1  # aged at least once

    def test_allocation_on_misprediction(self):
        predictor = Tage(TageConfig.for_tables(4))
        # Drive an unpredictable branch; tagged entries must appear.
        import random

        rnd = random.Random(9)
        for _ in range(200):
            predictor.predict(0x40)
            predictor.train(0x40, rnd.random() < 0.5)
        allocated = sum(
            1 for table in predictor.tables for tag in table.tag if tag != 0
        )
        assert allocated > 0


class TestBFTageConfigEdges:
    def test_custom_boundaries(self):
        config = BFTageConfig(
            num_tables=4, boundaries=[16, 64, 256], rs_size=4
        )
        predictor = BFTage(config)
        assert predictor.segments.num_segments == 2

    def test_probabilistic_bst_variant(self):
        config = BFTageConfig(num_tables=4, probabilistic_bst=True)
        predictor = BFTage(config)
        assert predictor.bst.probabilistic
        for i in range(100):
            predictor.predict(0x40)
            predictor.train(0x40, bool(i & 1))

    def test_unfiltered_bits_must_fit_first_boundary(self):
        with pytest.raises(ValueError):
            BFTage(BFTageConfig(num_tables=4, boundaries=[8, 64], unfiltered_bits=16))


class TestRunnerVerbose:
    def test_verbose_prints_progress(self, capsys):
        from repro.predictors import AlwaysTaken

        plan = CampaignPlan(
            factories={"always": AlwaysTaken},
            traces=[trace_of([(4, True)] * 30, name="V1")],
            verbose=True,
        )
        run_plan(plan)
        out = capsys.readouterr().out
        assert "V1" in out and "mpki" in out
