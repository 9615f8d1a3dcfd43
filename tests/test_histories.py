"""Tests for history rings and incrementally folded registers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.histories import (
    FoldedHistory,
    HistoryRing,
    MultiFoldedHistory,
    naive_fold,
)


def reference_fold(outcomes: list[bool], length: int, width: int) -> int:
    """Fold of the last ``length`` outcomes, built bit by bit without
    ``fold_bits``: the outcome ``depth`` branches ago (0 = newest) lands
    on bit ``depth % width``."""
    folded = 0
    window = outcomes[max(0, len(outcomes) - length):] if length else []
    for depth, taken in enumerate(reversed(window)):
        if taken:
            folded ^= 1 << (depth % width)
    return folded


def step(fold: FoldedHistory, outcomes: list[bool], taken: bool) -> None:
    """Advance ``fold`` by one outcome, as the TAGE history advance does."""
    length = fold.length
    outgoing = 1 if length and len(outcomes) >= length and outcomes[-length] else 0
    fold.update(1 if taken else 0, outgoing)
    outcomes.append(taken)


def random_outcomes(seed: int, count: int) -> list[bool]:
    import random

    rnd = random.Random(seed)
    return [bool(rnd.getrandbits(1)) for _ in range(count)]


class TestHistoryRing:
    def test_starts_empty(self):
        ring = HistoryRing(8)
        assert len(ring) == 0

    def test_push_and_at(self):
        ring = HistoryRing(4)
        ring.push(True)
        ring.push(False)
        ring.push(True)
        assert ring.at(0) == 1  # newest
        assert ring.at(1) == 0
        assert ring.at(2) == 1

    def test_eviction_returns_oldest(self):
        ring = HistoryRing(2)
        assert ring.push(True) == 0  # warming up
        assert ring.push(False) == 0
        assert ring.push(True) == 1  # evicts the first push
        assert ring.push(True) == 0  # evicts the second push

    def test_recent_bits_packing(self):
        ring = HistoryRing(8)
        for taken in (True, False, True):  # newest is True
            ring.push(taken)
        # bit 0 = newest (True), bit 1 = False, bit 2 = True
        assert ring.recent_bits(3) == 0b101

    def test_at_out_of_range(self):
        ring = HistoryRing(4)
        with pytest.raises(IndexError):
            ring.at(4)

    def test_recent_bits_bad_count(self):
        ring = HistoryRing(4)
        with pytest.raises(ValueError):
            ring.recent_bits(5)

    def test_clear(self):
        ring = HistoryRing(4)
        ring.push(True)
        ring.clear()
        assert len(ring) == 0
        assert ring.recent_bits(4) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HistoryRing(0)


class TestFoldedHistory:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=400),
        st.sampled_from([(5, 3), (8, 4), (13, 7), (3, 8), (64, 11), (1, 1), (7, 7), (142, 10)]),
    )
    @settings(max_examples=60)
    def test_matches_naive_fold(self, outcomes, shape):
        """The incremental fold must equal refolding the raw window."""
        length, width = shape
        ring = HistoryRing(512)
        fold = FoldedHistory(length, width)
        for taken in outcomes:
            bit = 1 if taken else 0
            outgoing = ring.at(length - 1) if len(ring) >= length else 0
            fold.update(bit, outgoing)
            ring.push(taken)
            assert fold.value == naive_fold(ring, length, width)

    @pytest.mark.parametrize(
        "length, width",
        [
            # width == 1: the fold is the parity of the window.
            (1, 1), (2, 1), (7, 1), (64, 1),
            # length % width == 0: the outgoing bit cancels at position 0.
            (4, 4), (8, 4), (12, 3), (10, 10), (142, 2),
            # length < width: the register never wraps a bit onto another.
            (1, 5), (3, 8), (5, 11), (13, 16),
        ],
    )
    def test_edge_geometries_match_reference(self, length, width):
        fold = FoldedHistory(length, width)
        outcomes: list[bool] = []
        for taken in random_outcomes(length * 31 + width, 3 * length + 40):
            step(fold, outcomes, taken)
            assert fold.value == reference_fold(outcomes, length, width)
            assert 0 <= fold.value < (1 << width)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_restore_then_update_matches_reference(self, outcomes, length, width, data):
        """A restored register continues exactly like the original."""
        cut = data.draw(st.integers(min_value=0, max_value=len(outcomes)))
        original = FoldedHistory(length, width)
        seen: list[bool] = []
        for taken in outcomes[:cut]:
            step(original, seen, taken)
        snapshot = original.snapshot()
        assert snapshot == reference_fold(seen, length, width)
        restored = FoldedHistory(length, width)
        restored.restore(snapshot)
        assert restored.snapshot() == snapshot
        for taken in outcomes[cut:]:
            shadow = list(seen)
            step(original, seen, taken)
            step(restored, shadow, taken)
            assert restored.value == original.value
            assert restored.value == reference_fold(seen, length, width)

    def test_restore_rejects_out_of_width_values(self):
        fold = FoldedHistory(8, 4)
        with pytest.raises(ValueError):
            fold.restore(16)
        with pytest.raises(ValueError):
            fold.restore(-1)

    def test_zero_length_is_constant(self):
        fold = FoldedHistory(0, 4)
        fold.update(1, 0)
        assert fold.value == 0

    def test_clear(self):
        fold = FoldedHistory(8, 4)
        fold.update(1, 0)
        assert fold.value != 0
        fold.clear()
        assert fold.value == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FoldedHistory(-1, 4)
        with pytest.raises(ValueError):
            FoldedHistory(8, 0)

    def test_value_stays_in_width(self):
        fold = FoldedHistory(13, 5)
        for i in range(200):
            fold.update(i & 1, (i >> 1) & 1)
            assert 0 <= fold.value < 32


class TestMultiFoldedHistory:
    def test_exact_lookup(self):
        multi = MultiFoldedHistory([4, 8, 16], width=6, ring_capacity=32)
        for taken in [True, False, True, True, False, True, False, False]:
            multi.push(taken)
        assert multi.exact(8) == naive_fold(multi.ring, 8, 6)

    def test_exact_missing_depth(self):
        multi = MultiFoldedHistory([4, 8], width=6, ring_capacity=32)
        with pytest.raises(KeyError):
            multi.exact(5)

    def test_folded_at_picks_largest_not_exceeding(self):
        multi = MultiFoldedHistory([4, 8, 16], width=6, ring_capacity=32)
        for i in range(20):
            multi.push(bool(i % 3))
        assert multi.folded_at(10) == multi.exact(8)
        assert multi.folded_at(16) == multi.exact(16)
        assert multi.folded_at(100) == multi.exact(16)

    def test_folded_at_below_smallest(self):
        multi = MultiFoldedHistory([4, 8], width=6, ring_capacity=32)
        multi.push(True)
        assert multi.folded_at(2) == 0

    def test_all_registers_consistent(self):
        depths = [4, 8, 12, 24, 48]
        multi = MultiFoldedHistory(depths, width=7, ring_capacity=64)
        import random

        rnd = random.Random(5)
        for _ in range(200):
            multi.push(bool(rnd.getrandbits(1)))
        for depth in depths:
            assert multi.exact(depth) == naive_fold(multi.ring, depth, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiFoldedHistory([], width=4, ring_capacity=16)
        with pytest.raises(ValueError):
            MultiFoldedHistory([8, 4], width=4, ring_capacity=16)
        with pytest.raises(ValueError):
            MultiFoldedHistory([4, 4], width=4, ring_capacity=16)
        with pytest.raises(ValueError):
            MultiFoldedHistory([4, 32], width=4, ring_capacity=16)

    def test_clear(self):
        multi = MultiFoldedHistory([4], width=4, ring_capacity=8)
        multi.push(True)
        multi.clear()
        assert multi.exact(4) == 0
        assert len(multi.ring) == 0


class TestPinnedState:
    """Fold arithmetic must not change a single result bit.

    These values were recorded from the linear chunk-loop fold and the
    masked rotate-inject-cancel update; any rewrite of the fold paths
    must reproduce them byte for byte.
    """

    TRACE = ("SERV3", 1500)

    #: ``Tage._state_payload()["folds"]`` of tage10 after the trace.
    TAGE10_FOLDS = [
        [1, 1, 1], [9, 9, 9], [137, 137, 8], [1673, 138, 143],
        [1692, 732, 34], [3206, 713, 886], [569, 569, 137],
        [170, 2393, 591], [298, 1886, 3528], [207, 16282, 15476],
    ]

    #: ``state_hash()`` of every registered predictor after the trace.
    STATE_HASHES = {
        "bimodal": "02dd2ff12bc434b648e6fa43983cbbc72919e5eb96f9455a5b4fb64251460b48",
        "gshare": "c8f16fd75f5e4b63d0b4e8ebffe0236c62e27d8421cac5e54833a5db7934b370",
        "filter": "dfd474d2bd807325c518bf2545d6e4a655596834655036dce3edb5f1bf64efb8",
        "perceptron": "fd2e9624e86976f878991804340de76273c00cee52c54077bd93c9b824ab95f8",
        "oh-snap": "9a8956718593e1957800801ad75212720fbba20f313744e9f517ca729db3d4e3",
        "tage10": "d2a1de0fc16ac7f370d7f191783cb3050c4a193929194d5d3bb6a51f050cded6",
        "tage15": "08ca09a3b7b57231587fb340983be7617a62a878cf7280674a8cc68cd0553504",
        "isl-tage10": "0c57da1dbeefedb6413566bd7043c272f90a4c6da93ebe1bd5748575d5801e73",
        "isl-tage15": "2f1919bfdd690f0abcbc56029367e82606da4c79182e7829050b49bf69212516",
        "bf-tage10": "a25507be93d11ad8d4ed0199272daa586d55b130fdc95d56338d9256bf0f38d7",
        "bf-neural": "73cfb4485922f9b4ed3a39a546a570e15c3055c9232bb72e60bbf288335615cf",
        "bf-neural-32k": "c689afd11f66f05da04e9e5ef05f983494b926be1df6dba9168acf14fcff952b",
        "bf-neural-ahead": "182699e45baa225e36764c84f25ce5235f1a4c26bb2b0c64aed9aa96e2494dc8",
    }

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.workloads import build_trace

        return build_trace(*self.TRACE)

    def test_tage_fold_snapshot_unchanged(self, trace):
        from repro.orchestration.registry import standard_registry
        from repro.sim.simulator import simulate

        predictor = standard_registry()["tage10"]()
        simulate(predictor, trace)
        assert predictor._state_payload()["folds"] == self.TAGE10_FOLDS

    def test_every_registered_state_hash_unchanged(self, trace):
        from repro.orchestration.registry import standard_registry
        from repro.sim.simulator import simulate

        registry = standard_registry()
        assert set(registry) == set(self.STATE_HASHES)
        for name, factory in registry.items():
            predictor = factory()
            simulate(predictor, trace)
            assert predictor.state_hash() == self.STATE_HASHES[name], name
