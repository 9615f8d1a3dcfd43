"""Tests for segmented recency stacks and BF-GHR construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import DEFAULT_BOUNDARIES, SegmentedRecencyStacks, _SegmentEntry


def make_small():
    return SegmentedRecencyStacks(
        boundaries=[4, 8, 16, 32], rs_size=3, unfiltered_bits=4
    )


class TestConstruction:
    def test_default_boundaries_match_paper(self):
        seg = SegmentedRecencyStacks()
        assert seg.boundaries == DEFAULT_BOUNDARIES
        assert seg.boundaries[-1] == 2048
        assert seg.num_segments == 16

    def test_max_ghr_length(self):
        seg = SegmentedRecencyStacks()
        assert seg.max_ghr_length() == 16 + 16 * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(boundaries=[8, 4])
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(boundaries=[8, 8, 16])
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(rs_size=0)
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(boundaries=[8, 16], unfiltered_bits=16)


class TestUnfilteredRegion:
    def test_recent_bits_appear_in_ghr(self):
        seg = make_small()
        for taken in (True, False, True, True):
            seg.commit(0x100, taken, non_biased=False)
        bits, _ = seg.ghr_components()
        # Position 0 is the most recent outcome.
        assert bits[:4] == [1, 1, 0, 1]

    def test_biased_region_is_unfiltered(self):
        """The 16 recent bits keep biased branches (paper Section VI-C)."""
        seg = make_small()
        seg.commit(0x100, True, non_biased=False)
        bits, _ = seg.ghr_components()
        assert bits[0] == 1


class TestSegmentEntryFlow:
    def test_non_biased_branch_enters_first_segment(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=True)
        for _ in range(4):
            seg.commit(0x1, False, non_biased=False)
        assert seg.segment_fill() == [1, 0, 0]

    def test_biased_branch_never_enters(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=False)
        for _ in range(40):
            seg.commit(0x1, False, non_biased=False)
        assert seg.segment_fill() == [0, 0, 0]

    def test_branch_migrates_between_segments(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=True)
        for _ in range(8):
            seg.commit(0x1, False, non_biased=False)
        # Depth is now 9: inside (8, 16] — the second segment.
        assert seg.segment_fill() == [0, 1, 0]

    def test_branch_falls_out_of_last_segment(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=True)
        for _ in range(40):
            seg.commit(0x1, False, non_biased=False)
        assert seg.segment_fill() == [0, 0, 0]

    def test_dedup_within_segment(self):
        seg = make_small()
        # Two occurrences of the same pc close together.
        seg.commit(0xAB, True, non_biased=True)
        seg.commit(0xAB, False, non_biased=True)
        for _ in range(5):
            seg.commit(0x1, False, non_biased=False)
        # Both occurrences are inside (4, 8]; only the latest is kept.
        assert seg.segment_fill() == [1, 0, 0]
        bits, addrs = seg.ghr_components()
        assert addrs[4] == 0xAB
        assert bits[4] == 0  # the most recent occurrence (not taken)

    def test_capacity_evicts_deepest(self):
        seg = SegmentedRecencyStacks(boundaries=[4, 16], rs_size=2, unfiltered_bits=4)
        for pc in (0xA0, 0xB0, 0xC0):
            seg.commit(pc, True, non_biased=True)
        for _ in range(6):
            seg.commit(0x1, False, non_biased=False)
        # All three crossed into (4,16]; only the two most recent remain.
        bits, addrs = seg.ghr_components()
        segment_addrs = addrs[4:]
        assert 0xC0 in segment_addrs and 0xB0 in segment_addrs
        assert 0xA0 not in segment_addrs

    def test_entries_ordered_most_recent_first(self):
        seg = SegmentedRecencyStacks(boundaries=[4, 32], rs_size=8, unfiltered_bits=4)
        for pc in (0xA0, 0xB0, 0xC0):
            seg.commit(pc, True, non_biased=True)
        for _ in range(6):
            seg.commit(0x1, False, non_biased=False)
        _, addrs = seg.ghr_components()
        segment = [a for a in addrs[4:]]
        assert segment == [0xC0, 0xB0, 0xA0]


class TestPackedGhr:
    def test_packed_matches_components(self):
        seg = make_small()
        import random

        rnd = random.Random(3)
        for _ in range(100):
            seg.commit(rnd.randrange(1 << 14), bool(rnd.getrandbits(1)), bool(rnd.getrandbits(1)))
        bits, addrs = seg.ghr_components()
        packed, length = seg.packed_ghr(max_length=1000)
        assert length == len(bits)
        for position, (bit, addr) in enumerate(zip(bits, addrs)):
            element = (packed >> (3 * position)) & 0b111
            assert element == (bit | ((addr & 3) << 1))

    def test_packed_respects_max_length(self):
        seg = make_small()
        for i in range(50):
            seg.commit(i, True, non_biased=True)
        packed, length = seg.packed_ghr(max_length=5)
        assert length == 5
        assert packed < (1 << 15)

    def test_storage_bits_positive(self):
        assert SegmentedRecencyStacks().storage_bits() > 0


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.booleans(),
                st.booleans(),
            ),
            max_size=400,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_structural_invariants(self, events):
        seg = SegmentedRecencyStacks(
            boundaries=[4, 8, 16, 32, 64], rs_size=3, unfiltered_bits=4
        )
        for pc, taken, non_biased in events:
            seg.commit(pc, taken, non_biased)
            fills = seg.segment_fill()
            assert all(0 <= fill <= 3 for fill in fills)
            for entries in seg._segments:
                addresses = [e.hashed_pc for e in entries]
                assert len(addresses) == len(set(addresses))
                stamps = [e.stamp for e in entries]
                assert stamps == sorted(stamps, reverse=True)
        bits, addrs = seg.ghr_components()
        assert len(bits) == len(addrs)
        assert all(bit in (0, 1) for bit in bits)


class UnconditionalRemoveStacks(SegmentedRecencyStacks):
    """Reference commit that scans for a removal on every boundary
    crossing, biased records included."""

    def commit(self, pc: int, taken: bool, non_biased: bool) -> None:
        self._ring[self._head % len(self._ring)] = (
            pc & ((1 << self.hashed_pc_bits) - 1),
            taken,
            non_biased,
        )
        self._head += 1
        if self._count < len(self._ring):
            self._count += 1
        for k, boundary in enumerate(self.boundaries):
            record = self._at_depth(boundary + 1)
            if record is None:
                break
            hashed_pc, outcome, was_non_biased = record
            stamp = self._head - (boundary + 1)
            if k > 0:
                self._remove(k - 1, hashed_pc, stamp)
            if k < self.num_segments and was_non_biased:
                self._insert(k, hashed_pc, stamp, outcome)


def commit_stream(seed: int, count: int, distinct_pcs: int, non_biased_share: float):
    """Random (pc, taken, non_biased) commits over a small pc pool.

    Half the pool aliases the other half under the 14-bit hash, so
    duplicate hashed PCs come from distinct addresses as well as from
    repeats.
    """
    import random

    rnd = random.Random(seed)
    base = [rnd.randrange(1 << 14) for _ in range(max(1, distinct_pcs // 2))]
    pool = base + [pc | (rnd.randrange(1, 64) << 14) for pc in base]
    return [
        (rnd.choice(pool), bool(rnd.getrandbits(1)), rnd.random() < non_biased_share)
        for _ in range(count)
    ]


class TestCommitSkipDifferential:
    """The biased-record removal skip leaves every snapshot unchanged."""

    @staticmethod
    def run_pair(make, events, restore_at, compare):
        fast = make(SegmentedRecencyStacks)
        reference = make(UnconditionalRemoveStacks)
        for position, (pc, taken, non_biased) in enumerate(events):
            if position == restore_at:
                state = fast.snapshot()
                assert state == reference.snapshot()
                fast = make(SegmentedRecencyStacks)
                fast.restore(state)
                reference = make(UnconditionalRemoveStacks)
                reference.restore(state)
            fast.commit(pc, taken, non_biased)
            reference.commit(pc, taken, non_biased)
            assert compare(fast) == compare(reference), position
        assert fast.snapshot() == reference.snapshot()
        return fast

    @staticmethod
    def raw_state(seg):
        """Everything :meth:`snapshot` serializes, without re-encoding the
        2,050-record commit ring on every commit."""
        return seg._segments, seg._ring, seg._head, seg._count

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_stacks_random_streams(self, seed, distinct_pcs, share, rs_size):
        def make(cls):
            return cls(boundaries=[4, 8, 16, 32, 64], rs_size=rs_size, unfiltered_bits=4)

        events = commit_stream(seed, 600, distinct_pcs, share)
        self.run_pair(
            make, events, restore_at=seed % 600, compare=SegmentedRecencyStacks.snapshot
        )

    @pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
    def test_default_segmentation_long_stream(self, share):
        """Paper segmentation, past the deepest (2048) boundary, with
        full 8-entry RSs evicting and a mid-stream restore."""

        def make(cls):
            return cls()

        events = commit_stream(int(share * 100), 2300, 48, share)
        fast = self.run_pair(make, events, restore_at=1500, compare=self.raw_state)
        assert max(fast.segment_fill()) == fast.rs_size


def reference_packed(seg, max_length):
    """``packed_ghr`` recomputed from :meth:`ghr_components`, which walks
    the ring and the entry lists and never reads the packed registers."""
    bits, addresses = seg.ghr_components()
    length = min(len(bits), max_length)
    packed = 0
    for position in range(length):
        packed |= (bits[position] | (addresses[position] & 3) << 1) << (3 * position)
    return packed, length


PACK_LENGTHS = (1, 15, 16, 17, 40, 142, 10_000)


class TestIncrementalPacking:
    """The per-segment packed registers equal a from-scratch packing
    after every commit, through warm-up, dedup, evictions and restore."""

    @staticmethod
    def check_stream(make, events, restore_at):
        seg = make()
        for position, (pc, taken, non_biased) in enumerate(events):
            if position == restore_at:
                state = seg.snapshot()
                seg = make()
                seg.restore(state)
                for length in PACK_LENGTHS:
                    assert seg.packed_ghr(length) == reference_packed(seg, length)
            seg.commit(pc, taken, non_biased)
            for length in PACK_LENGTHS:
                assert seg.packed_ghr(length) == reference_packed(seg, length), (
                    position,
                    length,
                )
        return seg

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_small_segmentation(self, seed, distinct_pcs, share):
        events = commit_stream(seed, 300, distinct_pcs, share)
        self.check_stream(make_small, events, restore_at=seed % 300)

    @pytest.mark.parametrize("share", [0.2, 0.9])
    def test_default_segmentation(self, share):
        events = commit_stream(int(share * 1000), 2300, 40, share)
        seg = self.check_stream(SegmentedRecencyStacks, events, restore_at=1200)
        assert max(seg.segment_fill()) == seg.rs_size

    def test_warm_up_pads_unfiltered_region(self):
        seg = SegmentedRecencyStacks()
        assert seg.packed_ghr(142) == (0, 16)
        seg.commit(0b11, True, non_biased=True)
        assert seg.packed_ghr(142) == (0b111, 16)
        assert seg.packed_ghr(1) == (0b111, 1)


class ScanningStacks(SegmentedRecencyStacks):
    """Reference RS maintenance without the stamp-order shortcuts: removal
    scans every entry and eviction scans for the minimal stamp.  It keeps
    only the entry lists, not the packed registers."""

    def _remove(self, segment, hashed_pc, stamp):
        entries = self._segments[segment]
        for position, entry in enumerate(entries):
            if entry.hashed_pc == hashed_pc and entry.stamp == stamp:
                del entries[position]
                return

    def _insert(self, segment, hashed_pc, stamp, outcome):
        entries = self._segments[segment]
        for position, entry in enumerate(entries):
            if entry.hashed_pc == hashed_pc:
                del entries[position]
                break
        entries.insert(0, _SegmentEntry(hashed_pc, stamp, outcome))
        if len(entries) > self.rs_size:
            deepest = min(range(len(entries)), key=lambda i: entries[i].stamp)
            del entries[deepest]


class TestStampOrderShortcuts:
    """Tail-pop removal and eviction leave the same entry lists as
    scanning for the record anywhere in the segment."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_small_stacks(self, seed, distinct_pcs, share, rs_size):
        fast, reference = (
            cls(boundaries=[4, 8, 16, 32, 64], rs_size=rs_size, unfiltered_bits=4)
            for cls in (SegmentedRecencyStacks, ScanningStacks)
        )
        for position, (pc, taken, non_biased) in enumerate(
            commit_stream(seed, 400, distinct_pcs, share)
        ):
            fast.commit(pc, taken, non_biased)
            reference.commit(pc, taken, non_biased)
            assert fast._segments == reference._segments, position

    def test_default_segmentation(self):
        fast = SegmentedRecencyStacks()
        reference = ScanningStacks()
        for pc, taken, non_biased in commit_stream(7, 2300, 48, 0.6):
            fast.commit(pc, taken, non_biased)
            reference.commit(pc, taken, non_biased)
            assert fast._segments == reference._segments
        assert max(fast.segment_fill()) == fast.rs_size


def run_default(events):
    seg = SegmentedRecencyStacks()
    for pc, taken, non_biased in events:
        seg.commit(pc, taken, non_biased)
    return seg


class TestRestoreValidation:
    """restore() rejects snapshots that break the stamp-descending,
    bounded, deduplicated segment invariant."""

    @pytest.fixture(scope="class")
    def state(self):
        seg = run_default(commit_stream(11, 2200, 64, 0.7))
        state = seg.snapshot()
        # Segment 3 is full after a long stream.
        assert len(state["segments"][3]) == seg.rs_size
        return state

    @staticmethod
    def with_segment(state, k, entries):
        bad = dict(state)
        bad["segments"] = list(state["segments"])
        bad["segments"][k] = entries
        return bad

    def expect_rejected(self, state, message):
        seg = run_default(commit_stream(5, 100, 8, 0.5))
        before = seg.snapshot()
        with pytest.raises(ValueError, match=message):
            seg.restore(state)
        assert seg.snapshot() == before  # nothing half-installed

    def test_too_many_entries(self, state):
        entries = state["segments"][3]
        extra = [entries[0][0] ^ 0x2000, entries[-1][1] - 1, True]
        self.expect_rejected(
            self.with_segment(state, 3, entries + [extra]), "segment 3: 9 entries exceed rs_size 8"
        )

    def test_stamps_not_descending(self, state):
        entries = list(state["segments"][3])
        entries[1], entries[2] = entries[2], entries[1]
        self.expect_rejected(
            self.with_segment(state, 3, entries), "segment 3: stamps .* not strictly descending"
        )

    def test_repeated_stamp(self, state):
        entries = [list(entry) for entry in state["segments"][3]]
        entries[2][1] = entries[1][1]
        self.expect_rejected(
            self.with_segment(state, 3, entries), "segment 3: stamps .* not strictly descending"
        )

    def test_repeated_hashed_pc(self, state):
        entries = [list(entry) for entry in state["segments"][3]]
        entries[4][0] = entries[0][0]
        self.expect_rejected(
            self.with_segment(state, 3, entries), "segment 3: a hashed PC appears more than once"
        )

    def test_real_snapshots_restore(self, state):
        seg = SegmentedRecencyStacks()
        seg.restore(state)
        assert seg.snapshot() == state
        assert seg.packed_ghr(10_000) == reference_packed(seg, 10_000)
