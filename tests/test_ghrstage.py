"""Staging-level tests for the BF-TAGE batch kernel.

``repro.sim.bststage`` and ``repro.sim.ghrstage`` stage, for a whole
trace segment at once, what BF-TAGE's scalar loop computes per event:
the BST status around ``observe``, the packed BF-GHR each prediction
reads (``SegmentedRecencyStacks.packed_ghr``) and its folds.  Each is
checked step by step against the scalar machinery, from a cold start
and from a mid-stream ``restore()``, and the state it writes back must
snapshot equal to the scalar one.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.bitops import fold_bits
from repro.core.bst import BranchStatus, BranchStatusTable
from repro.core.segments import DEFAULT_BOUNDARIES, SegmentedRecencyStacks
from repro.sim import ghrstage
from repro.sim.bststage import stage_bst
from repro.sim.ghrstage import chunk_fold, stage_bf_ghr

#: Small geometries: dedup, eviction and deep-boundary removal all fire
#: within a few hundred commits.  The second shares segment widths
#: (4, 4, 4, 8, 8), so one walk serves several segments.
SMALL = dict(boundaries=[4, 8, 16, 32], rs_size=3, unfiltered_bits=4)
SHARED = dict(boundaries=[4, 8, 12, 16, 24, 32], rs_size=3, unfiltered_bits=4)


def commit_stream(seed, count, distinct_pcs, share):
    """Random ``(pc, taken, non_biased)`` commits over a small pc pool,
    half of it aliasing the other half under the 14-bit hash."""
    rnd = random.Random(seed)
    base = [rnd.randrange(1 << 14) for _ in range(max(1, distinct_pcs // 2))]
    pool = base + [pc | (rnd.randrange(1, 64) << 14) for pc in base]
    return [
        (rnd.choice(pool), bool(rnd.getrandbits(1)), rnd.random() < share)
        for _ in range(count)
    ]


def as_arrays(events):
    pcs = np.array([pc for pc, _, _ in events], dtype=np.uint64)
    outs = np.array([taken for _, taken, _ in events], dtype=np.uint8)
    flags = np.array([nb for _, _, nb in events], dtype=bool)
    return pcs, outs, flags


def staged_ints(rows):
    """Each column of :func:`stage_bf_ghr` output as one python int."""
    return [int.from_bytes(rows[:, i].tobytes(), "little") for i in range(rows.shape[1])]


def check_staging(geometry, events, restore_at, max_length):
    """Commit ``events[:restore_at]`` scalar, then stage the rest from a
    restored snapshot and compare against scalar commits step by step."""
    scalar = SegmentedRecencyStacks(**geometry)
    for pc, taken, nb in events[:restore_at]:
        scalar.commit(pc, taken, nb)
    staged = SegmentedRecencyStacks(**geometry)
    staged.restore(scalar.snapshot())

    tail = events[restore_at:]
    expected = []
    for pc, taken, nb in tail:
        expected.append(scalar.packed_ghr(max_length)[0])
        scalar.commit(pc, taken, nb)
    pcs, outs, flags = as_arrays(tail)
    rows = stage_bf_ghr(staged, pcs, outs, flags, max_length)
    assert rows.shape == (-(-3 * max_length // 64), len(tail))
    assert staged_ints(rows) == expected
    assert staged.snapshot() == scalar.snapshot()
    assert staged._words == scalar._words
    assert staged._window == scalar._window


class TestStagedBFGHR:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        distinct_pcs=st.integers(min_value=2, max_value=24),
        share=st.floats(min_value=0.0, max_value=1.0),
        count=st.integers(min_value=1, max_value=300),
        restore_at=st.integers(min_value=0, max_value=300),
        geometry=st.sampled_from([SMALL, SHARED]),
        # 60 positions outrun the small BF-GHR's capacity (13 or 19).
        max_length=st.sampled_from([3, 4, 9, 13, 40, 60]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_packed_ghr_step_by_step(
        self, seed, distinct_pcs, share, count, restore_at, geometry, max_length
    ):
        events = commit_stream(seed, count + restore_at, distinct_pcs, share)
        check_staging(geometry, events, restore_at, max_length)

    @pytest.mark.parametrize("restore_at", [0, 777, 2_500])
    def test_default_segmentation(self, restore_at):
        # Restoring at 777 leaves records in the live ring that cross
        # deep boundaries during the staged segment; at 2,500 the ring
        # has wrapped.
        events = commit_stream(11, restore_at + 3_000, 40, 0.4)
        check_staging({}, events, restore_at, 142)

    def test_hand_made_snapshot_walks_the_segment_alone(self, monkeypatch):
        # A restored state need not be one the scalar commits reach: a
        # segment whose live entries differ from its width's shared walk
        # is walked from its own state, still exactly.
        walks = []
        walk_width = ghrstage._walk_width

        def recording(segments, members, *args):
            walks.append(list(members))
            return walk_width(segments, members, *args)

        monkeypatch.setattr(ghrstage, "_walk_width", recording)
        events = commit_stream(5, 400, 10, 0.6)
        seed = SegmentedRecencyStacks(**SHARED)
        for pc, taken, nb in events[:200]:
            seed.commit(pc, taken, nb)
        state = seed.snapshot()
        assert state["segments"][1], "segment 1 must hold an entry to drop"
        state["segments"][1] = state["segments"][1][:-1]
        scalar = SegmentedRecencyStacks(**SHARED)
        scalar.restore(state)
        staged = SegmentedRecencyStacks(**SHARED)
        staged.restore(state)
        expected = []
        for pc, taken, nb in events[200:]:
            expected.append(scalar.packed_ghr(19)[0])
            scalar.commit(pc, taken, nb)
        rows = stage_bf_ghr(staged, *as_arrays(events[200:]), 19)
        assert staged_ints(rows) == expected
        assert staged.snapshot() == scalar.snapshot()
        assert [2, 1, 0] in walks and [1] in walks

    def test_default_geometry_rows(self):
        seg = SegmentedRecencyStacks()
        assert seg.boundaries == DEFAULT_BOUNDARIES
        rows = stage_bf_ghr(seg, *as_arrays(commit_stream(1, 50, 8, 0.5)), 142)
        # 142 positions at 3 bits: 426 bits in 7 words.
        assert rows.shape == (7, 50)
        assert rows.dtype == np.uint64


class TestChunkFold:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2**426 - 1), min_size=1, max_size=8),
        prefix_bits=st.integers(min_value=1, max_value=426),
        width=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fold_bits(self, values, prefix_bits, width):
        rows = np.array(
            [np.frombuffer(v.to_bytes(56, "little"), dtype=np.uint64) for v in values]
        ).T.copy()
        folded = chunk_fold(rows, prefix_bits, width)
        assert [int(v) for v in folded] == [fold_bits(v, prefix_bits, width) for v in values]


class TestStagedBST:
    @given(
        events=st.lists(
            st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
            min_size=1,
            max_size=200,
        ),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(events=[(5, True), (5, False), (5, True)], cut=1.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_observe(self, events, cut):
        # Four pcs per entry: entries turn non-biased before the cut and
        # are seen again after it.
        restore_at = int(cut * (len(events) - 1))
        scalar = BranchStatusTable(entries=64)
        for pc, taken in events[:restore_at]:
            scalar.observe(pc, taken)
        staged = BranchStatusTable(entries=64)
        staged.restore(scalar.snapshot())
        tail = events[restore_at:]
        before, nb_before, nb_after = [], [], []
        for pc, taken in tail:
            before.append(int(scalar.status(pc)))
            nb_before.append(scalar.is_non_biased(pc))
            scalar.observe(pc, taken)
            nb_after.append(scalar.is_non_biased(pc))
        stream = stage_bst(
            staged,
            np.array([pc for pc, _ in tail], dtype=np.uint64),
            np.array([taken for _, taken in tail], dtype=np.uint8),
        )
        assert stream.status_before.tolist() == before
        assert stream.nb_before.tolist() == nb_before
        assert stream.nb_after.tolist() == nb_after
        assert staged.snapshot() == scalar.snapshot()
        assert all(isinstance(s, BranchStatus) for s in staged._state)
