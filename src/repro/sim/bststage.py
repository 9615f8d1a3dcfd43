"""Branch Status Table staging shared by the bias-free batch kernels.

A deterministic BST entry (``repro.core.bst``, Figure 5) is an
absorbing chain: ``NOT_FOUND`` moves to the direction of its first
outcome, a biased entry turns ``NON_BIASED`` on its first disagreeing
outcome, and ``NON_BIASED`` never leaves.  So the status every event
reads is a function of the outcomes its entry has seen: group the
segment's events by entry (a stable sort keeps each group in trace
order), record each group's bias direction, and mark an event
non-biased from its group's first disagreement onward, a segmented
prefix-OR.  BF-Neural and BF-TAGE both stage their BST this way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.bst import BranchStatus


class BSTStream(NamedTuple):
    """Per-event BST status around ``observe``."""

    #: The ``BranchStatus`` value each prediction reads (before observe).
    status_before: np.ndarray
    #: Non-biased before observe.
    nb_before: np.ndarray
    #: Non-biased after observe: the flag a bias-free history records.
    nb_after: np.ndarray


# perf: allow(REPRO401): per-segment staging, runs once per kernel call
def stage_bst(bst, pcs: np.ndarray, outs: np.ndarray) -> BSTStream:
    """Every event's status around ``bst.observe``, in one pass.

    ``bst`` must be deterministic (``probabilistic=False``).  Its state
    after the last event is written back, as if every event had been
    observed in order.
    """
    n = len(outs)
    bidx = (pcs & np.uint64(bst.entries - 1)).astype(
        np.uint16 if bst.entries <= (1 << 16) else np.uint32
    )
    order = np.argsort(bidx, kind="stable")
    sidx = bidx[order]
    souts = outs[order]
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(sidx[1:], sidx[:-1], out=seg_start[1:])
    positions = np.arange(n, dtype=np.int64)
    starts = np.where(seg_start, positions, 0)
    np.maximum.accumulate(starts, out=starts)
    first_sighting = (positions == starts)

    # ``dir`` is the recorded bias direction (the first outcome for
    # entries starting NOT_FOUND); an entry is non-biased from its first
    # disagreeing outcome onwards.
    s0 = np.fromiter((int(s) for s in bst._state), np.uint8, count=bst.entries)
    init = s0[sidx]
    first_out = souts[starts]
    dir_ = np.where(init == 1, 1, np.where(init == 2, 0, first_out)).astype(np.uint8)
    disagree = souts != dir_
    disagree &= ~((init == 0) & first_sighting)  # first sighting only records
    group = np.cumsum(seg_start, dtype=np.int64)
    running = np.maximum.accumulate(group * 2 + disagree)
    nb_after_s = (running - group * 2) == 1
    nb_after_s |= init == 3
    nb_before_s = np.empty(n, dtype=bool)
    nb_before_s[0] = False
    nb_before_s[1:] = nb_after_s[:-1]
    nb_before_s[seg_start] = (init == 3)[seg_start]

    status_before_s = np.where(dir_ == 1, 1, 2).astype(np.uint8)
    status_before_s[nb_before_s] = 3
    status_before_s[(init == 0) & first_sighting] = 0

    status_before = np.empty(n, dtype=np.uint8)
    status_before[order] = status_before_s
    nb_before = np.empty(n, dtype=bool)
    nb_before[order] = nb_before_s
    nb_after = np.empty(n, dtype=bool)
    nb_after[order] = nb_after_s

    # Write back each touched entry's status after its group's last event.
    seg_end = np.empty(n, dtype=bool)
    seg_end[-1] = True
    np.copyto(seg_end[:-1], seg_start[1:])
    final_status = np.where(
        nb_after_s[seg_end],
        3,
        np.where(
            init[seg_end] == 0,
            np.where(first_out[seg_end] == 1, 1, 2),
            init[seg_end],
        ),
    )
    state = bst._state
    for index, value in zip(sidx[seg_end].tolist(), final_status.tolist()):
        state[index] = BranchStatus(value)
    return BSTStream(status_before, nb_before, nb_after)
