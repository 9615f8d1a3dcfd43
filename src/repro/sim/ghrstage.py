"""BF-GHR staging for the BF-TAGE batch kernel.

BF-TAGE's tagged tables read prefixes of the bias-free global history
register (``repro.core.segments``).  The BF-GHR is a function of the
trace alone: each commit pushes ``(hashed pc, outcome, non-biased)``
into the commit ring, and the per-segment recency stacks change only
when a non-biased record crosses a segment boundary.  Record ``c`` (the
``c``-th commit) crosses boundary ``b_k`` on the commit that brings the
commit counter to ``c + b_k + 1``.  Once the BST stream has said which
records are non-biased (``repro.sim.bststage``), the whole crossing
schedule of a trace segment is known up front.

**One walk per segment width.**  Segment ``s`` covers raw depths
``(b_s, b_{s+1}]``.  It gains record ``c`` when ``c`` crosses ``b_s``
and loses it, if it is still there, when ``c`` crosses ``b_{s+1}``; on
a shared commit the insert comes first, because
``SegmentedRecencyStacks.commit`` walks boundaries shallow first.
Measured by the *horizon* ``u = head - b_s - 1``, the newest stamp the
segment may hold, record ``c`` enters at ``u = c`` and leaves at
``u = c + b_{s+1} - b_s``.  So a segment's state is a function of its
width and its horizon alone, and segments of equal width (the paper's
16 segments have 6 widths) replay the same walk at different horizons.
:func:`stage_bf_ghr` walks each width once, from its deepest segment's
live state, with the exact dedup, eviction and removal list operations
of ``_insert`` and ``_remove``.  A walk also covers the horizons
between its segments' boundaries, so segments whose boundaries lie
further apart than the trace segment is long get separate walks.  As
the walk passes a shallower segment's starting horizon it compares the
segment's live state with its own; a segment that differs (a hand-made
snapshot, say) is walked alone from its own state.

**Rows of words.**  Each walk records the segment word and length after
every change.  Numpy forward-fills them to every event, then lays the
unfiltered window and the segment words side by side into rows of
uint64 words: the bits :meth:`SegmentedRecencyStacks.packed_ghr`
returns, least significant word first.

**Folds.**  :func:`chunk_fold` folds those rows to a table's index or
tag width.  ``fold_bits`` of a ``P``-bit prefix to ``w`` bits is the
XOR of the prefix's ``w``-bit chunks.  A lane of ``w * (64 // w)`` bits
is a whole number of chunks, so XORing the prefix's lanes and then
folding the lane to ``w`` bits gives the same value.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitops import fold_schedule
from repro.core.segments import _SegmentEntry


def _walk(stack, events, rs_size, word_masks, changes) -> None:
    """Apply one run of crossings to a recency stack, in order.

    ``stack`` is ``[stamps, hashed pcs, word]`` (updated in place) and
    ``events`` the ``(key, stamp, hashed pc, symbol)`` lists of the run:
    ``key`` is ``2 * horizon``, plus one for a removal.  Every change
    appends ``(key, word, length)`` to the three ``changes`` lists.
    """
    stamps, pcs, word = stack
    stamp_pop = stamps.pop
    stamp_insert = stamps.insert
    pc_pop = pcs.pop
    pc_insert = pcs.insert
    pc_index = pcs.index
    change_at, change_word, change_size = changes
    at_append = change_at.append
    word_append = change_word.append
    size_append = change_size.append
    size = len(stamps)
    evict_mask = word_masks[rs_size]
    for key, stamp, hpc, symbol in zip(*events):
        if key & 1:
            # SegmentedRecencyStacks._remove: the record leaving at the
            # deep boundary is the last entry if it is there at all.
            if not size or stamps[-1] != stamp:
                continue
            stamp_pop()
            pc_pop()
            size -= 1
            word &= word_masks[size]
        else:
            # SegmentedRecencyStacks._insert: dedup, push, evict.
            if hpc in pcs:
                position = pc_index(hpc)
                del stamps[position]
                del pcs[position]
                shift = 3 * position
                word = (word & word_masks[position]) | (word >> (shift + 3) << shift)
                size -= 1
            stamp_insert(0, stamp)
            pc_insert(0, hpc)
            word = (word << 3) | symbol
            if size == rs_size:
                stamp_pop()
                pc_pop()
                word &= evict_mask
            else:
                size += 1
        at_append(key)
        word_append(word)
        size_append(size)
    stack[2] = word


# perf: allow(REPRO401, REPRO402): per-segment staging, runs once per walk
def _walk_width(segments, members, width, records, head0, n, columns, finals):
    """Walk the segments ``members`` (deepest first, all ``width`` wide)
    over the trace segment; fill their per-event ``columns`` and final
    ``(stamps, hashed pcs)``.  Returns the members whose live state
    disagrees with the walk, for a walk of their own."""
    boundaries = segments.boundaries
    stamps, rec_hpc, rec_sym = records
    starts = [head0 - boundaries[s] - 1 for s in members]
    first, last = starts[0], starts[-1] + n

    # Inserts at horizon c, removals at c + width, both in (first, last].
    lo, hi = np.searchsorted(stamps, (first + 1, last + 1))
    lo_out, hi_out = np.searchsorted(stamps, (first + 1 - width, last + 1 - width))
    sel = np.concatenate((np.arange(lo, hi), np.arange(lo_out, hi_out)))
    keys = np.concatenate((stamps[lo:hi] * 2, (stamps[lo_out:hi_out] + width) * 2 + 1))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    sel = sel[order]
    events = (keys.tolist(), stamps[sel].tolist(), rec_hpc[sel].tolist(), rec_sym[sel].tolist())

    entries = segments._segments[members[0]]
    stack = [
        [entry.stamp for entry in entries],
        [entry.hashed_pc for entry in entries],
        segments._words[members[0]],
    ]
    changes = ([2 * first + 1], [stack[2]], [len(entries)])
    # Walk to each member's starting and final horizons in turn.
    stops = sorted(
        [(start, 0, s) for start, s in zip(starts, members)]
        + [(start + n, 1, s) for start, s in zip(starts, members)]
    )
    cuts = np.searchsorted(keys, [2 * horizon + 2 for horizon, _, _ in stops]).tolist()
    done = 0
    strays = []
    for (horizon, final, s), cut in zip(stops, cuts):
        if cut > done:
            _walk(stack, tuple(column[done:cut] for column in events),
                  segments.rs_size, segments._word_masks, changes)
            done = cut
        if final:
            finals[s] = (list(stack[0]), list(stack[1]))
        elif (
            [entry.stamp for entry in segments._segments[s]] != stack[0]
            or [entry.hashed_pc for entry in segments._segments[s]] != stack[1]
            or segments._words[s] != stack[2]
        ):
            strays.append(s)

    # Event i of a member reads the state at horizon start + i.
    change_at = np.array(changes[0], dtype=np.int64) >> 1
    words = np.array(changes[1], dtype=np.uint64)
    lengths = np.array(changes[2], dtype=np.int64)
    events_at = np.arange(n, dtype=np.int64)
    for start, s in zip(starts, members):
        if s not in strays:
            pick = np.searchsorted(change_at, events_at + start, side="right") - 1
            columns[s] = (words[pick], lengths[pick])
    return strays


# perf: allow(REPRO401, REPRO402): per-segment staging, runs once per kernel call
def stage_bf_ghr(
    segments, pcs: np.ndarray, outs: np.ndarray, nb_after: np.ndarray, max_length: int
) -> np.ndarray:
    """Every event's packed BF-GHR as its prediction reads it.

    Returns a ``(words, n)`` uint64 array whose column ``i`` holds
    ``segments.packed_ghr(max_length)[0]`` before event ``i`` commits,
    least significant word first.  ``nb_after`` is each event's
    non-biased flag as ``commit`` receives it.  ``segments`` is left in
    the state the scalar commits would leave: entries, ring, head and
    count, and the packed registers rebuilt from them.

    Needs ``3 * unfiltered_bits <= 64`` and ``3 * rs_size <= 64``.
    """
    n = len(outs)
    boundaries = segments.boundaries
    num_segments = segments.num_segments
    unfiltered = segments.unfiltered_bits
    ring = segments._ring
    ring_len = len(ring)
    head0 = segments._head
    count0 = segments._count

    hpcs = (pcs & np.uint64(segments._pc_mask)).astype(np.int64)
    symbols = outs.astype(np.int64) | ((hpcs & 3) << 1)

    # The non-biased records that can cross a boundary: the trace
    # segment's own, and the live ring's that have not yet crossed the
    # deepest boundary.
    prior = min(count0, boundaries[-1])
    ring_records = [ring[c % ring_len] for c in range(head0 - prior, head0)]
    ring_hpc = np.array([record[0] for record in ring_records], dtype=np.int64)
    ring_out = np.array([record[1] for record in ring_records], dtype=np.int64)
    ring_nb = np.array([record[2] for record in ring_records], dtype=bool)
    keep = np.flatnonzero(np.concatenate((ring_nb, nb_after)))
    records = (
        keep + (head0 - prior),
        np.concatenate((ring_hpc, hpcs))[keep],
        np.concatenate((ring_out | ((ring_hpc & 3) << 1), symbols))[keep],
    )

    # Walk each width from its deepest segment; walk strays alone.  A
    # walk spans the trace segment plus the boundary gaps between its
    # members, so a gap wider than the trace segment starts a new walk.
    by_width: dict[int, list[list[int]]] = {}
    for s in range(num_segments - 1, -1, -1):
        walks = by_width.setdefault(boundaries[s + 1] - boundaries[s], [])
        if walks and boundaries[walks[-1][-1]] - boundaries[s] <= n:
            walks[-1].append(s)
        else:
            walks.append([s])
    columns: list = [None] * num_segments
    finals: list = [None] * num_segments
    for width, walks in by_width.items():
        for members in walks:
            strays = _walk_width(segments, members, width, records, head0, n, columns, finals)
            for s in strays:
                _walk_width(segments, [s], width, records, head0, n, columns, finals)

    # The unfiltered window: position l holds the symbol of the commit
    # l + 1 back, from the live window before the trace segment.
    window0 = segments._window
    ext = np.empty(unfiltered + n, dtype=np.uint64)
    ext[:unfiltered] = [(window0 >> 3 * (unfiltered - 1 - p)) & 7 for p in range(unfiltered)]
    ext[unfiltered:] = symbols
    limit = 3 * max_length
    kept = -(-limit // 64)
    full = (3 * unfiltered + 3 * num_segments * segments.rs_size) // 64 + 2
    rows = np.zeros((max(kept, full), n), dtype=np.uint64)
    window = rows[0]
    for lag in range(unfiltered):
        window |= ext[unfiltered - 1 - lag : unfiltered - 1 - lag + n] << np.uint64(3 * lag)

    # The segment words after it, shallow segment first.  A word may
    # straddle two row words; ``(w >> 1) >> (63 - shift)`` is its spill,
    # and zero for a shift of 0.
    flat = rows.reshape(-1)
    lane = np.arange(n, dtype=np.int64)
    offset = np.full(n, 3 * unfiltered, dtype=np.int64)
    for words, lengths in columns:
        if int(offset.min()) >= limit:
            break
        shift = (offset & 63).astype(np.uint64)
        at = (offset >> 6) * n + lane
        flat[at] |= words << shift
        flat[at + n] |= (words >> np.uint64(1)) >> (np.uint64(63) - shift)
        offset += 3 * lengths
    rows = rows[:kept].copy()
    if limit % 64:
        rows[-1] &= np.uint64((1 << (limit % 64)) - 1)

    # Write back the ring's newest records, the cursor and every
    # segment's entries; ``_repack`` rebuilds the packed registers.
    lo = max(0, n - ring_len)
    pushed = list(zip(hpcs[lo:].tolist(), (outs[lo:] == 1).tolist(), nb_after[lo:].tolist()))
    at = (head0 + lo) % ring_len
    before_wrap = pushed[: ring_len - at]
    ring[at : at + len(before_wrap)] = before_wrap
    ring[: len(pushed) - len(before_wrap)] = pushed[len(before_wrap) :]
    segments._head = head0 + n
    segments._count = min(count0 + n, ring_len)
    outcome_of = dict(zip(records[0].tolist(), (records[2] & 1).tolist()))
    for s, (final_stamps, final_pcs) in enumerate(finals):
        for entry in segments._segments[s]:
            outcome_of[entry.stamp] = entry.outcome
        segments._segments[s] = [
            _SegmentEntry(hpc, stamp, bool(outcome_of[stamp]))
            for stamp, hpc in zip(final_stamps, final_pcs)
        ]
    segments._repack()
    return rows


# perf: allow(REPRO402): per-segment staging, runs once per fold
def chunk_fold(rows: np.ndarray, prefix_bits: int, width: int) -> np.ndarray:
    """``fold_bits(value, prefix_bits, width)`` of every column of ``rows``.

    ``rows`` is :func:`stage_bf_ghr` output; the fold XORs the
    ``width``-bit chunks of each column's low ``prefix_bits`` bits.
    """
    lane_bits = width * (64 // width)
    acc = np.zeros(rows.shape[1], dtype=np.uint64)
    for start in range(0, prefix_bits, lane_bits):
        bits = min(lane_bits, prefix_bits - start)
        word, shift = divmod(start, 64)
        lane = rows[word] >> np.uint64(shift)
        if shift + bits > 64:
            lane |= rows[word + 1] << np.uint64(64 - shift)
        if bits < 64:
            lane &= np.uint64((1 << bits) - 1)
        acc ^= lane
    for half, low_mask in fold_schedule(lane_bits, width):
        acc = (acc & np.uint64(low_mask)) ^ (acc >> np.uint64(half))
    return acc
