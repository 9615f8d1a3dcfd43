"""Loop-predictor staging shared by the batch kernels.

The loop predictor (``repro.predictors.loop``) rides on BF-Neural and
ISL-TAGE.  Its per-way (set, tag) pair is a pure function of the pc, so
a kernel stages every event's rows up front with ``mix64_array``.  Its
entries are ``_LoopEntry`` objects; the replay loops instead read and
write six parallel ``[set][way]`` column lists (attribute lookups are
the slow part of a python loop) and store them back at segment end.

The per-event step is two calls, :func:`loop_lookup` at prediction and
:func:`loop_update` at training, on those columns and the event's
staged rows: the exact ``LoopPredictor.lookup``/``update`` semantics.
The lookup's match is handed to the update, since nothing touches the
loop table in between.
"""

from __future__ import annotations

import numpy as np

from repro.common.tablestate import mix64_array
from repro.predictors.loop import LoopPredictor

_CONFIDENCE_MAX = LoopPredictor.CONFIDENCE_MAX
_AGE_MAX = LoopPredictor.AGE_MAX
_TRIP_MAX = LoopPredictor.TRIP_MAX

#: Per-way skew of the loop predictor's set hash
#: (``LoopPredictor._set_and_tag``).
LOOP_SKEW = 0x517C_C1B7

#: ``_LoopEntry`` fields, in the order :func:`loop_columns` returns them.
LOOP_FIELDS = ("tag", "past_trip", "current_trip", "confidence", "age", "valid")


def loop_rows(loop, pcs: np.ndarray) -> tuple[list, list]:
    """Every event's per-way set index and tag, as ``[event][way]`` lists."""
    way_ix = np.arange(1, loop.ways + 1, dtype=np.uint64)
    hashed = mix64_array(pcs[:, None] + np.uint64(LOOP_SKEW) * way_ix[None, :])
    sets = (hashed % np.uint64(loop.sets)).astype(np.int64).tolist()
    tags = (
        (hashed >> np.uint64(20)) & np.uint64((1 << loop.tag_bits) - 1)
    ).astype(np.int64).tolist()
    return sets, tags


# perf: allow(REPRO401): per-segment staging, runs once per kernel call
def loop_columns(loop) -> tuple[list, ...]:
    """The entry fields as ``[set][way]`` lists, in :data:`LOOP_FIELDS` order."""
    return tuple(
        [[getattr(entry, name) for entry in ways] for ways in loop._table]
        for name in LOOP_FIELDS
    )


def store_loop_columns(loop, columns: tuple[list, ...]) -> None:
    """Write :func:`loop_columns` lists back into the loop's entries."""
    for si, ways in enumerate(loop._table):
        for wy, entry in enumerate(ways):
            for name, column in zip(LOOP_FIELDS, columns):
                setattr(entry, name, column[si][wy])


def loop_lookup(columns, sets: list, tags: list) -> tuple[int, int, bool, bool]:
    """``LoopPredictor.lookup`` for one event's staged rows.

    Returns ``(way, set, prediction, confident)``; ``way`` is -1 when no
    entry matches.
    """
    ltag, lpast, lcur, lconf, _, lvalid = columns
    for way, si in enumerate(sets):
        if lvalid[si][way] and ltag[si][way] == tags[way]:
            if lconf[si][way] >= _CONFIDENCE_MAX:
                return way, si, lcur[si][way] != lpast[si][way], True
            return way, si, True, False
    return -1, 0, True, False


def loop_update(
    columns, sets: list, tags: list, way: int, si: int, taken: bool, allocate: bool
) -> None:
    """``LoopPredictor.update`` given the entry :func:`loop_lookup` found."""
    ltag, lpast, lcur, lconf, lage, lvalid = columns
    if way >= 0:
        if taken:
            lcur[si][way] += 1
            if lcur[si][way] > _TRIP_MAX:
                lvalid[si][way] = False
        else:
            if lcur[si][way] == lpast[si][way]:
                if lconf[si][way] < _CONFIDENCE_MAX:
                    lconf[si][way] += 1
                if lage[si][way] < _AGE_MAX:
                    lage[si][way] += 1
            else:
                lpast[si][way] = lcur[si][way]
                lconf[si][way] = 0
            lcur[si][way] = 0
        return
    if taken or not allocate:
        return
    # LoopPredictor._allocate: an invalid way, else age the ways in order
    # and steal the first one already at age 0.
    victim = -1
    for wy, vsi in enumerate(sets):
        if not lvalid[vsi][wy]:
            victim = wy
            break
    if victim < 0:
        for wy, vsi in enumerate(sets):
            if lage[vsi][wy] == 0:
                victim = wy
                break
            lage[vsi][wy] -= 1
    if victim >= 0:
        vsi = sets[victim]
        ltag[vsi][victim] = tags[victim]
        lpast[vsi][victim] = 0
        lcur[vsi][victim] = 0
        lconf[vsi][victim] = 0
        lage[vsi][victim] = _AGE_MAX
        lvalid[vsi][victim] = True
