"""Staged batch kernel for the TAGE family: TAGE, ISL-TAGE, BF-TAGE and
BF-ISL-TAGE.

TAGE's cost in the scalar loop is its history machinery: every branch
updates the history registers and recomputes every table's index and
tag from them.  None of that depends on predictor state, so the kernel
runs in two phases:

* **Staging (numpy).**  Per segment, every event's per-table index and
  tag, the base-table index, and for ISL-TAGE the statistical
  corrector's index base and the loop predictor's per-way set/tag rows.
  The path register is ``packed_history_series(pc & 1)``.  Only the
  history behind the folds depends on the core, and one staging step
  per core class (:data:`_STAGERS`) stages it and leaves the core's
  history state at the segment's end:

  - ``Tage`` folds the raw global history.  Seznec's folded registers
    are linear over GF(2), so ``tablestate.folded_history_series``
    gives every per-event value in closed form, seeded from the live
    fold registers with the bits about to leave each window read from
    the history ring.
  - ``BFTage`` folds the bias-free history (Section V).  The BST status
    stream comes from ``repro.sim.bststage`` and the per-event packed
    BF-GHR from ``repro.sim.ghrstage``, which walks the segmented
    recency stacks once per segment width; the 30 folds XOR uint64
    lanes of it.  BF-TAGE never advances ``Tage``'s raw ring and fold
    registers, so they are left alone.
* **Replay (one python loop).**  Only the data-dependent part remains:
  the tag-match scan, provider/alternate selection, the
  ``use_alt_on_na`` policy, counter and useful updates, allocation
  (drawing from the predictor's own RNG in the scalar draw order) and
  periodic useful aging.  For ISL-TAGE the same loop replays the SC and
  loop-predictor overlay behind hoisted flags.

The final state goes back through the scalar representations: tables,
history, path, counters and the per-prediction scratch the next
``train`` would read, so ``state_hash()``, provider attribution and
checkpoint cuts match the scalar oracle bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.common.tablestate import folded_history_series, packed_history_series
from repro.core.bftage import BFTage
from repro.predictors.base import hot_path
from repro.predictors.tage.components import TaggedTable
from repro.predictors.tage.isl import _SC_MAX, _SC_MIN, ISLTage
from repro.predictors.tage.tage import Tage
from repro.sim.bststage import stage_bst
from repro.sim.ghrstage import chunk_fold, stage_bf_ghr
from repro.sim.loopstage import (
    loop_columns,
    loop_lookup,
    loop_rows,
    loop_update,
    store_loop_columns,
)

_CTR_MAX = TaggedTable.CTR_MAX
_CTR_MIN = TaggedTable.CTR_MIN
_U_MAX = TaggedTable.U_MAX
_U64 = (1 << 64) - 1


# perf: allow(REPRO401): per-segment staging, once per table
def _fold_before(outs, length, fold, tail) -> tuple[np.ndarray, int]:
    """The register's value as read by each event's prediction, and its
    final value after the segment."""
    series = folded_history_series(
        outs,
        length,
        fold.width,
        seed_value=fold.value,
        prior_tail=tail,
        prior_count=length,
    )
    before = np.empty(len(outs), dtype=np.uint64)
    before[0] = fold.value
    before[1:] = series[:-1]
    return before, int(series[-1])


def _index_tag_columns(table, pc_seg, path, f_index, f_tag1, f_tag2):
    """``TaggedTable.index_of`` and ``tag_of`` over whole columns."""
    shift = np.uint64(table.log2_entries - 2)
    idx = (pc_seg ^ (pc_seg >> shift) ^ f_index ^ path) & np.uint64(table.entries - 1)
    tags = (pc_seg ^ f_tag1 ^ (f_tag2 << np.uint64(1))) & np.uint64(table.tag_mask)
    return idx, tags


@hot_path  # perf: allow(REPRO401, REPRO402): staging runs per segment
def _stage_tage(tage, pc_seg, outs, path, idx, tags) -> None:
    """Fill every event's per-table index and tag from the raw global
    history; leave the fold registers and the history ring as the
    segment's commits would."""
    n = len(outs)
    cap = tage._history_capacity
    head = tage._history_head % cap
    ring = np.asarray(tage._history_buffer, dtype=np.uint16)
    for j, (table, folds) in enumerate(zip(tage.tables, tage._folds)):
        length = folds.history_length
        tail = ring[(head - length + np.arange(length)) % cap]
        f_index, v_index = _fold_before(outs, length, folds.index_fold, tail)
        f_tag1, v_tag1 = _fold_before(outs, length, folds.tag_fold_1, tail)
        f_tag2, v_tag2 = _fold_before(outs, length, folds.tag_fold_2, tail)
        idx[:, j], tags[:, j] = _index_tag_columns(
            table, pc_seg, path, f_index, f_tag1, f_tag2
        )
        folds.index_fold.value = v_index
        folds.tag_fold_1.value = v_tag1
        folds.tag_fold_2.value = v_tag2
    head0 = tage._history_head
    lo = max(0, n - cap)
    slots = ((head0 + np.arange(lo, n, dtype=np.int64)) % cap).tolist()
    buffer = tage._history_buffer
    for slot, bit in zip(slots, outs[lo:].tolist()):
        buffer[slot] = bit
    tage._history_head = (head0 + n) % cap


@hot_path
def _stage_bftage(core, pc_seg, outs, path, idx, tags) -> None:
    """Fill every event's per-table index and tag from the BF-GHR; leave
    the BST and the segmented recency stacks as the segment's commits
    would.  ``Tage``'s own raw history is never advanced by BF-TAGE and
    stays untouched."""
    nb_after = stage_bst(core.bst, pc_seg, outs).nb_after
    rows = stage_bf_ghr(core.segments, pc_seg, outs, nb_after, core._max_length)
    for j, (table, length) in enumerate(zip(core.tables, core.config.history_lengths)):
        prefix = 3 * length
        idx[:, j], tags[:, j] = _index_tag_columns(
            table,
            pc_seg,
            path,
            chunk_fold(rows, prefix, table.log2_entries),
            chunk_fold(rows, prefix, table.tag_bits),
            chunk_fold(rows, prefix, max(1, table.tag_bits - 1)),
        )


#: The core-specific step: stage the index and tag streams and advance
#: the core's history state over the segment.
_STAGERS = {Tage: _stage_tage, BFTage: _stage_bftage}


class TageKernel:
    """Staged index/tag streams plus one sequential table replay."""

    def supports(self, predictor) -> bool:
        core = predictor.tage if isinstance(predictor, ISLTage) else predictor
        if type(core) is BFTage:
            # The BST stream assumes the deterministic FSM; the BF-GHR
            # rows hold the window and each segment word in 64 bits.
            segments = core.segments
            if (
                core.bias_oracle is not None
                or core.bst.probabilistic
                or 3 * segments.unfiltered_bits > 64
                or 3 * segments.rs_size > 64
            ):
                return False
        elif type(core) is not Tage:
            return False
        return 1 <= core.config.path_bits <= 64 and all(
            2 <= table.log2_entries <= 16 and table.tag_bits <= 16
            for table in core.tables
        )

    @hot_path  # perf: allow(REPRO401, REPRO402): staging and write-back run per segment
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        isl = predictor if isinstance(predictor, ISLTage) else None
        tage = isl.tage if isl is not None else predictor
        tables = tage.tables
        num_tables = len(tables)
        names = ("base",) + tuple(f"T{j + 1}" for j in range(num_tables)) + ("sc", "loop")
        n = end - start
        if n == 0:
            return np.zeros(0, dtype=bool), (np.zeros(0, dtype=np.uint8), names)
        code_sc = num_tables + 1
        code_loop = num_tables + 2
        pc_seg = pcs[start:end]
        outs = outcomes[start:end]

        # --------------------------------------------------------------
        # Staging.
        # --------------------------------------------------------------
        path = packed_history_series(
            (pc_seg & np.uint64(1)).astype(np.uint8),
            tage.config.path_bits,
            seed=tage._path_history,
        )
        idx = np.empty((n, num_tables), dtype=np.int64)
        tags = np.empty((n, num_tables), dtype=np.int64)
        _STAGERS[type(tage)](tage, pc_seg, outs, path, idx, tags)
        tage._path_history = (
            (int(path[-1]) << 1) | (int(pc_seg[-1]) & 1)
        ) & tage._path_mask
        offsets = np.cumsum([0] + [table.entries for table in tables])
        flat_rows = (idx + offsets[None, :-1]).tolist()
        tag_rows = tags.tolist()
        base = tage.base
        base_rows = (pc_seg & np.uint64(base._mask)).astype(np.int64).tolist()
        taken_l = (outs == 1).tolist()

        has_sc = isl is not None and isl.with_statistical_corrector
        loop = isl.loop if isl is not None else None
        has_loop = loop is not None
        if has_sc:
            # ``((pc << 1) | tage_pred) & mask``, split into a staged pc
            # part and the prediction bit the replay ORs in.
            sc = isl._sc
            sc_low = isl._sc_mask & 1
            sc_rows = ((pc_seg << np.uint64(1)) & np.uint64(isl._sc_mask)).astype(
                np.int64
            ).tolist()
        else:
            sc_rows = [0] * n
        if has_loop:
            loop_cols = loop_columns(loop)
            lsets, ltags = loop_rows(loop, pc_seg)
        else:
            lsets = ltags = [None] * n

        # --------------------------------------------------------------
        # Replay.  Every tagged table lives in one flat arena per field.
        # --------------------------------------------------------------
        ctr: list[int] = []
        tagv: list[int] = []
        use: list[int] = []
        for table in tables:
            ctr += table.ctr
            tagv += table.tag
            use += table.useful
        btab = base._table
        bthr = base._threshold
        bmax = base._max
        uaon = tage._use_alt_on_na
        period = tage.config.useful_reset_period
        age_in = period - tage._branch_count % period
        # ``XorShift64.chance(1, 2)``, inline: it steps the xorshift state
        # and is true when the output ``state * M`` is even, i.e. (M being
        # odd) when the new state is.
        draw = tage._rng.snapshot()
        last_table = num_tables - 1
        scan = range(last_table, -1, -1)
        withloop = isl._withloop if isl is not None else 0

        preds: list[bool] = []
        codes: list[int] = []
        p = a = -1
        ppred = apred = tage_pred = pred = weak = False
        sci = 0
        sc_used = loop_pred = loop_valid = False
        for fis, tgs, bi, taken, scb, st, tg in zip(
            flat_rows, tag_rows, base_rows, taken_l, sc_rows, lsets, ltags
        ):
            # Predict: longest matching table provides, next one is alt.
            p = a = -1
            for j in scan:
                if tagv[fis[j]] == tgs[j]:
                    if p < 0:
                        p = j
                    else:
                        a = j
                        break
            bval = btab[bi]
            if p >= 0:
                fp = fis[p]
                c = ctr[fp]
                ppred = c >= 0
                apred = ctr[fis[a]] >= 0 if a >= 0 else bval >= bthr
                weak = (c == 0 or c == -1) and use[fp] == 0
                tage_pred = apred if weak and uaon >= 8 else ppred
            else:
                ppred = apred = tage_pred = bval >= bthr
                weak = False
            pred = tage_pred
            code = p + 1

            if isl is not None:
                sc_used = False
                if has_sc:
                    sci = scb | sc_low if tage_pred else scb
                    if weak:
                        counter = sc[sci]
                        if counter <= -8 and pred:
                            pred = False
                            sc_used = True
                        elif counter >= 8 and not pred:
                            pred = True
                            sc_used = True
                loop_pred = False
                loop_valid = False
                if has_loop:
                    found, fsi, loop_pred, loop_valid = loop_lookup(loop_cols, st, tg)
                    if loop_valid and withloop >= 0:
                        pred = loop_pred
                        code = code_loop
                if sc_used and code != code_loop:
                    code = code_sc

                # Train the overlay (ISLTage.train order: loop, SC, core).
                if has_loop:
                    if loop_valid and loop_pred != tage_pred:
                        if loop_pred == taken:
                            if withloop < 63:
                                withloop += 1
                        elif withloop > -64:
                            withloop -= 1
                    loop_update(loop_cols, st, tg, found, fsi, taken, pred != taken)
                if has_sc:
                    counter = sc[sci]
                    if taken:
                        if counter < _SC_MAX:
                            sc[sci] = counter + 1
                    elif counter > _SC_MIN:
                        sc[sci] = counter - 1
            preds.append(pred)
            codes.append(code)

            # Train the core (Tage.train).
            if p >= 0:
                if weak and ppred != apred:
                    if ppred == taken and uaon > 0:
                        uaon -= 1
                    elif apred == taken and uaon < 15:
                        uaon += 1
                if taken:
                    if c < _CTR_MAX:
                        c += 1
                        ctr[fp] = c
                elif c > _CTR_MIN:
                    c -= 1
                    ctr[fp] = c
                if ppred != apred:
                    u = use[fp]
                    if ppred == taken:
                        if u < _U_MAX:
                            use[fp] = u + 1
                    elif u > 0:
                        use[fp] = u - 1
                if c == 0 or c == -1:
                    if a >= 0:
                        fa = fis[a]
                        v = ctr[fa]
                        if taken:
                            if v < _CTR_MAX:
                                ctr[fa] = v + 1
                        elif v > _CTR_MIN:
                            ctr[fa] = v - 1
                    elif taken:
                        if bval < bmax:
                            btab[bi] = bval + 1
                    elif bval > 0:
                        btab[bi] = bval - 1
            elif taken:
                if bval < bmax:
                    btab[bi] = bval + 1
            elif bval > 0:
                btab[bi] = bval - 1

            if tage_pred != taken and p < last_table:
                # Tage._allocate, drawing from the predictor's own RNG.
                # perf: allow(REPRO401): mispredict-only, bounded by num_tables
                cands = [j for j in range(p + 1, num_tables) if use[fis[j]] == 0]
                if cands:
                    chosen = cands[0]
                    # perf: allow(REPRO401): mispredict-only slice over <= num_tables candidates
                    for cand in cands[1:]:
                        draw ^= draw >> 12
                        draw = (draw ^ (draw << 25)) & _U64
                        draw ^= draw >> 27
                        if not draw & 1:
                            break
                        chosen = cand
                    f = fis[chosen]
                    tagv[f] = tgs[chosen]
                    ctr[f] = 0 if taken else -1
                    use[f] = 0
                    draw ^= draw >> 12
                    draw = (draw ^ (draw << 25)) & _U64
                    draw ^= draw >> 27
                    if not draw & 1:
                        for cand in cands:
                            if cand >= chosen + 2:
                                f = fis[cand]
                                tagv[f] = tgs[cand]
                                ctr[f] = 0 if taken else -1
                                use[f] = 0
                                break
                else:
                    for j in range(p + 1, num_tables):
                        f = fis[j]
                        if use[f] > 0:
                            use[f] -= 1

            age_in -= 1
            if not age_in:
                # perf: allow(REPRO401): once per useful_reset_period, not per event
                use = [u >> 1 for u in use]
                age_in = period

        # --------------------------------------------------------------
        # Write-back through the scalar representations.
        # --------------------------------------------------------------
        for j, table in enumerate(tables):
            lo, hi = int(offsets[j]), int(offsets[j + 1])
            table.ctr = ctr[lo:hi]
            table.tag = tagv[lo:hi]
            table.useful = use[lo:hi]
        tage._rng.restore(draw)
        tage._use_alt_on_na = uaon
        tage._branch_count += n
        tage._last_indices = idx[-1].tolist()
        tage._last_tags = tag_rows[-1]
        tage._last_provider = p
        tage._last_alt = a
        tage._last_provider_pred = ppred
        tage._last_alt_pred = apred
        tage._last_pred = tage_pred
        tage._last_weak_provider = weak
        if isl is not None:
            if has_loop:
                store_loop_columns(loop, loop_cols)
            isl._withloop = withloop
            isl._last_tage_pred = tage_pred
            isl._last_loop_pred = loop_pred
            isl._last_loop_valid = loop_valid
            isl._last_sc_index = sci
            isl._last_sc_used = sc_used
            isl._last_pred = pred
            isl._last_provider_name = names[code]

        preds_arr = np.fromiter(preds, dtype=bool, count=n)
        codes_arr = np.fromiter(codes, dtype=np.uint8, count=n)
        return preds_arr, (codes_arr, names)
