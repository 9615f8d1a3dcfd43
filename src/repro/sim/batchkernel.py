"""Vectorized batch simulation kernels with scalar differential oracles.

The scalar simulator (``repro.sim.simulator``) steps predictors one
branch event at a time through ``predict``/``train``.  For the table
predictors that dominates runtime with python interpreter overhead, not
arithmetic.  The kernels here replay a whole trace segment through numpy
array operations and leave the predictor in *exactly* the state the
scalar loop would have — same predictions event by event, same
``state_hash()`` — so the scalar path doubles as a differential-testing
oracle (``tests/test_batchkernel.py``).

Entry point: :func:`simulate_batch`, a drop-in for
:func:`repro.sim.simulate` with a ``kernel=`` knob:

* ``"scalar"`` — delegate to the scalar loop unconditionally;
* ``"vectorized"`` — require a registered kernel that supports this
  predictor's configuration, else raise;
* ``"auto"`` — use the kernel when available, fall back silently.

Kernels are registered per concrete predictor class (exact type match —
a subclass may override semantics the kernel hard-codes) and gate
themselves on the configuration via ``supports()``.  See
``docs/vectorization.md`` for the math behind each kernel and the
porting checklist for new cores.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.tablestate import (
    folded_history_series,
    mix64_array,
    packed_history_series,
    signed_history_matrix,
)
from repro.predictors.base import BranchPredictor, hot_path
from repro.sim.metrics import SimCheckpoint, SimulationResult
from repro.sim.simulator import _begin_run, _finish_run, simulate
from repro.trace.records import Trace

KERNEL_MODES = ("scalar", "vectorized", "auto")

# ---------------------------------------------------------------------------
# Saturating 2-bit counter scan
#
# A counter update is the monotone clip map f(x) = clip(x + a, b, c) with
# a = ±1 and (b, c) = (1, 3) for taken, (0, 2) for not-taken.  The family
# is closed under composition:
#
#   (f_late ∘ f_early)(x) = clip(x + a_e + a_l, clip(b_e + a_l, b_l, c_l),
#                                               clip(c_e + a_l, b_l, c_l))
#
# and any composition can be canonicalized to b = f(0), c = f(3) with the
# summed shift a clamped to ±4 (counters live in [0, 3], so larger shifts
# are indistinguishable).  That packs a whole composition into one byte —
# (a+4) | b<<4 | c<<6 — so a segmented Hillis-Steele scan over per-entry
# event sequences runs on uint8 arrays with a 64 KiB composition LUT.
# ---------------------------------------------------------------------------


def _build_counter_luts():
    code = np.arange(256)
    a = (code & 0xF).astype(np.int64) - 4
    b = (code >> 4) & 3
    c = (code >> 6) & 3
    # COMP[early << 8 | late]: apply ``early`` first, then ``late``.
    aa = np.clip(a[:, None] + a[None, :], -4, 4)
    bb = np.clip(np.clip(b[:, None] + a[None, :], b[None, :], c[None, :]), 0, 3)
    cc = np.clip(np.clip(c[:, None] + a[None, :], b[None, :], c[None, :]), 0, 3)
    comp = ((aa + 4) | (bb << 4) | (cc << 6)).astype(np.uint8).ravel()
    states = np.arange(4)
    app = np.clip(
        np.clip(states[None, :] + a[:, None], b[:, None], c[:, None]), 0, 3
    ).astype(np.uint8)
    app_flat = app.ravel()  # key = (f << 2) | state
    pred_flat = app_flat >= 2
    const = (b == c).astype(bool)  # composition is a constant function
    return comp, app, app_flat, pred_flat, const


_COMP, _APPLY, _APP_FLAT, _PRED_FLAT, _CONST = _build_counter_luts()
_TAKEN_BYTE = np.uint8((1 + 4) | (1 << 4) | (3 << 6))
_NOT_TAKEN_BYTE = np.uint8((-1 + 4) | (0 << 4) | (2 << 6))
_IDENT_BYTE = np.uint8((0 + 4) | (0 << 4) | (3 << 6))  # clip(x+0, 0, 3) = x


# perf: allow(REPRO401, REPRO402): per-trace staging, runs once per batch
def _compose_windows(souts: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per-event composition byte over its whole segment prefix.

    Bootstrap: window compositions of 2/4/8 events come straight from
    the outcome *bits* — a window key of w outcome bits indexes a
    2**w-entry LUT of precomposed bytes — so the first three doubling
    passes are uint8 shift/or arithmetic instead of 16-bit LUT gathers.
    The few events deeper than 8 into their segment finish with the
    classic segmented Hillis-Steele doubling over a shrinking active
    set: a saturated (constant) composition never changes under further
    left-composition, and most windows saturate within ~8 events.
    """
    n = len(souts)
    unit = np.array([_NOT_TAKEN_BYTE, _TAKEN_BYTE], dtype=np.uint8)
    F = unit[souts]
    # Window LUTs indexed by raw outcome bits (earlier event = higher
    # bit): win_w[key] is the precomposed byte of a w-event window.
    k = np.arange(4)
    win2 = _COMP[(unit[k >> 1].astype(np.uint16) << 8) | unit[k & 1]]
    k = np.arange(8)
    win3 = _COMP[(unit[k >> 2].astype(np.uint16) << 8) | win2[k & 3]]
    k = np.arange(16)
    win4 = _COMP[(win2[k >> 2].astype(np.uint16) << 8) | win2[k & 3]]

    # Bootstrap coverage to min(4, pos + 1) — the state the classic
    # doubling scan reaches after its d=1 and d=2 passes — from outcome
    # bits alone: events at segment position 1 take win2, position 2
    # exactly win3, deeper ones win4.
    if n > 1:
        key2 = np.left_shift(souts[:-1], 1).astype(np.uint8)
        key2 |= souts[1:]
        np.copyto(F[1:], win2[key2], where=pos[1:] >= 1)
    if n > 2:
        key3 = np.left_shift(key2[:-1], 1).astype(np.uint8)
        key3 |= souts[2:]
        np.copyto(F[2:], win3[key3], where=pos[2:] == 2)
    if n > 3:
        key4 = np.left_shift(key2[:-2], 2).astype(np.uint8)
        key4 |= key2[2:]
        np.copyto(F[3:], win4[key4], where=pos[3:] >= 3)

    # Finish with segmented Hillis-Steele doubling over a shrinking
    # active set: after the pass at offset d every event composes the
    # last min(2d, pos + 1) events of its segment, and a saturated
    # (constant) composition never changes under further
    # left-composition, so most events retire within a few passes.
    maxpos = int(pos.max()) if n else 0
    d = 4
    if d <= maxpos:
        active = np.flatnonzero((pos >= d) & ~_CONST[F])
        while d <= maxpos and active.size:
            F[active] = _COMP[(F[active - d].astype(np.uint16) << 8) | F[active]]
            d <<= 1
            keep = (pos[active] >= d) & ~_CONST[F[active]]
            active = active[keep]
    return F


class _CounterPlan:
    """Trace-pure replay plan for a 2-bit-counter table.

    Everything about a counter run except the table contents — the sort
    by table entry, segment structure, and the composed update function
    of every event's segment prefix — depends only on the event stream
    (pc/outcome arrays) and the indexing configuration, never on the
    counters.  Building that once per (trace segment, config) leaves the
    per-run hot path as three gathers and two scatters; campaigns replay
    the same traces across many predictors and segments, so plans are
    cached (:data:`_PLAN_CACHE`) the way ``Trace.arrays()`` caches the
    list-to-array conversion.
    """

    __slots__ = ("final_f", "final_idx", "gs_key", "last_history", "order", "pcs", "sidx")

    # perf: allow(REPRO401): per-trace staging, runs once per batch
    def __init__(self, pcs, idx, outcomes, last_history=None):
        n = len(idx)
        self.pcs = pcs  # identity guard for the cache
        self.last_history = last_history
        self.order = np.argsort(idx, kind="stable").astype(np.int64)
        sidx = idx[self.order]
        souts = outcomes[self.order]

        seg_start = np.empty(n, dtype=bool)
        seg_start[0] = True
        np.not_equal(sidx[1:], sidx[:-1], out=seg_start[1:])
        positions = np.arange(n, dtype=np.int32)
        starts = np.where(seg_start, positions, 0)
        np.maximum.accumulate(starts, out=starts)
        pos = positions - starts

        F = _compose_windows(souts, pos)

        # G[i] composes the segment prefix *before* event i: the event's
        # prediction is PRED_FLAT[(G << 2) | init].  Pre-shift once.
        G = np.empty(n, dtype=np.uint8)
        G[0] = _IDENT_BYTE
        np.copyto(G[1:], F[:-1])
        G[seg_start] = _IDENT_BYTE
        self.gs_key = G.astype(np.uint16) << np.uint16(2)

        seg_end = np.empty(n, dtype=bool)
        seg_end[-1] = True
        np.copyto(seg_end[:-1], seg_start[1:])
        self.final_idx = sidx[seg_end]
        self.final_f = F[seg_end]
        self.sidx = sidx

    def run(self, table: np.ndarray) -> np.ndarray:
        """Replay the planned events over ``table`` (uint8, mutated in
        place to its final state); returns time-ordered predictions."""
        init = table[self.sidx]
        preds = np.empty(len(init), dtype=bool)
        preds[self.order] = _PRED_FLAT[self.gs_key | init]
        final = table[self.final_idx]
        table[self.final_idx] = _APPLY[self.final_f, final]
        return preds


_PLAN_CACHE: dict = {}
_PLAN_CACHE_MAX = 16


def _cached_plan(key, pcs, build):
    plan = _PLAN_CACHE.get(key)
    if plan is not None and plan.pcs is pcs:
        return plan
    plan = build()
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
    _PLAN_CACHE[key] = plan
    return plan


def _table_u8(values) -> np.ndarray:
    """Load a 0..255-valued payload list as uint8 (fast path via bytes)."""
    if isinstance(values, list):
        return np.frombuffer(bytes(values), dtype=np.uint8).copy()
    return np.asarray(values, dtype=np.uint8)


def _index_dtype(entries: int):
    return np.uint16 if entries <= (1 << 16) else np.uint32


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class _AlwaysTakenKernel:
    """Stateless: every prediction is taken."""

    def supports(self, predictor: BranchPredictor) -> bool:
        return True

    @hot_path
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        return np.ones(end - start, dtype=bool), None


class _BimodalKernel:
    """PC-indexed 2-bit counters via the segmented composition scan."""

    def supports(self, predictor: BranchPredictor) -> bool:
        return predictor.counter_bits == 2

    @hot_path  # perf: allow(REPRO401, REPRO404): staging + plan-builder thunk, once per trace
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        entries = predictor.entries
        if end == start:
            return np.zeros(0, dtype=bool), None

        def build():
            idx = (pcs[start:end] & np.uint64(entries - 1)).astype(
                _index_dtype(entries)
            )
            return _CounterPlan(pcs, idx, outcomes[start:end])

        plan = _cached_plan(("bimodal", id(pcs), start, end, entries), pcs, build)
        table = _table_u8(predictor._table)
        preds = plan.run(table)
        predictor._table = table.tolist()
        return preds, None


class _GShareKernel:
    """History-XOR-PC indexed 2-bit counters.

    The global history register is outcome-only, so every event's index
    is known up front: pack per-event history windows, XOR with the PC,
    and the problem reduces to the bimodal scan.
    """

    def supports(self, predictor: BranchPredictor) -> bool:
        return predictor.history_bits <= 64

    @hot_path  # perf: allow(REPRO401, REPRO404): staging + plan-builder thunk, once per trace
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        entries = predictor.entries
        if end == start:
            return np.zeros(0, dtype=bool), None
        seed = predictor._history

        def build():
            outs = outcomes[start:end]
            history = packed_history_series(outs, predictor.history_bits, seed=seed)
            idx = ((pcs[start:end] ^ history) & np.uint64(entries - 1)).astype(
                _index_dtype(entries)
            )
            last = ((int(history[-1]) << 1) | int(outs[-1])) & predictor._history_mask
            return _CounterPlan(pcs, idx, outs, last_history=last)

        plan = _cached_plan(
            ("gshare", id(pcs), start, end, entries, predictor.history_bits, seed),
            pcs,
            build,
        )
        table = _table_u8(predictor._table)
        preds = plan.run(table)
        predictor._table = table.tolist()
        predictor._history = plan.last_history
        return preds, None


class _PerceptronKernel:
    """Row-lockstep replay of the global perceptron.

    Rows are independent once the ±1 history matrix is precomputed (the
    history is outcome-only), but *within* a row each event's update
    depends on the weights left by the previous one.  So the kernel
    advances all rows in lockstep: round k replays the k-th event of
    every row as one batched gather / dot / masked-update.  Rounds run
    to the deepest row; parallelism equals the number of live rows.
    """

    def supports(self, predictor: BranchPredictor) -> bool:
        return True

    @hot_path  # perf: allow(REPRO401, REPRO402): staging runs per round, not per event
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        n = end - start
        outs = outcomes[start:end]
        length = predictor.history_length
        hist = signed_history_matrix(outs, length, seed=predictor._history)
        rows = (pcs[start:end] & np.uint64(predictor._row_mask)).astype(np.int64)
        targets = outs.astype(np.int32) * 2 - 1
        theta = predictor.theta
        weights = predictor._weights  # int32 (rows, length+1), mutated in place

        order = np.argsort(rows, kind="stable")
        srows = rows[order]
        seg_start = np.empty(n, dtype=bool)
        if n:
            seg_start[0] = True
            np.not_equal(srows[1:], srows[:-1], out=seg_start[1:])
        positions = np.arange(n, dtype=np.int64)
        starts = np.where(seg_start, positions, 0)
        np.maximum.accumulate(starts, out=starts)
        pos = positions - starts
        # Events of round k (the k-th event of each row), in one slice.
        round_order = np.lexsort((order, pos))
        rounds = np.bincount(pos) if n else np.zeros(0, dtype=np.int64)

        preds = np.empty(n, dtype=bool)
        sums = np.empty(n, dtype=np.int64)
        offset = 0
        for count in rounds:
            sel = order[round_order[offset : offset + count]]
            offset += count
            rsel = rows[sel]
            w = weights[rsel]
            h = hist[sel]
            total = w[:, 0].astype(np.int64) + np.einsum(
                "ij,ij->i", w[:, 1:], h, dtype=np.int64
            )
            sums[sel] = total
            taken = outs[sel] == 1
            pred = total >= 0
            preds[sel] = pred
            update = (pred != taken) | (np.abs(total) <= theta)
            if np.any(update):
                usel = sel[update]
                urows = rsel[update]
                t = targets[usel]
                weights[urows, 0] = np.clip(weights[urows, 0] + t, -128, 127)
                updated = weights[urows, 1:] + t[:, None] * hist[usel]
                weights[urows, 1:] = np.clip(updated, -128, 127)

        if n:
            predictor._last_row = int(rows[n - 1])
            predictor._last_sum = int(sums[n - 1])
            tail = min(length, n)
            new_hist = np.empty(length, dtype=np.int32)
            new_hist[:tail] = targets[n - tail :][::-1]
            if tail < length:
                new_hist[tail:] = predictor._history[: length - tail]
            predictor._history = new_hist
        return preds, None




# ---------------------------------------------------------------------------
# Registry and dispatch
# ---------------------------------------------------------------------------

_REGISTRY: dict[type, object] = {}


def register_kernel(predictor_class: type, kernel: object) -> None:
    """Register ``kernel`` as the vectorized twin of ``predictor_class``.

    Matching is by exact class: a subclass that changes predict/train
    semantics must register (and validate) its own kernel.
    """
    _REGISTRY[predictor_class] = kernel


def kernel_for(predictor: BranchPredictor):
    """The registered kernel supporting this predictor instance, or None."""
    kernel = _REGISTRY.get(type(predictor))
    if kernel is not None and kernel.supports(predictor):
        return kernel
    return None


def has_vectorized_kernel(predictor: BranchPredictor) -> bool:
    return kernel_for(predictor) is not None


def _register_builtins() -> None:
    from repro.core.bfneural import BFNeural
    from repro.core.bftage import BFISLTage, BFTage
    from repro.predictors.gshare import GShare
    from repro.predictors.perceptron import GlobalPerceptron
    from repro.predictors.static_ import AlwaysTaken, Bimodal
    from repro.predictors.tage import ISLTage, Tage
    from repro.sim.bfkernel import BFNeuralKernel
    from repro.sim.tagekernel import TageKernel

    register_kernel(AlwaysTaken, _AlwaysTakenKernel())
    register_kernel(Bimodal, _BimodalKernel())
    register_kernel(GShare, _GShareKernel())
    register_kernel(GlobalPerceptron, _PerceptronKernel())
    register_kernel(BFNeural, BFNeuralKernel())
    tage_kernel = TageKernel()
    register_kernel(Tage, tage_kernel)
    register_kernel(ISLTage, tage_kernel)
    register_kernel(BFTage, tage_kernel)
    register_kernel(BFISLTage, tage_kernel)


# ---------------------------------------------------------------------------
# simulate_batch
# ---------------------------------------------------------------------------


def simulate_batch(
    predictor: BranchPredictor,
    trace: Trace,
    track_providers: bool = False,
    warmup_branches: int = 0,
    progress: Callable[[int], None] | None = None,
    resume_from: SimCheckpoint | None = None,
    stop_after: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[SimCheckpoint], None] | None = None,
    kernel: str = "auto",
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` through a vectorized kernel.

    Drop-in for :func:`repro.sim.simulate` — same parameters, same
    semantics (warmup exclusion, provider attribution, resume/stop cuts,
    streamed checkpoints at absolute multiples of ``checkpoint_every``)
    and bit-identical results — plus the ``kernel`` mode knob described
    in the module docstring.  ``progress`` callbacks fire at the same
    positions as the scalar loop, though only after the enclosing
    checkpoint segment has been replayed.
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(f"kernel must be one of {KERNEL_MODES}, got {kernel!r}")
    impl = kernel_for(predictor) if kernel != "scalar" else None
    if impl is None:
        if kernel == "vectorized":
            raise ValueError(
                f"no vectorized kernel supports {type(predictor).__name__} "
                f"(predictor {predictor.name!r}); use kernel='auto' or 'scalar'"
            )
        return simulate(
            predictor,
            trace,
            track_providers=track_providers,
            warmup_branches=warmup_branches,
            progress=progress,
            resume_from=resume_from,
            stop_after=stop_after,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    start, end, mispredictions, provider_hits, cut = _begin_run(
        predictor, trace, warmup_branches, resume_from, stop_after, checkpoint_every
    )
    pcs, outcomes = trace.arrays()
    total = len(pcs)

    # Segment boundaries: the scalar loop streams a cut whenever an
    # absolute position is a multiple of checkpoint_every (and not the
    # trace end); the kernel replays segment by segment so each cut sees
    # the predictor state at exactly that position.
    boundaries: list[int] = []
    stream_cuts = on_checkpoint is not None and checkpoint_every is not None
    if stream_cuts:
        first = ((start // checkpoint_every) + 1) * checkpoint_every
        boundaries = [p for p in range(first, end + 1, checkpoint_every) if p < total]
    if not boundaries or boundaries[-1] != end:
        boundaries.append(end)

    seg_start = start
    for seg_end in boundaries:
        preds, providers = impl.run(predictor, pcs, outcomes, seg_start, seg_end)
        seg_outs = outcomes[seg_start:seg_end] == 1
        measured_from = max(seg_start, warmup_branches) - seg_start
        if measured_from < len(preds):
            window = slice(measured_from, None)
            mispredictions += int(
                np.count_nonzero(preds[window] != seg_outs[window])
            )
            if track_providers:
                if providers is None:
                    name = predictor.name
                    provider_hits[name] = provider_hits.get(name, 0) + (
                        len(preds) - measured_from
                    )
                else:
                    codes, names = providers
                    counts = np.bincount(codes[window], minlength=len(names))
                    for name, count in zip(names, counts):
                        if count:
                            provider_hits[name] = provider_hits.get(name, 0) + int(count)
        if progress is not None:
            first_tick = ((seg_start + 9999) // 10000) * 10000
            for position in range(first_tick, seg_end, 10000):
                progress(position)
        if stream_cuts and seg_end != end:
            on_checkpoint(cut(seg_end, mispredictions))
        elif stream_cuts and seg_end == end and seg_end < total and seg_end % checkpoint_every == 0:
            on_checkpoint(cut(seg_end, mispredictions))
        seg_start = seg_end

    return _finish_run(
        predictor,
        trace,
        end,
        warmup_branches,
        mispredictions,
        provider_hits,
        resume_from is not None or stop_after is not None or checkpoint_every is not None,
        cut,
    )


_register_builtins()
