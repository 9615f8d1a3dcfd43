"""The trace-driven simulation loop.

Mirrors the CBP-4 discipline: for every committed conditional branch the
predictor is asked for a direction, then immediately trained with the
resolved outcome.  Mispredictions are counted and reported as MPKI over
the trace's instruction count.

The loop is segmentable: ``stop_after`` cuts a run at an absolute branch
position and attaches a :class:`~repro.sim.metrics.SimCheckpoint` to the
partial result, ``resume_from`` continues from such a cut, and
``checkpoint_every`` streams periodic cuts to ``on_checkpoint`` (the
campaign engine persists them in its state store).  The invariant —
enforced by ``tests/test_state.py`` for every registered predictor — is
that any chain of segments is bit-identical to a straight-through run:
same MPKI, same provider hits, same final predictor state hash.
"""

from __future__ import annotations

from typing import Callable

from repro.predictors.base import BranchPredictor, hot_path
from repro.sim.metrics import SimCheckpoint, SimulationResult
from repro.trace.records import Trace


@hot_path
def _run_counting(
    predict: Callable[[int], bool],
    train: Callable[[int, bool], None],
    pcs,
    outcomes,
    start: int,
    end: int,
) -> int:
    """Fast inner loop: every branch measured, nothing tracked but misses.

    Taken when no warmup exclusion, provider attribution, progress
    callback or streamed checkpointing is requested — the common case for
    sweeps — so the per-branch work is exactly predict/compare/train.
    """
    mispredictions = 0
    for position in range(start, end):
        pc = pcs[position]
        taken = outcomes[position]
        if predict(pc) != taken:
            mispredictions += 1
        train(pc, taken)
    return mispredictions


@hot_path
def _run_tracked(
    predictor: BranchPredictor,
    pcs,
    outcomes,
    start: int,
    end: int,
    total: int,
    mispredictions: int,
    provider_hits: dict[str, int],
    warmup_branches: int,
    track_providers: bool,
    progress: Callable[[int], None] | None,
    checkpoint_every: int | None,
    on_checkpoint: Callable[[SimCheckpoint], None] | None,
    cut: Callable[[int, int], SimCheckpoint],
) -> int:
    """General inner loop: warmup, provider attribution, progress, cuts."""
    predict = predictor.predict
    train = predictor.train
    provider_get = provider_hits.get
    stream_cuts = on_checkpoint is not None and checkpoint_every is not None
    for position in range(start, end):
        pc = pcs[position]
        taken = outcomes[position]
        prediction = predict(pc)
        if position >= warmup_branches:
            if prediction != taken:
                mispredictions += 1
            if track_providers:
                # perf: allow(REPRO402): provider is a per-event property, not hoistable
                provider = predictor.provider
                provider_hits[provider] = provider_get(provider, 0) + 1
        train(pc, taken)
        if progress is not None and position % 10000 == 0:
            progress(position)
        if stream_cuts and (position + 1) % checkpoint_every == 0 and position + 1 < total:
            on_checkpoint(cut(position + 1, mispredictions))
    return mispredictions


def _begin_run(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_branches: int,
    resume_from: SimCheckpoint | None,
    stop_after: int | None,
    checkpoint_every: int | None,
) -> tuple[int, int, int, dict[str, int], Callable[[int, int], SimCheckpoint]]:
    """Validate a run's arguments and restore its resume point.

    Shared by :func:`simulate` and ``repro.sim.batchkernel.simulate_batch``
    so the two entry points cannot drift.  Returns ``(start, end,
    mispredictions, provider_hits, cut)``: the absolute branch span to
    replay, the counters carried over from ``resume_from``, and
    ``cut(position, mispredicted)``, which snapshots a checkpoint.  The
    caller updates ``provider_hits`` in place, so every cut sees the
    counts at its position.
    """
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")

    total = len(trace)
    start = 0
    mispredictions = 0
    provider_hits: dict[str, int] = {}
    if resume_from is not None:
        if resume_from.trace_name and resume_from.trace_name != trace.name:
            raise ValueError(
                f"checkpoint was cut from trace {resume_from.trace_name!r}, "
                f"cannot resume over {trace.name!r}"
            )
        if not 0 <= resume_from.position <= total:
            raise ValueError(
                f"checkpoint position {resume_from.position} outside trace "
                f"of {total} branches"
            )
        predictor.restore(resume_from.predictor_state)
        start = resume_from.position
        mispredictions = resume_from.mispredictions
        provider_hits = dict(resume_from.provider_hits)

    end = total if stop_after is None else min(stop_after, total)
    if end < start:
        raise ValueError(f"stop_after={stop_after} is before resume position {start}")

    def cut(position: int, mispredicted: int) -> SimCheckpoint:
        return SimCheckpoint(
            position=position,
            mispredictions=mispredicted,
            provider_hits=dict(provider_hits),
            predictor_state=predictor.snapshot(),
            trace_name=trace.name,
        )

    return start, end, mispredictions, provider_hits, cut


def _finish_run(
    predictor: BranchPredictor,
    trace: Trace,
    end: int,
    warmup_branches: int,
    mispredictions: int,
    provider_hits: dict[str, int],
    segmented: bool,
    cut: Callable[[int, int], SimCheckpoint],
) -> SimulationResult:
    """The result of a run that stopped at ``end``.

    Only the measured (post-warmup) branches count, and the instruction
    count is rescaled to match.  A ``segmented`` run also carries the
    checkpoint at ``end``.
    """
    total = len(trace)
    measured = max(0, end - warmup_branches)
    instructions = trace.instruction_count
    if total and measured != total:
        instructions = max(1, round(instructions * measured / total))
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        branches=measured,
        instructions=instructions,
        mispredictions=mispredictions,
        provider_hits=provider_hits,
        checkpoint=cut(end, mispredictions) if segmented else None,
    )


def simulate(
    predictor: BranchPredictor,
    trace: Trace,
    track_providers: bool = False,
    warmup_branches: int = 0,
    progress: Callable[[int], None] | None = None,
    resume_from: SimCheckpoint | None = None,
    stop_after: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[SimCheckpoint], None] | None = None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return the result.

    ``warmup_branches`` predictions at the start train the predictor but
    are excluded from the misprediction *and* provider counts (the
    paper's short traces are measured cold, so experiments leave this
    at 0).

    ``track_providers`` additionally records which component of the
    predictor supplied each prediction (needed only for Figure 12; it
    costs one attribute read per branch).

    Segmentation parameters:

    * ``resume_from`` — a checkpoint from an earlier segment of the same
      trace; the predictor state is restored and counters continue from
      its absolute position.
    * ``stop_after`` — absolute branch position (exclusive) at which to
      cut; the partial result carries ``result.checkpoint``.
    * ``checkpoint_every`` / ``on_checkpoint`` — stream a checkpoint
      every N absolute branches (positions are multiples of N regardless
      of where the segment started, so resumed runs cut at the same
      places a straight run would).
    """
    start, end, mispredictions, provider_hits, cut = _begin_run(
        predictor, trace, warmup_branches, resume_from, stop_after, checkpoint_every
    )
    pcs = trace.pcs
    outcomes = trace.outcomes

    fast = (
        warmup_branches == 0
        and not track_providers
        and progress is None
        and (on_checkpoint is None or checkpoint_every is None)
    )
    if fast:
        mispredictions += _run_counting(
            predictor.predict, predictor.train, pcs, outcomes, start, end
        )
    else:
        mispredictions = _run_tracked(
            predictor,
            pcs,
            outcomes,
            start,
            end,
            len(pcs),
            mispredictions,
            provider_hits,
            warmup_branches,
            track_providers,
            progress,
            checkpoint_every,
            on_checkpoint,
            cut,
        )

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
