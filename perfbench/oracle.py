"""The scalar ``simulate()`` oracle every benchmark output is checked against.

For each (predictor config, trace) the oracle replays the trace through
``repro.sim.simulate`` with one cut: it records the mispredictions and
state hash at the cut and at the end.  Campaigns expose their state only
through streamed checkpoints, so campaign checks compare the cut; served
sessions return their final state, so serving checks compare the end.

In the traced run the oracle also drives the predict/train loop itself,
timing every call and charging the sums (never one span per event) to
``predictor.predict.<cfg>`` and ``predictor.train.<cfg>``.

``pinned.json`` holds the oracle's digests for the default seed, so a run
on that seed also catches a change that moves the program and the oracle
together.  Other seeds recompute the oracle.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from perfbench.tracer import Tracer, maybe_span

DEFAULT_SEED = 0
PINS = Path(__file__).resolve().parent / "pinned.json"


@dataclass(frozen=True)
class Expect:
    """What the oracle says one (config, trace) cell must produce."""

    mispredictions: int
    state_hash: str
    cut_position: int
    cut_mispredictions: int
    cut_hash: str


@dataclass(frozen=True)
class Replay:
    """One oracle replay and how long its two segments took."""

    expect: Expect
    head_s: float
    tail_s: float


@dataclass
class Verdict:
    """The outcome of checking a run's outputs against the oracle."""

    #: Operations the check itself ran (outside the timed phase).
    ops: int = 0
    #: Outputs that disagree with the oracle or were never produced.
    failures: int = 0
    problems: list[str] = field(default_factory=list)

    def judge(self, problems: list[str]) -> None:
        """Count one output as failed when it has any problem."""
        if problems:
            self.failures += 1
            self.problems += problems


def replay(factory, trace, cut: int) -> Replay:
    """Simulate ``trace`` scalar, cutting at ``cut`` (0 < cut < len)."""
    from repro.sim.simulator import simulate

    predictor = factory()
    start = time.perf_counter()
    head = simulate(predictor, trace, stop_after=cut)
    middle = time.perf_counter()
    tail = simulate(predictor, trace, resume_from=head.checkpoint)
    end = time.perf_counter()
    expect = Expect(
        mispredictions=tail.mispredictions,
        state_hash=predictor.state_hash(),
        cut_position=cut,
        cut_mispredictions=head.checkpoint.mispredictions,
        cut_hash=head.checkpoint.state_hash(),
    )
    return Replay(expect, middle - start, end - middle)


def timed_loop(predictor, trace) -> tuple[int, float, float]:
    """Predict-then-train over ``trace``, timing every call.

    Returns ``(mispredictions, predict seconds, train seconds)``; the
    per-call clock reads are the tracing cost of this boundary.
    """
    predict = predictor.predict
    train = predictor.train
    clock = time.perf_counter
    mispredictions = 0
    predict_s = 0.0
    train_s = 0.0
    for pc, taken in zip(trace.pcs, trace.outcomes):
        t0 = clock()
        prediction = predict(pc)
        t1 = clock()
        train(pc, taken)
        t2 = clock()
        predict_s += t1 - t0
        train_s += t2 - t1
        if prediction != taken:
            mispredictions += 1
    return mispredictions, predict_s, train_s


def compute(
    factories: dict, traces, cuts: dict[str, int], tracer: Tracer | None
) -> tuple[dict[str, Expect], dict[str, dict], list[str]]:
    """Replay every (config, trace) cell; key cells as ``cfg|trace``.

    Returns the expectations, per-config timings (simulate seconds and
    events; in the traced run also predict/train seconds) and any
    disagreement between the timed loop and ``simulate``.
    """
    expects: dict[str, Expect] = {}
    timings: dict[str, dict] = {}
    problems: list[str] = []
    for cfg, factory in factories.items():
        timing = timings.setdefault(cfg, {"sim_s": 0.0, "events": 0, "tail_s": []})
        for trace in traces:
            key = f"{cfg}|{trace.name}"
            with maybe_span(tracer, "sim.simulate", tag=cfg):
                done = replay(factory, trace, cuts[trace.name])
            expects[key] = done.expect
            timing["sim_s"] += done.head_s + done.tail_s
            timing["events"] += len(trace)
            timing["tail_s"].append(done.tail_s)
            if tracer is None:
                continue
            predictor = factory()
            with tracer.span("bench.timed_loop", tag=cfg):
                misses, predict_s, train_s = timed_loop(predictor, trace)
                tracer.add(f"predictor.predict.{cfg}", predict_s, len(trace))
                tracer.add(f"predictor.train.{cfg}", train_s, len(trace))
            if misses != done.expect.mispredictions or (
                predictor.state_hash() != done.expect.state_hash
            ):
                problems.append(f"{key}: timed loop disagrees with simulate()")
    return expects, timings, problems


def expectations(workload, tracer: Tracer | None) -> tuple[dict[str, Expect], dict, Verdict]:
    """Oracle expectations: pinned for the default seed, else computed.

    ``workload`` supplies ``name``, ``seed``, ``spec.sizes()`` and
    ``oracle_inputs()``.  The traced run always computes the oracle,
    because its per-layer timings come from it, and on the default seed
    also checks the pins.  Returns the expectations, the oracle timings
    (empty when pinned) and a verdict holding any drift or disagreement.
    """
    from perfbench.inputs import fingerprints

    factories, traces, cuts = workload.oracle_inputs()
    verdict = Verdict()
    pins = None
    if workload.seed == DEFAULT_SEED:
        pins = load_pins(workload.name, workload.spec.sizes())
    if pins is not None:
        for name, fp in fingerprints(traces).items():
            if pins["traces"].get(name) != fp:
                verdict.judge([f"{name}: input drifted from its pinned fingerprint"])
        if tracer is None:
            return pinned_expects(pins), {}, verdict
    expects, timings, problems = compute(factories, traces, cuts, tracer)
    for problem in problems:
        verdict.judge([problem])
    if pins is not None:
        for key, want in pinned_expects(pins).items():
            if expects.get(key) != want:
                verdict.judge([f"{key}: oracle disagrees with its pinned digest"])
    return expects, timings, verdict


def load_pins(workload: str, sizes: dict) -> dict | None:
    """The pinned block for ``workload`` if it was pinned at ``sizes``."""
    if not PINS.is_file():
        return None
    block = json.loads(PINS.read_text()).get(workload)
    if block is None or block.get("sizes") != sizes:
        return None
    return block


def pinned_expects(block: dict) -> dict[str, Expect]:
    return {key: Expect(**value) for key, value in block["expect"].items()}


def pin_block(sizes: dict, trace_fps: dict[str, str], expects: dict[str, Expect]) -> dict:
    """The JSON block ``perfbench/pin.py`` writes for one workload."""
    return {
        "sizes": sizes,
        "traces": trace_fps,
        "expect": {key: asdict(value) for key, value in sorted(expects.items())},
    }


def compare(key: str, got: dict, want: Expect) -> list[str]:
    """Mismatch messages for the fields of ``want`` present in ``got``."""
    problems = []
    for name, value in got.items():
        expected = getattr(want, name)
        if value != expected:
            problems.append(f"{key}: {name} {value!r} != oracle {expected!r}")
    return problems
