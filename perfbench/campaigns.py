"""The two campaign workloads: ``campaign-paper`` and ``campaign-kernel``.

Both write their three seeded traces as BFBP v2 files and run the same
grid again and again through ``repro.orchestration.engine.run_plan``,
each repetition into a cold ``ResultStore``, until the measuring time is
up.  ``campaign-paper`` runs the paper's contenders on two worker
processes with ``kernel="auto"``: almost all of its time is scalar
per-event predictor code, BF-TAGE's history folding first.
``campaign-kernel`` runs the four kernel-backed predictors serially on
ten times longer traces with ``kernel="vectorized"``: almost all of its
time is kernel plan building and numpy replay, with no worker IPC and
short cells.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs, oracle
from perfbench.stats import median
from perfbench.tracer import Tracer, maybe_instrumented, maybe_span


@dataclass(frozen=True)
class CampaignSpec:
    """The grid and sizes of one campaign workload."""

    name: str
    configs: tuple[str, ...]
    branches: int
    jobs: int
    kernel: str
    prefix: str

    def sizes(self) -> dict:
        return {"configs": list(self.configs), "branches": self.branches}


PAPER = CampaignSpec(
    name="campaign-paper",
    configs=("bf-tage10", "tage10", "isl-tage10", "bf-neural", "oh-snap"),
    branches=4_000,
    jobs=2,
    kernel="auto",
    prefix="paper",
)

KERNEL = CampaignSpec(
    name="campaign-kernel",
    configs=("bimodal", "gshare", "perceptron", "bf-neural"),
    branches=40_000,
    jobs=1,
    kernel="vectorized",
    prefix="kernel",
)


@dataclass
class Repetition:
    """One ``run_plan`` call of the timed phase."""

    wall_s: float
    results: dict
    task_s: list[float] = field(default_factory=list)
    retries: int = 0


@dataclass
class Phase:
    """What one timed phase measured; an operation is one whole campaign,
    the wait a user has for results."""

    events_per_s: float
    op_s: list[float]
    attempted: int
    failed: int
    reps: list[Repetition]


class CampaignWorkload:
    """Set up, measure and check one campaign workload."""

    #: Set-ups per run; set-up takes a fraction of a second.
    setups = 8

    def __init__(self, spec: CampaignSpec, seed: int, work: Path) -> None:
        from repro.orchestration.registry import standard_registry

        self.spec = spec
        self.seed = seed
        self.work = work
        registry = standard_registry()
        self.factories = {cfg: registry[cfg] for cfg in spec.configs}
        self.traces: list = []
        self.paths: list[Path] = []
        self._reps_made = 0
        self.timings: dict[str, dict] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -------------------------------------------------------------- setup

    def setup(self, tracer: Tracer | None) -> float:
        """Generate the seeded traces and write them as BFBP v2 files;
        returns the time taken."""
        start = time.perf_counter()
        with maybe_span(tracer, "workloads.generate"):
            traces = inputs.seeded_traces(self.seed, self.spec.branches, self.spec.prefix)
        with maybe_span(tracer, "trace.encode"):
            self.paths = inputs.write_bfbp(traces, self.work / "inputs")
        self.traces = traces
        return time.perf_counter() - start

    def describe(self) -> dict:
        return {
            "trace_sizes": {trace.name: len(trace) for trace in self.traces},
            "trace_fingerprints": inputs.fingerprints(self.traces),
        }

    # ------------------------------------------------------------ measure

    def _plan(self, directory: Path, **extra):
        from repro.orchestration.engine import CampaignPlan
        from repro.orchestration.tasks import TraceSpec

        return CampaignPlan(
            factories=dict(self.factories),
            traces=[TraceSpec.from_file(path) for path in self.paths],
            jobs=self.spec.jobs,
            kernel=self.spec.kernel,
            store_dir=directory / "store",
            allow_failures=True,
            **extra,
        )

    def _fresh_dir(self) -> Path:
        self._reps_made += 1
        directory = self.work / f"rep{self._reps_made}"
        shutil.rmtree(directory, ignore_errors=True)
        return directory

    def _run(self, plan, tracer: Tracer | None) -> Repetition:
        from repro.orchestration.engine import run_plan
        from repro.orchestration.telemetry import Telemetry

        rep = Repetition(wall_s=0.0, results={})

        def collect(event: dict) -> None:
            kind = event["event"]
            if kind == "task_finish":
                rep.task_s.append(float(event["elapsed_s"]))
            elif kind == "worker_restart" or (kind == "task_failed" and not event.get("final")):
                rep.retries += 1

        with Telemetry() as telemetry:
            telemetry.subscribe(collect)
            start = time.perf_counter()
            with maybe_span(tracer, "engine.run_plan"):
                rep.results = run_plan(plan, telemetry)
            rep.wall_s = time.perf_counter() - start
        return rep

    def measure(self, seconds: float, tracer: Tracer | None) -> Phase:
        """Repeat the campaign into cold stores until ``seconds`` pass."""
        from repro.orchestration import engine, scheduler
        from repro.orchestration.store import ResultStore

        targets = []
        if tracer is not None:
            targets = [
                (engine, "build_tasks", "engine.build_tasks"),
                (scheduler, "execute_tasks", "scheduler.execute_tasks"),
                (ResultStore, "store", "store.write"),
            ]
        cells = len(self.spec.configs) * len(self.paths)
        events = cells * self.spec.branches
        reps: list[Repetition] = []
        deadline = time.perf_counter() + seconds
        with maybe_instrumented(tracer, targets):
            while not reps or time.perf_counter() < deadline:
                directory = self._fresh_dir()
                reps.append(self._run(self._plan(directory), tracer))
                shutil.rmtree(directory, ignore_errors=True)
        failed = sum(
            1 for rep in reps for results in rep.results.values() for r in results if r is None
        )
        return Phase(
            events_per_s=median(events / rep.wall_s for rep in reps),
            op_s=[rep.wall_s for rep in reps],
            attempted=cells * len(reps),
            failed=failed,
            reps=reps,
        )

    # -------------------------------------------------------------- check

    def check(self, phases: list[Phase], tracer: Tracer | None) -> oracle.Verdict:
        """Compare every cell of every repetition with the oracle.

        Mispredictions are compared for every timed cell.  State is
        compared on one extra checkpointed campaign of the same grid,
        outside the timed phase: with ``checkpoint_every = L - 1`` each
        cell streams one cut, one event before its end, into a state
        store, and the cut's position, mispredictions and state hash must
        equal the oracle's at that position.  (The engine reports no
        final state, so the last cut is the nearest state it exposes.)
        """
        from repro.orchestration.engine import build_tasks
        from repro.orchestration.statestore import StateStore

        expects, self.timings, verdict = oracle.expectations(self, tracer)
        for phase in phases:
            for rep in phase.reps:
                for cfg, results in rep.results.items():
                    for trace, result in zip(self.traces, results):
                        if result is None:
                            continue  # counted as failed by the phase
                        key = f"{cfg}|{trace.name}"
                        verdict.judge(oracle.compare(
                            key, {"mispredictions": result.mispredictions}, expects[key]
                        ))

        directory = self._fresh_dir()
        cut = self.spec.branches - 1
        plan = self._plan(directory, state_dir=directory / "state", checkpoint_every=cut)
        rep = self._run(plan, None)
        states = StateStore(directory / "state")
        names = [trace.name for trace in self.traces]
        for task in build_tasks(plan):
            key = f"{task.config_name}|{task.trace.name}"
            verdict.ops += 1
            result = rep.results[task.config_name][names.index(task.trace.name)]
            checkpoint = states.latest(task.fingerprint)
            if result is None or checkpoint is None:
                verdict.judge([f"{key}: checkpointed cell produced no result or cut"])
                continue
            verdict.judge(oracle.compare(
                key,
                {
                    "mispredictions": result.mispredictions,
                    "cut_position": checkpoint.position,
                    "cut_mispredictions": checkpoint.mispredictions,
                    "cut_hash": checkpoint.state_hash(),
                },
                expects[key],
            ))
        shutil.rmtree(directory, ignore_errors=True)
        return verdict

    def oracle_inputs(self) -> tuple[dict, list, dict[str, int]]:
        """Factories, traces and per-trace cut positions for the oracle."""
        return self.factories, self.traces, {t.name: self.spec.branches - 1 for t in self.traces}

    # ------------------------------------------------------------- layers

    def layer_metrics(self, untraced: Phase, traced: Phase, tracer: Tracer) -> dict[str, float]:
        """Per-layer numbers: from the traced phase, the oracle timings
        and two probes (trace decode; first versus repeat kernel call)."""
        metrics: dict[str, float] = {}
        metrics["workloads.generate_s"] = median(tracer.durations("workloads.generate"))
        metrics["trace.encode_s"] = median(tracer.durations("trace.encode"))
        metrics.update(self._decode_probe(tracer))
        for cfg, timing in self.timings.items():
            metrics[f"sim.events_per_s.{cfg}"] = timing["events"] / timing["sim_s"]
            metrics[f"predictor.predict_s.{cfg}"] = tracer.total(f"predictor.predict.{cfg}")[0]
            metrics[f"predictor.train_s.{cfg}"] = tracer.total(f"predictor.train.{cfg}")[0]
        metrics.update(self._kernel_probe(tracer))
        reps = traced.reps
        metrics["campaign.plan_s"] = median(tracer.durations("engine.build_tasks"))
        metrics["campaign.task_s.max"] = median(max(rep.task_s, default=0.0) for rep in reps)
        metrics["campaign.busy_share"] = median(
            sum(rep.task_s) / (self.spec.jobs * rep.wall_s) for rep in reps
        )
        metrics["campaign.retries"] = float(sum(rep.retries for rep in reps))
        metrics["store.write_s"] = sum(tracer.durations("store.write")) / len(reps)
        return metrics

    def _decode_probe(self, tracer: Tracer) -> dict[str, float]:
        from repro.trace.io import read_trace

        for _ in range(3):
            with tracer.span("trace.decode"):
                for path in self.paths:
                    read_trace(path)
        size = sum(path.stat().st_size for path in self.paths)
        return {
            "trace.decode_s": median(tracer.durations("trace.decode")),
            "trace.bytes_per_event": size / sum(len(trace) for trace in self.traces),
        }

    def _kernel_probe(self, tracer: Tracer) -> dict[str, float]:
        """First versus repeat ``simulate_batch`` on one fresh trace object:
        the difference is plan building (and the typed-array conversion),
        the repeat is replay."""
        from repro.sim.batchkernel import has_vectorized_kernel, simulate_batch
        from repro.trace.io import read_trace

        metrics: dict[str, float] = {}
        for cfg, factory in self.factories.items():
            if not has_vectorized_kernel(factory()):
                continue
            for path in self.paths:
                trace = read_trace(path)
                for name in ("kernel.first", "kernel.repeat"):
                    with tracer.span(name, tag=cfg):
                        simulate_batch(factory(), trace, kernel="vectorized")
            first_s = sum(tracer.durations("kernel.first", cfg))
            repeat_s = sum(tracer.durations("kernel.repeat", cfg))
            metrics[f"kernel.plan_build_s.{cfg}"] = first_s - repeat_s
            metrics[f"kernel.replay_s.{cfg}"] = repeat_s
        return metrics
