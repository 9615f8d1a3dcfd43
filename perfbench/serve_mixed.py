"""The ``serve-mixed`` workload: a prediction server under mixed load.

A ``repro serve-predict`` subprocess keeps its warm pool in a temporary
``--state-dir``.  The benchmark is a closed-loop client, as a front-end
that waits for its predictions before it goes on, with two connections
sending 1,024-event batches:

* connection A streams gshare sessions, bound by codec and transport;
* connection B alternates tage10 sessions (no vectorized kernel) with
  bf-neural sessions (bound by predict work).

Half the sessions of each predictor open warm on registry-named suite
traces, the other half open cold on the seeded traces.  Pool hydration
finishes during set-up, before timing starts.  B's predict work contends
with A for the server's interpreter lock, so freeing the server shows up
in gshare latency.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs, oracle
from perfbench.host import ROOT, SRC
from perfbench.stats import latency_summary, median, median_or_zero
from perfbench.tracer import Tracer, maybe_instrumented, maybe_span

CLASSES = ("gshare", "tage10", "bf-neural")
#: Connection A's and connection B's predictor rotation.
CONNECTIONS = (("gshare",), ("tage10", "bf-neural"))
#: Registry-named suite traces the warm sessions open on.
WARM_WORKLOADS = ("INT1", "FP2")
SERVER_START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeSpec:
    """Batch size, session length and warm prefix of ``serve-mixed``."""

    name: str = "serve-mixed"
    batch: int = 1_024
    session_batches: int = 4
    warmup: int = 2_000
    prefix: str = "serve"

    @property
    def session_events(self) -> int:
        return self.batch * self.session_batches

    def sizes(self) -> dict:
        return {
            "batch": self.batch,
            "session_batches": self.session_batches,
            "warmup": self.warmup,
        }


SERVE = ServeSpec()


@dataclass
class Phase:
    """What one timed phase measured (latencies in seconds)."""

    events: int = 0
    wall_s: float = 0.0
    events_per_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    latency: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in CLASSES})
    sessions: list[tuple[str, str, dict]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class ServeWorkload:
    """Set up, measure and check the ``serve-mixed`` workload."""

    #: Set-ups per run; each starts a server and hydrates its pool.
    setups = 4

    def __init__(self, spec: ServeSpec, seed: int, work: Path) -> None:
        from repro.orchestration.registry import standard_registry

        self.spec = spec
        self.seed = seed
        self.work = work
        registry = standard_registry()
        self.factories = {cls: registry[cls] for cls in CLASSES}
        self.cold: list = []
        self.warm: dict[str, object] = {}
        self.address: tuple[str, int] | None = None
        self._server: subprocess.Popen | None = None
        self._stderr = None
        self._starts = 0
        self.timings: dict[str, dict] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    # -------------------------------------------------------------- server

    def _start_server(self) -> None:
        self._starts += 1
        state_dir = self.work / f"state{self._starts}"
        shutil.rmtree(state_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._stderr = (self.work / "server.err").open("ab")
        self._server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve-predict",
                "--port", "0",
                "--state-dir", str(state_dir),
                "--warmup", str(self.spec.warmup),
                "--branches", str(self.spec.warmup + self.spec.session_events),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        ready, _, _ = select.select([self._server.stdout], [], [], SERVER_START_TIMEOUT_S)
        banner = self._server.stdout.readline() if ready else ""
        if "serving predictions on" not in banner:
            self._stop_server()
            errors = (self.work / "server.err").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"server did not start (banner {banner!r}):\n{errors}")
        host, _, port = banner.rsplit(" ", 1)[1].strip().rpartition(":")
        self.address = (host, int(port))

    def _stop_server(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        self._stderr.close()

    def close(self) -> None:
        self._stop_server()
        shutil.rmtree(self.work, ignore_errors=True)

    # --------------------------------------------------------------- setup

    def setup(self, tracer: Tracer | None) -> float:
        """Generate traces, start a server and hydrate its warm pool.

        Returns the set-up time, excluding the stop of the previous
        server when set-up is repeated.
        """
        from repro.serving.client import PredictClient
        from repro.workloads import build_trace

        self._stop_server()
        self.work.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with maybe_span(tracer, "workloads.generate"):
            self.cold = inputs.seeded_traces(
                self.seed, self.spec.session_events, self.spec.prefix
            )
            # The suite generator finishes its last scene, so the pool's
            # trace runs past the budget; sessions stream up to the budget.
            budget = self.spec.warmup + self.spec.session_events
            self.warm = {
                name: build_trace(name, budget).truncated(budget) for name in WARM_WORKLOADS
            }
        self._start_server()
        with PredictClient(self.address, client_id="perfbench-hydrate") as client:
            for cls in CLASSES:
                for name in WARM_WORKLOADS:
                    opened = client.open_session(cls, name, warm=True)
                    client.close_session(str(opened["session"]))
        return time.perf_counter() - start

    def describe(self) -> dict:
        traces = [*self.cold, *self.warm.values()]
        return {
            "trace_sizes": {trace.name: len(trace) for trace in traces},
            "trace_fingerprints": inputs.fingerprints(traces),
        }

    # ------------------------------------------------------------- measure

    def _kind(self, index: int) -> tuple[bool, object]:
        """The ``index``-th session of a predictor: warm and cold alternate."""
        if index % 2 == 0:
            name = WARM_WORKLOADS[(index // 2) % len(WARM_WORKLOADS)]
            return True, self.warm[name]
        return False, self.cold[(index // 2) % len(self.cold)]

    def _session(self, client, cls: str, warm: bool, trace, phase: Phase, lock, tracer) -> None:
        from repro.serving.client import ServeError

        failures = (ServeError, ConnectionError, OSError)
        clock = time.perf_counter
        batch = self.spec.batch
        latencies: list[float] = []
        done = 0
        attempted = failed = 0
        summary = None
        opening = f"{cls}|open|{'warm' if warm else 'cold'}"
        with maybe_span(tracer, "bench.session", tag=cls):
            try:
                attempted += 1
                with maybe_span(tracer, "bench.open", tag=opening):
                    opened = client.open_session(cls, trace.name, warm=warm)
                session = str(opened["session"])
                pcs, outcomes = trace.pcs, trace.outcomes
                for lo in range(int(opened["position"]), len(pcs), batch):
                    hi = min(lo + batch, len(pcs))
                    attempted += 1
                    begin = clock()
                    with maybe_span(tracer, "bench.batch", tag=f"{cls}|events"):
                        client.send_events(session, pcs[lo:hi], outcomes[lo:hi])
                    latencies.append(clock() - begin)
                    done += hi - lo
                attempted += 1
                with maybe_span(tracer, "bench.close", tag=f"{cls}|close"):
                    summary = client.close_session(session)
            except failures:
                failed += 1
                latencies.append(float("inf"))
        with lock:
            phase.latency[cls] += latencies
            phase.events += done
            phase.attempted += attempted
            phase.failed += failed
            if summary is not None:
                phase.sessions.append((cls, trace.name, summary))

    def measure(self, seconds: float, tracer: Tracer | None) -> Phase:
        """Run both connections closed-loop for ``seconds``; a session
        started before the deadline runs to its end."""
        from repro.serving import client as client_module
        from repro.serving.client import PredictClient

        phase = Phase()
        lock = threading.Lock()
        errors: list[BaseException] = []
        deadline = time.perf_counter() + seconds

        def drive(index: int, rotation: tuple[str, ...]) -> None:
            try:
                with PredictClient(self.address, client_id=f"perfbench-{index}") as client:
                    count = 0
                    while time.perf_counter() < deadline:
                        cls = rotation[count % len(rotation)]
                        warm, trace = self._kind(count // len(rotation))
                        self._session(client, cls, warm, trace, phase, lock, tracer)
                        count += 1
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        targets = []
        if tracer is not None:
            targets = [
                (PredictClient, "open_session", "client.open"),
                (PredictClient, "send_events", "client.events"),
                (PredictClient, "close_session", "client.close"),
                (client_module, "send_message", "remote.send"),
                (client_module, "recv_message", "remote.recv"),
            ]
        begin = time.perf_counter()
        with maybe_instrumented(tracer, targets):
            threads = [
                threading.Thread(target=drive, args=(index, rotation))
                for index, rotation in enumerate(CONNECTIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        phase.wall_s = time.perf_counter() - begin
        if errors:
            raise errors[0]
        phase.events_per_s = phase.events / phase.wall_s
        phase.op_s = [value for values in phase.latency.values() for value in values]
        return phase

    # --------------------------------------------------------------- check

    def oracle_inputs(self) -> tuple[dict, list, dict[str, int]]:
        """Factories, traces and cut positions for the oracle: a warm
        trace is cut where the pool's checkpoint ends, so the tail of the
        replay is the streamed part; a cold trace is streamed whole."""
        cuts = {trace.name: 0 for trace in self.cold}
        cuts.update({name: self.spec.warmup for name in self.warm})
        return self.factories, [*self.warm.values(), *self.cold], cuts

    def check(self, phases: list[Phase], tracer: Tracer | None) -> oracle.Verdict:
        """Every session summary against offline ``simulate()`` over the
        same events: a warm session against a straight run over its whole
        trace, because the warm checkpoint accounts for the prefix."""
        expects, self.timings, verdict = oracle.expectations(self, tracer)
        streamed = self.spec.session_events
        for phase in phases:
            for cls, trace_name, summary in phase.sessions:
                key = f"{cls}|{trace_name}"
                problems = oracle.compare(
                    key,
                    {
                        "mispredictions": summary.get("mispredictions"),
                        "state_hash": summary.get("state_hash"),
                    },
                    expects[key],
                )
                if summary.get("events") != streamed:
                    problems.append(f"{key}: served {summary.get('events')} of {streamed} events")
                verdict.judge(problems)
        return verdict

    # -------------------------------------------------------------- layers

    def layer_metrics(self, untraced: Phase, traced: Phase, tracer: Tracer) -> dict[str, float]:
        from repro.serving.client import PredictClient
        from repro.sim.simulator import simulate

        metrics: dict[str, float] = {}
        metrics["workloads.generate_s"] = median(tracer.durations("workloads.generate"))
        for cls in CLASSES:
            summary = latency_summary(untraced.latency[cls])
            metrics[f"serve.batch_p50_ms.{cls}"] = summary["p50"] * 1e3
            metrics[f"serve.batch_tail_ms.{cls}"] = summary["tail"] * 1e3
            tag = f"{cls}|events"
            sends = tracer.durations("remote.send", tag)
            metrics[f"serve.send_ms.{cls}"] = 1e3 * median_or_zero(sends)
            waits = tracer.durations("remote.recv", tag)
            metrics[f"serve.turnaround_ms.{cls}"] = 1e3 * median_or_zero(waits)
            timing = self.timings[cls]
            metrics[f"serve.offline_predict_ms.{cls}"] = 1e3 * median(
                seconds / self.spec.session_batches for seconds in timing["tail_s"]
            )
            metrics[f"sim.events_per_s.{cls}"] = timing["events"] / timing["sim_s"]
            metrics[f"predictor.predict_s.{cls}"] = tracer.total(f"predictor.predict.{cls}")[0]
            metrics[f"predictor.train_s.{cls}"] = tracer.total(f"predictor.train.{cls}")[0]
            predictor = self.factories[cls]()
            simulate(predictor, self.cold[0])
            hashes = []
            for _ in range(5):
                start = time.perf_counter()
                predictor.state_hash()
                hashes.append(time.perf_counter() - start)
            metrics[f"predictor.state_hash_ms.{cls}"] = 1e3 * median(hashes)
        opens = [span for span in tracer.spans if span.name == "client.open"]
        for kind in ("warm", "cold"):
            metrics[f"serve.open_ms.{kind}"] = 1e3 * median_or_zero(
                span.duration for span in opens if span.tag.endswith(f"|{kind}")
            )
        metrics["serve.close_ms"] = 1e3 * median_or_zero(tracer.durations("client.close"))
        metrics["serve.bytes_per_event"] = self._bytes_per_event()
        with PredictClient(self.address, client_id="perfbench-stats") as client:
            pool = client.pool_stats or {}
        hydrations = float(pool.get("hydrations", 0))
        hits = float(pool.get("hits", 0))
        metrics["pool.hydrations"] = hydrations
        metrics["pool.hit_ratio"] = hits / (hits + hydrations) if hits + hydrations else 0.0
        return metrics

    def _bytes_per_event(self) -> float:
        """JSON body bytes of one events request plus its reply, per event."""
        trace = self.cold[0]
        size = self.spec.batch
        request = {
            "type": "events",
            "session": "S1",
            "pcs": trace.pcs[:size],
            "outcomes": [1 if taken else 0 for taken in trace.outcomes[:size]],
        }
        reply = {
            "type": "predictions",
            "session": "S1",
            "predictions": [1] * size,
            "mispredictions": size,
            "position": size,
        }
        body = len(json.dumps(request).encode()) + len(json.dumps(reply).encode())
        return body / size
