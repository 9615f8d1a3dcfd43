"""Lease-based campaign coordinator: one manifest, many executors.

The :class:`Coordinator` turns a :class:`~repro.orchestration.engine.
CampaignPlan` into a work-stealing queue served over the length-prefixed
JSON protocol of :mod:`repro.orchestration.remote`, on the protocol
server it shares with the prediction service
(:mod:`repro.orchestration.netserver`).  Executors (same
host or SSH-reachable peers sharing the store filesystem) claim
*leases* on tasks; a lease expires if the executor neither renews nor
completes it within ``lease_ttl`` seconds, returning the task to the
queue so a killed executor's work is re-claimed — and, because tasks
carry their ``state_dir``, resumed from the last checkpoint the dead
executor streamed into the shared StateStore rather than from branch
zero.

The coordinator is the single writer of the manifest and the shared
telemetry stream (schema v3: ``executor_join``/``executor_dead``/
``lease_grant``/``lease_expire``), records per-task executor
attribution, and serves cache hits itself before anything is leased
out.  Results are assembled through the same
:func:`~repro.orchestration.engine.assemble_results` path as local
campaigns, so a 2-executor drain of a grid is bit-identical to the
serial ``jobs=1`` run.

See ``docs/distribution.md`` for the protocol, lease semantics and the
failure matrix.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.orchestration.engine import (
    CampaignError,
    CampaignPlan,
    assemble_results,
    build_tasks,
    open_manifest,
    settle_from_cache,
)
from repro.orchestration.manifest import campaign_id_of
from repro.orchestration.netserver import Peer, ProtocolServer, acknowledge, error_reply
from repro.orchestration.remote import DEFAULT_REGISTRY, PROTOCOL_VERSION, encode_task
from repro.orchestration.store import ResultStore, decode_result
from repro.orchestration.tasks import Task, TaskOutcome
from repro.orchestration.telemetry import Telemetry, monotonic


@dataclass
class Lease:
    """One outstanding claim: which executor holds which task until when."""

    lease_id: str
    task: Task
    executor: str
    deadline: float


class Coordinator:
    """Serve lease-based task claims from one campaign plan.

    The plan must be *distributable*: factories resolvable by name on
    every host through ``registry_ref`` (a ``module:callable`` returning
    the name → factory dict), suite or file traces only, and no
    ``warm_share`` (warm transplants need cross-task ordering the
    work-stealing queue does not promise).
    """

    def __init__(
        self,
        plan: CampaignPlan,
        registry_ref: str = DEFAULT_REGISTRY,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 30.0,
        telemetry: Telemetry | None = None,
        linger_s: float = 10.0,
        poll_hint_s: float = 0.25,
        auth_token: str | None = None,
    ) -> None:
        if plan.warm_share:
            raise ValueError("warm_share campaigns cannot be distributed")
        for spec in plan.trace_specs:
            if spec.kind == "inline":
                raise ValueError(
                    f"inline trace {spec.name!r} cannot be distributed"
                )
        self.plan = plan
        self.registry_ref = registry_ref
        self.lease_ttl = lease_ttl
        self.linger_s = linger_s
        self.poll_hint_s = poll_hint_s
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.results: dict | None = None

        self.tasks = build_tasks(plan)
        self.campaign_id = campaign_id_of(self.tasks)
        self._by_index = {task.index: task for task in self.tasks}
        self.store = (
            ResultStore(plan.store_dir, self.telemetry)
            if plan.store_dir is not None
            else None
        )
        self.telemetry.emit(
            "campaign_start",
            campaign_id=self.campaign_id,
            total_tasks=len(self.tasks),
            jobs=0,
            mode="distributed",
        )
        self.manifest = open_manifest(plan, self.tasks, self.telemetry)
        settled, to_run = settle_from_cache(
            self.tasks, self.store, self.manifest, self.telemetry
        )
        self._settled: dict[int, TaskOutcome] = settled
        self._pending: deque[Task] = deque(to_run)
        self._attempts: dict[int, int] = {task.index: 0 for task in self.tasks}
        self._leases: dict[str, Lease] = {}
        self._lease_seq = 0
        self._lock = threading.RLock()
        # Store/manifest writes happen *outside* `_lock` (settling only
        # records an action tuple; `_flush_actions` runs it after the
        # release) and are serialized by this dedicated I/O lock so two
        # executor threads never interleave manifest appends.
        self._io_lock = threading.Lock()
        self._drained = threading.Event()
        self._linger_until: float | None = None
        if not self._pending:
            self._drained.set()

        # A renewing executor heartbeats every lease_ttl/3, so a read
        # deadline of at least lease_ttl never cuts a live one.
        self.net = ProtocolServer(
            "campaign",
            {
                "hello": self._on_hello,
                "claim": self._on_claim,
                "renew": self._on_renew,
                "result": self._on_result,
                "bye": acknowledge,
            },
            roles=("coordinator", "executor"),
            telemetry=self.telemetry,
            host=host,
            port=port,
            auth_token=auth_token,
            on_close=self._on_disconnect,
            min_idle_s=lease_ttl,
        )
        self.address: tuple[str, int] = self.net.address

    # ------------------------------------------------------------------ serve

    def serve(self) -> dict:
        """Block until every task settles; return the results grid.

        After the last task settles the coordinator lingers briefly so
        connected executors hear ``drained`` and disconnect cleanly,
        then closes the socket and any connection still open, emits
        ``campaign_finish`` and assembles results exactly like
        :func:`run_plan`.
        """
        self.net.serve(self._keep_serving)

        # Settled is complete once drained, but late result/expiry threads
        # may still be in flight — snapshot it under the lock.
        with self._lock:
            settled = dict(self._settled)
        failures = sorted(
            (o for o in settled.values() if not o.ok),
            key=lambda o: o.task.index,
        )
        self.telemetry.emit(
            "campaign_finish",
            done=sum(1 for o in settled.values() if o.ok),
            failed=len(failures),
            cache_hits=self.telemetry.cache_hits,
            elapsed_s=round(self.telemetry.elapsed_s(), 6),
        )
        if failures and not self.plan.allow_failures:
            raise CampaignError(failures)
        self.results = assemble_results(self.plan, settled)
        return self.results

    def serve_background(self) -> threading.Thread:
        """Run :meth:`serve` in a daemon thread (results land on self)."""

        def run() -> None:
            try:
                self.serve()
            except CampaignError:
                pass  # failures are visible via the manifest/telemetry

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def _keep_serving(self) -> bool:
        """Accept-loop tick: expire leases, then linger once drained."""
        if not self._drained.is_set():
            self._expire_leases()
            return True
        if self._linger_until is None:
            self._linger_until = monotonic() + self.linger_s
        return self.net.live > 0 and monotonic() < self._linger_until

    # ----------------------------------------------------------- per-client

    def _on_hello(self, peer: Peer, message: dict) -> dict:
        self.telemetry.emit(
            "executor_join",
            executor=str(message.get("executor")),
            pid=message.get("pid"),
            host=message.get("host"),
        )
        return {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "campaign_id": self.campaign_id,
            "total_tasks": len(self.tasks),
            "registry": self.registry_ref,
            "store_dir": str(self.plan.store_dir)
            if self.plan.store_dir is not None
            else None,
            "lease_ttl": self.lease_ttl,
        }

    def _on_claim(self, peer: Peer, message: dict) -> dict:
        executor = str(message.get("executor"))
        with self._lock:
            if len(self._settled) == len(self.tasks):
                return {"type": "drained"}
            if not self._pending:
                return {"type": "empty", "retry_after_s": self.poll_hint_s}
            task = self._pending.popleft()
            self._attempts[task.index] += 1
            attempt = self._attempts[task.index]
            self._lease_seq += 1
            lease_id = f"L{self._lease_seq}"
            self._leases[lease_id] = Lease(
                lease_id=lease_id,
                task=task,
                executor=executor,
                deadline=monotonic() + self.lease_ttl,
            )
        self.telemetry.emit(
            "lease_grant",
            index=task.index,
            config=task.config_name,
            trace=task.trace.name,
            executor=executor,
            lease_id=lease_id,
            attempt=attempt,
        )
        return {
            "type": "lease",
            "lease_id": lease_id,
            "lease_ttl": self.lease_ttl,
            "task": encode_task(task),
        }

    def _on_renew(self, peer: Peer, message: dict) -> dict:
        with self._lock:
            lease = self._leases.get(str(message.get("lease_id")))
            if lease is None:
                return {"type": "gone"}
            lease.deadline = monotonic() + self.lease_ttl
            return {"type": "ok"}

    def _on_result(self, peer: Peer, message: dict) -> dict:
        executor = str(message.get("executor"))
        lease_id = str(message.get("lease_id"))
        index = message.get("index")
        after: list[tuple] = []
        with self._lock:
            self._leases.pop(lease_id, None)
            if index not in self._by_index:
                return error_reply(f"unknown task index {index!r}")
            if index in self._settled:
                return {"type": "stale"}
            task = self._by_index[index]
            if message.get("ok"):
                try:
                    result = decode_result(message["payload"])
                except (KeyError, ValueError, TypeError) as exc:
                    self._record_failure(
                        task,
                        executor,
                        f"undecodable result payload: {exc}",
                        after,
                    )
                else:
                    self._record_success(task, executor, result, message, after)
            else:
                self._record_failure(
                    task, executor, str(message.get("error") or "unknown"), after
                )
        self._flush_actions(after)
        return {"type": "ok"}

    # ------------------------------------------------------------- settling
    #
    # The settle path runs with `_lock` held, so it never emits or
    # persists directly: it appends ("emit", kind, fields) /
    # ("persist", task, outcome, executor) / ("progress",) action
    # tuples to the caller's `after` list, and the caller runs
    # `_flush_actions` once the lock is released.  Telemetry file
    # appends and store/manifest writes — the blocking operations —
    # therefore never happen inside the critical section.

    def _record_success(
        self, task: Task, executor: str, result, message: dict, after: list[tuple]
    ) -> None:
        meta = message.get("meta") or {}
        for path, reason in meta.get("corrupt", ()):
            after.append(("emit", "cache_corrupt", {"path": path, "reason": reason}))
        if meta.get("resumed_from") is not None:
            after.append(
                (
                    "emit",
                    "task_resume",
                    {
                        "index": task.index,
                        "config": task.config_name,
                        "trace": task.trace.name,
                        "position": meta["resumed_from"],
                        "executor": executor,
                    },
                )
            )
        elapsed = float(message.get("elapsed_s") or 0.0)
        after.append(
            (
                "emit",
                "task_finish",
                {
                    "index": task.index,
                    "config": task.config_name,
                    "trace": task.trace.name,
                    "elapsed_s": round(elapsed, 6),
                    "mpki": result.mpki,
                    "checkpoints": meta.get("checkpoints", 0),
                    "executor": executor,
                },
            )
        )
        outcome = TaskOutcome(
            task=task,
            result=result,
            attempts=self._attempts[task.index],
            elapsed_s=elapsed,
            resumed_from=meta.get("resumed_from"),
            checkpoints=meta.get("checkpoints", 0),
            corrupt_purged=tuple(tuple(item) for item in meta.get("corrupt", ())),
        )
        self._settle(task, outcome, executor, after)

    def _record_failure(
        self, task: Task, executor: str, error: str, after: list[tuple]
    ) -> None:
        final = self._attempts[task.index] > self.plan.max_retries
        after.append(
            (
                "emit",
                "task_failed",
                {
                    "index": task.index,
                    "config": task.config_name,
                    "trace": task.trace.name,
                    "attempt": self._attempts[task.index],
                    "error": error.strip().splitlines()[-1]
                    if error.strip()
                    else error,
                    "final": final,
                    "executor": executor,
                },
            )
        )
        if final:
            self._settle(
                task,
                TaskOutcome(
                    task=task, error=error, attempts=self._attempts[task.index]
                ),
                executor,
                after,
            )
            return
        after.append(
            (
                "emit",
                "task_retry",
                {"index": task.index, "attempt": self._attempts[task.index] + 1},
            )
        )
        self._pending.append(task)

    def _settle(
        self, task: Task, outcome: TaskOutcome, executor: str, after: list[tuple]
    ) -> None:
        self._settled[task.index] = outcome
        after.append(("persist", task, outcome, executor))
        after.append(("progress",))
        if len(self._settled) == len(self.tasks):
            self._drained.set()

    def _flush_actions(self, actions: list[tuple]) -> None:
        """Run deferred settle work; call only with ``_lock`` released."""
        for action in actions:
            if action[0] == "emit":
                _, kind, fields = action
                self.telemetry.emit(kind, **fields)
            elif action[0] == "persist":
                _, task, outcome, executor = action
                self._persist(task, outcome, executor)
            else:  # ("progress",) — rates computed at flush time
                eta = self.telemetry.eta_s(len(self.tasks))
                self.telemetry.emit(
                    "progress",
                    done=self.telemetry.done,
                    total=len(self.tasks),
                    tasks_per_s=round(self.telemetry.tasks_per_s(), 3),
                    eta_s=round(eta, 1) if eta != float("inf") else None,
                )

    def _persist(self, task: Task, outcome: TaskOutcome, executor: str) -> None:
        """Write one settled outcome to the store and manifest.

        Runs outside ``_lock``; ``_io_lock`` keeps concurrent settling
        threads from interleaving manifest appends.  The store/manifest
        writes here are this coordinator's whole job, so the REPRO502
        on this symbol is baselined.
        """
        with self._io_lock:
            if outcome.ok:
                if self.store is not None:
                    self.store.store(task.fingerprint, outcome.result)
                if self.manifest is not None:
                    self.manifest.mark_done(
                        task,
                        attempts=outcome.attempts,
                        resumed_from=outcome.resumed_from,
                        checkpoints=outcome.checkpoints,
                        executor=executor,
                    )
            elif self.manifest is not None:
                self.manifest.mark_failed(
                    task,
                    attempts=outcome.attempts,
                    error=(outcome.error or "").strip().splitlines()[-1]
                    if outcome.error
                    else "unknown",
                    executor=executor,
                )

    # --------------------------------------------------------------- leases

    def _expire_leases(self) -> None:
        now = monotonic()
        after: list[tuple] = []
        with self._lock:
            expired = [
                lease for lease in self._leases.values() if now >= lease.deadline
            ]
            for lease in expired:
                self._expire(lease, "lease ttl elapsed", after)
        self._flush_actions(after)

    def _on_disconnect(self, peer: Peer) -> None:
        """Expire the leases of an executor that left without ``bye``."""
        if peer.name is None or peer.fsm.state == "end" or self._drained.is_set():
            return
        self.telemetry.emit("executor_dead", executor=peer.name, reason="connection lost")
        after: list[tuple] = []
        with self._lock:
            held = [lease for lease in self._leases.values() if lease.executor == peer.name]
            for lease in held:
                self._expire(lease, "executor dead: connection lost", after)
        self._flush_actions(after)

    def _expire(self, lease: Lease, reason: str, after: list[tuple]) -> None:
        """Drop one lease (lock held) and requeue or fail its task."""
        del self._leases[lease.lease_id]
        task = lease.task
        after.append(
            (
                "emit",
                "lease_expire",
                {
                    "index": task.index,
                    "executor": lease.executor,
                    "lease_id": lease.lease_id,
                    "reason": reason,
                },
            )
        )
        if task.index in self._settled:
            return
        if self._attempts[task.index] > self.plan.max_retries:
            self._record_failure(
                task, lease.executor, f"lease expired ({reason})", after
            )
            return
        # Front of the queue: the task already has checkpoints to resume
        # from, so the next claimant finishes it soonest.
        self._pending.appendleft(task)


def serve_campaign(
    plan: CampaignPlan,
    registry_ref: str = DEFAULT_REGISTRY,
    **coordinator_kwargs,
) -> dict:
    """Construct a coordinator and serve until the campaign drains."""
    return Coordinator(plan, registry_ref, **coordinator_kwargs).serve()
