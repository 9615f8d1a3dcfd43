"""Always-on prediction service over the length-prefixed JSON protocol.

``repro serve-predict`` runs a :class:`PredictionServer`: clients open
*sessions* (one predictor instance bound to a named workload) and
stream branch events; every event is answered with the predictor's
direction before it is trained on the resolved outcome — the exact
predict-then-train commit discipline of
:func:`repro.sim.simulator.simulate`.  That symmetry is the service's
correctness contract: an online session over a trace's events yields a
final ``state_hash`` and misprediction count bit-identical to the
offline simulator over the same stream, and ``tests/test_serving.py``
enforces it for every registered predictor.

Sessions may open **warm**: the server hydrates the predictor from the
:class:`~repro.serving.pool.WarmSnapshotPool` (PR 3's ``warm_share``
snapshots, shared with campaigns through the StateStore) and tells the
client the absolute position to stream from, so new replicas skip the
warmup prefix entirely.  Because the warm checkpoint carries the warmup
prefix's misprediction count, a warm session's summary is still
bit-identical to a *straight* offline run over the whole trace.

Sessions are connection-scoped: dropping the socket discards their
state (clients that need durability close sessions explicitly and keep
the returned ``state_hash``).  The wire vocabulary rides the campaign
protocol's message registry (``MESSAGE_TYPES`` in
:mod:`repro.orchestration.remote`), and the campaign coordinator's
server (:mod:`repro.orchestration.netserver`) carries it, shared-secret
handshake included.  See ``docs/serving.md``.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass
from typing import Any

from repro.orchestration.netserver import Peer, ProtocolServer, acknowledge, error_reply
from repro.orchestration.registry import standard_registry
from repro.orchestration.remote import PROTOCOL_VERSION
from repro.orchestration.tasks import PredictorFactory
from repro.orchestration.telemetry import Telemetry, monotonic
from repro.predictors.base import hot_path
from repro.serving.pool import PoolError, WarmSnapshotPool

#: Upper bound on one ``events`` batch; larger batches are refused so a
#: misbehaving client cannot park the handler thread for minutes.
MAX_BATCH_EVENTS = 65_536


@hot_path
def predict_batch(predict, train, pcs, outcomes, predictions, mispredictions) -> int:
    """Per-event serving loop: predict, compare, train — nothing else.

    Mirrors ``simulator._run_counting`` so the online path and the
    offline oracle execute the same per-event operations in the same
    order; ``predictions`` is a preallocated list filled in place.
    """
    for position in range(len(pcs)):
        pc = pcs[position]
        taken = outcomes[position]
        prediction = predict(pc)
        if prediction != taken:
            mispredictions += 1
        train(pc, taken)
        predictions[position] = prediction
    return mispredictions


@dataclass(slots=True)
class _Session:
    """One live predictor bound to a client's event stream."""

    session_id: str
    predictor: Any
    position: int
    mispredictions: int
    started: float
    events: int = 0


def default_server_id() -> str:
    return f"{socket.gethostname()}-serve-{os.getpid()}"


class PredictionServer:
    """Serve prediction sessions to many concurrent clients.

    Connections, the ``serve_hello`` handshake and message ordering are
    the shared :class:`~repro.orchestration.netserver.ProtocolServer`'s
    (``self.net``); this class keeps the serving handlers.  Shared
    counters are guarded by ``self._lock``; a connection's sessions live
    on its :class:`~repro.orchestration.netserver.Peer` and need no lock.
    """

    def __init__(
        self,
        registry: dict[str, PredictorFactory] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        pool: WarmSnapshotPool | None = None,
        auth_token: str | None = None,
        telemetry: Telemetry | None = None,
        server_id: str | None = None,
    ) -> None:
        self.registry = registry if registry is not None else standard_registry()
        self.pool = pool
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.server_id = server_id or default_server_id()
        self._lock = threading.Lock()
        self._session_seq = 0
        self._open_sessions = 0
        self._closed_sessions = 0
        self._stop = threading.Event()
        self.net = ProtocolServer(
            "serving",
            {
                "serve_hello": self._welcome,
                "session_open": self._open_session,
                "events": self._on_events,
                "session_close": self._close_session,
                "serve_bye": acknowledge,
            },
            roles=("server", "client"),
            telemetry=self.telemetry,
            host=host,
            port=port,
            auth_token=auth_token,
            on_close=self._drop_sessions,
        )
        self.address: tuple[str, int] = self.net.address
        self.telemetry.emit(
            "serve_start",
            host=self.address[0],
            port=self.address[1],
            server_id=self.server_id,
        )

    # -------------------------------------------------------------- serve

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` is called."""
        self.net.serve()

    def start(self) -> threading.Thread:
        """Run :meth:`serve_forever` in a daemon thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop accepting and drop every live connection."""
        if self._stop.is_set():
            return
        self._stop.set()
        self.net.close()
        with self._lock:
            closed = self._closed_sessions
        self.telemetry.emit("serve_stop", sessions=closed, server_id=self.server_id)

    def _welcome(self, peer: Peer, message: dict) -> dict:
        return {
            "type": "serve_welcome",
            "protocol": PROTOCOL_VERSION,
            "server_id": self.server_id,
            "pool": self.pool.stats() if self.pool is not None else None,
        }

    def _drop_sessions(self, peer: Peer) -> None:
        with self._lock:
            self._open_sessions -= len(peer.sessions)

    # ----------------------------------------------------------- sessions

    def _open_session(self, peer: Peer, message: dict) -> dict:
        config = str(message.get("config"))
        workload = str(message.get("workload"))
        factory = self.registry.get(config)
        if factory is None:
            return error_reply(f"unknown predictor config {config!r}")
        predictor = factory()
        position = 0
        mispredictions = 0
        warmed_from = None
        if message.get("warm"):
            if self.pool is None:
                return error_reply("server has no warm pool")
            try:
                shard = self.pool.acquire(
                    config,
                    workload,
                    branches=message.get("branches"),
                    warmup=message.get("warmup"),
                )
            except PoolError as exc:
                return error_reply(str(exc))
            predictor.restore(shard.checkpoint.predictor_state)
            position = shard.checkpoint.position
            mispredictions = shard.checkpoint.mispredictions
            warmed_from = shard.key.label()
        with self._lock:
            self._session_seq += 1
            session_id = f"S{self._session_seq}"
            self._open_sessions += 1
        peer.sessions[session_id] = _Session(
            session_id=session_id,
            predictor=predictor,
            position=position,
            mispredictions=mispredictions,
            started=monotonic(),
        )
        self.telemetry.emit(
            "session_open",
            session=session_id,
            client=peer.name,
            config=config,
            workload=workload,
            warm=warmed_from,
            position=position,
        )
        return {
            "type": "session",
            "session": session_id,
            "config": config,
            "workload": workload,
            "position": position,
            "mispredictions": mispredictions,
            "warmed_from": warmed_from,
        }

    def _on_events(self, peer: Peer, message: dict) -> dict:
        session = peer.sessions.get(str(message.get("session")))
        if session is None:
            return error_reply("unknown session")
        pcs = message.get("pcs")
        raw_outcomes = message.get("outcomes")
        if not isinstance(pcs, list) or not isinstance(raw_outcomes, list):
            return error_reply("events wants pcs/outcomes lists")
        if len(pcs) != len(raw_outcomes):
            return error_reply(
                f"pcs ({len(pcs)}) and outcomes ({len(raw_outcomes)}) differ in length"
            )
        if len(pcs) > MAX_BATCH_EVENTS:
            return error_reply(f"batch of {len(pcs)} events exceeds {MAX_BATCH_EVENTS}")
        # Normalize wire ints to real bools before the hot loop: the
        # predictors' state payloads must end up bit-identical to an
        # offline run that trained on the trace's bool outcomes.
        outcomes = [bool(value) for value in raw_outcomes]
        predictions = [False] * len(pcs)
        session.mispredictions = predict_batch(
            session.predictor.predict,
            session.predictor.train,
            pcs,
            outcomes,
            predictions,
            session.mispredictions,
        )
        session.position += len(pcs)
        session.events += len(pcs)
        return {
            "type": "predictions",
            "session": session.session_id,
            "predictions": [1 if prediction else 0 for prediction in predictions],
            "mispredictions": session.mispredictions,
            "position": session.position,
        }

    def _close_session(self, peer: Peer, message: dict) -> dict:
        session = peer.sessions.pop(str(message.get("session")), None)
        if session is None:
            return error_reply("unknown session")
        state_hash = session.predictor.state_hash()
        with self._lock:
            self._open_sessions -= 1
            self._closed_sessions += 1
        self.telemetry.emit(
            "session_close",
            session=session.session_id,
            client=peer.name,
            events=session.events,
            mispredictions=session.mispredictions,
            elapsed_s=round(monotonic() - session.started, 6),
        )
        return {
            "type": "session_summary",
            "session": session.session_id,
            "events": session.events,
            "mispredictions": session.mispredictions,
            "state_hash": state_hash,
            "position": session.position,
        }
