"""The protocol-v1 server under both the prediction service and the coordinator.

Listener, per-connection handler threads with an idle read deadline, the
hello handshake, and dispatch through a ``{message type: handler}``
table ordered by the connection's ``PROTOCOL_FSMS`` machine live here;
the owners keep their handler tables and state.  See ``docs/serving.md``.
"""

from __future__ import annotations

import socket
import struct
import threading
from collections.abc import Callable
from contextlib import suppress

from repro.orchestration.remote import (
    PROTOCOL_FSMS,
    PROTOCOL_VERSION,
    ProtocolError,
    SessionFsm,
    recv_message,
    send_message,
    token_matches,
)
from repro.orchestration.telemetry import Telemetry

#: Seconds a connection may stay silent before its handler drops it.
IDLE_TIMEOUT_S = 300.0

#: Accept-loop wake-up period: how often the owner's tick runs.
ACCEPT_TICK_S = 0.2

#: Listener backlog; the load generator opens one connection per session.
BACKLOG = 128


class Peer:
    """One accepted connection as its handlers see it."""

    def __init__(self, sock: socket.socket, fsm: str) -> None:
        self.sock = sock
        self.fsm = SessionFsm(fsm)
        self.name: str | None = None  # the hello's peer id, once welcomed
        self.sessions: dict = {}  # handler-owned, dies with the connection


def acknowledge(peer: Peer, message: dict) -> dict:
    """Handler for a clean goodbye."""
    return {"type": "ok"}


def error_reply(text: str) -> dict:
    """The ``error`` reply every refusal is sent as."""
    return {"type": "error", "error": text}


class ProtocolServer:
    """Serve one ``PROTOCOL_FSMS`` machine to many peers.

    Only the hello (the machine's way out of ``start``) is answered
    first, once; a bad token or protocol version closes the connection
    after the ``error``.  A non-``error`` reply advances the machine,
    and a state with no way out ends the connection.  ``roles`` is
    (this side, peer); the peer role is the hello field naming the peer.
    ``on_close(peer)`` runs on the handler thread however it ended.
    """

    def __init__(
        self,
        fsm: str,
        handlers: dict[str, Callable[[Peer, dict], dict]],
        roles: tuple[str, str],
        telemetry: Telemetry,
        on_close: Callable[[Peer], None],
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str | None = None,
        min_idle_s: float = 0.0,
    ) -> None:
        (self.hello,) = PROTOCOL_FSMS[fsm]["start"]
        self.fsm = fsm
        self.handlers = handlers
        self.role, self.peer_role = roles
        self.telemetry = telemetry
        self.auth_token = auth_token
        self.on_close = on_close
        idle = max(IDLE_TIMEOUT_S, min_idle_s)
        self._idle_timeval = struct.pack("ll", int(idle), int(idle % 1 * 1_000_000))
        self._lock = threading.Lock()
        self._live: set[socket.socket] = set()
        self._closed = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(BACKLOG)
        self._listener.settimeout(ACCEPT_TICK_S)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    @property
    def live(self) -> int:
        """Connections whose handler is still running."""
        with self._lock:
            return len(self._live)

    def serve(self, tick: Callable[[], bool] | None = None) -> None:
        """Accept until :meth:`close`, or until ``tick()`` (run every
        :data:`ACCEPT_TICK_S` or sooner) is false; then close."""
        try:
            while not self._closed.is_set() and (tick is None or tick()):
                try:
                    sock, _addr = self._listener.accept()
                except OSError:  # the tick's timeout, or a closed listener
                    continue
                threading.Thread(target=self.handle, args=(sock,), daemon=True).start()
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting; shut live sockets down so their handlers exit."""
        with self._lock:
            self._closed.set()
            live = list(self._live)
        self._listener.close()
        for sock in live:
            with suppress(OSError):  # the peer is already gone
                sock.shutdown(socket.SHUT_RDWR)

    def handle(self, sock: socket.socket) -> None:
        """Serve one connection on the calling thread until it ends."""
        with self._lock:
            admitted = not self._closed.is_set()
            if admitted:
                self._live.add(sock)
        peer = Peer(sock, self.fsm)
        try:
            # A kernel receive timeout: sock.settimeout() would poll before
            # every read, one more interpreter-lock hand-off per message.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, self._idle_timeval)
            while admitted and self._answer(peer):
                pass
        except ProtocolError as exc:  # malformed or oversized: say why
            with suppress(OSError, ProtocolError):
                send_message(sock, error_reply(str(exc)))
        except OSError:  # EOF, reset, close(), or the read deadline
            pass
        finally:
            with self._lock:
                self._live.discard(sock)
            with suppress(OSError):
                sock.close()
            if admitted:
                self.on_close(peer)

    def _answer(self, peer: Peer) -> bool:
        """Read one message and reply; False once the connection ends."""
        message = recv_message(peer.sock)
        kind = message.get("type")
        handler = self.handlers.get(kind)
        fsm = peer.fsm
        if handler is None:
            reply = error_reply(f"unknown message {kind!r}")
        elif fsm.state == "start" and kind != self.hello:
            reply = error_reply(f"say {self.hello} first (got {kind!r})")
        elif kind == self.hello and fsm.state != "start":
            reply = error_reply(f"duplicate {kind}")
        elif kind == self.hello and (refusal := self._refuse(message)):
            send_message(peer.sock, error_reply(refusal))
            return False
        else:
            reply = handler(peer, message)
            if reply["type"] != "error":
                if kind == self.hello:
                    peer.name = str(message.get(self.peer_role))
                fsm.advance(kind)  # raises if the handler broke the order
        send_message(peer.sock, reply)
        return bool(fsm.machine[fsm.state])

    def _refuse(self, hello: dict) -> str | None:
        """Why a hello fails the handshake, or None when it passes."""
        if not token_matches(self.auth_token, hello.get("token")):
            peer = str(hello.get(self.peer_role))
            self.telemetry.emit("auth_reject", peer=peer, host=hello.get("host"))
            return "authentication failed"
        if hello.get("protocol") != PROTOCOL_VERSION:
            return (
                f"protocol version skew: {self.role} {PROTOCOL_VERSION} "
                f"vs {self.peer_role} {hello.get('protocol')}"
            )
        return None
