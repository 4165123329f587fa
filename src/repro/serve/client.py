"""Blocking wire-front client for :mod:`repro.serve`.

The loadgen's workhorse: one :class:`ServeClient` per connection, plain
sockets and the :mod:`repro.dispatch.wire` framing — no asyncio on the
client side, so closed-loop loadgen threads stay dead simple.

    with ServeClient(("127.0.0.1", 7017)) as client:
        for record in client.sweep({"apps": ["social_feed"]}):
            ...   # accepted / cell / cell / ... / done
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.dispatch import wire


class ServeError(RuntimeError):
    """The server rejected a request (an ``error`` record)."""


class ServeBusyError(ServeError):
    """Admission backpressure: the server answered ``busy`` — the
    pending-job table is full; retry later."""


class ServeClient:
    """Synchronous client for the serve wire front."""

    def __init__(self, address: Tuple[str, int],
                 timeout_s: Optional[float] = 60.0) -> None:
        self.address = address
        self.sock = socket.create_connection(address,
                                             timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # -- request/response ----------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        wire.send_msg(self.sock, message)

    def _recv(self) -> Any:
        return wire.recv_msg(self.sock)

    def hello(self, client: str = "repro.serve.client"
              ) -> Dict[str, Any]:
        self._send({"type": "hello", "client": client})
        return self._recv()

    def ping(self) -> bool:
        self._send({"type": "ping"})
        return self._recv().get("type") == "pong"

    def health(self) -> Dict[str, Any]:
        self._send({"type": "health"})
        return self._recv()

    def sweep(self, spec: Dict[str, Any],
              job_id: str = "") -> Iterator[Dict[str, Any]]:
        """Submit one sweep job and yield the streamed records
        (``accepted``, then one ``cell`` per completed cell, then
        ``done``).  Raises :class:`ServeError` if the job is rejected
        at admission."""
        self._send({"type": "sweep", "id": job_id, "spec": spec})
        while True:
            record = self._recv()
            kind = record.get("type") if isinstance(record, dict) \
                else None
            if kind == "busy":
                raise ServeBusyError(record.get("error", "busy"))
            if kind == "error":
                raise ServeError(record.get("error", "rejected"))
            yield record
            if kind == "done":
                return

    def shutdown_server(self) -> None:
        """Ask the server to drain gracefully (fire-and-forget)."""
        self._send({"type": "shutdown"})
        try:
            self._recv()  # "bye"
        except (ConnectionError, OSError, EOFError):
            pass

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["ServeBusyError", "ServeClient", "ServeError"]
