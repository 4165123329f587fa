"""The serve front's message vocabulary + asyncio framing helpers.

The wire front speaks the exact same length-prefixed pickle framing as
the fleet broker/worker link (:mod:`repro.dispatch.wire` — ``>I`` length
header, :data:`~repro.dispatch.wire.MAX_FRAME` cap), reused here over
asyncio streams.  Messages are dicts with a ``type`` field:

Client → server:

* ``{"type": "hello", "client": <name>}`` — optional handshake; the
  server answers ``welcome`` with its identity and limits.
* ``{"type": "ping"}`` → ``{"type": "pong"}`` — liveness probe.
* ``{"type": "sweep", "id": <client-job-id>, "spec": {...}}`` — submit
  one sweep job; ``spec`` is :meth:`repro.experiments.sweep.SweepSpec.
  to_dict` shaped.  The server streams back ``accepted``, one ``cell``
  per app x scheme x config as each completes, then ``done``.
* ``{"type": "shutdown"}`` — ask the server to drain gracefully
  (answered with ``bye`` before the drain starts).

Server → client:

* ``{"type": "accepted", "id": ..., "job": <server-job-id>,
  "cells": N}``
* ``{"type": "cell", "id": ..., "app": ..., "scheme": ...,
  "config": ..., "cached": bool, "wall_s": float, "stats": {...}}`` —
  ``stats`` is ``SimStats.to_dict()``; ``cached`` cells were answered
  from the artifact cache without touching the fleet.  A failed cell
  carries ``"error"`` instead of ``"stats"``.
* ``{"type": "done", "id": ..., "cells": N, "cached": M,
  "computed": K, "coalesced": C, "failed": F, "wall_s": float}`` —
  ``coalesced`` cells subscribed to another job's in-flight
  computation instead of recomputing.
* ``{"type": "busy", "id": ..., "error": <text>, "active": N,
  "max_pending": M}`` — admission backpressure: the pending-job table
  is full; retry later (the HTTP front answers 503 instead).
* ``{"type": "error", "id": ..., "error": <text>}`` — the job was
  rejected at admission (bad spec, unknown registry name, draining),
  or the message ``type`` is unknown (the connection stays usable).

Every record is JSON-safe by construction, so the HTTP front streams
the *same* ``accepted``/``cell``/``done`` records as ndjson lines.

Version history: v2 added ``busy`` backpressure and per-cell
``coalesced`` marks; v3 removed two message types, so they now get the
``unknown message type`` error.
"""

from __future__ import annotations

import asyncio
import pickle
from typing import Any

from repro.dispatch import wire

#: Protocol revision, reported in ``welcome`` / ``/healthz``.
PROTOCOL_VERSION = 3


class ProtocolError(ConnectionError):
    """The peer sent an oversized or undecodable frame."""


async def read_msg(reader: asyncio.StreamReader) -> Any:
    """Read one framed message; raises :class:`ProtocolError` on a bad
    frame and ``asyncio.IncompleteReadError`` on EOF."""
    header = await reader.readexactly(wire._HEADER.size)
    (length,) = wire._HEADER.unpack(header)
    if length > wire.MAX_FRAME:
        raise ProtocolError(f"oversized frame ({length} bytes)")
    payload = await reader.readexactly(length)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc


async def write_msg(writer: asyncio.StreamWriter, message: Any) -> None:
    payload = wire.dumps(message)
    writer.write(wire._HEADER.pack(len(payload)) + payload)
    await writer.drain()


__all__ = ["PROTOCOL_VERSION", "ProtocolError", "read_msg", "write_msg"]
