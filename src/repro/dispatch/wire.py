"""Length-prefixed pickle framing for the fleet's broker <-> worker TCP
link.

The broker and its workers are the same codebase on the same host
(workers are spawned as ``python -m repro.dispatch.worker``), so pickle
is the natural payload encoding — task functions pickle by reference,
exactly as ``multiprocessing`` would ship them.  Frames are ``>I`` length
+ pickle bytes; task payloads and result values are pickled *separately*
from the envelope, so a fault-corrupted result payload fails to decode
without desynchronizing the stream.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Optional

#: Frame header: big-endian unsigned payload length.
_HEADER = struct.Struct(">I")

#: Refuse absurd frames (a corrupted header would otherwise make the
#: reader try to allocate gigabytes).
MAX_FRAME = 256 * 1024 * 1024


class WireError(ConnectionError):
    """The peer vanished or sent an undecodable frame."""


def send_frame(sock: socket.socket, payload: bytes,
               lock: Optional[threading.Lock] = None) -> None:
    """Send one raw frame (``lock`` serializes writers on a shared
    socket — the worker's heartbeat thread and its result sends)."""
    data = _HEADER.pack(len(payload)) + payload
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def recv_frame(sock: socket.socket) -> bytes:
    """Receive one raw frame; raises :class:`WireError` on EOF."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"oversized frame ({length} bytes)")
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_msg(sock: socket.socket, message: Any,
             lock: Optional[threading.Lock] = None) -> None:
    send_frame(sock, pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL),
               lock=lock)


def recv_msg(sock: socket.socket) -> Any:
    frame = recv_frame(sock)
    try:
        return pickle.loads(frame)
    except Exception as exc:
        raise WireError(f"undecodable frame: {exc}") from exc


def dumps(value: Any) -> bytes:
    """Pickle a task/result payload for transport inside an envelope."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def loads(payload: bytes) -> Any:
    return pickle.loads(payload)


__all__ = ["MAX_FRAME", "WireError", "dumps", "loads", "recv_frame",
           "recv_msg", "send_frame", "send_msg"]
