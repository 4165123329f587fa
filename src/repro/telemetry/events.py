"""Append-only structured JSONL event stream for the hot operational
paths.

Metrics (:mod:`repro.telemetry.metrics`) aggregate; *events* narrate:
one JSON line per operational fact, in order, with enough fields to
reconstruct what a sweep actually did — timed spans, task leases,
retries and quarantines, worker deaths, batch-group formation and
per-cell fallbacks, cache hits/misses/corruption, sweep cell lifecycle,
and each recorded run's final counters.  Consumers:
``python -m repro.telemetry.live`` (the ``--progress`` renderer), the
Perfetto exporter (``python -m repro.telemetry.export``), CI assertions
over fault-injected runs, and the ``repro.serve`` request log.

Enable by pointing ``REPRO_EVENTS`` at a file path (``REPRO_EVENTS=0``
explicitly disables, useful to mask an inherited setting).  Every
process in a run — the parent, fleet workers, a
``repro.serve`` instance and its fleet (they inherit the environment) —
appends to the same file.  Each record is encoded to one ``bytes`` line
and written with a **single** ``os.write()`` on a raw
``O_APPEND|O_CREAT|O_WRONLY`` file descriptor: POSIX guarantees the
kernel applies the append atomically, so concurrent writers — threads
*and* processes — interleave whole lines, never fragments, regardless
of record size.  A module lock serializes the sequence counter, sink
swaps, and the write itself across threads in one process; atomicity
across processes comes from ``O_APPEND``.  Each record carries::

    {"ts": <unix seconds>, "pid": <writer pid>, "seq": <per-process#>,
     "kind": "<dotted.event.kind>", ...fields}

When ``REPRO_EVENTS`` is unset the emit path is one dict lookup and a
truthiness check — near-zero overhead, and nothing is ever written.
Event emission is strictly best-effort provenance: an unwritable sink
degrades to disabled rather than failing the run (and is re-enabled by
the next :func:`set_path`), and no simulation semantics may ever depend
on it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, Optional, TextIO, Union

ENV_EVENTS = "REPRO_EVENTS"

#: Serializes ``_seq``, sink open/swap, and the append itself across
#: threads (the fleet broker's accept/handler threads and the serve
#: front emit concurrently).  Cross-*process* atomicity needs no lock:
#: each line is a single ``write()`` on an ``O_APPEND`` descriptor.
_lock = threading.Lock()

#: programmatic override of the env knob (``None`` defers to the env;
#: ``""`` forces disabled)
_override: Optional[str] = None
#: raw ``O_APPEND`` fd, keyed by (path, pid) so forked children re-open
_fd: Optional[int] = None
_fd_key: Optional[tuple] = None
#: paths that failed to open/write (don't retry every emit)
_broken: set = set()
_seq = 0


def _close_fd() -> None:
    global _fd, _fd_key
    if _fd is not None:
        try:
            os.close(_fd)
        except OSError:
            pass
    _fd = None
    _fd_key = None


def set_path(path: Optional[str]) -> None:
    """Programmatically select the event sink (``None`` restores the
    ``REPRO_EVENTS`` env behaviour, ``""`` disables).  Note the override
    is process-local: worker processes only see the *environment*, so
    cross-process capture should set ``REPRO_EVENTS`` instead.

    Any previously *broken* path is forgiven here: a sink that failed to
    open once (say, its directory was created moments later) must not
    stay disabled for the rest of the process after the caller points at
    it again.
    """
    global _override
    with _lock:
        _override = path
        _close_fd()
        _broken.clear()


def active_path() -> Optional[str]:
    """The event-log path emits would append to right now, if any."""
    path = _override if _override is not None \
        else os.environ.get(ENV_EVENTS, "")
    if not path or path == "0" or path in _broken:
        return None
    return path


def enabled() -> bool:
    return active_path() is not None


def emit(kind: str, **fields: Any) -> None:
    """Append one event (no-op when no sink is configured)."""
    global _fd, _fd_key, _seq
    path = active_path()
    if path is None:
        return
    with _lock:
        # Re-check under the lock: a racing set_path/emit may have
        # broken or swapped the sink between the fast-path check and
        # here.
        path = active_path()
        if path is None:
            return
        key = (path, os.getpid())
        if _fd is None or _fd_key != key:
            _close_fd()
            try:
                _fd = os.open(path,
                              os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                              0o644)
            except OSError:
                _broken.add(path)
                return
            _fd_key = key
            _seq = 0
        _seq += 1
        record: Dict[str, Any] = {
            "ts": time.time(),
            "pid": key[1],
            "seq": _seq,
            "kind": kind,
        }
        record.update(fields)
        line = (json.dumps(record, sort_keys=True, default=str)
                + "\n").encode("utf-8")
        try:
            os.write(_fd, line)
        except (OSError, ValueError):
            _broken.add(path)
            _close_fd()


def iter_events(source: Union[str, TextIO]) -> Iterator[Dict[str, Any]]:
    """Parse an event log, skipping torn/foreign lines (a live tail can
    race the writer's final newline)."""
    if isinstance(source, str):
        try:
            handle: TextIO = open(source, encoding="utf-8")
        except OSError:
            return
        with handle:
            yield from _iter_stream(handle)
    else:
        yield from _iter_stream(source)


def _iter_stream(stream: TextIO) -> Iterator[Dict[str, Any]]:
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "kind" in record:
            yield record


__all__ = [
    "ENV_EVENTS",
    "active_path",
    "emit",
    "enabled",
    "iter_events",
    "set_path",
]
