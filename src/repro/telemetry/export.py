"""Chrome-trace / Perfetto export of telemetry span trees.

``python -m repro.telemetry.export spans.jsonl --format chrome-trace``
turns a span-tree JSONL dump (``telemetry.dump_spans``, or the file
``REPRO_SPANS=<path>`` writes at exit) into Trace Event Format JSON that
loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``::

    REPRO_SPANS=spans.jsonl python -m repro.experiments.sweep \\
        --apps Music --schemes baseline,critic --engine batch
    python -m repro.telemetry.export spans.jsonl -o trace.json

Mapping:

* every span becomes a **complete event** (``"ph": "X"``) with
  microsecond ``ts``/``dur`` laid out on the span's recorded wall-clock
  start (legacy records without ``start_unix`` are packed end-to-end
  under their parent);
* every *process* becomes one ``pid`` track — root spans merged from
  workers carry a ``pid`` attribute (see ``merge_snapshot``), so a fleet
  sweep renders one swimlane per worker, named by ``process_name``
  metadata events;
* final metrics-registry counter values (the ``_meta`` trailer line of
  a ``REPRO_SPANS=<path>`` dump) become **counter tracks** (``"ph": "C"``),
  and ``--events events.jsonl`` additionally renders the structured
  event stream as cumulative counter tracks (cells done/cached/retried/
  fallback, instructions) plus instant events for retries/quarantines.

The output is ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — the
JSON object form of the spec, which both viewers accept.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple

from repro.telemetry.events import iter_events

#: Event-stream kinds rendered as cumulative counter tracks.
_COUNTER_KINDS = {
    "sweep.cell.done": "cells_done",
    "sweep.cell.cached": "cells_cached",
    "batch.fallback": "cells_fallback",
    "dispatch.quarantine": "cells_quarantined",
}


def read_span_dump(stream: Iterable[str]) -> Tuple[List[Dict[str, Any]],
                                                   List[Dict[str, Any]]]:
    """Split a span JSONL dump into (span records, meta records)."""
    roots: List[Dict[str, Any]] = []
    metas: List[Dict[str, Any]] = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        if "_meta" in record:
            metas.append(record["_meta"])
        elif "name" in record:
            roots.append(record)
    return roots, metas


def _span_events(record: Dict[str, Any], pid: int, t0: float,
                 out: List[Dict[str, Any]],
                 fallback_start: float) -> float:
    """Emit one span subtree as complete events; returns the span's
    resolved start (unix seconds) so siblings can pack sequentially."""
    start = float(record.get("start_unix", 0.0)) or fallback_start
    dur = float(record.get("dur_s", 0.0))
    event: Dict[str, Any] = {
        "name": str(record.get("name", "?")),
        "ph": "X",
        "ts": max(0.0, (start - t0) * 1e6),
        "dur": max(0.0, dur * 1e6),
        "pid": pid,
        "tid": 1,
    }
    attrs = record.get("attrs")
    if attrs:
        event["args"] = {str(k): v for k, v in attrs.items()}
    out.append(event)
    child_cursor = start
    for child in record.get("children", []):
        child_start = _span_events(child, pid, t0, out, child_cursor)
        child_cursor = child_start + float(child.get("dur_s", 0.0))
    return start


def _min_start(record: Dict[str, Any]) -> float:
    """Earliest recorded wall-clock start in a span subtree (inf if the
    tree predates start stamps)."""
    own = float(record.get("start_unix", 0.0)) or float("inf")
    for child in record.get("children", []):
        own = min(own, _min_start(child))
    return own


def build_chrome_trace(
    roots: List[Dict[str, Any]],
    metas: Optional[List[Dict[str, Any]]] = None,
    events: Optional[Iterable[Dict[str, Any]]] = None,
    default_pid: int = 0,
) -> Dict[str, Any]:
    """Assemble the Trace Event Format object from parsed inputs."""
    metas = metas or []
    trace_events: List[Dict[str, Any]] = []
    event_records = list(events) if events is not None else []

    starts = [s for s in (_min_start(r) for r in roots)
              if s != float("inf")]
    starts += [float(e["ts"]) for e in event_records if "ts" in e]
    t0 = min(starts) if starts else 0.0

    pids = []
    for record in roots:
        attrs = record.get("attrs") or {}
        pid = int(attrs.get("pid", default_pid))
        if pid not in pids:
            pids.append(pid)
        _span_events(record, pid, t0, trace_events, t0)

    # Counter tracks from the dump's meta trailer(s): one "C" sample per
    # counter at that process's last span edge (final totals).
    end_ts = max([e["ts"] + e.get("dur", 0.0) for e in trace_events],
                 default=0.0)
    for meta in metas:
        pid = int(meta.get("pid", default_pid))
        for name, value in sorted((meta.get("counters") or {}).items()):
            trace_events.append({
                "name": name, "ph": "C", "ts": end_ts,
                "pid": pid, "tid": 1, "args": {"value": value},
            })
        if pid not in pids:
            pids.append(pid)

    # Structured event stream: cumulative counter tracks + instants.
    if event_records:
        running: Dict[str, int] = {}
        instructions = 0
        for record in sorted(event_records,
                             key=lambda e: float(e.get("ts", 0.0))):
            ts = max(0.0, (float(record.get("ts", 0.0)) - t0) * 1e6)
            pid = int(record.get("pid", default_pid))
            kind = record.get("kind", "?")
            track = _COUNTER_KINDS.get(kind)
            if track is not None:
                running[track] = running.get(track, 0) + 1
                trace_events.append({
                    "name": track, "ph": "C", "ts": ts,
                    "pid": default_pid, "tid": 1,
                    "args": {"value": running[track]},
                })
            if kind == "sweep.cell.done":
                instructions += int(record.get("instructions", 0))
                trace_events.append({
                    "name": "instructions", "ph": "C", "ts": ts,
                    "pid": default_pid, "tid": 1,
                    "args": {"value": instructions},
                })
            if kind in ("dispatch.quarantine", "batch.fallback") or (
                    kind == "dispatch.attempt"
                    and record.get("outcome") not in ("ok", "skipped")):
                trace_events.append({
                    "name": kind, "ph": "i", "ts": ts, "pid": pid,
                    "tid": 1, "s": "g",
                    "args": {k: v for k, v in record.items()
                             if k not in ("ts", "pid", "seq", "kind")},
                })
            if pid not in pids:
                pids.append(pid)

    for pid in pids:
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": "parent" if pid == default_pid
                     else f"worker-{pid}"},
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry.export",
                      "format": "chrome-trace"},
    }


def export_chrome_trace(
    spans_stream: Iterable[str],
    out: IO[str],
    events_path: Optional[str] = None,
) -> int:
    """Read a span dump (+ optional event log), write trace JSON.
    Returns the number of trace events written."""
    roots, metas = read_span_dump(spans_stream)
    events = iter_events(events_path) if events_path else None
    trace = build_chrome_trace(roots, metas, events=events)
    json.dump(trace, out, sort_keys=True)
    out.write("\n")
    return len(trace["traceEvents"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.export",
        description="Export telemetry span trees as Chrome-trace/"
                    "Perfetto JSON.",
    )
    parser.add_argument("spans",
                        help="span-tree JSONL (telemetry.dump_spans / "
                             "REPRO_SPANS=<path>)")
    parser.add_argument("--format", default="chrome-trace",
                        choices=("chrome-trace",),
                        help="output format (chrome-trace, the Trace "
                             "Event Format JSON Perfetto loads)")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="structured event log (REPRO_EVENTS) to "
                             "render as counter tracks + instants")
    parser.add_argument("-o", "--out", default=None, metavar="PATH",
                        help="output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        spans_file = open(args.spans, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read span dump: {exc}", file=sys.stderr)
        return 2
    with spans_file:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                written = export_chrome_trace(spans_file, handle,
                                              args.events)
            print(f"wrote {written} trace events to {args.out}",
                  file=sys.stderr)
        else:
            written = export_chrome_trace(spans_file, sys.stdout,
                                          args.events)
    return 0


if __name__ == "__main__":
    sys.exit(main())
