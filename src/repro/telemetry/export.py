"""Chrome-trace / Perfetto export of the structured event log.

``python -m repro.telemetry.export events.jsonl`` turns a
``REPRO_EVENTS`` log into Trace Event Format JSON that loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``::

    REPRO_EVENTS=events.jsonl python -m repro.experiments.sweep \\
        --apps Music --schemes baseline,critic --engine batch
    python -m repro.telemetry.export events.jsonl -o trace.json

Mapping:

* every ``span`` event becomes a **complete event** (``"ph": "X"``)
  with microsecond ``ts``/``dur`` laid out on the span's recorded
  wall-clock start;
* every *process* becomes one ``pid`` track, named by
  ``process_name`` metadata events: the writer of the
  ``run.recorded`` event (else the log's first writer) is ``parent``
  and every other pid is ``worker-<pid>``, so a fleet sweep renders
  one swimlane per worker;
* each ``run.recorded`` event's metrics-registry counter totals become
  **counter tracks** (``"ph": "C"``) at that event's time, and the
  operational events become cumulative counter tracks (cells done/
  cached/fallback/quarantined, instructions) plus instant events for
  retries, quarantines and batch fallbacks.

The output is ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — the
JSON object form of the spec, which both viewers accept.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, IO, Iterable, List, Optional

from repro.telemetry.events import iter_events

#: Event-stream kinds rendered as cumulative counter tracks.
_COUNTER_KINDS = {
    "sweep.cell.done": "cells_done",
    "sweep.cell.cached": "cells_cached",
    "batch.fallback": "cells_fallback",
    "dispatch.quarantine": "cells_quarantined",
}


def build_chrome_trace(
        events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble the Trace Event Format object from parsed event-log
    records."""
    records = sorted(events, key=lambda e: float(e.get("ts", 0.0)))
    starts = [float(e["ts"]) for e in records if "ts" in e]
    starts += [float(e["start_unix"]) for e in records
               if e.get("kind") == "span" and "start_unix" in e]
    t0 = min(starts) if starts else 0.0
    parent = next((e.get("pid", 0) for e in records
                   if e.get("kind") == "run.recorded"),
                  records[0].get("pid", 0) if records else 0)

    def micros(unix: float) -> float:
        return max(0.0, (unix - t0) * 1e6)

    trace_events: List[Dict[str, Any]] = []
    pids: List[int] = []
    running: Dict[str, int] = {}
    instructions = 0
    for record in records:
        ts = micros(float(record.get("ts", 0.0)))
        pid = int(record.get("pid", 0))
        kind = record.get("kind", "?")
        if pid not in pids:
            pids.append(pid)
        if kind == "span":
            event: Dict[str, Any] = {
                "name": str(record.get("name", "?")),
                "ph": "X",
                "ts": micros(float(record.get("start_unix", 0.0))),
                "dur": max(0.0, float(record.get("dur_s", 0.0)) * 1e6),
                "pid": pid,
                "tid": 1,
            }
            attrs = record.get("attrs")
            if attrs:
                event["args"] = {str(k): v for k, v in attrs.items()}
            trace_events.append(event)
            continue
        if kind == "run.recorded":
            for name, value in sorted(
                    (record.get("counters") or {}).items()):
                trace_events.append({
                    "name": name, "ph": "C", "ts": ts,
                    "pid": pid, "tid": 1, "args": {"value": value},
                })
            continue
        track = _COUNTER_KINDS.get(kind)
        if track is not None:
            running[track] = running.get(track, 0) + 1
            trace_events.append({
                "name": track, "ph": "C", "ts": ts,
                "pid": parent, "tid": 1,
                "args": {"value": running[track]},
            })
        if kind == "sweep.cell.done":
            instructions += int(record.get("instructions", 0))
            trace_events.append({
                "name": "instructions", "ph": "C", "ts": ts,
                "pid": parent, "tid": 1,
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

    for pid in pids:
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": "parent" if pid == parent
                     else f"worker-{pid}"},
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry.export",
                      "format": "chrome-trace"},
    }


def export_chrome_trace(events_stream: Iterable[str], out: IO[str]) -> int:
    """Read an event log, write trace JSON.  Returns the number of
    trace events written."""
    trace = build_chrome_trace(iter_events(events_stream))
    json.dump(trace, out, sort_keys=True)
    out.write("\n")
    return len(trace["traceEvents"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.export",
        description="Export a structured event log as Chrome-trace/"
                    "Perfetto JSON.",
    )
    parser.add_argument("events",
                        help="structured event log (REPRO_EVENTS=<path>)")
    parser.add_argument("--format", default="chrome-trace",
                        choices=("chrome-trace",),
                        help="output format (chrome-trace, the Trace "
                             "Event Format JSON Perfetto loads)")
    parser.add_argument("-o", "--out", default=None, metavar="PATH",
                        help="output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        events_file = open(args.events, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read event log: {exc}", file=sys.stderr)
        return 2
    with events_file:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                written = export_chrome_trace(events_file, handle)
            print(f"wrote {written} trace events to {args.out}",
                  file=sys.stderr)
        else:
            written = export_chrome_trace(events_file, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
