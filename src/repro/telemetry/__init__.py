"""Telemetry for the reproduction pipeline: spans, typed metrics,
structured events, flight recorder, run manifests, trace export.

One import surface over several pieces:

* **spans** (:mod:`repro.telemetry.spans`) — ``span(name, **attrs)``
  context managers nest with self-vs-cumulative time and aggregate
  into an always-on phase table that serializes across process
  boundaries (``snapshot()`` / ``merge_snapshot()``) so the parallel
  runner reports fleet-wide totals.  :func:`report` renders the phase
  table (``report --perf`` prints it; every run manifest records it).
  Each closed span is also one ``span`` event in the structured event
  stream.
* **typed metrics** (:mod:`repro.telemetry.metrics`) — the one counter
  API: labeled counters, gauges, and fixed-bucket histograms in a
  process-local registry that rides the span snapshot/merge channel, so
  fleet-wide totals obey the same exactly-once-across-retries
  discipline.  Rendered as Prometheus text exposition (``metrics.txt``
  next to the run manifest, and ``/metrics`` on ``repro.serve``).
* **structured events** (:mod:`repro.telemetry.events`) — append-only
  JSONL narration of the hot operational paths (``REPRO_EVENTS=path``),
  the one timeline of a run: spans, dispatch attempts/leases/quarantines,
  worker deaths, batch groups and fallbacks, cache hits/misses, sweep
  cell lifecycle, and each recorded run's final counters.
* **flight recorder** (:mod:`repro.telemetry.recorder`) — opt-in
  per-instruction pipeline event stream (``REPRO_FLIGHT_RECORDER=path``),
  rendered by ``python -m repro.telemetry.view``.
* **run manifests** (:mod:`repro.telemetry.manifest`) — every
  ``run_apps`` invocation records config hash, seeds, cache hit/miss
  counts, wall time, the phase table, and the metrics snapshot next to
  the artifact cache.
* **export/live** (:mod:`repro.telemetry.export`,
  :mod:`repro.telemetry.live`) — Chrome-trace/Perfetto JSON export of
  the event log (``python -m repro.telemetry.export``) and a live sweep
  progress view over the event stream
  (``python -m repro.telemetry.live``, or ``--progress`` on the sweep
  CLI).

``manifest`` is deliberately *not* imported here: it depends on
:mod:`repro.cache`, which itself uses the span and metrics APIs —
importing it at package level would be circular.  Import it as a
submodule where needed.

Performance is measured and gated by ``python -m bench``
(``bench/README.md``), not by this package.
"""

from repro.telemetry import events, metrics
from repro.telemetry.events import emit, iter_events
from repro.telemetry.metrics import (
    inc,
    observe,
    render_prometheus,
    set_gauge,
)
from repro.telemetry.recorder import (
    ENV_RECORDER,
    FlightRecorder,
    STALL_CAUSES,
    parse_jsonl,
)
from repro.telemetry.spans import (
    Span,
    merge_snapshot,
    phase,
    phase_stats,
    report,
    reset,
    snapshot,
    span,
    spanned,
)

__all__ = [
    "ENV_RECORDER",
    "FlightRecorder",
    "STALL_CAUSES",
    "Span",
    "emit",
    "events",
    "inc",
    "iter_events",
    "merge_snapshot",
    "metrics",
    "observe",
    "parse_jsonl",
    "phase",
    "phase_stats",
    "render_prometheus",
    "report",
    "reset",
    "set_gauge",
    "snapshot",
    "span",
    "spanned",
]
