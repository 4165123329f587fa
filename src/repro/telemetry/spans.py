"""Timed spans and phase aggregates.

This is the core of :mod:`repro.telemetry`.  A *span* is one timed region
of the pipeline (``with span("simulate", app="Music"): ...``); spans
nest.  Every span close does two things:

* **aggregates** — it folds into a per-name table of
  ``(calls, cumulative seconds, self seconds)``.  *Self* time excludes the
  cumulative time of direct children (each open span keeps a running sum
  of its closed children's durations), so nested phases (``simulate``
  inside ``fig10``) do not double-count toward the report total.  The
  table is always on: its cost is one ``perf_counter`` pair and a dict
  update per span.
* **events** — it emits one flat ``span`` event (``name``,
  ``start_unix``, ``dur_s``, ``self_s``, ``attrs``) through
  :func:`repro.telemetry.events.emit`.  With ``REPRO_EVENTS`` set, the
  parent, fleet workers and ``repro.serve`` all append their spans to
  the one event log they share, each under its own pid, which is what
  ``python -m repro.telemetry.export`` lays out on a Perfetto timeline.
  Without a sink nothing is written or kept.

The phase table is picklable through :func:`snapshot` and re-foldable
with :func:`merge_snapshot`, which is how worker processes in the
parallel experiment runner report their phase times back to the parent.
The typed metrics registry (:mod:`repro.telemetry.metrics`) rides the
same channel: its state is folded into every snapshot under
``"metrics"``, merged and reset alongside the phases, so its counters
inherit the runner's exactly-once-across-retries discipline.  The
registry is the only counter API; this module only times things.

State is process-local and single-threaded by design, matching the rest
of the pipeline.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry import events as _events
from repro.telemetry import metrics as _metrics


class Span:
    """One open timed region of the pipeline."""

    __slots__ = ("name", "attrs", "dur", "start", "child_dur")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs = attrs
        self.dur = 0.0
        #: wall-clock entry time (unix seconds)
        self.start = 0.0
        #: summed durations of the closed direct children
        self.child_dur = 0.0


#: stack of open spans (innermost last)
_stack: List[Span] = []
#: phase name -> [calls, cumulative seconds, self seconds]
_phases: Dict[str, List[float]] = {}


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span]:
    """Time one region; nestable and re-entrant.  Yields the live
    :class:`Span` so callers can attach attributes mid-flight."""
    current = Span(name, attrs or None)
    current.start = time.time()
    parent = _stack[-1] if _stack else None
    _stack.append(current)
    start = time.perf_counter()
    try:
        yield current
    finally:
        current.dur = time.perf_counter() - start
        if _stack and _stack[-1] is current:
            _stack.pop()
        child = current.child_dur
        self_t = current.dur - child if current.dur > child else 0.0
        cell = _phases.get(name)
        if cell is None:
            _phases[name] = [1, current.dur, self_t]
        else:
            cell[0] += 1
            cell[1] += current.dur
            cell[2] += self_t
        if parent is not None:
            parent.child_dur += current.dur
        _events.emit("span", name=name, start_unix=current.start,
                     dur_s=current.dur, self_s=self_t,
                     attrs=current.attrs)


def phase(name: str) -> Any:
    """Time one pipeline phase (attribute-less :func:`span`)."""
    return span(name)


def spanned(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span` (figure modules annotate their
    ``run()`` entry points with it)."""
    def wrap(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def inner(*args: Any, **kwargs: Any) -> Any:
            with span(label, **attrs):
                return fn(*args, **kwargs)
        return inner
    return wrap


def phase_stats() -> Dict[str, Dict[str, float]]:
    """Full aggregate snapshot:
    ``name -> {"calls", "total_s", "self_s"}``."""
    return {
        name: {"calls": int(c), "total_s": t, "self_s": s}
        for name, (c, t, s) in _phases.items()
    }


def reset() -> None:
    """Clear all timings/metrics (tests use this)."""
    _stack.clear()
    _phases.clear()
    _metrics.REGISTRY.reset()


# -- cross-process aggregation -------------------------------------------------


def snapshot() -> Dict[str, Any]:
    """Picklable/JSON-safe copy of this process's phase table and
    metrics registry.

    Worker processes return this with their task results; the parent
    folds it back in with :func:`merge_snapshot`.  Spans travel through
    the event log instead, written by the process that timed them.
    """
    return {
        "phases": {name: list(cell) for name, cell in _phases.items()},
        "metrics": _metrics.REGISTRY.snapshot(),
    }


def merge_snapshot(snap: Optional[Dict[str, Any]]) -> None:
    """Fold a :func:`snapshot` from another process into this one."""
    if not snap:
        return
    for name, cell in snap.get("phases", {}).items():
        calls = int(cell[0])
        total = float(cell[1])
        self_t = float(cell[2]) if len(cell) > 2 else total
        mine = _phases.get(name)
        if mine is None:
            _phases[name] = [calls, total, self_t]
        else:
            mine[0] += calls
            mine[1] += total
            mine[2] += self_t
    _metrics.REGISTRY.merge(snap.get("metrics"))


# -- reporting -----------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def report() -> str:
    """Render the per-phase report.

    Phases are sorted by *self* time, and both cumulative and self time
    are shown, so a ``simulate`` nested inside a ``fig10`` span no longer
    double-counts toward the ordering.
    """
    lines = ["== repro.telemetry " + "=" * 52]
    if _phases:
        lines.append(
            f"{'phase':<30} {'calls':>6} {'total':>10} {'self':>10} "
            f"{'mean':>10}"
        )
        ordered = sorted(_phases.items(), key=lambda kv: -kv[1][2])
        for name, (calls, total, self_t) in ordered:
            mean = total / calls if calls else 0.0
            lines.append(
                f"{name:<30} {int(calls):>6} {_fmt_seconds(total):>10} "
                f"{_fmt_seconds(self_t):>10} {_fmt_seconds(mean):>10}"
            )
    return "\n".join(lines)
