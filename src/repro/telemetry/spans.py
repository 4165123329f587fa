"""Hierarchical spans and phase aggregates.

This is the core of :mod:`repro.telemetry`.  A *span* is one timed region
of the pipeline (``with span("simulate", app="Music"): ...``); spans nest,
forming a tree per top-level region.  Two views are maintained:

* **aggregates** — every span close folds into a per-name table of
  ``(calls, cumulative seconds, self seconds)``.  *Self* time excludes the
  cumulative time of direct children, so nested phases (``simulate``
  inside ``fig10``) no longer double-count toward the report total.  The
  aggregate table is always on: its cost is one ``perf_counter`` pair and
  a dict update per span.
* **trees** — completed root spans are retained (and exportable as JSONL
  via :func:`dump_spans`) only when ``REPRO_SPANS`` is set, capped at
  :data:`MAX_ROOT_SPANS` roots per process.

Both views are picklable through :func:`snapshot` and re-foldable with
:func:`merge_snapshot`, which is how worker processes in the parallel
experiment runner report their telemetry back to the parent (spans from a
worker are tagged with the worker's pid).  The typed metrics registry
(:mod:`repro.telemetry.metrics`) rides the same channel: its state is
folded into every snapshot under ``"metrics"``, merged and reset
alongside the phases, so its counters inherit the runner's
exactly-once-across-retries discipline.  The registry is the only
counter API; this module only times things.

Spans also record their wall-clock start (``start_unix``), which is what
lets ``python -m repro.telemetry.export`` lay the retained trees out on
a Chrome-trace/Perfetto timeline.  Setting ``REPRO_SPANS`` to a *path*
(anything other than ``0``/``1``) retains trees **and** dumps them as
JSONL to that path at exit, ready for the exporter; a trailing
``_meta`` line carries the registry's counter totals.

State is process-local and single-threaded by design, matching the rest
of the pipeline.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO

from repro.telemetry import metrics as _metrics

_ENV_SPANS = "REPRO_SPANS"

#: Retained root-span cap (per process); excess roots are counted, not kept.
MAX_ROOT_SPANS = 4096


class Span:
    """One closed (or still-open) timed region of the pipeline."""

    __slots__ = ("name", "attrs", "dur", "start", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs = attrs
        self.dur = 0.0
        #: wall-clock entry time (unix seconds; 0.0 for legacy records)
        self.start = 0.0
        self.children: List["Span"] = []

    @property
    def cumulative(self) -> float:
        """Wall seconds from entry to exit, children included."""
        return self.dur

    @property
    def self_time(self) -> float:
        """Wall seconds spent in this span *excluding* direct children."""
        child = sum(c.dur for c in self.children)
        return self.dur - child if self.dur > child else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe tree form (used by the JSONL export and snapshots)."""
        record: Dict[str, Any] = {
            "name": self.name,
            "dur_s": self.dur,
            "self_s": self.self_time,
        }
        if self.start:
            record["start_unix"] = self.start
        if self.attrs:
            record["attrs"] = self.attrs
        if self.children:
            record["children"] = [c.to_dict() for c in self.children]
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(str(data.get("name", "?")), data.get("attrs") or None)
        span.dur = float(data.get("dur_s", 0.0))
        span.start = float(data.get("start_unix", 0.0))
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span


#: stack of open spans (innermost last)
_stack: List[Span] = []
#: retained completed root spans (only when span retention is on)
_roots: List[Span] = []
#: roots dropped past MAX_ROOT_SPANS
_dropped_roots = 0
#: phase name -> [calls, cumulative seconds, self seconds]
_phases: Dict[str, List[float]] = {}


def _retain_trees() -> bool:
    return os.environ.get(_ENV_SPANS, "") not in ("", "0")


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span]:
    """Time one region; nestable and re-entrant.  Yields the live
    :class:`Span` so callers can attach attributes mid-flight."""
    global _dropped_roots
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
        child = sum(c.dur for c in current.children)
        self_t = current.dur - child if current.dur > child else 0.0
        cell = _phases.get(name)
        if cell is None:
            _phases[name] = [1, current.dur, self_t]
        else:
            cell[0] += 1
            cell[1] += current.dur
            cell[2] += self_t
        if parent is not None:
            parent.children.append(current)
        elif _retain_trees():
            if len(_roots) < MAX_ROOT_SPANS:
                _roots.append(current)
            else:
                _dropped_roots += 1


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


def spans() -> List[Span]:
    """Retained completed root spans (empty unless retention is on)."""
    return list(_roots)


def dropped_spans() -> int:
    """Roots discarded after :data:`MAX_ROOT_SPANS` was reached."""
    return _dropped_roots


def dump_spans(stream: TextIO) -> int:
    """Write retained root-span trees as JSONL; returns lines written."""
    written = 0
    for root in _roots:
        stream.write(json.dumps(root.to_dict(), sort_keys=True) + "\n")
        written += 1
    return written


def reset() -> None:
    """Clear all spans/timings/metrics (tests use this)."""
    global _dropped_roots
    _stack.clear()
    _roots.clear()
    _dropped_roots = 0
    _phases.clear()
    _metrics.REGISTRY.reset()


# -- cross-process aggregation -------------------------------------------------


def snapshot() -> Dict[str, Any]:
    """Picklable/JSON-safe copy of this process's telemetry state.

    Worker processes return this with their task results; the parent
    folds it back in with :func:`merge_snapshot`.
    """
    return {
        "pid": os.getpid(),
        "phases": {name: list(cell) for name, cell in _phases.items()},
        "metrics": _metrics.REGISTRY.snapshot(),
        "spans": [root.to_dict() for root in _roots],
        "dropped_spans": _dropped_roots,
    }


def merge_snapshot(snap: Optional[Dict[str, Any]]) -> None:
    """Fold a :func:`snapshot` from another process into this one."""
    global _dropped_roots
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
    _dropped_roots += int(snap.get("dropped_spans", 0))
    roots = snap.get("spans") or []
    if roots and _retain_trees():
        pid = snap.get("pid")
        for data in roots:
            root = Span.from_dict(data)
            if pid is not None:
                root.attrs = dict(root.attrs or {})
                root.attrs.setdefault("pid", pid)
            if len(_roots) < MAX_ROOT_SPANS:
                _roots.append(root)
            else:
                _dropped_roots += 1


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
    if _dropped_roots:
        lines.append("")
        lines.append(f"(span trees dropped past cap: {_dropped_roots})")
    return "\n".join(lines)


def spans_out_path() -> Optional[str]:
    """The JSONL dump path, when ``REPRO_SPANS`` names one (any value
    other than the retention toggles ``0``/``1``)."""
    raw = os.environ.get(_ENV_SPANS, "").strip()
    return raw if raw not in ("", "0", "1") else None


def _dump_spans_at_exit() -> None:
    path = spans_out_path()
    if path is None or not _roots:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            dump_spans(handle)
            # A trailing meta line carries the registry's final counter
            # values so the Chrome-trace exporter can render counter tracks.
            handle.write(json.dumps({
                "_meta": {
                    "pid": os.getpid(),
                    "counters": _metrics.REGISTRY.counters_flat(),
                },
            }, sort_keys=True) + "\n")
    except OSError:
        pass


atexit.register(_dump_spans_at_exit)
