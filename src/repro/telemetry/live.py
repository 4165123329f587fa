"""Live sweep progress from the structured event stream.

``python -m repro.telemetry.live events.jsonl`` summarizes (or, with
``--follow``, tails) a ``REPRO_EVENTS`` log, rendering the sweep's
operational state: cells done/cached, retries, quarantines, batch
fallbacks, and aggregate simulated instructions per second.  The sweep
CLI's ``--progress`` flag drives the same renderer in-process while the
sweep runs::

    python -m repro.experiments.sweep --apps Music,Email \\
        --schemes baseline,critic --progress

Everything here is a *reader* of the event stream — it never feeds back
into the pipeline, so attaching or detaching the view cannot change a
result.
"""

from __future__ import annotations

import argparse
import io
import sys
import threading
import time
from typing import Any, Dict, IO, Iterable, Optional

from repro.telemetry.events import iter_events


class Progress:
    """Streaming aggregation of one run's events."""

    def __init__(self) -> None:
        self.done = 0
        self.cached = 0
        self.retried = 0
        self.quarantined = 0
        self.fallbacks = 0
        self.batch_groups = 0
        self.worker_deaths = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.instructions = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.events = 0

    def feed(self, event: Dict[str, Any]) -> None:
        self.events += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if self.first_ts is None or ts < self.first_ts:
                self.first_ts = ts
            if self.last_ts is None or ts > self.last_ts:
                self.last_ts = ts
        kind = event.get("kind", "")
        if kind == "sweep.cell.done":
            self.done += 1
            self.instructions += int(event.get("instructions", 0))
        elif kind == "sweep.cell.cached":
            self.cached += 1
        elif kind == "dispatch.attempt":
            outcome = event.get("outcome")
            if outcome not in ("ok", "skipped"):
                self.retried += 1
            if outcome == "worker-died":
                self.worker_deaths += 1
        elif kind == "dispatch.quarantine":
            self.quarantined += 1
        elif kind == "batch.fallback":
            self.fallbacks += 1
        elif kind == "batch.group":
            self.batch_groups += 1
        elif kind == "cache.hit":
            self.cache_hits += 1
        elif kind == "cache.miss":
            self.cache_misses += 1

    def feed_all(self, events: Iterable[Dict[str, Any]]) -> "Progress":
        for event in events:
            self.feed(event)
        return self

    @property
    def wall_s(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return max(0.0, self.last_ts - self.first_ts)

    @property
    def instr_per_s(self) -> float:
        wall = self.wall_s
        return self.instructions / wall if wall > 0 else 0.0

    def line(self) -> str:
        """The one-line ``--progress`` rendering."""
        parts = [f"cells {self.done} done"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} fallback")
        rate = self.instr_per_s
        if rate >= 1e6:
            parts.append(f"{rate / 1e6:.2f}M instr/s")
        elif rate > 0:
            parts.append(f"{rate / 1e3:.0f}k instr/s")
        return "[sweep] " + ", ".join(parts)

    def summary(self) -> str:
        lines = [
            f"{'cells done':<22} {self.done}",
            f"{'cells cached':<22} {self.cached}",
            f"{'attempts retried':<22} {self.retried}",
            f"{'cells quarantined':<22} {self.quarantined}",
            f"{'batch groups':<22} {self.batch_groups}",
            f"{'batch fallbacks':<22} {self.fallbacks}",
            f"{'worker deaths':<22} {self.worker_deaths}",
            f"{'cache hit/miss':<22} "
            f"{self.cache_hits}/{self.cache_misses}",
            f"{'instructions':<22} {self.instructions}",
            f"{'span (s)':<22} {self.wall_s:.2f}",
            f"{'aggregate instr/s':<22} {self.instr_per_s:,.0f}",
        ]
        return "\n".join(lines)


def summarize(path: str) -> Progress:
    """One-shot aggregation of an event log."""
    return Progress().feed_all(iter_events(path))


def follow(
    path: str,
    out: IO[str],
    stop: Optional[threading.Event] = None,
    interval_s: float = 0.5,
    max_wall_s: Optional[float] = None,
) -> Progress:
    """Tail ``path``, redrawing :meth:`Progress.line` on ``out`` until
    ``stop`` is set (or ``max_wall_s`` elapses).  Tolerates the file not
    existing yet — the sweep may not have emitted anything.  A trailing
    line without its newline is held until the writer finishes it."""
    progress = Progress()
    started = time.monotonic()
    handle: Optional[IO[str]] = None
    partial = ""
    last_line = ""
    try:
        while True:
            if handle is None:
                try:
                    handle = open(path, encoding="utf-8")
                except OSError:
                    handle = None
            if handle is not None:
                complete, _, partial = \
                    (partial + handle.read()).rpartition("\n")
                for event in iter_events(io.StringIO(complete)):
                    progress.feed(event)
                line = progress.line()
                if line != last_line:
                    out.write("\r\x1b[2K" + line)
                    out.flush()
                    last_line = line
            if stop is not None and stop.is_set():
                break
            if max_wall_s is not None \
                    and time.monotonic() - started > max_wall_s:
                break
            if stop is not None:
                stop.wait(interval_s)
            else:
                time.sleep(interval_s)
    finally:
        if handle is not None:
            handle.close()
        if last_line:
            out.write("\n")
            out.flush()
    return progress


class ProgressRenderer:
    """Background thread driving :func:`follow` while a sweep runs in
    the calling thread (the ``--progress`` implementation)."""

    def __init__(self, path: str, out: IO[str] = sys.stderr,
                 interval_s: float = 0.5) -> None:
        self.path = path
        self.out = out
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=follow, args=(self.path, self.out, self._stop),
            kwargs={"interval_s": self.interval_s},
            name="telemetry-progress", daemon=True,
        )

    def __enter__(self) -> "ProgressRenderer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.live",
        description="Summarize (or tail) a REPRO_EVENTS structured "
                    "event log.",
    )
    parser.add_argument("events", help="event log path (REPRO_EVENTS)")
    parser.add_argument("--follow", action="store_true",
                        help="keep tailing, redrawing a progress line "
                             "(Ctrl-C to stop)")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="redraw interval seconds (default 0.5)")
    args = parser.parse_args(argv)

    if args.follow:
        try:
            follow(args.events, sys.stdout, interval_s=args.interval)
        except KeyboardInterrupt:
            pass
        return 0
    progress = summarize(args.events)
    if progress.events == 0:
        print(f"no events in {args.events}")
        return 1
    print(progress.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
