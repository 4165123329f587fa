"""Request/workload vocabulary for the serve load generator.

The shape follows the classic KV-store driver split: a :class:`Req` is
one unit of offered load, a :class:`Workload` turns a sweep grid into an
unbounded request stream with a configurable request *mix*, and a
``ReqGenEngine`` (:mod:`repro.loadgen.engines`) decides *when* each
request is issued — closed-loop (a fixed worker pool, next request only
after the last reply) or open-loop (a fixed arrival rate, latency
measured from the scheduled arrival so queueing delay is charged to the
server, not silently omitted).

Request shapes over the grid:

* ``cell`` — one app x scheme x config per request (the sharpest probe
  of per-cell service latency; round-robins the grid so repeat passes
  hit the warm cache);
* ``app`` — one app, every scheme x config (a medium fan-out job);
* ``full`` — the whole grid in one request (batch-shaped traffic).

A mix like ``cell=8,app=1,full=1`` interleaves shapes deterministically
(largest-remainder pattern, no RNG) so runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Request shapes a workload can emit.
SHAPES = ("cell", "app", "full")


@dataclass
class Req:
    """One unit of offered load: a sweep spec plus scheduling info."""

    index: int                    #: 0-based issue order
    shape: str                    #: "cell" | "app" | "full"
    spec: Dict[str, Any]          #: SweepSpec.to_dict-shaped payload
    #: open-loop intended issue time, seconds relative to run start
    scheduled_s: Optional[float] = None


@dataclass
class Sample:
    """One completed request, as measured by an engine."""

    index: int
    shape: str
    start_s: float                #: issue time relative to run start
    latency_s: float              #: scheduled-arrival → done record
    cells: int = 0
    cached: int = 0
    computed: int = 0
    coalesced: int = 0
    failed: int = 0
    ok: bool = True
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "index": self.index, "shape": self.shape,
            "start_s": round(self.start_s, 6),
            "latency_s": round(self.latency_s, 6),
            "cells": self.cells, "cached": self.cached,
            "computed": self.computed, "coalesced": self.coalesced,
            "failed": self.failed,
            "ok": self.ok,
        }
        if self.error:
            record["error"] = self.error
        return record


def parse_mix(text: str) -> Dict[str, int]:
    """Parse ``"cell=8,full=2"`` into integer shape weights."""
    mix: Dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        name = name.strip()
        if name not in SHAPES:
            raise ValueError(
                f"unknown request shape {name!r} "
                f"(choose from {', '.join(SHAPES)})")
        try:
            value = int(weight) if weight else 1
        except ValueError:
            raise ValueError(
                f"mix weight for {name!r} must be an integer, "
                f"got {weight!r}") from None
        if value < 0:
            raise ValueError(f"mix weight for {name!r} must be >= 0")
        mix[name] = mix.get(name, 0) + value
    if not mix or not any(mix.values()):
        raise ValueError(f"empty request mix {text!r}")
    return mix


def _mix_pattern(mix: Dict[str, int]) -> List[str]:
    """Deterministic interleave: each shape appears ``weight`` times per
    cycle, spread as evenly as integer arithmetic allows."""
    total = sum(mix.values())
    slots: List[Tuple[float, int, str]] = []
    for shape, weight in sorted(mix.items()):
        for k in range(weight):
            slots.append(((k + 0.5) * total / weight, len(slots), shape))
    return [shape for _, _, shape in sorted(slots)]


class Workload:
    """An unbounded, deterministic request stream."""

    name = "workload"

    def reqs(self) -> Iterator[Req]:
        raise NotImplementedError


@dataclass
class SweepGridWorkload(Workload):
    """Requests drawn from one sweep grid with a shape mix.

    ``spec`` is a ``SweepSpec.to_dict``-shaped dict naming the full
    grid; per-request sub-specs are carved out of it.  ``cell`` and
    ``app`` requests round-robin their axis so every grid point gets
    traffic, and a second pass over the grid is answered from the
    server's warm cache.
    """

    spec: Dict[str, Any]
    mix: Dict[str, int] = field(
        default_factory=lambda: {"cell": 1})
    name: str = "sweep-grid"

    def __post_init__(self) -> None:
        self._apps: Tuple[str, ...] = tuple(self.spec.get("apps") or ())
        if not self._apps:
            raise ValueError("workload spec needs a non-empty apps list")
        self._schemes = tuple(self.spec.get("schemes") or ("baseline",))
        self._configs = tuple(self.spec.get("configs")
                              or ("google-tablet",))
        self._pattern = _mix_pattern(self.mix)
        self._cells = [
            (app, scheme, config)
            for app in self._apps
            for scheme in self._schemes
            for config in self._configs
        ]

    def _sub_spec(self, **axes: Any) -> Dict[str, Any]:
        sub = dict(self.spec)
        sub.update(axes)
        return sub

    def grid_cells(self) -> int:
        return len(self._cells)

    def reqs(self) -> Iterator[Req]:
        cell_rr = itertools.cycle(self._cells)
        app_rr = itertools.cycle(self._apps)
        for index in itertools.count():
            shape = self._pattern[index % len(self._pattern)]
            if shape == "cell":
                app, scheme, config = next(cell_rr)
                spec = self._sub_spec(apps=[app], schemes=[scheme],
                                      configs=[config])
            elif shape == "app":
                spec = self._sub_spec(apps=[next(app_rr)])
            else:
                spec = dict(self.spec)
            yield Req(index=index, shape=shape, spec=spec)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (0 <= q <= 1)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[int(rank)]


def summarize(samples: List[Sample], wall_s: float,
              engine: str, workload: str,
              offered: Dict[str, Any]) -> Dict[str, Any]:
    """Fold samples into the loadgen report: request outcomes,
    served-cell sources, throughput, latency percentiles over the ok
    requests, and every sample."""
    ok = [s for s in samples if s.ok]
    lat = sorted(s.latency_s for s in ok)
    cells = sum(s.cells for s in ok)
    report: Dict[str, Any] = {
        "kind": "loadgen",
        "engine": engine,
        "workload": workload,
        "offered": offered,
        "wall_s": round(wall_s, 6),
        "requests": {
            "issued": len(samples),
            "ok": len(ok),
            "failed": len(samples) - len(ok),
        },
        "cells": {
            "served": cells,
            "cached": sum(s.cached for s in ok),
            "computed": sum(s.computed for s in ok),
            "coalesced": sum(s.coalesced for s in ok),
            "failed": sum(s.failed for s in ok),
        },
        "throughput": {
            "req_per_s": round(len(ok) / wall_s, 3) if wall_s else 0.0,
            "cells_per_s": round(cells / wall_s, 3) if wall_s else 0.0,
        },
        "latency_s": {
            "mean": round(sum(lat) / len(lat), 6) if lat else 0.0,
            "p50": round(percentile(lat, 0.50), 6),
            "p95": round(percentile(lat, 0.95), 6),
            "p99": round(percentile(lat, 0.99), 6),
            "max": round(lat[-1], 6) if lat else 0.0,
        },
        "samples": [s.to_dict() for s in samples],
    }
    errors = sorted({s.error for s in samples if s.error})
    if errors:
        report["errors"] = errors[:10]
    return report


__all__ = [
    "Req",
    "SHAPES",
    "Sample",
    "SweepGridWorkload",
    "Workload",
    "parse_mix",
    "percentile",
    "summarize",
]
