"""Typed metrics registry: labeled counters, gauges, and histograms.

The span core (:mod:`repro.telemetry.spans`) records *where time went*;
this module records *what the system did* — retries, quarantines, cache
hits, invariant violations, batch fallbacks — as first-class typed
metrics with Prometheus-style names and labels.  It is the repo's only
counter API:

    from repro.telemetry import metrics
    metrics.inc("repro_dispatch_attempts_total", outcome="ok")
    metrics.observe("repro_cell_wall_seconds", 0.93)
    metrics.set_gauge("repro_dispatch_workers", 4)

Three metric types, all labeled:

* **counter** — monotone accumulator; merges by summation.
* **gauge** — last-known value; merges by elementwise ``max`` so that
  folding worker snapshots into the parent is deterministic regardless
  of arrival order (a gauge that must not merge this way belongs in the
  event stream instead).
* **histogram** — fixed-bucket-scheme distribution (bucket counts +
  sum + count); merges by elementwise summation.  Bucket schemes are
  frozen per family at creation (:data:`LATENCY_BUCKETS_S` for
  durations, :data:`WIDTH_BUCKETS` for batch shapes) so snapshots from
  different processes always line up.

The registry rides the same cross-process channel as the phase table:
its state is folded into :func:`repro.telemetry.spans.snapshot` (under
the ``"metrics"`` key), merged back by ``merge_snapshot``, and cleared by
``reset`` — which means the parallel runner's exactly-once-across-
retries discipline (only the successful attempt's snapshot merges;
failed attempts ship none) applies to metrics for free, and a fleet
run under fault injection yields counter totals bit-equal to an inline
run.

Metrics are **provenance, never semantics**: nothing reads them back
into the pipeline, they are excluded from ``config_hash`` / artifact
cache keys, and the per-update cost is one dict lookup and an add.
:func:`render_prometheus` serializes the registry in the text
exposition format: the ``metrics.txt`` written next to run manifests,
and the ``/metrics`` endpoint of ``repro.serve``'s HTTP front.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Wall-clock duration buckets (seconds): sub-millisecond cache probes
#: through multi-minute cells.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)

#: Batch-group width buckets (cells per batch group): powers of two
#: up to a full fig12-style hardware sweep.
WIDTH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ValueError):
    """Invalid metric name/labels, or a type conflict on a family."""


def _label_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name: {name!r}")


def _check_labels(labels: Mapping[str, Any]) -> None:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise MetricsError(f"invalid label name: {key!r}")


class _Family:
    """One named metric family: a type, a help string, and samples
    keyed by label set."""

    __slots__ = ("name", "type", "help", "buckets", "samples")

    def __init__(self, name: str, type_: str, help_: str = "",
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.buckets = buckets
        #: label key -> float (counter/gauge) or
        #: ``[bucket_counts..., count, sum]`` (histogram)
        self.samples: Dict[Tuple[Tuple[str, str], ...], Any] = {}

    def _hist_cell(self) -> List[float]:
        assert self.buckets is not None
        return [0] * (len(self.buckets) + 1) + [0, 0.0]

    def observe(self, value: float, labels: Mapping[str, Any]) -> None:
        key = _label_key(labels)
        cell = self.samples.get(key)
        if cell is None:
            cell = self.samples[key] = self._hist_cell()
        buckets = self.buckets or ()
        index = len(buckets)  # +Inf overflow bucket
        for i, bound in enumerate(buckets):
            if value <= bound:
                index = i
                break
        cell[index] += 1
        cell[-2] += 1
        cell[-1] += value


class MetricsRegistry:
    """A set of metric families with snapshot/merge/render support."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- family access -------------------------------------------------------

    def _family(self, name: str, type_: str, help_: str,
                buckets: Optional[Tuple[float, ...]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            _check_name(name)
            family = _Family(name, type_, help_, buckets)
            self._families[name] = family
            return family
        if family.type != type_:
            raise MetricsError(
                f"metric {name!r} is a {family.type}, not a {type_}"
            )
        if help_ and not family.help:
            family.help = help_
        return family

    def families(self) -> Dict[str, _Family]:
        """Live family table (tests and the exposition renderer)."""
        return self._families

    # -- instruments ---------------------------------------------------------

    def inc(self, name: str, value: float = 1, help: str = "",
            **labels: Any) -> None:
        """Bump a labeled counter."""
        _check_labels(labels)
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        family.samples[key] = family.samples.get(key, 0) + value

    def set_gauge(self, name: str, value: float, help: str = "",
                  **labels: Any) -> None:
        """Set a labeled gauge to its last-known value."""
        _check_labels(labels)
        family = self._family(name, "gauge", help)
        family.samples[_label_key(labels)] = value

    def observe(self, name: str, value: float,
                buckets: Tuple[float, ...] = LATENCY_BUCKETS_S,
                help: str = "", **labels: Any) -> None:
        """Record one observation in a fixed-bucket histogram.  The
        bucket scheme is frozen by the family's *first* observation."""
        _check_labels(labels)
        family = self._family(name, "histogram", help,
                              buckets=tuple(buckets))
        family.observe(value, labels)

    # -- reads ---------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Current value of one counter/gauge sample (None if absent)."""
        family = self._families.get(name)
        if family is None or family.type == "histogram":
            return None
        return family.samples.get(_label_key(labels))

    def total(self, name: str) -> float:
        """Sum of every sample of a counter family (0.0 if absent)."""
        family = self._families.get(name)
        if family is None or family.type != "counter":
            return 0.0
        return sum(family.samples.values())

    def counters_flat(self, prefix: str = "") -> Dict[str, float]:
        """``{"name{a=b}": value}`` for every counter sample under
        ``prefix`` — the ``run.recorded`` event carries this map and
        the bit-equality tests compare it."""
        out: Dict[str, float] = {}
        for name, family in sorted(self._families.items()):
            if family.type != "counter" or not name.startswith(prefix):
                continue
            for key, value in family.samples.items():
                label_txt = ",".join(f"{k}={v}" for k, v in key)
                out[f"{name}{{{label_txt}}}"] = value
        return out

    # -- cross-process state -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Picklable/JSON-safe copy of every family (rides the worker
        result channel next to the phase table)."""
        snap: Dict[str, Any] = {}
        for name, family in self._families.items():
            record: Dict[str, Any] = {
                "type": family.type,
                "help": family.help,
                "samples": [
                    [list(key), list(cell) if isinstance(cell, list)
                     else cell]
                    for key, cell in family.samples.items()
                ],
            }
            if family.buckets is not None:
                record["buckets"] = list(family.buckets)
            snap[name] = record
        return snap

    def merge(self, snap: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        Counters and histograms sum; gauges take the elementwise max
        (deterministic under any merge order).  Families with a
        conflicting type are skipped rather than corrupted.
        """
        if not snap:
            return
        for name, record in snap.items():
            type_ = record.get("type", "counter")
            buckets = tuple(record["buckets"]) \
                if record.get("buckets") is not None else None
            try:
                family = self._family(name, type_, record.get("help", ""),
                                      buckets=buckets)
            except MetricsError:
                continue
            for raw_key, cell in record.get("samples", []):
                key = tuple((str(k), str(v)) for k, v in raw_key)
                mine = family.samples.get(key)
                if type_ == "histogram":
                    if family.buckets is not None and buckets is not None \
                            and family.buckets != buckets:
                        continue  # incompatible scheme: refuse to mangle
                    cell = list(cell)
                    if mine is None:
                        family.samples[key] = cell
                    else:
                        for i, v in enumerate(cell):
                            mine[i] += v
                elif type_ == "gauge":
                    family.samples[key] = cell if mine is None \
                        else max(mine, cell)
                else:
                    family.samples[key] = (mine or 0) + cell

    def reset(self) -> None:
        self._families.clear()

    # -- text exposition -----------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for name, family in sorted(self._families.items()):
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.type}")
            for key in sorted(family.samples):
                cell = family.samples[key]
                if family.type == "histogram":
                    buckets = family.buckets or ()
                    running = 0
                    for i, bound in enumerate(buckets):
                        running += cell[i]
                        lines.append(_sample(
                            f"{name}_bucket", key, running,
                            extra=("le", _fmt_bound(bound)),
                        ))
                    running += cell[len(buckets)]
                    lines.append(_sample(f"{name}_bucket", key, running,
                                         extra=("le", "+Inf")))
                    lines.append(_sample(f"{name}_count", key, cell[-2]))
                    lines.append(_sample(f"{name}_sum", key, cell[-1]))
                else:
                    lines.append(_sample(name, key, cell))
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


def _fmt_value(value: Any) -> str:
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _sample(name: str, key: Iterable[Tuple[str, str]], value: Any,
            extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs = pairs + [extra]
    if pairs:
        labels = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
        return f"{name}{{{labels}}} {_fmt_value(value)}"
    return f"{name} {_fmt_value(value)}"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back to ``{sample_line_key: value}`` — the
    schema tests round-trip ``metrics.txt`` through this."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise MetricsError(f"malformed exposition line: {line!r}")
        out[name] = float(value)
    return out


#: The process-wide default registry (what the module-level helpers and
#: the span snapshot/merge/reset hooks operate on).
REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1, help: str = "",
        **labels: Any) -> None:
    REGISTRY.inc(name, value, help=help, **labels)


def set_gauge(name: str, value: float, help: str = "",
              **labels: Any) -> None:
    REGISTRY.set_gauge(name, value, help=help, **labels)


def observe(name: str, value: float,
            buckets: Tuple[float, ...] = LATENCY_BUCKETS_S,
            help: str = "", **labels: Any) -> None:
    REGISTRY.observe(name, value, buckets=buckets, help=help, **labels)


def render_prometheus() -> str:
    return REGISTRY.render_prometheus()


__all__ = [
    "LATENCY_BUCKETS_S",
    "MetricsError",
    "MetricsRegistry",
    "REGISTRY",
    "WIDTH_BUCKETS",
    "inc",
    "observe",
    "parse_prometheus",
    "render_prometheus",
    "set_gauge",
]
