"""What the benchmark measures: workload names and metric names.

``BENCHMARK.json`` at the repository root is the one place units,
directions, bounds and the reason for each workload are written down.
This module holds only what the harness code itself must know — which
names it computes — and :func:`check`, which verifies that the file and
the code agree and that the file stays within the limits its consumers
accept.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("cold-sweep", "sim-grid", "serve-open", "warm-report")

#: ``warm_ms`` is not here: across runs on a shared host it does not
#: repeat within a bound, so it is the per-layer ``bench.warm_ms``
END_TO_END = ("setup_s", "cold_ms", "peak_rss_mb")

#: ``simulate_batch`` fallback reasons, as ``last_batch_report()`` words
#: them, mapped to metric-name slugs; anything unlisted counts as other.
FALLBACK_REASONS = {
    "L2 set conflict (lines exceed associativity)": "l2-set-conflict",
    "i-side L2 miss": "i-side-l2-miss",
    "load-observing prefetcher": "load-observing-prefetcher",
    "max-cycles": "max-cycles",
    "cold-start": "cold-start",
    "flight-recorder": "flight-recorder",
    "kernel deadlock": "kernel-deadlock",
    "kernel ring overflow": "kernel-ring-overflow",
}

#: Report sections the warm-report workload renders.
REPORT_SECTIONS = ("table1", "table2", "fig03", "fig05", "fig13")

#: Layers timed by wrapping their entry points: ``<layer>.calls`` and
#: ``<layer>.self_s`` each.
CALL_LAYERS = ("workloads", "trace", "compiler", "profiler")
CACHE_OPS = tuple(f"{verb}_{kind}" for verb in ("load", "store")
                  for kind in ("trace", "profile", "stats"))


def per_layer_names() -> List[str]:
    names: List[str] = []
    for layer in CALL_LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names.append("dfg.self_s")
    names += ["cpu.inline_calls", "cpu.inline_self_s",
              "cpu.batch_calls", "cpu.batch_self_s",
              "cpu.batch_cells", "cpu.batch_fast_cells",
              "cpu.batch_fast_frac"]
    names += [f"cpu.batch_fallback.{slug}"
              for slug in list(FALLBACK_REASONS.values()) + ["other"]]
    names.append("cpu.sim_instructions")
    for op in CACHE_OPS:
        names += [f"cache.{op}_calls", f"cache.{op}_s"]
    names += ["cache.hits", "cache.misses", "cache.hit_frac"]
    names += [f"dispatch.{m}" for m in
              ("tasks", "attempts", "retries", "attempt_s", "busy_frac")]
    names.append("experiments.self_s")
    names += [f"experiments.report.{s}_s" for s in REPORT_SECTIONS]
    names += ["telemetry.record_run_calls", "telemetry.record_run_s"]
    names += ["serve.cell_wall_p50_ms", "serve.wait_p50_ms",
              "serve.cached", "serve.computed", "serve.coalesced",
              "serve.busy", "serve.self_s"]
    names += ["loadgen.lag_p99_ms", "loadgen.requests"]
    names += ["bench.warm_ms", "bench.unattributed_frac",
              "bench.trace_overhead_frac"]
    return names


# -- BENCHMARK.json -----------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def load() -> Dict[str, Any]:
    with open(BENCHMARK_FILE) as handle:
        return json.load(handle)


def units(doc: Dict[str, Any], section: str) -> Dict[str, str]:
    """``{metric name: unit}`` for one metric section of the file."""
    return {entry["name"]: entry["unit"] for entry in doc[section]}


def check(doc: Dict[str, Any], size: int = 0) -> List[str]:
    """Every way ``doc`` breaks the file format or disagrees with the
    names the harness computes; empty when it is sound."""
    problems: List[str] = []
    if size > 64 * 1024:
        problems.append(f"file is {size} bytes, over 64 KiB")
    if set(doc) != _TOP_KEYS:
        problems.append(f"top-level keys {sorted(doc)} != "
                        f"{sorted(_TOP_KEYS)}")
        return problems
    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(a, str) and len(a) <= 200
                    for a in command)):
        problems.append("command must be 1-32 strings of <= 200 chars")
    elif any(a.startswith("/") or ".." in a.split("/") for a in command):
        problems.append("command must not name absolute or '..' paths")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1-16 directories")
    else:
        for path in paths:
            if not (isinstance(path, str) and _PATH.match(path)
                    and not path.startswith("/")
                    and ".." not in path.split("/")):
                problems.append(f"bad path {path!r}")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number 1-60")

    seen: set = set()

    def check_name(kind: str, name: Any) -> None:
        if not (isinstance(name, str) and _NAME.match(name)):
            problems.append(f"bad {kind} name {name!r}")
        elif name in seen:
            problems.append(f"{kind} name {name!r} used twice")
        seen.add(name)

    workloads = doc["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("workloads must number 2-8")
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload keys {sorted(entry)}")
            continue
        check_name("workload", entry["name"])
        why = entry["why"]
        if not (isinstance(why, str) and why.strip() and len(why) <= 200
                and "\n" not in why):
            problems.append(f"workload {entry['name']!r} needs a one-line "
                            f"why of <= 200 chars")
    for section, keys, limit in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 16),
            ("per_layer", {"name", "unit", "better"}, 128)):
        entries = doc[section]
        if not 1 <= len(entries) <= limit:
            problems.append(f"{section} must list 1-{limit} metrics")
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section} entry keys {sorted(entry)}")
                continue
            check_name("metric", entry["name"])
            if not (isinstance(entry["unit"], str)
                    and _UNIT.match(entry["unit"])):
                problems.append(f"bad unit {entry['unit']!r} for "
                                f"{entry['name']}")
            if entry["better"] not in ("lower", "higher"):
                problems.append(f"{entry['name']}: better must be lower "
                                f"or higher")
            if section == "end_to_end" and not (
                    isinstance(entry["bound"], (int, float))
                    and 0 < entry["bound"] <= 0.25):
                problems.append(f"{entry['name']}: bound must be in "
                                f"(0, 0.25]")
    e2e = {e.get("name"): e for e in doc["end_to_end"]}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" \
            or setup.get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup.get("bound") != max(e.get("bound", 0) for e in e2e.values()):
        problems.append("setup_s must carry the largest bound")

    for section, expected in (
            ("workloads", list(WORKLOADS)),
            ("end_to_end", list(END_TO_END)),
            ("per_layer", per_layer_names())):
        listed = [entry.get("name") for entry in doc[section]]
        if listed != expected:
            missing = sorted(set(expected) - set(listed))
            extra = sorted(set(listed) - set(expected))
            problems.append(f"{section} names differ from the harness: "
                            f"missing {missing}, extra {extra}"
                            if missing or extra else
                            f"{section} names are out of harness order")
    return problems
