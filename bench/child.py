"""Processes the harness starts: ``python -m bench.child <mode>``.

* ``run`` — one run of one workload: its set-ups, its passes of rounds,
  and the metrics, written as JSON to ``<dir>/result.json``;
* ``prepare`` — one set-up of one workload (timed from outside);
* ``serve-host`` — a ``ServeServer(executor="inline")`` in a process the
  benchmark owns, so a traced run can wrap the server's layers too.

The parent (``python -m bench``) hands every mode a scrubbed
environment; nothing here reads ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

from bench import spec
from bench.tracing import NAME, END, START, Patches, Recorder, \
    dump_spans, layer_totals, self_times
from bench.workloads import (
    WORKLOAD_CLASSES,
    Observers,
    PassResult,
    Run,
    install_tracing,
    prepare,
)

#: set-ups per measured run; setup_s is their median
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """Largest resident set of this process and any waited-for child
    (Linux reports kilobytes)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_passes(workload, trace: bool, seconds: float) -> List[PassResult]:
    passes = workload.passes(trace)
    results = []
    for settings, traced in passes:
        observers = Observers()
        rec = Recorder() if traced else None
        patches = rec if rec is not None else Patches()
        counts: Dict[str, int] = {}
        try:
            observers.install(patches)
            if rec is not None and workload.spans_in_process:
                install_tracing(rec, counts)
            result = workload.measure(settings, rec, seconds / len(passes))
        finally:
            patches.restore()
        result.layer.update(observers.layer())
        if rec is not None and result.spans is None:
            result.spans = rec.spans
        result.layer = {**counts, **result.layer}
        result.layer["cpu.sim_instructions"] = \
            result.layer.get("instructions", 0) \
            + observers.batch_fast_instructions
        results.append(result)
    return results


def layer_metrics(results: List[PassResult]) -> Dict[str, float]:
    """The per-layer metrics of a traced run: spans and counts from its
    traced pass, dispatch numbers and the warm request from its first
    (untraced) pass, and the overhead of tracing against the untraced
    pass before it."""
    first, untraced, traced = results[0], results[-2], results[-1]
    spans = traced.spans or []
    totals = layer_totals(spans)
    out: Dict[str, float] = {"bench.warm_ms":
                             1e3 * statistics.median(first.warm)}
    for layer in spec.CALL_LAYERS:
        out[f"{layer}.calls"] = totals[layer]["calls"]
        out[f"{layer}.self_s"] = totals[layer]["self_s"]
    out["dfg.self_s"] = totals["dfg"]["self_s"]
    for kind in ("inline", "batch"):
        out[f"cpu.{kind}_calls"] = totals[f"cpu.{kind}"]["calls"]
        out[f"cpu.{kind}_self_s"] = totals[f"cpu.{kind}"]["self_s"]
    for op in spec.CACHE_OPS:
        out[f"cache.{op}_calls"] = totals[f"cache.{op}"]["calls"]
        out[f"cache.{op}_s"] = totals[f"cache.{op}"]["self_s"]
    hits = traced.layer.get("hits", 0)
    misses = traced.layer.get("misses", 0)
    out.update({"cache.hits": hits, "cache.misses": misses,
                "cache.hit_frac": hits / (hits + misses)
                if hits + misses else 0.0})
    out["experiments.self_s"] = totals["experiments"]["self_s"]
    for section in spec.REPORT_SECTIONS:
        out[f"experiments.report.{section}_s"] = \
            totals[f"experiments/report.{section}"]["incl_s"]
    out["telemetry.record_run_calls"] = totals["telemetry.record_run"]["calls"]
    out["telemetry.record_run_s"] = totals["telemetry.record_run"]["self_s"]
    out["serve.self_s"] = totals["serve"]["self_s"]
    for name in spec.per_layer_names():
        if name.startswith("dispatch."):
            out[name] = first.layer[name]
        elif name not in out and name in traced.layer:
            out[name] = traced.layer[name]
        out.setdefault(name, 0)
    if "client_s" in traced.info:
        # serve-open: host-side layers plus generator lag, against what
        # the client waited in total
        attributed = sum(self_times(spans)) + traced.info["lag_s"]
        out["bench.unattributed_frac"] = max(
            0.0, 1 - attributed / traced.info["client_s"])
    else:
        own = self_times(spans)
        roots = [i for i, s in enumerate(spans) if s[NAME] == "bench"]
        total = sum(spans[i][END] - spans[i][START] for i in roots)
        out["bench.unattributed_frac"] = \
            sum(own[i] for i in roots) / total if total else 0.0

    def cost(result: PassResult) -> float:
        return statistics.median(result.cold) \
            + statistics.median(result.warm)

    out["bench.trace_overhead_frac"] = cost(traced) / cost(untraced) - 1
    return out


def run(args: argparse.Namespace) -> None:
    target = Path(args.dir)
    run_ = Run(dir=target, seed=args.seed, seconds=args.seconds,
               smoke=args.smoke)
    workload = WORKLOAD_CLASSES[args.workload](run_, bool(args.trace))
    setups: List[float] = []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        # import every module a round uses before the first round is timed
        import repro.experiments.report  # noqa: F401
        import repro.experiments.sweep  # noqa: F401
        import repro.loadgen.engines  # noqa: F401

        results = run_passes(workload, bool(args.trace), args.seconds)
    finally:
        workload.close()
    if args.trace:
        metrics = layer_metrics(results)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            dump_spans(results[-1].spans or [], args.spans)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_ms": 1e3 * statistics.median(results[0].cold),
            "peak_rss_mb": peak_rss_mb(),
        }
        results[0].info["warm_ms"] = 1e3 * statistics.median(results[0].warm)
    record = {
        "metrics": metrics,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "digests": sorted({d for r in results for d in r.digests}),
        "pinned": workload.pinned,
        "setup_samples_s": setups,
        "samples": {"cold": len(results[0].cold),
                    "warm": len(results[0].warm)},
        "info": results[0].info,
    }
    if results[-1].layer.get("cpu.batch_cells"):
        # the batch engine's traffic: fast cells and fallbacks by reason
        record["info"]["batch"] = {
            k: v for k, v in results[-1].layer.items()
            if k.startswith("cpu.batch") and v}
    (target / "result.json").write_text(json.dumps(record, indent=1))


def serve_host(args: argparse.Namespace) -> None:
    import asyncio

    from repro.serve.server import ServeServer

    rec = Recorder() if args.spans else None
    counts: Dict[str, Any] = {}
    if rec is not None:
        install_tracing(rec, counts)

    async def main() -> None:
        server = ServeServer(executor="inline")
        await server.start()
        ready = Path(args.ready_file)
        tmp = ready.with_suffix(".tmp")
        tmp.write_text(json.dumps({"wire_port": server.wire_port}) + "\n")
        os.replace(tmp, ready)
        await server.serve_forever()

    try:
        asyncio.run(main())
    finally:
        if rec is not None:
            rec.restore()
            dump_spans(rec.spans, args.spans)
            Path(args.spans).with_suffix(".counts.json").write_text(
                json.dumps(counts))


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    modes = parser.add_subparsers(dest="mode", required=True)
    one = modes.add_parser("run")
    one.add_argument("workload", choices=spec.WORKLOADS)
    one.add_argument("--dir", required=True)
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, default=0)
    one.add_argument("--smoke", action="store_true")
    one.add_argument("--spans", default=None)
    setup = modes.add_parser("prepare")
    setup.add_argument("workload", choices=spec.WORKLOADS)
    setup.add_argument("dir")
    setup.add_argument("--walk", type=int, required=True)
    host = modes.add_parser("serve-host")
    host.add_argument("--ready-file", required=True)
    host.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.mode == "run":
        run(args)
    elif args.mode == "prepare":
        prepare(args.workload, Path(args.dir), args.walk)
    else:
        serve_host(args)


if __name__ == "__main__":
    main()
