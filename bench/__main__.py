"""``python -m bench``: run the benchmark.

One run of one workload (the form automated comparisons use)::

    python -m bench --workload sim-grid --seed 3 --seconds 20 --trace 0

prints a human summary on stderr and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying
every end-to-end metric of ``BENCHMARK.json`` (``--trace 1``: every
per-layer metric instead).

Without ``--workload`` every workload runs ``--repeats`` times (seeds
``--seed``, ``--seed``+1, ...), plus one traced run each with
``--trace``; the medians print as ``workload metric value unit`` lines
and everything, with the environment, ``nproc`` and git SHA, goes to
``--out``.  ``--smoke`` shrinks the work (walk 60, short phases);
``--check`` validates ``BENCHMARK.json`` against the harness and exits.

Each run executes in a fresh child process whose environment has every
``REPRO_*`` variable removed and whose files all live under
``bench/.run/`` (removed afterwards); results and spans go to
``bench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import spec

RUN_ROOT = spec.BENCH_DIR / ".run"
OUT_ROOT = spec.BENCH_DIR / ".out"
#: a run must end within 180 s; leave room to clean up
RUN_TIMEOUT_S = 170.0
SMOKE_SECONDS = 4.0


def child_env(run_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(spec.ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(run_dir / "tmp"),
               REPRO_CACHE_DIR=str(run_dir / "cache"))
    return env


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a run's process group (the run process
    leads it) and wait until the group is empty."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()  # reap the leader; orphans go to init
        time.sleep(0.05)


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool) -> Dict[str, Any]:
    """One run of one workload in a fresh child; raises on failure."""
    run_dir = RUN_ROOT / f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    (run_dir / "tmp").mkdir(parents=True)
    args = [sys.executable, "-m", "bench.child", "run", workload,
            "--dir", str(run_dir), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        args.append("--smoke")
    if trace:
        spans = OUT_ROOT / "spans" / f"{workload}-seed{seed}.jsonl"
        args += ["--spans", str(spans)]
    env = child_env(run_dir)
    try:
        proc = subprocess.Popen(args, cwd=spec.ROOT, env=env,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_group(proc)
        if code != 0:
            outcome = "timed out" if code is None else f"exited {code}"
            raise RuntimeError(f"{workload} run {outcome}")
        record = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record.update(workload=workload, seed=seed, trace=trace,
                  env={k: v for k, v in env.items()
                       if k.startswith(("REPRO_", "PYTHON"))})
    return record


def describe(record: Dict[str, Any]) -> str:
    """Human summary of one run (stderr)."""
    lines = [f"{record['workload']} seed {record['seed']}: "
             f"{record['attempted']} attempted, {record['failed']} failed; "
             f"samples {record['samples']}"]
    if record["pinned"] not in record["digests"] or \
            len(record["digests"]) != 1:
        lines.append(f"  digest mismatch: observed {record['digests']}, "
                     f"pinned {record['pinned']}")
    for key, value in sorted(record["info"].items()):
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        elif isinstance(value, float):
            value = f"{value:.4g}"
        lines.append(f"  {key}: {value}")
    if "critic_geomean_pct" in record["info"]:
        lines.append("  (CritIC geomean is information only: the model is "
                     "unvalidated against hardware and this is not gated)")
    return "\n".join(lines)


def result_line(record: Dict[str, Any], doc: Dict[str, Any]) -> str:
    section = "per_layer" if record["trace"] else "end_to_end"
    wanted = spec.units(doc, section)
    got = record["metrics"]
    if set(got) != set(wanted):
        raise RuntimeError(f"metrics {sorted(set(got) ^ set(wanted))} "
                           f"differ from BENCHMARK.json {section}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": got[name], "unit": unit}
                    for name, unit in wanted.items()},
    })


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median and quartiles of every metric, per workload."""
    summary: Dict[str, Dict[str, Any]] = {}
    for workload in spec.WORKLOADS:
        runs = [r for r in records if r["workload"] == workload]
        for metric in sorted({m for r in runs for m in r["metrics"]}):
            # traced runs carry the per-layer metrics, untraced ones the
            # end-to-end metrics
            values = [r["metrics"][metric] for r in runs
                      if metric in r["metrics"]]
            q1, q2, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else values * 3
            summary.setdefault(workload, {})[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "n": len(values)}
    return summary


def full(args: argparse.Namespace, doc: Dict[str, Any]) -> int:
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else doc["run_seconds"])
    records = []
    for workload in spec.WORKLOADS:
        plan = [(args.seed + n, False) for n in range(args.repeats)]
        if args.trace:
            plan.append((args.seed, True))
        for seed, trace in plan:
            record = run_once(workload, seed, seconds, trace, args.smoke)
            print(describe(record), file=sys.stderr, flush=True)
            records.append(record)
    units = {**spec.units(doc, "end_to_end"), **spec.units(doc, "per_layer")}
    summary = summarize(records)
    for workload, metrics in summary.items():
        for metric, stats in metrics.items():
            print(f"{workload} {metric} {stats['median']:.6g} "
                  f"{units[metric]}")
    failed = sum(r["failed"] for r in records)
    print(f"attempted {sum(r['attempted'] for r in records)}, "
          f"failed {failed}", file=sys.stderr)
    out = Path(args.out) if args.out else OUT_ROOT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "git_sha": git_sha(), "nproc": os.cpu_count(), "seed": args.seed,
        "repeats": args.repeats, "seconds": seconds, "smoke": args.smoke,
        "summary": summary, "runs": records}, indent=1))
    print(f"results written to {out}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if not (spec.ROOT / "src" / "repro").is_dir():
        print("error: the program source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    try:
        text = spec.BENCHMARK_FILE.read_text()
        doc = json.loads(text)
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    problems = spec.check(doc, len(text.encode()))
    if args.check or problems:
        for problem in problems:
            print(f"BENCHMARK.json: {problem}", file=sys.stderr)
        if not problems:
            print("BENCHMARK.json agrees with the harness")
        return 1 if problems else 0
    try:
        if args.workload is None:
            return full(args, doc)
        record = run_once(args.workload, args.seed,
                          args.seconds or doc["run_seconds"],
                          bool(args.trace), args.smoke)
        line = result_line(record, doc)
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(describe(record), file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
