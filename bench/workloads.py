"""The four workloads, driven only through the program's public entry
points.

Each workload repeats a round until its time budget is spent.  A round
times the workload's request once as a first invocation meets it, with
nothing computed yet (``cold_ms``).  It then times the request again,
each time as a later invocation meets it: an empty in-process memo over
the artifact cache the first request filled (``warm_ms``, reported with
the per-layer metrics as ``bench.warm_ms``).

* ``cold-sweep`` — Fig 10's grid (baseline, hoist, critic, critic_ideal)
  for two apps, ``fleet`` executor with 2 jobs, ``inline`` engine; cold
  on an empty cache;
* ``sim-grid`` — Fig 11's grid (baseline/critic x google-tablet and its
  six variants) for two apps, ``batch`` engine, one job; cold on a copy
  of a template cache that holds the traces and CritIC profiles, no
  stats;
* ``serve-open`` — ``python -m repro.serve --workers 2`` on the same
  template, driven open-loop over two connections: every cell once at a
  low rate (cold), then the same cells replayed at a higher rate (warm,
  answered by the same server);
* ``warm-report`` — report sections rendered on an empty cache (cold),
  then re-rendered on the cache that render filled (warm).

The seed only permutes app order; the work and the result digests do
not depend on it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from bench import spec
from bench.tracing import Patches, Recorder

#: Balanced pair: each fleet worker takes one app column, so the cold
#: sweep's makespan does not depend on app order.
SWEEP_APPS = ("Angrybirds", "Browser")
#: Music is the one mobile app whose traces pass the batch engine's
#: L2-safety proof at walk 700; Email falls back like the other eight.
GRID_APPS = ("Music", "Email")
GRID_CONFIGS = ("google-tablet", "2xFD", "4xI$", "EFetch", "PerfectBr",
                "BackendPrio", "AllHW")
#: serve-open asks for the six Fig-11 variants of every cached trace;
#: at these rates two connections keep the generator on schedule
SERVE_CONFIGS = GRID_CONFIGS[1:]
SERVE_COLD_HZ = 2.0
SERVE_WARM_HZ = 50.0
SERVE_CONNECTIONS = 2
SERVE_WORKERS = 2
REPORT_APPS = 1
REPORT_PER_GROUP = 1
#: the report runs at this many jobs, not the host's CPU count, which
#: varies by machine; one job is the program's serial path (the fleet
#: and its dispatch are cold-sweep's and serve-open's to measure)
REPORT_JOBS = 1
#: paper's mean CritIC speedup (Fig 10a), printed beside ours, never gated
PAPER_CRITIC_PCT = 12.65
PROC_TIMEOUT_S = 120.0


@dataclass
class Run:
    """One run of one workload: its directory, seed and scale."""

    dir: Path
    seed: int
    seconds: float
    smoke: bool = False

    @property
    def walk(self) -> int:
        return 60 if self.smoke else 700

    def order(self, items) -> List[str]:
        """``items`` in this run's seeded order."""
        items = list(items)
        random.Random(self.seed).shuffle(items)
        return items


@dataclass
class PassResult:
    """What one pass of rounds measured."""

    cold: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: List[str] = field(default_factory=list)
    spans: Optional[List[list]] = None
    layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)


def paced(budget: float) -> Iterator[int]:
    """Round numbers, for as long as another round of typical length
    still fits in ``budget`` seconds, and at least two, so that no
    median rests on a single round."""
    start = time.perf_counter()
    walls: List[float] = []
    n = 0
    while True:
        began = time.perf_counter()
        yield n
        walls.append(time.perf_counter() - began)
        n += 1
        if n >= 2 and time.perf_counter() - start \
                + statistics.median(walls) > budget:
            return


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def grid_cells(grid) -> Dict[str, Dict[str, Any]]:
    """``{app|scheme|config: SimStats.to_dict()}`` for a sweep grid."""
    return {f"{app}|{scheme}|{config}": stats.to_dict()
            for app, row in grid.items()
            for (scheme, config), stats in row.items()}


def report_digest(text: str) -> str:
    """The report text minus its wall-time headers (and the ``=`` bars
    whose length follows them)."""
    text = re.sub(r"  \(wall [0-9.]+s\)", "", text)
    return digest(re.sub(r"^=+$", "=", text, flags=re.M))


def score(result: PassResult, observed: str, pinned: Optional[str],
          cells: int) -> None:
    """Count ``cells`` attempted, and failed unless the digest of what
    they produced is the pinned one."""
    result.attempted += cells
    result.digests.append(observed)
    if observed != pinned:
        result.failed += cells


def pinned_digest(workload: str, smoke: bool) -> Optional[str]:
    path = Path(__file__).with_name("digests.json")
    with open(path) as handle:
        return json.load(handle)["smoke" if smoke else "full"].get(workload)


def spawn(args: List[str], env: Optional[Dict[str, str]] = None,
          **kwargs: Any) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], cwd=spec.ROOT,
                            env=env, **kwargs)


def wait_bounded(proc: subprocess.Popen, timeout: float) -> int:
    """``proc.wait()``, which returns the moment the child exits (a wait
    with a timeout polls at up to 50 ms), with a watchdog that kills the
    child past ``timeout``."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    finally:
        watchdog.cancel()


def prepare_child(workload: str, target: Path, run: Run) -> None:
    """Run :func:`prepare` in a fresh interpreter (the timed set-up)."""
    proc = spawn(["-m", "bench.child", "prepare", workload, str(target),
                  "--walk", str(run.walk)])
    code = wait_bounded(proc, PROC_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"{workload} set-up exited {code}")


def prepare(workload: str, target: Path, walk: int) -> None:
    """A workload's set-up, run inside the set-up child: imports, the
    directory layout, and for the template workloads the traces and
    CritIC profiles every later round reads (plus, for sim-grid, a
    C-kernel compile in a fresh kernel directory)."""
    target.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(target / "cache")
    if workload == "warm-report":
        import repro.experiments.report  # noqa: F401
        return
    from repro.experiments.runner import app_context
    from repro.experiments.sweep import SweepSpec

    if workload == "cold-sweep":
        SweepSpec(apps=SWEEP_APPS, schemes=ColdSweep.schemes).validate()
        return
    for app in GRID_APPS:
        ctx = app_context(app, walk)
        ctx.trace()
        ctx.critic_profile()
        ctx.scheme_trace("critic")
    if workload == "sim-grid":
        from repro.cpu import GOOGLE_TABLET, simulate

        os.environ["REPRO_BATCH_KERNEL_DIR"] = str(target / "kernel")
        simulate(app_context(GRID_APPS[0], walk).trace(), GOOGLE_TABLET,
                 engine="batch")


def point_cache(path: Path) -> None:
    """Make ``path`` the artifact cache with an empty in-process memo,
    as a fresh process would see it."""
    from repro.cache import reset_cache
    from repro.experiments.runner import clear_cache

    os.environ["REPRO_CACHE_DIR"] = str(path)
    reset_cache()
    clear_cache()


# -- bookkeeping hooks --------------------------------------------------------


class Observers:
    """Reads ``last_dispatch_report()`` after every ``run_apps`` and
    ``last_batch_report()`` after every ``simulate_batch`` (each keeps
    only its latest call).  Cheap enough to stay on in untraced runs."""

    def __init__(self) -> None:
        self.tasks = self.attempts = self.retries = 0
        self.attempt_s = self.capacity_s = 0.0
        self.batch_calls = self.batch_cells = self.batch_fast = 0
        self.batch_fast_instructions = 0
        self.fallbacks: Dict[str, int] = defaultdict(int)

    def install(self, patches: Patches) -> None:
        from repro.cpu import batch
        from repro.experiments import runner, sweep

        def observe_run_apps(run_apps):
            def observed(*args, **kwargs):
                started = time.perf_counter()
                result = run_apps(*args, **kwargs)
                wall = time.perf_counter() - started
                report = runner.last_dispatch_report()
                if report is not None:
                    self.tasks += len(report.results)
                    for task in report.results:
                        self.attempts += len(task.attempts)
                        self.retries += task.retries
                        self.attempt_s += sum(a.wall_s
                                              for a in task.attempts)
                    self.capacity_s += wall * report.workers
                return result
            return observed

        def observe_simulate_batch(simulate_batch):
            def observed(trace, configs, *args, **kwargs):
                results = simulate_batch(trace, configs, *args, **kwargs)
                report = batch.last_batch_report()
                self.batch_calls += 1
                self.batch_cells += report["width"]
                self.batch_fast += report["fast"]
                fell_back = {name for name, _ in report["fallbacks"]}
                self.batch_fast_instructions += sum(
                    stats.instructions
                    for config, stats in zip(configs, results)
                    if config.name not in fell_back)
                for _name, reason in report["fallbacks"]:
                    self.fallbacks[reason] += 1
                return results
            return observed

        patches.replace(sweep, "run_apps", observe_run_apps)
        patches.replace(batch, "simulate_batch", observe_simulate_batch)

    def layer(self) -> Dict[str, float]:
        values = {
            "dispatch.tasks": self.tasks,
            "dispatch.attempts": self.attempts,
            "dispatch.retries": self.retries,
            "dispatch.attempt_s": self.attempt_s,
            "dispatch.busy_frac": self.attempt_s / self.capacity_s
            if self.capacity_s else 0.0,
            "cpu.batch_cells": self.batch_cells,
            "cpu.batch_fast_cells": self.batch_fast,
            "cpu.batch_fast_frac": self.batch_fast / self.batch_cells
            if self.batch_cells else 0.0,
        }
        slugs = {f"cpu.batch_fallback.{s}": 0 for s in
                 list(spec.FALLBACK_REASONS.values()) + ["other"]}
        for reason, count in self.fallbacks.items():
            slug = spec.FALLBACK_REASONS.get(reason, "other")
            slugs[f"cpu.batch_fallback.{slug}"] += count
        values.update(slugs)
        return values


# -- traced entry points ------------------------------------------------------


def install_tracing(rec: Recorder, counts: Dict[str, int]) -> None:
    """Wrap every layer's entry point at the attribute its callers read.
    ``counts`` collects simulated instructions and cache hits/misses."""
    from repro import cache
    from repro.compiler import PassManager
    from repro.cpu import batch, pipeline
    from repro.dfg import ChainStats
    from repro.experiments import fig03, fig05, report, runner, sweep
    from repro.serve import server
    from repro.telemetry import manifest
    from repro.workloads import generator

    def add(key: str, value: int = 1) -> None:
        counts[key] = counts.get(key, 0) + value

    rec.wrap(runner, "build_workload", "workloads")
    rec.wrap(generator, "materialize", "trace")
    rec.wrap(PassManager, "run", "compiler")
    rec.wrap(runner, "find_critic_profile", "profiler")
    # dfg as the figure modules call it (the profiler's own Dfg use stays
    # profiler time)
    for module in (fig03, fig05):
        rec.wrap(module, "Dfg", "dfg/Dfg")
    rec.wrap(ChainStats, "from_chains", "dfg/ChainStats.from_chains")
    rec.wrap(fig03, "critical_mask", "dfg/critical_mask")
    rec.wrap(fig05, "iter_maximal_chains", "dfg/iter_maximal_chains")
    rec.wrap(pipeline.Simulator, "__init__", "cpu.inline/init")
    rec.wrap(pipeline.Simulator, "run", "cpu.inline",
             observe=lambda stats: add("instructions", stats.instructions))
    rec.wrap(batch, "simulate_batch", "cpu.batch")
    for op in spec.CACHE_OPS:
        observe = None
        if op.startswith("load_"):
            def observe(result):
                add("misses" if result is None else "hits")
        rec.wrap(cache.ArtifactCache, op, f"cache.{op}", observe=observe)
    rec.wrap(sweep, "run_apps", "experiments")
    rec.wrap(runner.AppContext, "stats", "experiments/stats",
             tag=lambda ctx, scheme="baseline", config=None, *a, **k:
             f"{ctx.name}|{scheme}|{getattr(config, 'name', '-')}")
    rec.wrap(server, "_cell_task", "experiments/cell_task",
             tag=lambda name, blocks, schemes, config, *a, **k:
             f"{name}|{','.join(schemes)}|{config.name}")
    for section in spec.REPORT_SECTIONS:
        rec.wrap(report.SECTIONS, section, f"experiments/report.{section}")
    for module in (runner, sweep, manifest):
        rec.wrap(module, "record_run", "telemetry.record_run")
    rec.wrap(server.ServeServer, "_admit", "serve",
             tag=lambda srv, payload, client_id, front: client_id)
    rec.wrap(server.ServeServer, "_cell_record", "serve/cell_record")
    rec.wrap(server, "write_msg", "serve/write_msg")


# -- the workloads ------------------------------------------------------------


class Workload:
    """Base: ``setup`` once per set-up repetition, ``measure`` per pass.

    A round starts with nothing computed (:meth:`begin_round`) and times
    the workload's request once (cold_ms).  It then times the request
    ``warm_repeats`` more times, each on an empty in-process memo over
    the artifact cache the first request filled, as the next invocation
    of the same command meets it (warm_ms).
    """

    name = ""
    #: settings of the measured (untraced) runs, and of traced passes,
    #: which keep every layer call in the run process
    real: Dict[str, Any] = {}
    serial: Dict[str, Any] = {}
    warm_repeats = 20
    #: whether traced passes record spans in the run process itself
    spans_in_process = True

    def __init__(self, run: Run, trace: bool) -> None:
        self.run = run
        self.trace = trace
        self.setups = 0
        self.pinned = pinned_digest(self.name, run.smoke)

    def passes(self, trace: bool) -> List[Tuple[Dict[str, Any], bool]]:
        """``(settings, traced)`` per pass.  A traced run first measures
        untraced with the real settings when they differ (dispatch
        numbers), then untraced and traced with the serial settings
        (tracing overhead)."""
        if not trace:
            return [(self.real, False)]
        head = [(self.real, False)] if self.real != self.serial else []
        return head + [(self.serial, False), (self.serial, True)]

    def setup(self) -> None:
        self.setups += 1
        self.home = self.run.dir / f"setup-{self.setups}"
        prepare_child(self.name, self.home, self.run)

    def close(self) -> None:
        pass

    def measure(self, settings: Dict[str, Any], rec: Optional[Recorder],
                budget: float) -> PassResult:
        result = PassResult()
        for n in paced(budget):
            self.begin_round(n)
            for attempt in range(1 + self.warm_repeats):
                if attempt:
                    point_cache(self.work)
                # a fresh invocation starts without the garbage earlier
                # requests left behind, so collect it outside the timing
                gc.collect()
                with rec.span("bench", tag=f"round{n}.{attempt}") \
                        if rec else nullcontext():
                    started = time.perf_counter()
                    output = self.request(settings)
                    wall = time.perf_counter() - started
                (result.warm if attempt else result.cold).append(wall)
                observed, cells = self.check(output)
                score(result, observed, self.pinned, cells)
                if not attempt:
                    self.describe(result, output, wall)
            self.end_round()
        return result

    def begin_round(self, n: int) -> None:
        """A new artifact cache in ``self.work`` with nothing computed,
        and an empty in-process memo over it."""
        self.work = self.run.dir / f"round-{n}-{time.monotonic_ns()}"
        self.fresh_cache(self.work)
        point_cache(self.work)

    def fresh_cache(self, target: Path) -> None:
        target.mkdir(parents=True)

    def request(self, settings: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> Tuple[str, int]:
        """``(digest, cells)`` of one request's output."""
        raise NotImplementedError

    def describe(self, result: PassResult, output: Any, wall: float) -> None:
        pass

    def end_round(self) -> None:
        shutil.rmtree(self.work)


class GridWorkload(Workload):
    """One sweep grid: first with nothing computed, then as a re-run of
    the same sweep command meets it."""

    apps: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()
    configs: Tuple[str, ...] = ()

    def request(self, settings: Dict[str, Any]) -> Any:
        from repro.experiments.sweep import SweepSpec, run_sweep

        return run_sweep(SweepSpec(
            apps=tuple(self.run.order(self.apps)), schemes=self.schemes,
            configs=self.configs, walk_blocks=self.run.walk,
            **settings)).grid

    def check(self, output: Any) -> Tuple[str, int]:
        cells = grid_cells(output)
        return digest(cells), len(cells)

    def describe(self, result: PassResult, output: Any, wall: float) -> None:
        cells = grid_cells(output)
        instructions = sum(c["instructions"] for c in cells.values())
        result.info["cells_per_s"] = len(cells) / wall
        result.info["sim_kinstr_per_s"] = instructions / wall / 1e3


class ColdSweep(GridWorkload):
    name = "cold-sweep"
    apps = SWEEP_APPS
    schemes = ("baseline", "hoist", "critic", "critic_ideal")
    configs = ("google-tablet",)
    real = {"executor": "fleet", "jobs": 2, "engine": "inline"}
    serial = {"executor": "inline", "jobs": 1, "engine": "inline"}

    def describe(self, result: PassResult, output: Any, wall: float) -> None:
        from repro.cpu import speedup
        from repro.experiments.runner import geometric_mean

        super().describe(result, output, wall)
        ratios = [speedup(row[("baseline", "google-tablet")],
                          row[("critic", "google-tablet")])
                  for row in output.values()]
        result.info["critic_geomean_pct"] = \
            100 * (geometric_mean(ratios) - 1)
        result.info["paper_critic_pct"] = PAPER_CRITIC_PCT


class SimGrid(GridWorkload):
    name = "sim-grid"
    apps = GRID_APPS
    schemes = ("baseline", "critic")
    configs = GRID_CONFIGS
    real = serial = {"jobs": 1, "engine": "batch"}

    def setup(self) -> None:
        super().setup()
        os.environ["REPRO_BATCH_KERNEL_DIR"] = str(self.home / "kernel")

    def fresh_cache(self, target: Path) -> None:
        shutil.copytree(self.home / "cache", target)


class WarmReport(Workload):
    """Report sections rendered on an empty cache, then re-rendered as
    the next ``python -m repro.experiments.report`` meets them."""

    name = "warm-report"
    warm_repeats = 1

    def __init__(self, run: Run, trace: bool) -> None:
        super().__init__(run, trace)
        os.environ["REPRO_JOBS"] = str(REPORT_JOBS)

    def request(self, settings: Dict[str, Any]) -> Any:
        return render_report(self.run.walk)

    def check(self, output: Any) -> Tuple[str, int]:
        return report_digest(output), 1


def render_report(walk: int) -> str:
    from repro.experiments.report import generate_report

    return generate_report(list(spec.REPORT_SECTIONS), walk=walk,
                           apps=REPORT_APPS, per_group=REPORT_PER_GROUP)


# -- serve-open ---------------------------------------------------------------


class ClientLog:
    """Wraps ``ServeClient.sweep`` to record, per job id, when the
    request actually went out, when its stream ended, and every cell
    record that came back."""

    def __init__(self) -> None:
        self.sent: Dict[str, float] = {}
        self.done: Dict[str, float] = {}
        self.cells: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        from repro.serve.client import ServeClient

        log = self

        def logged(original):
            def sweep(client, request, job_id=""):
                with log._lock:
                    log.sent[job_id] = time.perf_counter()
                for record in original(client, request, job_id):
                    if record.get("type") == "cell":
                        with log._lock:
                            log.cells[job_id].append(record)
                    yield record
                with log._lock:
                    log.done[job_id] = time.perf_counter()
            return sweep

        patches.replace(ServeClient, "sweep", logged)

    def reset(self) -> None:
        self.sent.clear()
        self.done.clear()
        self.cells.clear()


def percentile(values: List[float], q: float) -> float:
    from repro.loadgen.base import percentile as nearest_rank

    return nearest_rank(sorted(values), q)


class ServeOpen(Workload):
    name = "serve-open"
    real = {"host": "fleet"}
    serial = {"host": "inline"}
    spans_in_process = False

    def __init__(self, run: Run, trace: bool) -> None:
        super().__init__(run, trace)
        self.server: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.log = ClientLog()
        self.patches = Patches()
        self.log.install(self.patches)

    def passes(self, trace: bool) -> List[Tuple[Dict[str, Any], bool]]:
        """No real-settings pass when tracing: the fleet server's
        dispatch has no ``last_dispatch_report()`` to read."""
        if not trace:
            return [(self.real, False)]
        return [(self.serial, False), (self.serial, True)]

    def start(self, args: List[str], cache: Path, ready: Path) -> None:
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        self.server = spawn(args + ["--ready-file", str(ready)], env=env,
                            stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + PROC_TIMEOUT_S
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if self.server.poll() is not None or \
                    time.monotonic() > deadline:
                raise RuntimeError("serve process did not start")
            time.sleep(0.002)
        self.address = ("127.0.0.1", json.loads(ready.read_text())
                        ["wire_port"])

    def wait_healthy(self, workers: int) -> None:
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + PROC_TIMEOUT_S
        with ServeClient(self.address) as client:
            while client.health()["workers"]["alive"] < workers:
                if time.monotonic() > deadline:
                    raise RuntimeError("serve workers did not come up")
                time.sleep(0.002)

    def setup(self) -> None:
        """Template, then (for measured runs) a fleet server up until
        it reports its workers alive; traced runs host their own."""
        self.stop()
        super().setup()
        if not self.trace:
            self.start(["-m", "repro.serve", "--workers",
                        str(SERVE_WORKERS), "--wire-port", "0",
                        "--http-port", "0"],
                       self.home / "cache", self.home / "ready.json")
            self.wait_healthy(SERVE_WORKERS)

    def stop(self) -> None:
        from repro.serve.client import ServeClient

        if self.server is None:
            return
        try:
            with ServeClient(self.address, timeout_s=10) as client:
                client.shutdown_server()
        except OSError:
            pass
        wait_bounded(self.server, 15.0)
        self.server = None

    def close(self) -> None:
        self.stop()
        self.patches.restore()

    def phase(self, grid: Dict[str, Any], rate: float, requests: int,
              duration: Optional[float] = None) -> "Phase":
        """One open-loop phase over ``grid``'s cells."""
        from repro.loadgen.base import SweepGridWorkload
        from repro.loadgen.engines import OpenLoopEngine

        self.log.reset()
        engine = OpenLoopEngine(rate, concurrency=SERVE_CONNECTIONS,
                                timeout_s=60.0)
        started = time.perf_counter()
        report = engine.run(self.address, SweepGridWorkload(grid),
                            requests, duration)
        samples = report["samples"]
        lags = []
        for sample in samples:
            job, due = f"req-{sample['index']}", sample["index"] / rate
            if job in self.log.sent:
                lags.append(self.log.sent[job] - started - due)
            if job in self.log.done:
                # the engine's latency, unrounded: scheduled send to done
                sample["latency_s"] = self.log.done[job] - started - due
        return Phase(samples, lags, dict(self.log.cells), 1 / rate)

    def measure(self, settings: Dict[str, Any], rec: Optional[Recorder],
                budget: float) -> PassResult:
        spans_file = None
        if settings["host"] == "inline":
            cache = self.run.dir / f"host-{time.monotonic_ns()}"
            shutil.copytree(self.home / "cache", cache)
            args = ["-m", "bench.child", "serve-host"]
            if rec is not None:
                spans_file = cache / "spans.jsonl"
                args += ["--spans", str(spans_file)]
            self.start(args, cache, cache / "ready.json")
        grid = {"apps": self.run.order(GRID_APPS),
                "schemes": ["baseline", "critic"],
                "configs": list(SERVE_CONFIGS),
                "walk_blocks": self.run.walk}
        ncells = len(GRID_APPS) * 2 * len(SERVE_CONFIGS)
        cold_hz = ncells / 5.0 if self.run.smoke else SERVE_COLD_HZ
        warm_s = 5.0 if self.run.smoke else \
            max(2.0, budget - ncells / cold_hz)
        cold = self.phase(grid, cold_hz, ncells)
        warm = self.phase(grid, SERVE_WARM_HZ, 10 ** 9, warm_s)
        if settings["host"] == "inline":
            self.stop()
        result = PassResult()
        if spans_file is not None:
            from bench.tracing import load_spans

            result.spans = load_spans(str(spans_file))
            result.layer.update(json.loads(
                spans_file.with_suffix(".counts.json").read_text()))
        self.judge(result, cold, warm)
        return result

    def judge(self, result: PassResult, cold: "Phase",
              warm: "Phase") -> None:
        """Latencies, correctness and open-loop validity of both phases."""
        stats = {f"{r['app']}|{r['scheme']}|{r['config']}": r.get("stats")
                 for records in cold.cells.values() for r in records}
        observed = digest(stats)
        result.digests.append(observed)
        cold_ok = observed == self.pinned
        for name, phase in (("cold", cold), ("warm", warm)):
            lag_p99 = percentile(phase.lags, 0.99)
            valid = bool(phase.lags) and lag_p99 <= phase.gap
            for sample in phase.samples:
                records = phase.cells.get(f"req-{sample['index']}", [])
                right = bool(records) and all(
                    stats.get(f"{r['app']}|{r['scheme']}|{r['config']}")
                    == r.get("stats") for r in records)
                result.attempted += 1
                result.failed += not (sample["ok"] and right and valid
                                      and cold_ok)
                if sample["ok"]:
                    getattr(result, name).append(sample["latency_s"])
            result.info[f"{name}_requests"] = len(phase.samples)
            result.info[f"{name}_lag_p99_ms"] = 1e3 * lag_p99
            result.info[f"{name}_valid"] = valid
        result.info["cold_p90_ms"] = 1e3 * percentile(result.cold, 0.90)
        result.info["warm_p99_ms"] = 1e3 * percentile(result.warm, 0.99)
        walls = [1e3 * r["wall_s"] for records in cold.cells.values()
                 for r in records if not r.get("cached")]
        waits = [1e3 * s["latency_s"] - 1e3 * sum(
            r["wall_s"] for r in cold.cells.get(f"req-{s['index']}", []))
            for s in cold.samples if s["ok"]]
        samples = cold.samples + warm.samples
        lags = cold.lags + warm.lags
        result.layer.update({
            "serve.cell_wall_p50_ms": statistics.median(walls)
            if walls else 0.0,
            "serve.wait_p50_ms": statistics.median(waits) if waits else 0.0,
            "serve.cached": sum(s["cached"] for s in samples),
            "serve.computed": sum(s["computed"] for s in samples),
            "serve.coalesced": sum(s["coalesced"] for s in samples),
            "serve.busy": sum("Busy" in s.get("error", "") for s in samples),
            "loadgen.lag_p99_ms": 1e3 * percentile(lags, 0.99),
            "loadgen.requests": len(samples),
        })
        result.info["client_s"] = sum(s["latency_s"] for s in samples)
        result.info["lag_s"] = sum(max(0.0, lag) for lag in lags)


@dataclass
class Phase:
    """One open-loop phase: the engine's samples, each request's lag
    (actual minus scheduled send, seconds), the cell records per job id,
    and the inter-arrival gap."""

    samples: List[Dict[str, Any]]
    lags: List[float]
    cells: Dict[str, List[Dict[str, Any]]]
    gap: float


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (ColdSweep, SimGrid, ServeOpen, WarmReport)}
