"""Experiment runner: app x scheme x hardware-config simulations.

Central plumbing for every figure/table reproduction:

* workloads, traces, profiles, and transformed programs are generated once
  per app and memoized in-process (figures share them);
* every derived artifact (baseline/scheme traces, CritIC profiles,
  simulation stats) is also persisted in the content-addressed disk cache
  (:mod:`repro.cache`), so warm runs skip generation, compilation, and
  simulation entirely;
* the evaluated *schemes* (baseline / Hoist / CritIC / CritIC.Ideal /
  Approach-1 branch switching / OPP16 / Compress / OPP16+CritIC) are
  expressed as compiler pipelines over the same program + walk;
* :func:`run_apps` fans the app x config grid out through a registered
  *execution backend* (:data:`repro.registry.EXECUTORS` — ``inline`` or
  the socket-broker ``fleet``, the default; selected by ``executor=`` or
  the sweep CLI's ``--executor``) sized by ``REPRO_JOBS``, and seeds
  the in-process memo with the results, so figure modules stay simple
  serial loops; :mod:`repro.serve` plans its grids with the same
  functions (:func:`probe_grid`, :func:`group_cells`,
  :func:`absorb_cells`);
* workers report their telemetry (phase timers, metrics) back with
  their results, so phase and metric totals are fleet-wide; failed
  attempts report nothing, so a retried cell is counted exactly once;
  spans go straight to the shared ``REPRO_EVENTS`` log under each
  process's pid; and every invocation leaves a run manifest (including
  the executor's per-task attempt records) next to the artifact cache;
* trace length is controlled by ``REPRO_WALK_BLOCKS`` (default 700 dynamic
  blocks, ~25-60k instructions per app) so benches run at laptop scale;
  the paper's full-scale methodology (100 x 500k-instruction samples) is
  structurally identical, just larger.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import telemetry
from repro.cache import artifact_key, get_cache
from repro.dispatch import (
    ENV_FAULTS,
    DispatchReport,
    RetryPolicy,
    TaskResult,
    TaskSpec,
)
from repro.telemetry.manifest import record_run
from repro.compiler import PassManager
from repro.cpu import CpuConfig, GOOGLE_TABLET, SimStats, simulate
from repro.cpu.engines import resolve_engine
from repro.profiler import CriticProfile, FinderConfig, find_critic_profile
from repro.registry import (
    EXECUTORS,
    SCHEME_RECIPES,
    SIMULATORS,
    component_identity,
)
from repro.trace.dynamic import Trace
from repro.workloads import Workload, WorkloadProfile, get_profile
from repro.workloads.generator import generate as build_workload

def _env_int(name: str, default: int, minimum: int = 1) -> int:
    """An integer environment override, degrading to ``default``.

    A malformed value (``REPRO_JOBS=auto``) used to raise a bare
    ``ValueError`` — at *import* time for ``REPRO_WALK_BLOCKS``; now it
    warns once and the default wins.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r} (not an integer); "
            f"using {default}",
            RuntimeWarning, stacklevel=2,
        )
        return default
    return max(minimum, value)


#: Dynamic block budget for generated walks (env-overridable).
DEFAULT_WALK_BLOCKS = _env_int("REPRO_WALK_BLOCKS", 700)

_workloads: Dict[Tuple[str, int], "AppContext"] = {}


def default_jobs() -> int:
    """Worker count for :func:`run_apps` (``REPRO_JOBS`` or cpu count)."""
    return _env_int("REPRO_JOBS", os.cpu_count() or 1)


@dataclass
class AppContext:
    """Everything derived from one app at one scale, lazily materialized.

    ``app_profile`` is the *scaled* workload profile (its ``walk_blocks``
    already reflects the requested scale), which makes it the complete
    generation parameter record — and therefore the disk-cache key root
    for every artifact derived from this app.
    """

    app_profile: WorkloadProfile
    profile: Optional[CriticProfile] = None
    _workload: Optional[Workload] = None
    _traces: Dict[str, Trace] = field(default_factory=dict)
    _stats: Dict[Tuple[str, str], SimStats] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.app_profile.name

    @property
    def workload(self) -> Workload:
        """The generated program/walk/memory (built on first touch)."""
        if self._workload is None:
            with telemetry.phase("generate"):
                self._workload = build_workload(self.app_profile)
        return self._workload

    def trace(self) -> Trace:
        """The baseline dynamic trace (disk-cached via :mod:`repro.cache`)."""
        trace = self._traces.get("baseline")
        if trace is not None:
            return trace
        cache = get_cache()
        key = artifact_key("trace", profile=self.app_profile,
                           scheme="baseline")
        trace = cache.load_trace(key)
        if trace is None:
            with telemetry.phase("materialize"):
                trace = self.workload.trace()
            cache.store_trace(key, trace)
        else:
            # Share the loaded trace with Workload.trace() callers.
            if self._workload is not None:
                self._workload.adopt_trace(trace)
        self._traces["baseline"] = trace
        return trace

    def critic_profile(self, profiled_fraction: float = 1.0,
                       max_length: Optional[int] = None) -> CriticProfile:
        """The offline profiler's output (memoized for the default config)."""
        default = profiled_fraction >= 1.0 and max_length is None
        if default and self.profile is not None:
            return self.profile
        config = FinderConfig(
            profiled_fraction=profiled_fraction,
            max_length=max_length,
        )
        cache = get_cache()
        key = artifact_key("critic_profile", profile=self.app_profile,
                           finder=config)
        profile = cache.load_profile(key)
        if profile is None:
            with telemetry.phase("find_critic_profile"):
                profile = find_critic_profile(
                    self.trace(), self.workload.program, config,
                    app_name=self.name,
                )
            cache.store_profile(key, profile)
        if default:
            self.profile = profile
        return profile

    # -- schemes ---------------------------------------------------------------

    def _passes(self, scheme: str, max_length: int = 5,
                profiled_fraction: float = 1.0):
        """The compiler pipeline for ``scheme``, via the recipe registry.

        Unknown names get the registry's did-you-mean suggestion
        (``RegistryError`` is a ``KeyError`` *and* carries the hint, so
        legacy ``except (ValueError, KeyError)`` call sites still work).
        """
        recipe = SCHEME_RECIPES.get(scheme)
        return list(recipe(self, max_length, profiled_fraction))

    def _scheme_key(self, scheme: str, max_length: int,
                    profiled_fraction: float) -> str:
        return artifact_key(
            "trace",
            profile=self.app_profile,
            scheme=SCHEME_RECIPES.identity(scheme),
            max_length=max_length,
            profiled_fraction=profiled_fraction,
            finder=FinderConfig(profiled_fraction=profiled_fraction),
        )

    def scheme_trace(self, scheme: str, max_length: int = 5,
                     profiled_fraction: float = 1.0) -> Trace:
        """The dynamic trace under ``scheme`` (memoized for defaults)."""
        default = max_length == 5 and profiled_fraction >= 1.0
        if default and scheme in self._traces:
            return self._traces[scheme]
        if scheme == "baseline":
            return self.trace()
        cache = get_cache()
        key = self._scheme_key(scheme, max_length, profiled_fraction)
        trace = cache.load_trace(key)
        if trace is None:
            with telemetry.phase("compile"):
                result = PassManager(
                    self._passes(scheme, max_length, profiled_fraction)
                ).run(self.workload.program)
            with telemetry.phase("materialize"):
                trace = self.workload.trace_for(result.program)
            cache.store_trace(key, trace)
        if default:
            self._traces[scheme] = trace
        return trace

    def _stats_key(self, scheme: str, config: CpuConfig, max_length: int,
                   profiled_fraction: float) -> str:
        # The versioned component identities (``two-level@1``,
        # ``lru@1``, ``clpt@1`` ...) ride along with the config record:
        # re-versioning one registered component invalidates exactly the
        # cached stats that simulated with it, nothing else.
        return artifact_key(
            "stats",
            profile=self.app_profile,
            scheme=SCHEME_RECIPES.identity(scheme),
            max_length=max_length,
            profiled_fraction=profiled_fraction,
            finder=FinderConfig(profiled_fraction=profiled_fraction),
            config=config,
            components=component_identity(config),
        )

    def cached_stats(self, scheme: str = "baseline",
                     config: CpuConfig = GOOGLE_TABLET,
                     max_length: int = 5,
                     profiled_fraction: float = 1.0) -> Optional[SimStats]:
        """Look up stats in the memo/disk cache without computing them."""
        default = max_length == 5 and profiled_fraction >= 1.0
        stats = self.memoized(scheme, config.name) if default else None
        if stats is not None:
            return stats
        stats = get_cache().load_stats(
            self._stats_key(scheme, config, max_length, profiled_fraction)
        )
        if stats is not None and default:
            self._stats[(scheme, config.name)] = stats
        return stats

    def memoized(self, scheme: str,
                 config_name: str) -> Optional[SimStats]:
        """The in-process memo's stats for a default-parameter cell,
        without a disk lookup."""
        return self._stats.get((scheme, config_name))

    def stats(self, scheme: str = "baseline",
              config: CpuConfig = GOOGLE_TABLET,
              max_length: int = 5,
              profiled_fraction: float = 1.0,
              engine: Optional[str] = None) -> SimStats:
        """Simulate ``scheme`` on ``config`` (memo + disk cached).

        ``engine`` picks the simulation engine (see
        :data:`repro.registry.SIMULATORS`); engines are bit-identical,
        so cache keys don't carry it and a cached cell satisfies any
        engine's request.
        """
        stats = self.cached_stats(scheme, config, max_length,
                                  profiled_fraction)
        if stats is not None:
            return stats
        trace = self.scheme_trace(scheme, max_length, profiled_fraction)
        with telemetry.phase("simulate"):
            stats = simulate(trace, config, engine=engine)
        get_cache().store_stats(
            self._stats_key(scheme, config, max_length, profiled_fraction),
            stats,
        )
        if max_length == 5 and profiled_fraction >= 1.0:
            self._stats[(scheme, config.name)] = stats
        return stats


def app_context(name: str,
                walk_blocks: Optional[int] = None) -> AppContext:
    """Get (and memoize) the :class:`AppContext` for one app/benchmark."""
    blocks = walk_blocks if walk_blocks is not None else DEFAULT_WALK_BLOCKS
    key = (name, blocks)
    if key not in _workloads:
        base = get_profile(name)
        # Same scaling `generate()` would apply, hoisted here so the scaled
        # profile can serve as the cache-key record without generating.
        scaled = base.scaled(blocks / base.walk_blocks)
        _workloads[key] = AppContext(app_profile=scaled)
    return _workloads[key]


def clear_cache() -> None:
    """Drop all in-process memoized workloads/stats (tests use this)."""
    _workloads.clear()


# -- parallel fan-out ----------------------------------------------------------


def _observe_cell(name: str, scheme: str, config_name: str,
                  stats: SimStats, wall: float) -> None:
    """Metrics + event for one computed app x scheme x config cell.

    Fires in whichever process ran the cell; the worker's registry rides
    its result snapshot back to the parent, where retried attempts are
    discarded — so fleet-wide totals count every cell exactly once.
    Events, by contrast, narrate *attempts* as they happen: a killed
    worker's ``sweep.cell.start`` stays in the log (that is the point).
    """
    telemetry.inc("repro_cells_total",
                  help="Sweep cells by completion status.",
                  status="done")
    telemetry.inc("repro_sim_instructions_total", stats.instructions,
                  help="Instructions committed by cell simulations.")
    telemetry.observe("repro_cell_wall_seconds", wall,
                      help="Wall seconds per computed cell.")
    telemetry.emit("sweep.cell.done", app=name, scheme=scheme,
                   config=config_name, instructions=stats.instructions,
                   cycles=stats.cycles, wall_s=round(wall, 6))


class ConfigSet(tuple):
    """The configs one cell group runs: a tuple of :class:`CpuConfig`
    whose ``name`` joins theirs, so every group reads as
    ``app|schemes|configs`` whichever engine formed it."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return ",".join(config.name for config in self)


def _run_cell(name: str, blocks: int, schemes: Tuple[str, ...],
              configs: ConfigSet, engine: Optional[str] = None,
              ) -> Tuple[str, Dict[Tuple[str, str], SimStats]]:
    """Worker body: compute ``schemes`` x ``configs`` for one app.

    The batch engine takes each scheme's configs as one batch (per-cell
    inline fallback happens inside
    :func:`repro.cpu.batch.simulate_batch`); any other engine runs the
    cells one by one through :meth:`AppContext.stats`.
    """
    ctx = app_context(name, blocks)
    cells: Dict[Tuple[str, str], SimStats] = {}
    for scheme in schemes:
        if engine == "batch":
            cells.update(_run_batch(ctx, scheme, configs))
            continue
        for config in configs:
            telemetry.emit("sweep.cell.start", app=name, scheme=scheme,
                           config=config.name)
            started = time.perf_counter()
            stats = ctx.stats(scheme, config, engine=engine)
            _observe_cell(name, scheme, config.name, stats,
                          time.perf_counter() - started)
            cells[(scheme, config.name)] = stats
    return name, cells


def _run_batch(ctx: "AppContext", scheme: str, configs: ConfigSet,
               ) -> Dict[Tuple[str, str], SimStats]:
    """One scheme's configs as one batch, stored to the cache."""
    from repro.cpu.batch import simulate_batch

    trace = ctx.scheme_trace(scheme)
    telemetry.emit("sweep.cell.start", app=ctx.name, scheme=scheme,
                   config=configs.name, batched=True)
    started = time.perf_counter()
    with telemetry.phase("simulate"):
        all_stats = simulate_batch(trace, list(configs))
    wall = time.perf_counter() - started
    cache = get_cache()
    cells: Dict[Tuple[str, str], SimStats] = {}
    for config, stats in zip(configs, all_stats):
        cache.store_stats(ctx._stats_key(scheme, config, 5, 1.0), stats)
        cells[(scheme, config.name)] = stats
        _observe_cell(ctx.name, scheme, config.name, stats,
                      wall / len(configs))
    return cells


def _cell_task(*args, capture_telemetry: bool = True,
               ) -> Tuple[str, Dict[Tuple[str, str], SimStats],
                          Optional[Dict]]:
    """The dispatch task wrapper: run :func:`_run_cell` for one
    :class:`CellGroup` and return ``(app, {(scheme, config name):
    stats}, snapshot)``.

    Out-of-process attempts (``capture_telemetry=True``, the default)
    reset/snapshot telemetry and ship it back as a delta; in-parent
    attempts (the inline executor and quarantine fallback, via
    ``inline_kwargs``) record telemetry live under the classic
    ``run_apps.serial`` phase and return no snapshot — merging one would
    double-count the cell.  An attempt that raises ships nothing: its
    cell is retried or quarantined, and only the attempt that completes
    reports.
    """
    if not capture_telemetry:
        with telemetry.phase("run_apps.serial"):
            return (*_run_cell(*args), None)
    telemetry.reset()
    return (*_run_cell(*args), telemetry.snapshot())


# -- the grid plan: probe, group, run, absorb ----------------------------------


class MissingCell(NamedTuple):
    """One grid cell that neither the memo nor the disk cache holds."""

    app: str
    scheme: str
    config: CpuConfig
    #: the cell's stats artifact key (serve coalesces jobs on it)
    key: str


#: A cached cell: ``(app, scheme, config name, stats)``.
CachedCell = Tuple[str, str, str, SimStats]


def probe_grid(apps: Sequence[str], schemes: Sequence[str],
               configs: Sequence[CpuConfig], blocks: int,
               ) -> Tuple[List[CachedCell], List[MissingCell]]:
    """Walk the memo and the disk cache once over the grid.

    Returns the cached cells and the missing ones, each in app, config,
    scheme order.  Every cached cell counts as
    ``repro_cells_total{status="cached"}`` and emits
    ``sweep.cell.cached``, whichever front asked.
    """
    cached: List[CachedCell] = []
    missing: List[MissingCell] = []
    for name in apps:
        ctx = app_context(name, blocks)
        for config in configs:
            for scheme in schemes:
                stats = ctx.cached_stats(scheme, config)
                if stats is None:
                    missing.append(MissingCell(
                        name, scheme, config,
                        ctx._stats_key(scheme, config, 5, 1.0)))
                    continue
                cached.append((name, scheme, config.name, stats))
                telemetry.inc("repro_cells_total",
                              help="Sweep cells by completion status.",
                              status="cached")
                telemetry.emit("sweep.cell.cached", app=name,
                               scheme=scheme, config=config.name)
    return cached, missing


@dataclass(frozen=True)
class CellGroup:
    """The missing cells one dispatch task computes.

    ``args`` call :func:`_cell_task`; :meth:`task` binds them to a task
    body, so a caller can pass its own (traced) copy.
    """

    id: str
    cells: Tuple[MissingCell, ...]
    args: Tuple[object, ...]

    def task(self, fn, prefix: str = "") -> TaskSpec:
        """The group as a :class:`TaskSpec` with id ``prefix + id``."""
        return TaskSpec(id=prefix + self.id, fn=fn, args=self.args,
                        inline_kwargs={"capture_telemetry": False})


def group_cells(cells: Sequence[MissingCell], blocks: int,
                engine: str) -> List[CellGroup]:
    """Group missing cells into dispatch tasks, in first-seen order.

    The inline engine runs one group per app x config holding its
    missing schemes, id ``"{app}|{config}"``.  The batch engine
    amortizes the cycle loop across the configs of one trace, so its
    groups run the other way: one per app x scheme holding the missing
    configs, id ``"{app}|{scheme}|batch"``.  Either way a group's
    arguments are ``(app, blocks, schemes, configs, engine)``
    for :func:`_run_cell`.  The ids are part of the contract: a seeded
    ``REPRO_DISPATCH_FAULTS`` plan draws on them.

    Batch groups are kernel cells to come, so this also starts the
    kernel library's build in the background
    (:func:`repro.cpu._batchkernel.prebuild`): when the groups go to
    fleet workers, it compiles while they import, and they load it.
    """
    batch = engine == "batch"
    if batch and cells:
        from repro.cpu import _batchkernel

        _batchkernel.prebuild()
    buckets: Dict[Tuple[str, str], List[MissingCell]] = {}
    for cell in cells:
        axis = cell.scheme if batch else cell.config.name
        buckets.setdefault((cell.app, axis), []).append(cell)
    groups: List[CellGroup] = []
    for (name, axis), members in buckets.items():
        if batch:
            group_id = f"{name}|{axis}|batch"
            schemes: Tuple[str, ...] = (axis,)
            configs = ConfigSet(cell.config for cell in members)
        else:
            group_id = f"{name}|{axis}"
            schemes = tuple(cell.scheme for cell in members)
            configs = ConfigSet((members[0].config,))
        groups.append(CellGroup(
            id=group_id, cells=tuple(members),
            args=(name, blocks, schemes, configs, engine)))
    return groups


def absorb_cells(name: str, blocks: int,
                 cells: Dict[Tuple[str, str], SimStats],
                 results: Optional[Dict[str, Dict[Tuple[str, str],
                                                  SimStats]]] = None,
                 ) -> None:
    """Write one task's returned cells into the app's in-process memo,
    and into ``results[name]`` when the caller keeps a results map."""
    app_context(name, blocks)._stats.update(cells)
    if results is not None:
        results[name].update(cells)


#: The metric families the manifest's ``batch`` block reads.
_BATCH_FAMILIES = ("repro_batch_groups_total", "repro_batch_fallback_total",
                   "repro_batch_cells_total", "repro_batch_group_width")

_Samples = Dict[str, Dict[Tuple[Tuple[str, str], ...], Any]]


def _batch_samples() -> _Samples:
    """A copy of the ``repro_batch_*`` samples: the baseline a run takes
    when it starts, so its manifest counts only its own batches."""
    families = telemetry.metrics.REGISTRY.families()
    return {
        name: {key: list(cell) if isinstance(cell, list) else cell
               for key, cell in families[name].samples.items()}
        for name in _BATCH_FAMILIES if name in families
    }


def _batch_samples_since(since: _Samples) -> _Samples:
    """The ``repro_batch_*`` samples gained since the ``since``
    baseline (the registry is process-cumulative)."""
    gained: _Samples = {}
    for name, samples in _batch_samples().items():
        before = since.get(name, {})
        for key, value in samples.items():
            base = before.get(key)
            if isinstance(value, list):
                value = [v - b for v, b in
                         zip(value, base or [0] * len(value))]
            else:
                value = value - (base or 0)
            gained.setdefault(name, {})[key] = value
    return gained


def _batch_samples_of(snap: Optional[Dict[str, Any]]) -> _Samples:
    """The ``repro_batch_*`` samples a worker's telemetry snapshot
    carries (a snapshot is already a delta: one task's own)."""
    metrics = (snap or {}).get("metrics", {})
    return {
        name: {tuple((str(k), str(v)) for k, v in raw): cell
               for raw, cell in metrics[name]["samples"]}
        for name in _BATCH_FAMILIES if name in metrics
    }


def _batch_manifest_block(parts: Sequence[_Samples],
                         ) -> Optional[Dict[str, object]]:
    """Batch-engine provenance for a run manifest, from the
    ``repro_batch_*`` samples its own batches added (``parts`` are
    summed).

    ``repro.cpu.batch.last_batch_report()`` is process-local — under the
    fleet executor the interesting report lives (and dies) in a
    worker.  The ``repro_batch_*`` metric families ride each worker's
    result snapshot back to the parent with exactly-once merge
    semantics, so aggregating *them* yields fleet-wide group shapes and
    fallback reasons no matter which backend ran the grid.  Lands in
    the manifest's ``extra`` — outside the invocation record, so
    ``config_hash`` never sees it.
    """
    total: _Samples = {}
    for part in parts:
        for name, samples in part.items():
            mine = total.setdefault(name, {})
            for key, value in samples.items():
                old = mine.get(key)
                mine[key] = value if old is None else (
                    [a + b for a, b in zip(old, value)]
                    if isinstance(value, list) else old + value)

    def by_label(name: str, label: str) -> Dict[str, object]:
        return {dict(key).get(label, ""): value
                for key, value in sorted(total.get(name, {}).items())
                if value}

    groups = by_label("repro_batch_groups_total", "kernel")
    if not groups:
        return None
    block: Dict[str, object] = {
        "groups_by_kernel": groups,
        "fallbacks_by_reason": by_label("repro_batch_fallback_total",
                                        "reason"),
        "cells_by_path": by_label("repro_batch_cells_total", "path"),
    }
    widths = list(total.get("repro_batch_group_width", {}).values())
    if widths:
        agg = [sum(column) for column in zip(*widths)]
        bounds = [str(int(b)) if float(b).is_integer() else str(b)
                  for b in telemetry.metrics.WIDTH_BUCKETS] + ["+Inf"]
        block["group_width"] = {
            "count": int(agg[-2]),
            "sum": agg[-1],
            "buckets": dict(zip(bounds, (int(c) for c in agg[:-2]))),
        }
    return block


#: The dispatch report of the most recent :func:`run_apps` fan-out
#: (``None`` when every cell was already cached).  The sweep engine
#: reads this to fold executor provenance into its own manifest.
_last_report: Optional[DispatchReport] = None


def last_dispatch_report() -> Optional[DispatchReport]:
    """Executor/attempt provenance of the last ``run_apps`` fan-out."""
    return _last_report


def _run_extra(engine: str, batch_since: _Samples) -> Dict[str, object]:
    """The manifest ``extra`` of a grid run that just finished: its
    engine identity, the last fan-out's dispatch report, and the batch
    block since ``batch_since``.  All of it sits outside the invocation
    record, so ``config_hash`` (and with it the artifact cache) is
    engine- and executor-blind: both are bit-identical provenance."""
    extra: Dict[str, object] = {"engine": SIMULATORS.identity(engine)}
    if _last_report:
        extra["dispatch"] = _last_report.to_dict()
    batch_block = _batch_manifest_block([_batch_samples_since(batch_since)])
    if batch_block:
        extra["batch"] = batch_block
    return extra


def grid_manifest_fields(apps: Sequence[str], schemes: Sequence[str],
                         configs: Sequence[CpuConfig],
                         blocks: int) -> Dict[str, object]:
    """The :func:`record_run` keywords that describe one grid: every
    front that runs a grid records it the same way."""
    return {
        "apps": list(apps),
        "schemes": list(schemes),
        "configs": [config.name for config in configs],
        "walk_blocks": blocks,
        "seeds": {name: app_context(name, blocks).app_profile.seed
                  for name in apps},
        "components": {config.name: component_identity(config)
                       for config in configs},
    }


def run_apps(apps: Sequence[str],
             schemes: Sequence[str] = ("baseline",),
             jobs: Optional[int] = None,
             configs: Sequence[CpuConfig] = (GOOGLE_TABLET,),
             walk_blocks: Optional[int] = None,
             executor: Optional[str] = None,
             engine: Optional[str] = None,
             ) -> Dict[str, Dict[Tuple[str, str], SimStats]]:
    """Compute stats for an app x scheme x config grid, in parallel.

    Already-cached cells (in-process memo or disk cache) are collected
    inline; only the cells that actually need generation/simulation are
    fanned out through a registered execution backend
    (:data:`repro.registry.EXECUTORS`) with ``jobs`` workers (default:
    ``REPRO_JOBS`` or the CPU count).  The backend is chosen by the
    ``executor`` argument, else ``fleet``; an effective worker count of
    1 always runs ``inline``.  Whatever the backend — and whatever
    faults ``REPRO_DISPATCH_FAULTS`` injects into a fleet — the returned
    stats are bit-identical: failed attempts are retried with backoff,
    poison cells quarantine to the inline path, and every attempt is
    recorded in the run manifest.  Results land
    both in the returned mapping (``app -> (scheme, config.name) ->
    SimStats``) and in the per-app in-process memos, so subsequent
    ``ctx.stats(...)`` calls made by figure modules are hits.

    Each worker ships its telemetry snapshot (phases, metrics) back
    with its result, and the parent merges exactly one snapshot per
    cell (failed attempts ship none), so the phase table and the
    metrics registry cover the whole fleet without double-counting.
    Spans are not shipped: with ``REPRO_EVENTS`` set, every process
    appends its own ``span`` events to the shared event log.  Every
    invocation also writes a run manifest (config hash, seeds, cache
    hit/miss counts, wall time, phase table, executor attempt records)
    next to the artifact cache and emits its ``run.recorded`` event;
    see :mod:`repro.telemetry.manifest`.
    """
    blocks = walk_blocks if walk_blocks is not None else DEFAULT_WALK_BLOCKS
    schemes = tuple(schemes)
    engine_name = resolve_engine(engine)
    batch_since = _batch_samples()
    started = time.perf_counter()
    with telemetry.span("run_apps", apps=len(apps),
                        schemes=",".join(schemes)):
        results = _run_apps_grid(apps, schemes, jobs, configs, blocks,
                                 executor, engine_name)
    record_run("run_apps", wall_s=time.perf_counter() - started,
               extra=_run_extra(engine_name, batch_since),
               **grid_manifest_fields(apps, schemes, configs, blocks))
    return results


def _run_apps_grid(
    apps: Sequence[str],
    schemes: Tuple[str, ...],
    jobs: Optional[int],
    configs: Sequence[CpuConfig],
    blocks: int,
    executor: Optional[str] = None,
    engine: str = "batch",
) -> Dict[str, Dict[Tuple[str, str], SimStats]]:
    """The probe + executor fan-out body of :func:`run_apps`."""
    global _last_report
    results: Dict[str, Dict[Tuple[str, str], SimStats]] = {
        name: {} for name in apps
    }
    with telemetry.phase("run_apps.probe"):
        cached, missing = probe_grid(apps, schemes, configs, blocks)
    for name, scheme, config_name, stats in cached:
        results[name][(scheme, config_name)] = stats

    _last_report = None
    if not missing:
        return results
    tasks = [group.task(_cell_task) for group in
             group_cells(missing, blocks, engine)]
    workers = jobs if jobs is not None else default_jobs()
    workers = min(max(1, workers), len(tasks))

    backend = (executor or "").strip() or "fleet"
    EXECUTORS.entry(backend)  # unknown names fail loudly, did-you-mean
    if workers == 1:
        # A single worker is the serial path by definition; the inline
        # executor keeps it deterministic and process-free regardless of
        # which backend the caller asked for.
        backend = "inline"

    exec_obj = EXECUTORS.create(
        backend, jobs=workers, policy=RetryPolicy.from_env(),
    )
    task_results: List[TaskResult] = []
    try:
        for task in tasks:
            exec_obj.submit(task)
        if backend == "inline":
            task_results = exec_obj.drain()
        else:
            with telemetry.phase("run_apps.parallel"):
                task_results = exec_obj.drain()
    finally:
        exec_obj.shutdown()

    for result in task_results:
        if result.ok:
            name, cells, snap = result.value
            if snap is not None:
                telemetry.merge_snapshot(snap)
            absorb_cells(name, blocks, cells, results)

    _last_report = DispatchReport(
        executor=EXECUTORS.identity(backend),
        workers=workers,
        results=task_results,
        faults=os.environ.get(ENV_FAULTS, "").strip() or None,
    )
    failures = [r for r in task_results if not r.ok]
    if failures:
        failures[0].raise_error()
    return results


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (speedups are ratios)."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Minimal fixed-width table renderer used by every figure module."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
