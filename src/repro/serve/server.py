"""The persistent sweep/cell job server behind ``python -m repro.serve``.

One :class:`ServeServer` owns:

* a **persistent fleet** (:class:`repro.dispatch.fleet.PersistentFleet`)
  — or, with ``executor="inline"``, a serialized in-process execution
  lane — that stays warm across requests;
* a **wire front** (length-prefixed pickle messages, see
  :mod:`repro.serve.protocol`) and an **HTTP/JSON front**
  (``/healthz``, ``/metrics``, ``POST /sweep``, ``POST /shutdown``);
* a **job engine** that admits :class:`~repro.experiments.sweep.
  SweepSpec` payloads, answers warm cells straight from the artifact
  cache, fans cold cells out to the fleet, and streams every cell back
  the moment it completes.

A job plans its grid with the functions ``run_apps`` uses
(:mod:`repro.experiments.runner`): ``probe_grid`` splits it into cached
and missing cells, ``group_cells`` turns the missing cells the job owns
into ``_cell_task`` tasks, and ``absorb_cells`` memoizes what comes
back; the ``inline`` lane runs each task as one ``run_attempt``, as the
inline executor does.  So a served grid is bit-identical to a direct
sweep of the same spec, and fails with the same errors.  Each job's
manifest carries the ``dispatch`` and ``batch`` blocks a direct sweep's
does, counting only the tasks that job ran.

Hardening layered on top:

* **admission backpressure** — ``max_pending`` bounds the in-flight
  job table; past it, admission answers a structured ``busy`` record
  (HTTP 503) instead of growing latency without bound;
* **in-flight cell coalescing** — concurrent jobs that need the same
  uncached cell subscribe to the first computation (keyed by the
  cell's content address), so a cold concurrent burst computes each
  grid cell exactly once.

The wire front unpickles every frame it reads, so bind ``host`` only to
an interface whose peers you trust (the default is loopback).  The
fleet broker always listens on loopback.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.cache import get_cache
from repro.cpu import CpuConfig
from repro.cpu.engines import resolve_engine
from repro.dispatch import (
    ENV_FAULTS,
    DispatchReport,
    RetryPolicy,
    TaskResult,
    TaskSpec,
)
from repro.dispatch.base import observe_attempt
from repro.dispatch.fleet import PersistentFleet
from repro.dispatch.watchdog import run_attempt
from repro.experiments.runner import (
    DEFAULT_WALK_BLOCKS,
    MissingCell,
    _batch_manifest_block,
    _batch_samples,
    _batch_samples_of,
    _batch_samples_since,
    _cell_task,
    absorb_cells,
    app_context,
    grid_manifest_fields,
    group_cells,
    probe_grid,
)
from repro.experiments.sweep import SweepSpec
from repro.registry import EXECUTORS, SIMULATORS, all_registries
from repro.workloads import get_profile
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    read_msg,
    write_msg,
)

#: How often the result pump polls the fleet, seconds.
_PUMP_S = 0.02

#: Executor lanes the server knows how to drive.
EXECUTOR_CHOICES = ("fleet", "inline")


class JobError(ValueError):
    """A job failed admission (bad spec, unknown name, draining)."""


class JobBusyError(JobError):
    """Admission refused: the pending-job table is at ``max_pending``."""


@dataclass
class _Job:
    """Book-keeping for one in-flight sweep job."""

    id: str
    client_id: str
    front: str
    spec: SweepSpec
    configs: Tuple[CpuConfig, ...]
    blocks: int
    queue: "asyncio.Queue[Any]" = field(
        default_factory=asyncio.Queue)
    pending: Set[str] = field(default_factory=set)
    #: in-flight cell futures this job owns, by stats artifact key
    owned_keys: Set[str] = field(default_factory=set)
    cached: int = 0
    computed: int = 0
    coalesced: int = 0
    failed: int = 0
    #: results of the tasks this job ran itself, and the
    #: ``repro_batch_*`` samples each of them added (its manifest's
    #: ``dispatch`` and ``batch`` blocks)
    results: List[TaskResult] = field(default_factory=list)
    batch: List[Any] = field(default_factory=list)


class ServeServer:
    """Persistent simulation service: warm fleet + hot cache + two
    streaming job fronts."""

    def __init__(self, workers: Optional[int] = None,
                 executor: str = "fleet",
                 host: str = "127.0.0.1",
                 wire_port: int = 0,
                 http_port: int = 0,
                 policy: Optional[RetryPolicy] = None,
                 max_pending: Optional[int] = None) -> None:
        if executor not in EXECUTOR_CHOICES:
            raise ValueError(
                f"unknown serve executor {executor!r} "
                f"(choose from {', '.join(EXECUTOR_CHOICES)})"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"serve needs at least 1 worker, got "
                             f"workers={workers}")
        self.executor = executor
        self.workers = workers
        self.host = host
        self._wire_port = wire_port
        self._http_port = http_port
        self.policy = policy if policy is not None \
            else RetryPolicy.from_env()
        self.max_pending = max_pending
        self.fleet: Optional[PersistentFleet] = None
        self.started_unix = time.time()
        self._jobs: Dict[str, _Job] = {}
        self._job_seq = 0
        self._jobs_total = 0
        self._jobs_failed = 0
        self._cells = {"cached": 0, "computed": 0, "coalesced": 0,
                       "failed": 0}
        #: cells being computed right now, stats-key -> outcome future
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        self._draining = False
        self._stopped = asyncio.Event()
        self._wire_server: Optional[asyncio.base_events.Server] = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._inline_lock = asyncio.Lock()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind both fronts and warm the fleet."""
        if self.executor == "fleet":
            self.fleet = await asyncio.to_thread(
                PersistentFleet, self.workers, self.policy)
            self._pump_task = asyncio.create_task(self._pump_fleet())
        self._wire_server = await asyncio.start_server(
            self._handle_wire, self.host, self._wire_port)
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, self._http_port)
        telemetry.emit("serve.start", host=self.host,
                       wire_port=self.wire_port,
                       http_port=self.http_port,
                       executor=self.executor)
        telemetry.set_gauge("repro_serve_up", 1,
                            help="1 while the serve front is accepting "
                                 "jobs.")

    @property
    def wire_port(self) -> int:
        assert self._wire_server is not None
        return self._wire_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int:
        assert self._http_server is not None
        return self._http_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` completes."""
        await self._stopped.wait()

    async def stop(self, grace_s: float = 10.0) -> None:
        """Graceful drain: stop admitting, let in-flight jobs finish
        (bounded by ``grace_s``), release the fleet, close the fronts."""
        if self._draining:
            return
        self._draining = True
        telemetry.set_gauge("repro_serve_up", 0,
                            help="1 while the serve front is accepting "
                                 "jobs.")
        deadline = time.monotonic() + max(0.0, grace_s)
        while self._jobs and time.monotonic() < deadline:
            await asyncio.sleep(_PUMP_S)
        if self._pump_task is not None:
            self._pump_task.cancel()
        if self.fleet is not None:
            await asyncio.to_thread(self.fleet.shutdown, grace_s)
        for server in (self._wire_server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        telemetry.emit("serve.stop", jobs_total=self._jobs_total)
        self._stopped.set()

    # -- health --------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        cache = get_cache()
        record: Dict[str, Any] = {
            "ok": True,
            "status": "draining" if self._draining else "serving",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "executor": self.executor,
            "jobs": {
                "active": len(self._jobs),
                "total": self._jobs_total,
                "failed": self._jobs_failed,
                "max_pending": self.max_pending,
            },
            "cells": dict(self._cells),
            "cache": {"hits": cache.hits, "misses": cache.misses,
                      "backend": cache.backend_spec()},
            # Every component registry, by versioned identity — clients
            # discover what this server can sweep without a round trip
            # per kind.
            "registries": {
                kind: [registry.identity(name)
                       for name in registry.names()]
                for kind, registry in all_registries().items()
            },
        }
        if self.fleet is not None:
            host, port = self.fleet.broker.address
            record["workers"] = {
                "configured": self.fleet.jobs,
                "alive": self.fleet.workers_alive(),
                "spawned": self.fleet.workers_spawned(),
            }
            record["fleet"] = {"host": host, "port": port}
        else:
            record["workers"] = {"configured": 1, "alive": 1,
                                 "spawned": 0}
        return record

    # -- the job engine ------------------------------------------------------

    def _admit(self, payload: Any, client_id: str, front: str) -> _Job:
        """Validate a sweep payload and register the job, or raise
        :class:`JobError` (:class:`JobBusyError` when the pending-job
        table is full) with a client-presentable message.  Rejection
        accounting happens here, so both fronts share it."""
        if self._draining:
            self._reject(front, "server is draining; job rejected")
        if self.max_pending is not None \
                and len(self._jobs) >= self.max_pending:
            telemetry.inc("repro_serve_busy_total",
                          help="Jobs refused at admission because the "
                               "pending-job table was full.",
                          front=front)
            telemetry.emit("serve.job.busy", front=front,
                           active=len(self._jobs),
                           max_pending=self.max_pending)
            raise JobBusyError(
                f"server busy: {len(self._jobs)} jobs pending "
                f"(max {self.max_pending})"
            )
        try:
            spec = SweepSpec.from_dict(payload)
            spec.validate()
            configs = spec.resolve_configs()
            for name in spec.apps:
                get_profile(name)
        except (ValueError, KeyError) as exc:
            self._reject(front, str(exc).strip("\"'"), cause=exc)
        blocks = spec.walk_blocks if spec.walk_blocks is not None \
            else DEFAULT_WALK_BLOCKS
        self._job_seq += 1
        job = _Job(
            id=f"job-{self._job_seq}", client_id=client_id, front=front,
            spec=spec, configs=configs, blocks=blocks,
        )
        self._jobs[job.id] = job
        self._jobs_total += 1
        telemetry.inc("repro_serve_jobs_total",
                      help="Sweep jobs admitted, by front.", front=front)
        telemetry.set_gauge("repro_serve_active_jobs", len(self._jobs),
                            help="Jobs currently streaming results.")
        telemetry.emit("serve.job.start", job=job.id, front=front,
                       apps=",".join(spec.apps),
                       schemes=",".join(spec.schemes),
                       configs=",".join(c.name for c in configs))
        return job

    def _reject(self, front: str, error: str,
                cause: Optional[BaseException] = None) -> None:
        self._jobs_failed += 1
        telemetry.inc("repro_serve_jobs_rejected_total",
                      help="Jobs that failed admission.")
        telemetry.emit("serve.job.rejected", front=front, error=error)
        raise JobError(error) from cause

    def _busy_record(self, client_id: str,
                     exc: JobBusyError) -> Dict[str, Any]:
        return {"type": "busy", "id": client_id, "error": str(exc),
                "active": len(self._jobs),
                "max_pending": self.max_pending}

    def _cell_record(self, job: _Job, app: str, scheme: str,
                     config: str, *, cached: bool, wall_s: float,
                     coalesced: bool = False, stats: Any = None,
                     error: Optional[str] = None) -> Dict[str, Any]:
        source = "failed" if error is not None else (
            "cached" if cached else
            "coalesced" if coalesced else "computed")
        self._cells[source] += 1
        if error is not None:
            job.failed += 1
        elif cached:
            job.cached += 1
        elif coalesced:
            job.coalesced += 1
        else:
            job.computed += 1
        telemetry.inc("repro_serve_cells_total",
                      help="Cells served, by source.", source=source)
        record: Dict[str, Any] = {
            "type": "cell", "id": job.client_id, "app": app,
            "scheme": scheme, "config": config, "cached": cached,
            "coalesced": coalesced, "wall_s": round(wall_s, 6),
        }
        if error is not None:
            record["error"] = error
        else:
            record["stats"] = stats.to_dict()
        return record

    async def run_job(self, payload: Any, client_id: str,
                      front: str) -> AsyncIterator[Dict[str, Any]]:
        """Admit + execute one sweep job, yielding JSON-safe
        ``accepted``/``cell``/``done`` records as cells complete (or a
        single ``busy``/``error`` record on admission failure)."""
        try:
            job = self._admit(payload, client_id, front)
        except JobBusyError as exc:
            yield self._busy_record(client_id, exc)
            return
        except JobError as exc:
            yield {"type": "error", "id": client_id, "error": str(exc)}
            return
        async for record in self._stream_job(job):
            yield record

    async def _stream_job(self,
                          job: _Job) -> AsyncIterator[Dict[str, Any]]:
        """Execute an already-admitted job and stream its records."""
        started = time.perf_counter()
        try:
            try:
                async for record in self._execute(job):
                    yield record
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # server-side bug, not cell error
                telemetry.emit("serve.job.error", job=job.id,
                               error=f"{type(exc).__name__}: {exc}")
                yield {"type": "error", "id": job.client_id,
                       "error": f"job failed: "
                                f"{type(exc).__name__}: {exc}"}
                job.failed += 1
                return
            wall = time.perf_counter() - started
            telemetry.observe("repro_serve_job_seconds", wall,
                              help="Wall seconds per served job.")
            telemetry.emit("serve.job.done", job=job.id,
                           cached=job.cached, computed=job.computed,
                           coalesced=job.coalesced,
                           failed=job.failed, wall_s=round(wall, 6))
            self._record_manifest(job, wall)
            yield {
                "type": "done", "id": job.client_id,
                "cells": (job.cached + job.computed + job.coalesced
                          + job.failed),
                "cached": job.cached, "computed": job.computed,
                "coalesced": job.coalesced,
                "failed": job.failed, "wall_s": round(wall, 6),
            }
        finally:
            if job.failed:
                self._jobs_failed += 1
            self._jobs.pop(job.id, None)
            telemetry.set_gauge("repro_serve_active_jobs",
                                len(self._jobs),
                                help="Jobs currently streaming "
                                     "results.")

    async def _execute(self,
                       job: _Job) -> AsyncIterator[Dict[str, Any]]:
        spec = job.spec
        engine = resolve_engine(spec.engine)
        # Probe the warm path first: memo + disk cache, no fleet.
        probe_started = time.perf_counter()
        cached, missing = await asyncio.to_thread(
            probe_grid, spec.apps, spec.schemes, job.configs, job.blocks)
        probe_wall = time.perf_counter() - probe_started
        total = len(spec.apps) * len(spec.schemes) * len(job.configs)
        yield {"type": "accepted", "id": job.client_id, "job": job.id,
               "cells": total, "warm": len(cached)}
        per_cell = probe_wall / max(1, len(cached))
        for name, scheme, config_name, stats in cached:
            yield self._cell_record(job, name, scheme, config_name,
                                    cached=True, wall_s=per_cell,
                                    stats=stats)
        if not missing:
            return

        # Partition cold cells: cells some other job is already
        # computing become subscriptions on its in-flight future; the
        # rest this job computes, registering futures of its own.  This
        # runs on the event loop with no await between lookup and
        # registration, so two jobs can never both claim a cell.  The
        # probe ran off the loop, so a cell another job finished since
        # then has no future any more but is in the memo (set before
        # the future is retired): it is served as cached.
        loop = asyncio.get_running_loop()
        own: List[MissingCell] = []
        finished: List[Tuple[MissingCell, Any]] = []
        for index, cell in enumerate(missing):
            fut = self._inflight.get(cell.key)
            stats = None if fut is not None else app_context(
                cell.app, job.blocks).memoized(
                    cell.scheme, cell.config.name)
            if stats is not None:
                finished.append((cell, stats))
            elif fut is not None:
                telemetry.inc("repro_serve_coalesced_total",
                              help="Cold cells answered by subscribing "
                                   "to another job's in-flight "
                                   "computation.")
                telemetry.emit("serve.cell.coalesced", job=job.id,
                               app=cell.app, scheme=cell.scheme,
                               config=cell.config.name)
                sub_id = f"{job.id}|sub{index}"
                job.pending.add(sub_id)
                asyncio.ensure_future(self._await_coalesced(
                    job, sub_id, cell, fut))
            else:
                self._inflight[cell.key] = loop.create_future()
                job.owned_keys.add(cell.key)
                own.append(cell)

        prefix = f"{job.id}|"
        groups = {prefix + group.id: group for group in
                  group_cells(own, job.blocks, engine)}
        job.pending.update(groups)
        try:
            for cell, stats in finished:
                yield self._cell_record(job, cell.app, cell.scheme,
                                        cell.config.name, cached=True,
                                        wall_s=0.0, stats=stats)
            for group in groups.values():
                task = group.task(_cell_task, prefix)
                if self.fleet is not None:
                    await asyncio.to_thread(self.fleet.submit, task)
                else:
                    asyncio.create_task(self._run_task_inline(job, task))
            while job.pending:
                item = await job.queue.get()
                if isinstance(item, tuple):  # a coalesced cell resolved
                    sub_id, cell, outcome = item
                    job.pending.discard(sub_id)
                    yield self._outcome_record(job, cell, outcome,
                                               coalesced=True)
                    continue
                job.pending.discard(item.task_id)
                job.results.append(item)
                group = groups[item.task_id]
                if item.ok:
                    name, cells, snap = item.value
                    if snap is not None:
                        telemetry.merge_snapshot(snap)
                        job.batch.append(_batch_samples_of(snap))
                    absorb_cells(name, job.blocks, cells)
                    wall = sum(a.wall_s for a in item.attempts
                               if a.outcome == "ok") / len(group.cells)
                    outcomes = [("ok", cells[(cell.scheme,
                                              cell.config.name)], wall)
                                for cell in group.cells]
                else:
                    error = str(item.error or repr(item.error_exc))
                    wall = sum(a.wall_s for a in item.attempts)
                    outcomes = [("error", error, wall)] * len(group.cells)
                for cell, outcome in zip(group.cells, outcomes):
                    self._resolve_inflight(job, cell.key, outcome)
                    yield self._outcome_record(job, cell, outcome)
        finally:
            # Whatever this job still owns resolves as an error so
            # subscribers never hang on a job that died mid-stream.
            for key in list(job.owned_keys):
                self._resolve_inflight(
                    job, key,
                    ("error", "the computing job ended before this "
                              "cell resolved", 0.0))

    def _outcome_record(self, job: _Job, cell: MissingCell,
                        outcome: Tuple[str, Any, float],
                        coalesced: bool = False) -> Dict[str, Any]:
        """The cell record of a computed (or coalesced) cell's
        ``("ok", stats, wall_s)`` or ``("error", message, wall_s)``."""
        status, value, wall = outcome
        ok = status == "ok"
        return self._cell_record(job, cell.app, cell.scheme,
                                 cell.config.name, cached=False,
                                 coalesced=coalesced, wall_s=wall,
                                 stats=value if ok else None,
                                 error=None if ok else value)

    def _resolve_inflight(self, job: _Job, key: str,
                          outcome: Tuple[str, Any, float]) -> None:
        """Resolve (and retire) an in-flight cell future this job owns."""
        if key not in job.owned_keys:
            return
        job.owned_keys.discard(key)
        fut = self._inflight.pop(key, None)
        if fut is not None and not fut.done():
            fut.set_result(outcome)

    async def _await_coalesced(self, job: _Job, sub_id: str,
                               cell: MissingCell,
                               fut: "asyncio.Future[Any]") -> None:
        """Feed another job's cell outcome into this job's queue."""
        try:
            outcome = await asyncio.shield(fut)
        except asyncio.CancelledError:
            outcome = ("error", "the in-flight computation was "
                                "cancelled", 0.0)
        job.queue.put_nowait((sub_id, cell, outcome))

    async def _run_task_inline(self, job: _Job, task: TaskSpec) -> None:
        """The ``executor="inline"`` lane: one task at a time in a
        worker thread of this process, with live telemetry, as one
        in-parent attempt of the inline executor."""
        result = TaskResult(task_id=task.id)
        async with self._inline_lock:
            # one task at a time in this lane: the samples it adds are
            # its own
            since = _batch_samples()
            attempt, result.value, exc = await asyncio.to_thread(
                run_attempt, task, 1, "serve-inline",
                task.effective_timeout(self.policy))
            job.batch.append(_batch_samples_since(since))
        result.attempts.append(attempt)
        observe_attempt(task.id, attempt)
        if exc is not None:
            result.error = f"{type(exc).__name__}: {exc}"
            result.error_exc = exc
        job.queue.put_nowait(result)

    def _record_manifest(self, job: _Job, wall: float) -> None:
        """Per-job run manifest (kind ``serve``) — same provenance next
        to the cache as ``run_apps``/``sweep`` write, so served jobs
        leave the same phase table and metrics snapshot.  Its
        ``dispatch`` and ``batch`` blocks cover only the tasks this job
        ran itself (a quarantined fleet task's batches, which run in
        this process with no snapshot, are not counted)."""
        try:
            from repro.telemetry.manifest import record_run

            spec = job.spec
            extra: Dict[str, Any] = {
                "engine": SIMULATORS.identity(resolve_engine(spec.engine)),
                "serve": {
                    "job": job.id, "front": job.front,
                    "executor": self.executor,
                    "cached": job.cached, "computed": job.computed,
                    "failed": job.failed,
                },
            }
            if job.results:
                extra["dispatch"] = DispatchReport(
                    executor=EXECUTORS.identity(self.executor),
                    workers=self.fleet.jobs if self.fleet else 1,
                    results=job.results,
                    faults=os.environ.get(ENV_FAULTS, "").strip() or None,
                ).to_dict()
            batch_block = _batch_manifest_block(job.batch)
            if batch_block:
                extra["batch"] = batch_block
            record_run(
                "serve", wall_s=wall,
                extra=extra,
                **grid_manifest_fields(spec.apps, spec.schemes,
                                       job.configs, job.blocks))
        except OSError:
            pass

    # -- fleet result pump ---------------------------------------------------

    async def _pump_fleet(self) -> None:
        """Route completed fleet tasks to their jobs' queues.

        ``poll()`` may run a quarantined cell inline (seconds of work),
        so it runs in a thread, never on the event loop.
        """
        assert self.fleet is not None
        while True:
            results = await asyncio.to_thread(self.fleet.poll)
            for result in results:
                job_id = result.task_id.split("|", 1)[0]
                job = self._jobs.get(job_id)
                if job is not None:
                    job.queue.put_nowait(result)
            await asyncio.sleep(_PUMP_S)

    # -- wire front ----------------------------------------------------------

    async def _handle_wire(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        telemetry.inc("repro_serve_connections_total",
                      help="Front connections accepted.", front="wire")
        try:
            while True:
                try:
                    message = await read_msg(reader)
                except (asyncio.IncompleteReadError, ProtocolError,
                        ConnectionError):
                    return
                if not isinstance(message, dict):
                    await write_msg(writer, {
                        "type": "error", "id": None,
                        "error": "messages must be dicts",
                    })
                    return
                kind = message.get("type")
                if kind == "hello":
                    await write_msg(writer, {
                        "type": "welcome", "server": "repro.serve",
                        "protocol": PROTOCOL_VERSION,
                        "executor": self.executor,
                    })
                elif kind == "ping":
                    await write_msg(writer, {"type": "pong"})
                elif kind == "health":
                    await write_msg(writer, {"type": "health",
                                             **self.health()})
                elif kind == "sweep":
                    client_id = str(message.get("id", ""))
                    async for record in self.run_job(
                            message.get("spec"), client_id, "wire"):
                        await write_msg(writer, record)
                elif kind == "shutdown":
                    await write_msg(writer, {"type": "bye"})
                    asyncio.create_task(self.stop())
                    return
                else:
                    await write_msg(writer, {
                        "type": "error", "id": message.get("id"),
                        "error": f"unknown message type {kind!r}",
                    })
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- HTTP front ----------------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        telemetry.inc("repro_serve_connections_total",
                      help="Front connections accepted.", front="http")
        try:
            request = await self._read_http_request(reader)
            if request is None:
                return
            method, path, body = request
            telemetry.emit("serve.http", method=method, path=path)
            if method == "GET" and path == "/healthz":
                await self._respond_json(writer, 200, self.health())
            elif method == "GET" and path == "/metrics":
                await self._respond(
                    writer, 200, telemetry.render_prometheus(),
                    content_type="text/plain; version=0.0.4; "
                                 "charset=utf-8")
            elif method == "POST" and path == "/sweep":
                await self._http_sweep(writer, body)
            elif method == "POST" and path == "/shutdown":
                await self._respond_json(writer, 200,
                                         {"ok": True,
                                          "draining": True})
                asyncio.create_task(self.stop())
            else:
                await self._respond_json(
                    writer, 404,
                    {"ok": False,
                     "error": f"no route {method} {path}",
                     "routes": ["GET /healthz", "GET /metrics",
                                "POST /sweep", "POST /shutdown"]})
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_http_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes]]:
        line = await reader.readline()
        parts = line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1", "replace") \
                .partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            pass
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method, path, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: str,
                       content_type: str = "application/json",
                       extra_headers: str = "") -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  503: "Service Unavailable"}.get(status, "OK")
        payload = body.encode("utf-8")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra_headers}"
            f"Connection: close\r\n\r\n".encode("latin-1") + payload)
        await writer.drain()

    async def _respond_json(self, writer: asyncio.StreamWriter,
                            status: int, record: Any) -> None:
        await self._respond(writer, status,
                            json.dumps(record, sort_keys=True) + "\n")

    async def _http_sweep(self, writer: asyncio.StreamWriter,
                          body: bytes) -> None:
        """``POST /sweep``: stream ``accepted``/``cell``/``done`` as
        ndjson lines, one per completed cell, close-delimited."""
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except ValueError as exc:
            await self._respond_json(
                writer, 400,
                {"ok": False, "error": f"request body is not JSON: "
                                       f"{exc}"})
            return
        client_id = str(payload.pop("id", "") if isinstance(
            payload, dict) else "")
        # Admission happens before the status line goes out, so
        # backpressure and bad specs answer with real HTTP statuses
        # (503 busy / 400 rejected) instead of a 200 ndjson error.
        try:
            job = self._admit(payload, client_id, "http")
        except JobBusyError as exc:
            await self._respond(
                writer, 503,
                json.dumps({"ok": False, "busy": True,
                            "error": str(exc)}, sort_keys=True) + "\n",
                extra_headers="Retry-After: 1\r\n")
            return
        except JobError as exc:
            await self._respond_json(writer, 400,
                                     {"ok": False, "error": str(exc)})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n")
        await writer.drain()
        async for record in self._stream_job(job):
            writer.write(
                (json.dumps(record, sort_keys=True) + "\n")
                .encode("utf-8"))
            await writer.drain()


__all__ = ["EXECUTOR_CHOICES", "JobBusyError", "JobError",
           "ServeServer"]
