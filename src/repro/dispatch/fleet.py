"""The fleet: a TCP broker leasing cells to worker processes.

Topology: the parent process runs a :class:`Broker` (a loopback TCP
listener plus one handler thread per connection) and a
:class:`PersistentFleet` keeps ``jobs`` workers alive as ``python -m
repro.dispatch.worker --connect 127.0.0.1:port``.  The broker accepts
only the workers its owner spawned: a ``hello`` under any other name is
answered ``denied``.  Workers *pull*: each sends ``ready``, receives a task
lease (the pickled ``(fn, args, kwargs)`` payload plus its attempt
number), heartbeats while executing, and reports a result envelope.
The broker trusts nothing:

* **leases expire** — a lease whose heartbeats stop for
  ``4 x heartbeat_s``, or whose wall clock passes the per-task timeout,
  is requeued (with exponential backoff) and the wedged worker is
  SIGKILLed;
* **dead workers requeue instantly** — a connection dropping mid-lease
  records a ``worker-died`` attempt and requeues without waiting for
  any timeout; the fleet's monitor respawns a replacement;
* **surrendered leases requeue instantly** — a worker asking for new
  work while still holding a lease (the ``drop`` fault, or a worker
  that lost its own state) gives the lease back as ``lost``;
* **corrupt results are retries, not crashes** — a result payload that
  fails to unpickle records a ``corrupt`` attempt and requeues;
* **poison tasks quarantine** — a task that exhausts
  ``policy.max_attempts`` degrades to the parent's inline path (see
  :func:`repro.dispatch.base.quarantine_inline`), so one bad cell ends
  as a structured error or an inline result, never a hung sweep.

One fleet class serves both lifetimes.  ``repro.serve`` keeps a
:class:`PersistentFleet` up across requests; the registered ``fleet``
executor (:class:`FleetExecutor`) starts one, drains it once, and shuts
it down.  The fleet obeys one rule set either way:

* **respawn** — the fleet keeps ``jobs`` worker processes alive;
* **respawn budget** — at most ``jobs + max_attempts x tasks submitted
  so far`` worker launches.  A worker that dies costs its task an
  attempt, so this is the total attempt budget: a crash-looping fleet
  converges to quarantine instead of forking forever;
* **no workers left** — when the fleet has no worker alive (spawning
  failed or the budget is spent), every unfinished task is handed to
  inline quarantine;
* **bounded drain** — :meth:`FleetExecutor.drain` also has a hard
  deadline (the summed attempt budget) past which whatever is left is
  quarantined, so no failure of the broker machinery can hang a sweep.

Determinism: workers compute pure functions of their task payloads, so
*which* worker runs a cell, in what order, after how many faults, cannot
change a result — the 56-cell golden suite passes bit-identically under
any fault plan, which is exactly what makes fault injection safe to run
in CI.
"""

from __future__ import annotations

import heapq
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.dispatch import wire
from repro.dispatch.base import (
    Attempt,
    RetryPolicy,
    TaskResult,
    TaskSpec,
    observe_attempt,
    quarantine_inline,
)

#: How often the drain loop sweeps leases/processes, seconds.
_TICK_S = 0.05

#: Longest a worker's ``ready`` is held waiting for work before it is
#: answered ``idle``, seconds: far below the worker's receive timeout.
_READY_HOLD_S = 1.0


@dataclass
class _Lease:
    task_id: str
    attempt_no: int
    worker: str
    started: float
    last_beat: float


@dataclass
class _WorkerProc:
    name: str
    proc: subprocess.Popen
    dead: bool = False


class Broker:
    """Task queue + lease table behind a TCP listener.

    The listener binds ``127.0.0.1`` on an ephemeral port: payloads are
    pickles, so the broker must never face a peer it does not trust.
    Workers the owner spawns are announced via :meth:`expect_worker`; a
    ``hello`` under any other name is answered ``denied`` and dropped,
    and a malformed hello is dropped like any other bad frame.

    An empty queue means *idle*, not *done*: tasks may be added at any
    time, completed tasks are handed out (and their tables reclaimed)
    through :meth:`take_completed`, and a graceful :meth:`begin_drain`
    finishes in-flight leases before workers are released.
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.RLock()
        #: notified whenever a held ``ready`` may now be answered
        self._wakeup = threading.Condition(self._lock)
        #: tasks submitted and not yet taken, in submission order
        self._tasks: Dict[str, TaskSpec] = {}
        self._payloads: Dict[str, bytes] = {}
        self._records: Dict[str, TaskResult] = {}
        #: (ready_time, seq, task_id, attempt_no) min-heap
        self._queue: List[Tuple[float, int, str, int]] = []
        self._seq = 0
        self._leases: Dict[str, _Lease] = {}          # task_id -> lease
        self._worker_lease: Dict[str, str] = {}       # worker -> task_id
        self._worker_pids: Dict[str, int] = {}
        #: worker names the owner spawns; only these may say hello
        self._expected: Set[str] = set()
        self._conns: List[socket.socket] = []
        #: finished, not yet taken: task id -> exhausted its budget,
        #: in completion order
        self._completed: Dict[str, bool] = {}
        self._draining = False
        self._closed = False
        self._threads: List[threading.Thread] = []

    # -- setup ---------------------------------------------------------------

    def add_task(self, task: TaskSpec) -> None:
        with self._lock:
            self._tasks[task.id] = task
            self._records[task.id] = TaskResult(task_id=task.id)
            self._payloads[task.id] = wire.dumps(
                (task.fn, task.args, task.kwargs)
            )
            self._seq += 1
            heapq.heappush(self._queue, (0.0, self._seq, task.id, 1))
            self._wakeup.notify_all()

    def expect_worker(self, name: str) -> None:
        """Announce a worker the owner spawns; a hello under any other
        name is denied."""
        with self._lock:
            self._expected.add(name)

    def start(self) -> None:
        thread = threading.Thread(target=self._accept_loop,
                                  name="dispatch-broker-accept",
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- status --------------------------------------------------------------

    def finished(self) -> bool:
        """Every task not yet taken has finished: nothing is queued or
        leased."""
        with self._lock:
            return len(self._completed) >= len(self._tasks)

    def idle(self) -> bool:
        """No task outstanding or waiting to be taken — the moment the
        broker can be drained for free."""
        with self._lock:
            return not self._tasks

    def take_completed(self) -> List[Tuple[TaskSpec, TaskResult, bool]]:
        """Hand out newly finished tasks in completion order and reclaim
        their tables (the broker's one result channel).

        Returns ``(spec, result, exhausted)`` triples; ``exhausted``
        tasks burned their whole attempt budget and still need the
        caller's quarantine decision.  Each task is returned exactly
        once; afterwards the broker forgets it entirely, which is what
        keeps a long-running fleet's memory bounded.
        """
        with self._lock:
            out = [(self._tasks.pop(task_id), self._records.pop(task_id),
                    exhausted)
                   for task_id, exhausted in self._completed.items()]
            for task, _record, _exhausted in out:
                self._payloads.pop(task.id, None)
            self._completed.clear()
            return out

    def begin_drain(self) -> None:
        """Graceful shutdown, step one: in-flight leases finish, queued
        tasks still get leased, but a worker asking for work when none
        is left is released with ``exit`` instead of parked on ``idle``."""
        with self._lock:
            self._draining = True
            self._wakeup.notify_all()

    # -- lease lifecycle -----------------------------------------------------

    def _record_attempt(self, task_id: str, attempt_no: int, worker: str,
                        outcome: str, wall: float,
                        error: Optional[str] = None) -> None:
        attempt = Attempt(
            index=attempt_no, worker=worker, outcome=outcome,
            wall_s=wall, error=error,
        )
        self._records[task_id].attempts.append(attempt)
        observe_attempt(task_id, attempt)

    def _requeue(self, task_id: str, attempt_no: int) -> None:
        """Queue the next attempt, or exhaust the task's budget."""
        if attempt_no >= self.policy.max_attempts:
            self._completed[task_id] = True
            record = self._records[task_id]
            record.error = (
                f"task {task_id!r} exhausted its "
                f"{self.policy.max_attempts}-attempt budget on the fleet"
            )
            return
        self._seq += 1
        ready = time.monotonic() + self.policy.backoff(attempt_no + 1)
        heapq.heappush(self._queue,
                       (ready, self._seq, task_id, attempt_no + 1))
        self._wakeup.notify_all()

    def _release_lease(self, task_id: str, outcome: str,
                       error: Optional[str] = None) -> None:
        """Drop an active lease and requeue its task (lock held)."""
        lease = self._leases.pop(task_id, None)
        if lease is None:
            return
        self._worker_lease.pop(lease.worker, None)
        self._record_attempt(
            task_id, lease.attempt_no, lease.worker, outcome,
            time.monotonic() - lease.started, error,
        )
        self._requeue(task_id, lease.attempt_no)

    def expire_stale(self) -> List[int]:
        """Expire overdue/stalled leases; returns worker pids to kill.

        Called from the drain loop every tick.  A lease past the task
        timeout is a ``timeout``; one whose heartbeats stopped is
        ``no-heartbeat``.  Either way the worker can no longer be
        trusted with the lease, so its pid is returned for SIGKILL (the
        disconnect handler will find the lease already gone and not
        double-record the attempt).
        """
        now = time.monotonic()
        pids: List[int] = []
        with self._lock:
            for task_id, lease in list(self._leases.items()):
                task = self._tasks[task_id]
                timeout = task.effective_timeout(self.policy)
                if now - lease.started > timeout:
                    outcome, error = "timeout", (
                        f"lease exceeded its {timeout:.1f}s budget on "
                        f"worker {lease.worker}"
                    )
                elif now - lease.last_beat \
                        > self.policy.heartbeat_timeout_s:
                    outcome, error = "no-heartbeat", (
                        f"no heartbeat from {lease.worker} for "
                        f"{now - lease.last_beat:.1f}s"
                    )
                else:
                    continue
                pid = self._worker_pids.get(lease.worker)
                if pid:
                    pids.append(pid)
                self._release_lease(task_id, outcome, error)
        return pids

    def fail_unfinished(self, reason: str) -> None:
        """Exhaust every task still outstanding (fleet lost all workers
        or hit the drain hard-deadline) so quarantine can finish the
        run."""
        with self._lock:
            for task_id in list(self._leases):
                self._release_lease(task_id, "worker-died", reason)
            for task_id in self._tasks:
                if task_id in self._completed:
                    continue
                self._completed[task_id] = True
                record = self._records[task_id]
                if record.error is None:
                    record.error = reason

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            with self._lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._handle, args=(conn,),
                name="dispatch-broker-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _handle(self, conn: socket.socket) -> None:
        worker = "?"
        try:
            hello = wire.recv_msg(conn)
            if not isinstance(hello, dict) or hello.get("type") != "hello" \
                    or not isinstance(hello.get("worker"), str):
                return
            name = hello["worker"]
            with self._lock:
                known = name in self._expected
                if known:
                    worker = name
                    self._worker_pids[worker] = hello.get("pid", 0)
            if not known:
                telemetry.inc("repro_fleet_denied_total",
                              help="Worker hellos rejected because the "
                                   "fleet never spawned that worker.")
                telemetry.emit("fleet.denied", worker=name)
                wire.send_msg(conn, {
                    "type": "denied",
                    "error": f"unknown worker {name!r}: the broker "
                             f"accepts only workers its fleet spawned",
                })
                return
            while True:
                message = wire.recv_msg(conn)
                kind = message.get("type")
                if kind == "ready":
                    self._on_ready(conn, worker)
                elif kind == "heartbeat":
                    self._on_heartbeat(worker, message.get("task"))
                elif kind == "result":
                    self._on_result(worker, message)
                else:
                    return
        except (wire.WireError, OSError):
            pass
        finally:
            with self._lock:
                task_id = self._worker_lease.get(worker)
                if task_id is not None:
                    self._release_lease(
                        task_id, "worker-died",
                        f"worker {worker} disconnected mid-lease",
                    )
            try:
                conn.close()
            except OSError:
                pass

    def _on_ready(self, conn: socket.socket, worker: str) -> None:
        """Answer a worker's ``ready``: a lease, ``exit`` when draining
        left nothing to hand out, or, after holding the ``ready`` up to
        :data:`_READY_HOLD_S` for work to arrive, ``idle``."""
        deadline = time.monotonic() + _READY_HOLD_S
        with self._lock:
            # A ready with an open lease means the worker finished (or
            # abandoned) a task without reporting: the result is lost.
            held = self._worker_lease.get(worker)
            if held is not None:
                self._release_lease(
                    held, "lost",
                    f"worker {worker} surrendered the lease without a "
                    f"result",
                )
            while not self._closed:
                now = time.monotonic()
                wake = deadline
                while self._queue:
                    ready, _seq, task_id, attempt_no = self._queue[0]
                    if task_id not in self._tasks \
                            or task_id in self._completed \
                            or task_id in self._leases:
                        heapq.heappop(self._queue)
                        continue
                    if ready > now:
                        # the queue head's backoff ends first
                        wake = min(wake, ready)
                        break
                    heapq.heappop(self._queue)
                    self._lease(conn, worker, task_id, attempt_no, now)
                    return
                if self._draining and not self._queue \
                        and not self._leases:
                    # Graceful drain: nothing left this worker could
                    # ever be handed (active leases may still requeue,
                    # so keep spare workers parked until the last lease
                    # resolves).
                    wire.send_msg(conn, {"type": "exit"})
                    return
                if now >= deadline:
                    break
                self._wakeup.wait(wake - now)
            wire.send_msg(conn, {"type": "idle"})

    def _lease(self, conn: socket.socket, worker: str, task_id: str,
               attempt_no: int, now: float) -> None:
        """Lease ``task_id`` to ``worker`` and send it (lock held)."""
        self._leases[task_id] = _Lease(
            task_id=task_id, attempt_no=attempt_no,
            worker=worker, started=now, last_beat=now,
        )
        self._worker_lease[worker] = task_id
        wire.send_msg(conn, {
            "type": "task",
            "id": task_id,
            "attempt": attempt_no,
            "payload": self._payloads[task_id],
            "heartbeat_s": self.policy.heartbeat_s,
        })
        telemetry.inc("repro_dispatch_leases_total",
                      help="Task leases granted to fleet workers.")
        telemetry.emit("dispatch.lease", task=task_id, worker=worker,
                       attempt=attempt_no)

    def _on_heartbeat(self, worker: str, task_id: Optional[str]) -> None:
        with self._lock:
            lease = self._leases.get(task_id or "")
            if lease is not None and lease.worker == worker:
                lease.last_beat = time.monotonic()
                telemetry.emit("dispatch.heartbeat", task=task_id,
                               worker=worker)

    def _on_result(self, worker: str, message: Dict[str, Any]) -> None:
        task_id = message.get("id", "")
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is None or lease.worker != worker:
                # Late result for an expired/requeued lease: the attempt
                # was already recorded as lost/timeout — ignore it.
                return
            wall = time.monotonic() - lease.started
            del self._leases[task_id]
            self._worker_lease.pop(worker, None)
            if not message.get("ok"):
                self._record_attempt(
                    task_id, lease.attempt_no, worker, "error", wall,
                    message.get("error", "worker reported failure"),
                )
                self._requeue(task_id, lease.attempt_no)
                return
            try:
                value = wire.loads(message["payload"])
            except Exception as exc:
                self._record_attempt(
                    task_id, lease.attempt_no, worker, "corrupt", wall,
                    f"result payload failed to decode: {exc}",
                )
                self._requeue(task_id, lease.attempt_no)
                return
            self._record_attempt(task_id, lease.attempt_no, worker,
                                 "ok", wall)
            self._completed[task_id] = False
            record = self._records[task_id]
            record.value = value
            record.error = None
            record.error_exc = None
            self._wakeup.notify_all()  # a drain may now release workers

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            self._wakeup.notify_all()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass


def _spawn_worker(address: Tuple[str, int],
                  name: str) -> Optional[subprocess.Popen]:
    """Launch one ``repro.dispatch.worker`` against ``address``.

    Workers must resolve the same modules the parent can (the task
    payloads pickle functions *by reference*), regardless of the
    worker's cwd — so the parent's import path ships in the
    environment.
    """
    host, port = address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.dispatch.worker",
             "--connect", f"{host}:{port}", "--worker", name],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    except Exception:
        return None
    telemetry.inc("repro_dispatch_worker_spawns_total",
                  help="Fleet worker processes launched "
                       "(initial complement plus respawns).")
    telemetry.emit("dispatch.worker.spawn", worker=name,
                   worker_pid=proc.pid)
    return proc


def _kill_pid(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        pass


class PersistentFleet:
    """A warm, multi-request worker fleet.

    Keeps one :class:`Broker` and a complement of ``jobs`` local workers
    alive across arbitrarily many tasks, so ``repro.serve``'s second
    request never pays process spawn or import cost again; the ``fleet``
    executor is this class drained once (:class:`FleetExecutor`).  The
    interface is a task pump, not a batch barrier:

    * :meth:`submit` enqueues a task at any time;
    * :meth:`poll` returns whatever finished since the last poll, in
      completion order (exhausted tasks are quarantined to the caller's
      inline path first, same contract as the executors);
    * a background monitor thread expires stale leases, SIGKILLs wedged
      workers, reaps the dead, and respawns replacements under the
      module's respawn rule and budget, handing every unfinished task to
      quarantine when no worker is left;
    * :meth:`shutdown` drains gracefully — in-flight leases finish,
      idle workers are released with ``exit`` — and hard-kills whatever
      outlives the grace period.

    Thread-safe: submit/poll may be called from any thread (the serve
    front calls them from the asyncio event loop).

    ``jobs`` must be at least 1: a fleet with no workers could never
    finish a task.
    """

    def __init__(self, jobs: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"a fleet needs at least 1 worker, got "
                             f"jobs={jobs}")
        self.jobs = jobs if jobs is not None \
            else max(1, os.cpu_count() or 1)
        self.policy = policy if policy is not None \
            else RetryPolicy.from_env()
        self.broker = Broker(self.policy)
        self.broker.start()
        self._procs: List[_WorkerProc] = []
        self._lock = threading.Lock()
        self._launches = 0
        self._submitted = 0
        self._draining = False
        self._stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="dispatch-fleet-monitor",
            daemon=True,
        )
        self._monitor.start()

    # -- task pump -----------------------------------------------------------

    def submit(self, task: TaskSpec) -> None:
        if self._stop.is_set() or self._draining:
            raise RuntimeError("fleet is shutting down")
        with self._lock:
            self._submitted += 1
        self.broker.add_task(task)

    def poll(self) -> List[TaskResult]:
        """Newly completed tasks since the last poll, completion order.

        Tasks that exhausted their fleet attempt budget degrade to one
        inline attempt in the calling process (the executors'
        poison-task quarantine), so every submitted task eventually
        comes back exactly once — as a value or a structured error,
        never silence.
        """
        done = self.broker.take_completed()
        exhausted = [(task, record) for task, record, dead in done
                     if dead]
        if exhausted:
            quarantine_inline(exhausted, self.policy)
        return [record for _task, record, _dead in done]

    def workers_alive(self) -> int:
        with self._lock:
            return sum(1 for w in self._procs
                       if not w.dead and w.proc.poll() is None)

    def workers_spawned(self) -> int:
        with self._lock:
            return len(self._procs)

    # -- monitor -------------------------------------------------------------

    def _spawn_budget(self) -> int:
        """Worker launches allowed so far: the initial complement plus
        one per attempt the submitted tasks may still burn."""
        with self._lock:
            return self.jobs + self.policy.max_attempts * self._submitted

    def _spawn(self) -> bool:
        """Launch one local worker, charging the respawn budget."""
        name = f"fleet-{self._launches}"
        self._launches += 1
        self.broker.expect_worker(name)
        proc = _spawn_worker(self.broker.address, name)
        if proc is None:
            return False
        with self._lock:
            self._procs.append(_WorkerProc(name=name, proc=proc))
        return True

    def _reap(self) -> int:
        """Mark exited workers dead; returns the live count."""
        with self._lock:
            procs = list(self._procs)
        live = 0
        for worker in procs:
            if worker.dead:
                continue
            if worker.proc.poll() is None:
                live += 1
                continue
            worker.dead = True
            telemetry.inc("repro_dispatch_worker_deaths_total",
                          help="Fleet workers that exited while the "
                               "fleet was up.")
            telemetry.emit("dispatch.worker.death", worker=worker.name,
                           returncode=worker.proc.returncode)
        return live

    def _monitor_loop(self) -> None:
        while True:
            for pid in self.broker.expire_stale():
                _kill_pid(pid)
            live = self._reap()
            while (not self._draining and live < self.jobs
                   and self._launches < self._spawn_budget()):
                if not self._spawn():
                    break
                live += 1
            if live == 0 and not self.broker.finished():
                self.broker.fail_unfinished(
                    "no fleet workers left (spawn failed or budget "
                    "exhausted); remaining tasks quarantined to the "
                    "inline path"
                )
            telemetry.set_gauge("repro_dispatch_workers", live,
                                help="Live fleet workers (gauge; merges "
                                     "as max across processes).")
            if self._stop.wait(_TICK_S):
                return

    # -- teardown ------------------------------------------------------------

    def shutdown(self, grace_s: float = 10.0) -> None:
        """Graceful drain, then hard stop.  Idempotent."""
        if self._stop.is_set():
            return
        self._draining = True
        self.broker.begin_drain()
        deadline = time.monotonic() + max(0.0, grace_s)
        while time.monotonic() < deadline:
            if self.broker.idle() and self.workers_alive() == 0:
                break
            time.sleep(_TICK_S)
        self._stop.set()
        self._monitor.join(timeout=2.0)
        self.broker.close()
        with self._lock:
            procs = list(self._procs)
        for worker in procs:
            if worker.dead or worker.proc.poll() is not None:
                worker.dead = True
                continue
            worker.proc.terminate()
        for worker in procs:
            if worker.dead:
                continue
            try:
                worker.proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                _kill_pid(worker.proc.pid)
                try:
                    worker.proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass
            worker.dead = True


class FleetExecutor:
    """The registered ``fleet`` executor: a :class:`PersistentFleet`
    drained once.

    :meth:`submit` only queues.  :meth:`drain` starts a fleet of
    ``min(jobs, tasks)`` workers, submits every task, collects each one
    as it comes back, shuts the fleet down, and only then quarantines
    the exhausted tasks inline, in submission order — so the first
    failing quarantine skips every later one across the whole batch,
    as the executor contract requires (:meth:`PersistentFleet.poll`
    quarantines per poll instead).
    """

    name = "fleet"

    def __init__(self, jobs: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None) -> None:
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.policy = policy if policy is not None \
            else RetryPolicy.from_env()
        self._tasks: List[TaskSpec] = []

    def submit(self, task: TaskSpec) -> None:
        self._tasks.append(task)

    def drain(self) -> List[TaskResult]:
        tasks, self._tasks = self._tasks, []
        if not tasks:
            return []
        policy = self.policy
        # Every task can burn its whole attempt budget plus backoff and
        # still finish; past this the drain machinery itself is declared
        # wedged and the run completes through quarantine.
        per_task = max(t.effective_timeout(policy) for t in tasks)
        hard_deadline = time.monotonic() + 30.0 + (
            policy.max_attempts
            * (per_task + policy.backoff_cap_s
               + policy.heartbeat_timeout_s)
        )
        done: Dict[str, Tuple[TaskResult, bool]] = {}
        fleet = PersistentFleet(min(self.jobs, len(tasks)), policy)
        try:
            for task in tasks:
                fleet.submit(task)
            while True:
                for task, record, exhausted in \
                        fleet.broker.take_completed():
                    done[task.id] = (record, exhausted)
                if len(done) == len(tasks):
                    break
                if time.monotonic() > hard_deadline:
                    fleet.broker.fail_unfinished(
                        "fleet drain hit its hard deadline; remaining "
                        "tasks quarantined to the inline path"
                    )
                    continue
                time.sleep(_TICK_S)
        finally:
            fleet.shutdown(grace_s=0.0)
        quarantine_inline([(task, done[task.id][0]) for task in tasks
                           if done[task.id][1]], policy)
        return [done[task.id][0] for task in tasks]

    def shutdown(self) -> None:
        self._tasks = []


__all__ = ["Broker", "FleetExecutor", "PersistentFleet"]
