"""Core vocabulary of the dispatch subsystem: tasks, attempts, policy.

An *executor* turns a batch of :class:`TaskSpec`\\ s into
:class:`TaskResult`\\ s.  Every execution of a task — on whatever worker,
however it ended — is recorded as an :class:`Attempt`, so the caller
(and the run manifest) can see exactly how a result was obtained: first
try on a fleet worker, third try after two SIGKILLed ones, or a
quarantined poison task degraded to the parent's inline path.

The contract every executor honors:

* ``submit()`` only queues; no work starts before ``drain()``.
* ``drain()`` **never raises for a task failure** — errors land in the
  task's :class:`TaskResult` (``error`` text, and ``error_exc`` when the
  failing attempt ran in the parent process, so the caller can re-raise
  the original exception object).  Only executor-infrastructure bugs
  escape.
* Results come back in **submission order**, one per submitted task, and
  a task's value is produced by exactly one successful attempt — retried
  attempts never leak partial results.
* ``shutdown()`` is idempotent and reclaims every worker process.

The retry/backoff/timeout knobs live in :class:`RetryPolicy` (the
timeout is env-overridable, ``REPRO_DISPATCH_TIMEOUT``); the executors
share it so a sweep behaves the same whether cells run in-process or on
a socket fleet.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry


class DispatchError(RuntimeError):
    """Base class for structured dispatch failures (carries a task id)."""

    def __init__(self, message: str, task_id: str = "") -> None:
        super().__init__(message)
        self.task_id = task_id


class CellTimeoutError(DispatchError):
    """A task exceeded its per-attempt wall-clock budget.

    Raised by the SIGALRM deadline around in-parent execution, and
    recorded (as a ``timeout`` attempt) when the broker expires a fleet
    lease.  The message names the cell, so a wedged cell is a diagnosis,
    not a hung sweep.
    """


class CellDeadlockError(DispatchError):
    """The pipeline's no-forward-progress watchdog fired inside a cell.

    Wraps :class:`repro.cpu.pipeline.PipelineDeadlockError` with the
    dispatch-level cell id (``app|config``); the original error — which
    carries the stuck pipeline state — rides along as ``__cause__``.
    """


class TaskFailedError(DispatchError):
    """A task failed on a remote worker and the error was not an
    exception object the parent can re-raise (only its traceback text
    survived the process boundary)."""


def _env_float(name: str, default: float, minimum: float = 0.0) -> float:
    """A float env override, warning (once) and defaulting on garbage."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r} (not a number); "
            f"using {default}",
            RuntimeWarning, stacklevel=2,
        )
        return default
    return max(minimum, value)


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are retried, and how long any attempt may run.

    All executors share one policy object, so
    ``REPRO_DISPATCH_TIMEOUT=30`` means the same thing to the inline path
    and to the fleet broker.  The other fields have no environment knob;
    callers that need other values pass a policy of their own.
    """

    #: per-attempt wall-clock budget, seconds (``REPRO_DISPATCH_TIMEOUT``)
    timeout_s: float = 600.0
    #: total attempts per task before quarantine
    max_attempts: int = 3
    #: base of the exponential retry backoff
    backoff_base_s: float = 0.05
    #: backoff ceiling — retries never wait longer than this
    backoff_cap_s: float = 2.0
    #: fleet worker heartbeat interval; a lease with no heartbeat for 4
    #: intervals is declared dead
    heartbeat_s: float = 1.0

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        return cls(timeout_s=_env_float("REPRO_DISPATCH_TIMEOUT", 600.0,
                                        minimum=0.1))

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before attempt number ``attempt`` (1-based:
        the first *retry* is attempt 2 and waits one base interval)."""
        if attempt <= 1:
            return 0.0
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** (attempt - 2)))

    @property
    def heartbeat_timeout_s(self) -> float:
        return 4.0 * self.heartbeat_s


@dataclass
class TaskSpec:
    """One unit of work: a picklable module-level callable plus args.

    ``fn`` must be importable by reference (fleet workers unpickle it in
    a fresh process).  ``inline_kwargs``, when given, is *merged over*
    ``kwargs`` for attempts that run in the parent process (the inline
    executor, and quarantine fallback) — the runner uses this to switch
    its cell body from snapshot-telemetry mode to live-telemetry mode
    without two task definitions.
    """

    id: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    inline_kwargs: Optional[Dict[str, Any]] = None
    #: per-attempt override of :attr:`RetryPolicy.timeout_s`
    timeout_s: Optional[float] = None

    def run_inline(self) -> Any:
        """Execute in the calling process (inline/quarantine path)."""
        kwargs = dict(self.kwargs)
        if self.inline_kwargs:
            kwargs.update(self.inline_kwargs)
        return self.fn(*self.args, **kwargs)

    def effective_timeout(self, policy: RetryPolicy) -> float:
        return self.timeout_s if self.timeout_s is not None \
            else policy.timeout_s


@dataclass
class Attempt:
    """One execution of one task on one worker, however it ended."""

    index: int                    #: 1-based attempt number
    worker: str                   #: "inline", "fleet-1", ...
    outcome: str                  #: see ``OUTCOMES``
    wall_s: float = 0.0
    error: Optional[str] = None   #: traceback text for failed attempts

    #: Every outcome an attempt can end with:
    #: ``ok`` — returned a value; ``error`` — raised; ``timeout`` — hit
    #: the wall-clock budget; ``lost`` — the worker dropped the result
    #: (asked for new work with an open lease); ``no-heartbeat`` — the
    #: lease's heartbeats stopped; ``worker-died`` — the worker process
    #: exited mid-lease; ``corrupt`` — the result payload failed to
    #: decode; ``skipped`` — never ran (an earlier quarantined task
    #: already failed the run).
    OUTCOMES = ("ok", "error", "timeout", "lost", "no-heartbeat",
                "worker-died", "corrupt", "skipped")

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "index": self.index,
            "worker": self.worker,
            "outcome": self.outcome,
            "wall_s": round(self.wall_s, 6),
        }
        if self.error:
            record["error"] = self.error.strip().splitlines()[-1][:200]
        return record


@dataclass
class TaskResult:
    """Everything an executor knows about one finished task."""

    task_id: str
    value: Any = None
    attempts: List[Attempt] = field(default_factory=list)
    #: the task exhausted its attempt budget and was degraded to the
    #: parent's inline path (poison-task quarantine)
    quarantined: bool = False
    error: Optional[str] = None
    #: live exception object, when the failing attempt ran in-parent
    error_exc: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.error_exc is None

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": self.task_id,
            "ok": self.ok,
            "attempts": [a.to_dict() for a in self.attempts],
        }
        if self.quarantined:
            record["quarantined"] = True
        if not self.ok:
            record["error"] = (self.error or repr(self.error_exc)) \
                .strip().splitlines()[-1][:200]
        return record

    def raise_error(self) -> None:
        """Re-raise this task's failure (original object when we have
        it, a :class:`TaskFailedError` around the remote traceback text
        otherwise).  No-op for successful tasks."""
        if self.error_exc is not None:
            raise self.error_exc
        if self.error is not None:
            raise TaskFailedError(
                f"task {self.task_id!r} failed on every attempt "
                f"({len(self.attempts)} recorded): {self.error}",
                task_id=self.task_id,
            )


@dataclass
class DispatchReport:
    """Manifest-ready summary of one ``drain()`` — the provenance of
    every cell in a run: which executor, how many attempts, what was
    retried, what was quarantined."""

    executor: str                 #: versioned identity, e.g. "fleet@1"
    workers: int
    results: List[TaskResult] = field(default_factory=list)
    faults: Optional[str] = None  #: active REPRO_DISPATCH_FAULTS spec

    def to_dict(self) -> Dict[str, Any]:
        attempts = sum(len(r.attempts) for r in self.results)
        record: Dict[str, Any] = {
            "executor": self.executor,
            "workers": self.workers,
            "tasks": len(self.results),
            "attempts": attempts,
            "retries": sum(r.retries for r in self.results),
            "timeouts": sum(
                1 for r in self.results for a in r.attempts
                if a.outcome == "timeout"
            ),
            "quarantined": sorted(
                r.task_id for r in self.results if r.quarantined
            ),
            "task_attempts": {
                r.task_id: [a.to_dict() for a in r.attempts]
                for r in self.results if r.retries or not r.ok
            },
        }
        if self.faults:
            record["faults"] = self.faults
        return record


def observe_attempt(task_id: str, attempt: Attempt) -> None:
    """Record one finished attempt in the metrics registry and the
    structured event stream.

    Every executor calls this at its attempt chokepoint, so the
    fleet-wide ``repro_dispatch_attempts_total{outcome=...}`` breakdown
    and the ``dispatch.attempt`` event narration exist no matter which
    backend ran the sweep.  Pure provenance: never raises, never feeds
    back into retry decisions.
    """
    telemetry.inc("repro_dispatch_attempts_total",
                  help="Task attempts by outcome.",
                  outcome=attempt.outcome)
    telemetry.emit("dispatch.attempt", task=task_id,
                   index=attempt.index, worker=attempt.worker,
                   outcome=attempt.outcome,
                   wall_s=round(attempt.wall_s, 6))


def quarantine_inline(tasks: List[Tuple[TaskSpec, TaskResult]],
                      policy: RetryPolicy) -> None:
    """Degrade exhausted tasks to the parent's inline path, fail-fast.

    Shared by the fleet executor and the persistent fleet: each
    quarantined task runs once in the parent (under the cell deadline),
    and the first failure marks every later quarantined task
    ``skipped`` — re-running a poison task after the run is already
    failing would only repeat the damage (and double-record its
    telemetry).
    """
    from repro.dispatch.watchdog import cell_deadline, run_attempt

    failed = False
    for task, result in tasks:
        result.quarantined = True
        telemetry.inc("repro_dispatch_quarantined_total",
                      help="Tasks degraded to the parent inline path "
                           "after exhausting their attempt budget.")
        telemetry.emit("dispatch.quarantine", task=task.id,
                       attempts=len(result.attempts))
        if failed:
            skipped = Attempt(
                index=len(result.attempts) + 1, worker="inline",
                outcome="skipped",
                error="not attempted: an earlier quarantined task failed",
            )
            result.attempts.append(skipped)
            observe_attempt(task.id, skipped)
            result.error = result.error or \
                "skipped after an earlier quarantine failure"
            continue
        attempt, value, exc = run_attempt(
            task, index=len(result.attempts) + 1, worker="inline",
            timeout_s=task.effective_timeout(policy),
        )
        result.attempts.append(attempt)
        observe_attempt(task.id, attempt)
        if exc is None:
            result.value = value
            result.error = None
            result.error_exc = None
        else:
            result.error = attempt.error
            result.error_exc = exc
            failed = True


__all__ = [
    "Attempt",
    "CellDeadlockError",
    "CellTimeoutError",
    "DispatchError",
    "DispatchReport",
    "RetryPolicy",
    "TaskFailedError",
    "TaskResult",
    "TaskSpec",
    "observe_attempt",
    "quarantine_inline",
]
