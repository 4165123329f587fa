"""Fault-tolerant pluggable execution backends for the sweep engine.

"How cells get executed" is a registered component, exactly like
prefetchers and branch predictors: the :data:`repro.registry.EXECUTORS`
registry maps a name (``executor=``, ``--executor``) to a factory
producing an object with the :class:`~repro.registry.protocols.Executor`
surface — ``submit(task)`` / ``drain()`` / ``shutdown()``, returning
per-task :class:`TaskResult`\\ s whose :class:`Attempt` records say
exactly how each cell was obtained.

Two built-ins:

==========  ===========================================================
``inline``  serial, in the parent process; the determinism baseline,
            what one job always runs, and the quarantine fallback for
            the fleet
``fleet``   the default when ``jobs > 1``: a TCP broker leasing tasks
            to ``python -m repro.dispatch.worker`` processes, with
            heartbeats, dead-worker requeue, exponential-backoff
            retries, and poison-task quarantine — a
            :class:`~repro.dispatch.fleet.PersistentFleet` (the one
            ``repro.serve`` keeps warm) drained once
==========  ===========================================================

Whatever the backend and whatever faults are injected
(``REPRO_DISPATCH_FAULTS`` — see :mod:`repro.dispatch.faults`), results
are bit-identical: tasks are pure functions, retries re-execute them,
and the golden-stats suite gates every path.
"""

from repro.dispatch.base import (
    Attempt,
    CellDeadlockError,
    CellTimeoutError,
    DispatchError,
    DispatchReport,
    RetryPolicy,
    TaskFailedError,
    TaskResult,
    TaskSpec,
    quarantine_inline,
)
from repro.dispatch.faults import ENV_FAULTS, FaultPlan, FaultSpecError
from repro.dispatch.watchdog import cell_deadline

__all__ = [
    "Attempt",
    "CellDeadlockError",
    "CellTimeoutError",
    "DispatchError",
    "DispatchReport",
    "ENV_FAULTS",
    "FaultPlan",
    "FaultSpecError",
    "RetryPolicy",
    "TaskFailedError",
    "TaskResult",
    "TaskSpec",
    "cell_deadline",
    "quarantine_inline",
]
