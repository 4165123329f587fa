"""Wall-clock deadlines for in-parent task attempts.

Out-of-process attempts are bounded by the fleet broker (which can
expire a lease and SIGKILL the worker).  In-parent attempts — the
inline executor and the quarantine fallback — have no supervisor, so
this module gives them one:

* :func:`cell_deadline` arms a real wall-clock timer (``SIGALRM``) around
  the attempt.  If it expires, the cell raises a structured
  :class:`~repro.dispatch.base.CellTimeoutError` naming the cell id —
  the run fails loudly with a diagnosis instead of hanging.
* The simulator's own no-forward-progress watchdog
  (:class:`~repro.cpu.pipeline.PipelineDeadlockError`) usually fires
  first for a wedged *simulation*; :func:`cell_deadline` wraps it into a
  :class:`~repro.dispatch.base.CellDeadlockError` so the error carries
  the dispatch-level cell id on top of the pipeline state.  The alarm
  covers everything the pipeline watchdog cannot see (generation,
  compilation, cache I/O).

``SIGALRM`` only works in the main thread of the main interpreter (and
not on Windows); elsewhere the context manager degrades to the
deadlock-wrapping behavior alone, which still bounds every simulation.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from repro.dispatch.base import (
    Attempt,
    CellDeadlockError,
    CellTimeoutError,
    TaskSpec,
)


def _alarm_usable() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def cell_deadline(task_id: str,
                  timeout_s: Optional[float]) -> Iterator[None]:
    """Bound one in-parent attempt: wall-clock alarm + watchdog wrap."""
    use_alarm = bool(timeout_s) and timeout_s > 0 and _alarm_usable()
    previous_handler: Any = None
    previous_timer: Tuple[float, float] = (0.0, 0.0)

    def _expired(signum, frame):
        raise CellTimeoutError(
            f"cell {task_id!r} exceeded its {timeout_s:.1f}s wall-clock "
            f"budget (REPRO_DISPATCH_TIMEOUT)",
            task_id=task_id,
        )

    if use_alarm:
        previous_handler = signal.signal(signal.SIGALRM, _expired)
        previous_timer = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    except CellTimeoutError:
        raise
    except Exception as exc:
        # Import lazily: the dispatch layer must not drag the simulator
        # in just to define its error types.
        from repro.cpu.pipeline import PipelineDeadlockError
        if isinstance(exc, PipelineDeadlockError):
            raise CellDeadlockError(
                f"cell {task_id!r} made no forward progress: {exc}",
                task_id=task_id,
            ) from exc
        raise
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, *previous_timer)
            signal.signal(signal.SIGALRM, previous_handler)


def run_attempt(task: TaskSpec, index: int, worker: str,
                timeout_s: Optional[float],
                ) -> Tuple[Attempt, Any, Optional[BaseException]]:
    """One in-parent attempt of ``task`` under :func:`cell_deadline`.

    Returns ``(attempt_record, value, exception)`` — exactly one of
    ``value``/``exception`` is meaningful, per the attempt's outcome.
    """
    started = time.perf_counter()
    try:
        with cell_deadline(task.id, timeout_s):
            value = task.run_inline()
    except BaseException as exc:  # record KeyboardInterrupt too
        outcome = "timeout" if isinstance(exc, CellTimeoutError) \
            else "error"
        attempt = Attempt(
            index=index, worker=worker, outcome=outcome,
            wall_s=time.perf_counter() - started,
            error=traceback.format_exc(limit=20),
        )
        return attempt, None, exc
    attempt = Attempt(
        index=index, worker=worker, outcome="ok",
        wall_s=time.perf_counter() - started,
    )
    return attempt, value, None


__all__ = ["cell_deadline", "run_attempt"]
