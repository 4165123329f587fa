"""Narrow structural interfaces for every pluggable component kind.

These are :class:`typing.Protocol` classes — components never inherit
from them; they just have to *fit*.  The simulator, compiler, and
experiment layers talk to components exclusively through these surfaces,
which is what makes a registered third-party component a drop-in:

* :class:`HardwareConfigFactory` — zero-arg callable producing a
  :class:`repro.cpu.config.CpuConfig` (the registry key becomes the
  config's ``name``).
* :class:`SchemeRecipe` — builds the compiler pass list for one scheme
  from an app context.
* :class:`BranchPredictor` — consulted once per conditional branch in
  trace order.
* :class:`ReplacementPolicy` — owns one cache's per-set state and its
  hit/evict/fill mechanics.
* :class:`Prefetcher` — observes pipeline events (loads, calls, fetched
  lines) and returns addresses/lines to prefetch.  A component implements
  only the observation points it cares about; :class:`PrefetcherBase`
  provides inert defaults for the rest.
* :class:`Executor` — how the sweep engine runs a batch of cells:
  ``submit``/``drain``/``shutdown``, returning per-task attempt records
  (see :mod:`repro.dispatch`).
"""

from __future__ import annotations

from typing import Any, List, Protocol, Sequence, runtime_checkable


class HardwareConfigFactory(Protocol):
    """Builds one hardware configuration (a ``CpuConfig``)."""

    def __call__(self) -> Any: ...


class SchemeRecipe(Protocol):
    """Builds the compiler pass pipeline for one scheme.

    ``ctx`` is the :class:`repro.experiments.runner.AppContext`; recipes
    pull the workload, CritIC profile, and alias oracle from it.  The
    returned list may be empty (identity scheme — e.g. ``baseline``).
    """

    def __call__(self, ctx: Any, max_length: int,
                 profiled_fraction: float) -> Sequence[Any]: ...


@runtime_checkable
class BranchPredictor(Protocol):
    """What the pipeline front end needs from a conditional predictor.

    Factories registered under :data:`repro.registry.BRANCH_PREDICTORS`
    take the ``CpuConfig`` and return an object with this surface.
    ``stats.cond_mispredicts`` feeds ``SimStats.branch_mispredicts``.
    """

    stats: Any

    def predict_conditional(self, pc: int, actual_taken: bool) -> bool: ...


@runtime_checkable
class ReplacementPolicy(Protocol):
    """Per-set replacement mechanics for a set-associative cache.

    The :class:`repro.memory.cache.Cache` owns the counters; the policy
    owns the per-set state layout and decides hits, insertions, and
    victims.  ``access`` is the demand path (returns ``(hit, evicted)``);
    ``fill`` is the prefetch path (no demand counters, typically a
    colder insertion); ``probe`` must not disturb any state.
    """

    def new_set(self) -> Any: ...

    def access(self, ways: Any, tag: int, assoc: int) -> tuple: ...

    def fill(self, ways: Any, tag: int, assoc: int) -> None: ...

    def probe(self, ways: Any, tag: int) -> bool: ...


class PrefetcherBase:
    """Inert base for prefetchers: override the events you observe.

    The pipeline routes each component only to the observation points its
    class overrides (checked once at simulator construction, never in the
    cycle loop).  ``issued`` must count every prefetch the component asks
    for; it feeds ``SimStats`` per-component counters.
    """

    __slots__ = ()

    #: registry key (used for stats attribution)
    name: str = ""

    #: total prefetches this instance has issued
    issued: int = 0

    def observe_load(self, pc: int, addr: int,
                     critical: bool) -> List[int]:
        """Executed load seen; return *data addresses* to prefetch."""
        return []

    def observe_call(self, target_line: int) -> List[int]:
        """Call fetched; return *instruction line indices* to prefetch."""
        return []

    def observe_fetch(self, line: int, critical: bool) -> List[int]:
        """New i-line entered fetch; return *line indices* to prefetch."""
        return []


@runtime_checkable
class Executor(Protocol):
    """An execution backend for a batch of dispatch tasks.

    Factories registered under :data:`repro.registry.EXECUTORS` take
    ``(jobs=None, policy=None)`` and return an object with this surface.
    The contract (documented in :mod:`repro.dispatch.base`): ``submit``
    only queues; ``drain`` returns one
    :class:`~repro.dispatch.base.TaskResult` per submitted task, in
    submission order, with task failures *recorded* (attempt records,
    ``error``/``error_exc``) rather than raised; ``shutdown`` is
    idempotent and reclaims every worker.
    """

    name: str

    def submit(self, task: Any) -> None: ...

    def drain(self) -> List[Any]: ...

    def shutdown(self) -> None: ...


@runtime_checkable
class Prefetcher(Protocol):
    """Structural form of :class:`PrefetcherBase` (duck-typed)."""

    name: str
    issued: int

    def observe_load(self, pc: int, addr: int,
                     critical: bool) -> List[int]: ...

    def observe_call(self, target_line: int) -> List[int]: ...

    def observe_fetch(self, line: int, critical: bool) -> List[int]: ...

