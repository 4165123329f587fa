"""Pluggable component registries for the whole pipeline.

The evaluation is a grid of apps x compiler schemes x hardware variants;
every axis of that grid — and the machinery that *executes* it — is a
named component living in one of seven registries:

==========================  ============================================
registry                    components (built-ins)
==========================  ============================================
:data:`HARDWARE_CONFIGS`    ``google-tablet``, the Fig-11 variants
                            (``2xFD``, ``4xI$``, ``EFetch``,
                            ``PerfectBr``, ``BackendPrio``, ``AllHW``),
                            ``CritLoadPrefetch``, ``trrip-icache``
:data:`SCHEME_RECIPES`      the eight compiler schemes (``baseline``,
                            ``hoist``, ``critic``, ``critic_ideal``,
                            ``branch``, ``opp16``, ``compress``,
                            ``opp16_critic``)
:data:`BRANCH_PREDICTORS`   ``two-level`` (gshare; honors
                            ``perfect_branch``)
:data:`ICACHE_POLICIES`     ``lru``, ``trrip`` (temperature-based RRIP)
:data:`PREFETCHERS`         ``clpt``, ``efetch``, ``critical-nextline``
:data:`EXECUTORS`           ``inline``, ``fleet`` (execution
                            backends for the sweep engine; see
                            :mod:`repro.dispatch`)
:data:`SIMULATORS`          ``inline``, ``batch`` (cycle-simulation
                            engines; see :mod:`repro.cpu.engines`)
==========================  ============================================

Built-ins self-register at import of their home modules; the registries
import those providers lazily on first lookup, so there are no import
cycles and no load-order traps.  New components register the same way::

    from repro.registry import PREFETCHERS
    from repro.registry.protocols import PrefetcherBase

    @PREFETCHERS.register("my-prefetcher", version=1)
    class MyPrefetcher(PrefetcherBase):
        def observe_fetch(self, line, critical):
            ...

and are immediately addressable from the sweep CLI
(``python -m repro.experiments.sweep --prefetcher my-prefetcher``), the
artifact cache (via :func:`component_identity`), and the validators.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.registry.core import Registry, RegistryEntry, RegistryError
from repro.registry.protocols import (
    BranchPredictor,
    Executor,
    HardwareConfigFactory,
    Prefetcher,
    PrefetcherBase,
    ReplacementPolicy,
    SchemeRecipe,
)

#: name -> zero-arg factory producing a ``CpuConfig``.
HARDWARE_CONFIGS = Registry(
    "hardware config", providers=("repro.cpu.config",),
)

#: name -> recipe building the compiler pass list for one scheme.
SCHEME_RECIPES = Registry(
    "scheme", providers=("repro.experiments.schemes",),
)

#: name -> factory(config) producing a branch predictor.
BRANCH_PREDICTORS = Registry(
    "branch predictor", providers=("repro.cpu.branch",),
)

#: name -> zero-arg factory producing a cache replacement policy.
ICACHE_POLICIES = Registry(
    "i-cache replacement policy", providers=("repro.memory.replacement",),
)

#: name -> factory(config) producing a prefetcher component.
PREFETCHERS = Registry(
    "prefetcher", providers=("repro.memory.prefetch",),
)

#: name -> factory(jobs=None, policy=None) producing an execution
#: backend for :func:`repro.experiments.runner.run_apps`.
EXECUTORS = Registry(
    "executor", providers=("repro.dispatch.executors",),
)

#: name -> zero-arg factory producing a ``simulate()``-compatible
#: callable (a *simulation engine*): ``inline`` is the reference
#: cycle-loop simulator, ``batch`` the many-cells-per-trace engine on
#: numpy columns and a C cycle kernel.  Engines are bit-identical by
#: contract — the golden-stats gate and the identity matrix enforce it
#: — so engine identity is recorded in run manifests but excluded from
#: cache keys and ``config_hash``.
SIMULATORS = Registry(
    "simulation engine", providers=("repro.cpu.engines",),
)

def all_registries() -> Dict[str, Registry]:
    """The seven component registries in canonical display order.

    Keyed by a snake_case section name; ``sweep --list`` and the serve
    ``/healthz`` payload both enumerate from here, so a newly added
    registry shows up everywhere at once.
    """
    return {
        "hardware_configs": HARDWARE_CONFIGS,
        "schemes": SCHEME_RECIPES,
        "branch_predictors": BRANCH_PREDICTORS,
        "icache_policies": ICACHE_POLICIES,
        "prefetchers": PREFETCHERS,
        "executors": EXECUTORS,
        "simulators": SIMULATORS,
    }


def component_identity(config: Any) -> Dict[str, Any]:
    """The versioned component identity of one ``CpuConfig``.

    Returns a JSON-stable record naming every registered component the
    configuration composes, each as ``"<name>@<version>"``.  The artifact
    cache folds this into stats keys and the run manifests carry it, so a
    newly registered (or re-versioned) component can never silently hit a
    stale cached ``SimStats`` entry.
    """
    return {
        "branch_predictor":
            BRANCH_PREDICTORS.identity(config.branch_predictor),
        "icache_policy":
            ICACHE_POLICIES.identity(config.memory.icache_policy),
        "prefetchers": [PREFETCHERS.identity(name)
                        for name in config.active_prefetchers()],
    }


__all__ = [
    "BRANCH_PREDICTORS",
    "BranchPredictor",
    "EXECUTORS",
    "Executor",
    "HARDWARE_CONFIGS",
    "HardwareConfigFactory",
    "ICACHE_POLICIES",
    "PREFETCHERS",
    "Prefetcher",
    "PrefetcherBase",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "ReplacementPolicy",
    "SCHEME_RECIPES",
    "SIMULATORS",
    "SchemeRecipe",
    "all_registries",
    "component_identity",
]
