"""The simulation-engine registry's built-in providers.

A *simulation engine* is a ``simulate()``-compatible callable: it takes a
trace plus a :class:`~repro.cpu.config.CpuConfig` (and the standard
observational kwargs) and returns :class:`~repro.cpu.stats.SimStats`.
Engines are bit-identical by contract — they differ only in *how* the
numbers are computed:

``inline``
    The reference pure-Python cycle loop
    (:class:`repro.cpu.pipeline.Simulator`).  No dependencies beyond the
    stdlib; always available.

``batch``
    The lockstep many-cells-per-trace engine (:mod:`repro.cpu.batch`).
    Requires numpy; precomputes branch/memory profiles and steps the
    cycle loop in a compiled kernel, falling back per-cell to ``inline``
    whenever a cell is not vectorizable or no C compiler is available.

Selection, in precedence order: the ``simulate(..., engine=)`` kwarg,
the ``REPRO_SIM_ENGINE`` environment variable, else ``inline``.
Factories take no arguments and return the engine callable, so
``SIMULATORS.create(name)`` is the whole lookup.
"""

from __future__ import annotations

import functools

from repro.registry import SIMULATORS

#: Environment selector honored by :func:`repro.cpu.pipeline.simulate`.
ENV_ENGINE = "REPRO_SIM_ENGINE"


@SIMULATORS.register("inline", version=1)
def _inline_engine():
    from repro.cpu.pipeline import simulate

    # engine= pinned so the env selector cannot re-route the call back
    # into the registry (no recursion under REPRO_SIM_ENGINE=batch).
    return functools.partial(simulate, engine="inline")


@SIMULATORS.register("batch", version=1)
def _batch_engine():
    # Imported here, not at module top: listing/identifying engines must
    # work (and ``inline`` must stay usable) without numpy installed.
    from repro.cpu.batch import simulate_cell

    return simulate_cell
