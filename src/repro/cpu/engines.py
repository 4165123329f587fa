"""The simulation-engine registry's built-in providers.

A *simulation engine* is a ``simulate()``-compatible callable: it takes a
trace plus a :class:`~repro.cpu.config.CpuConfig` (and the standard
observational kwargs) and returns :class:`~repro.cpu.stats.SimStats`.
Engines are bit-identical by contract — they differ only in *how* the
numbers are computed:

``batch`` (the default)
    The many-cells-per-trace engine (:mod:`repro.cpu.batch`).  Requires
    numpy; builds per-trace numpy columns and branch/memory profiles and
    runs each cell's cycle loop in one call to a compiled C kernel,
    falling back per cell to ``inline`` whenever a cell is not
    vectorizable (a load-observing prefetcher, the flight recorder,
    ``max_cycles``, a cold start) or no C compiler is available.

``inline``
    The reference pure-Python cycle loop
    (:class:`repro.cpu.pipeline.Simulator`).  No dependencies beyond the
    stdlib; always available.  Checks of the Python loop itself name it.

A caller picks one by name (``simulate(..., engine=)``, ``run_apps``,
the sweep CLI's ``--engine``); naming none means ``batch``, resolved
by :func:`resolve_engine` alone.  Resolving a name imports nothing:
numpy and :mod:`repro.cpu.batch` load when the first batch cell runs,
and the kernel is compiled then, or when kernel cells are first handed
to fleet workers.  Factories take no arguments and return the engine
callable, so ``SIMULATORS.create(name)`` is the whole lookup.
"""

from __future__ import annotations

from typing import Optional

from repro.registry import SIMULATORS


def resolve_engine(name: Optional[str]) -> str:
    """The engine a run uses: ``name``, or ``batch`` when none is given.

    Unknown names fail loudly with the registry's did-you-mean hint.
    """
    resolved = (name or "").strip() or "batch"
    SIMULATORS.entry(resolved)
    return resolved


@SIMULATORS.register("inline", version=1)
def _inline_engine():
    from repro.cpu.pipeline import simulate

    return simulate


@SIMULATORS.register("batch", version=1)
def _batch_engine():
    # Imported here, not at module top: listing/identifying engines must
    # work (and ``inline`` must stay usable) without numpy installed.
    from repro.cpu.batch import simulate_cell

    return simulate_cell
