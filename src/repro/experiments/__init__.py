"""Experiment harness: one module per paper figure/table.

Each ``figNN`` module exposes ``run(...)`` returning structured results and
a ``format_*`` helper that renders the same rows/series the paper reports.
``repro.cpu.config.format_table1`` and ``repro.workloads.format_table2``
cover Tables I and II.
"""

import importlib

from repro.experiments.runner import (
    AppContext,
    DEFAULT_WALK_BLOCKS,
    app_context,
    clear_cache,
    default_jobs,
    format_table,
    geometric_mean,
    run_apps,
)

__all__ = [
    "AppContext",
    "DEFAULT_WALK_BLOCKS",
    "app_context",
    "clear_cache",
    "default_jobs",
    "fig01",
    "fig03",
    "fig05",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "format_table",
    "geometric_mean",
    "run_apps",
]

#: The figure modules load on first access (``repro.experiments.fig10``
#: or ``from repro.experiments import fig10``): a fleet worker or a sweep
#: that only runs cells never imports them.
_FIGURES = ("fig01", "fig03", "fig05", "fig08", "fig10", "fig11", "fig12",
            "fig13")


def __getattr__(name: str):
    if name in _FIGURES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
