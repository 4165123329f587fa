"""Built-in executor registrations (the ``EXECUTORS`` registry provider).

Imported lazily by :data:`repro.registry.EXECUTORS` on first lookup.
Each entry is a factory ``(jobs=None, policy=None) -> Executor``; the
registry name doubles as the ``executor=`` / ``--executor`` value and as
the identity recorded in run manifests (``inline@1`` etc.).
"""

from __future__ import annotations

from repro.dispatch.fleet import FleetExecutor
from repro.dispatch.inline import InlineExecutor
from repro.registry import EXECUTORS

EXECUTORS.register("inline", InlineExecutor, version=1)
EXECUTORS.register("fleet", FleetExecutor, version=1)

__all__ = ["FleetExecutor", "InlineExecutor"]
