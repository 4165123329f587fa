"""Simulation-as-a-service: a persistent sweep/cell job server.

``python -m repro.serve`` runs a long-lived asyncio service that turns
the repository's batch-shaped machinery into a request-shaped one:

* **two fronts, one job engine** — sweep jobs arrive either over the
  fleet's length-prefixed pickle framing (:mod:`repro.dispatch.wire`,
  the high-throughput path the loadgen drives) or over a minimal
  HTTP/JSON front (``POST /sweep`` with a :class:`SweepSpec` payload,
  curl-able), and both stream per-cell results incrementally as they
  complete;
* **a warm fleet** — cells execute on a
  :class:`repro.dispatch.fleet.PersistentFleet`: the broker and worker
  processes survive across requests, so repeat traffic never pays
  spawn/import cost, and the content-addressed artifact cache
  (:mod:`repro.cache`) stays hot — a repeated request is answered from
  cache without touching the fleet at all;
* **observable by construction** — ``GET /healthz`` reports fleet and
  cache state, ``GET /metrics`` serves the
  :mod:`repro.telemetry.metrics` registry in Prometheus text format
  (including metrics merged back from fleet workers), and every job
  narrates itself through the structured event stream
  (``REPRO_EVENTS``).

Results are bit-identical to an inline sweep of the same spec — the
server runs the exact same ``ctx.stats`` path through the same executors
— which is what makes the client-side load generator
(:mod:`repro.loadgen`) an honest benchmark: it measures service
overhead, not a different computation.

Everything runs on one host: the fleet broker listens on loopback and
accepts only the workers the server spawned.  The wire front unpickles
every frame, so ``--host`` must name an interface whose peers you trust.
"""

from repro.serve.server import JobBusyError, JobError, ServeServer

__all__ = ["JobBusyError", "JobError", "ServeServer"]
