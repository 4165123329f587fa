"""Load generator for the :mod:`repro.serve` front.

``python -m repro.loadgen`` offers sweep-shaped traffic to a running
serve instance and reports throughput and latency percentiles.  The
driver split mirrors the classic KV-benchmark shape — a :class:`Req`
stream from a :class:`Workload` (here, sub-specs carved out of one sweep
grid with a configurable ``cell``/``app``/``full`` request mix), issued
by a closed-loop or open-loop :class:`ReqGenEngine` — so the numbers
mean what benchmark numbers usually mean: closed-loop measures service
latency under bounded outstanding requests, open-loop charges queueing
delay to the percentiles instead of omitting it.

The JSON report carries request counts, served-cell sources, throughput
and latency percentiles.  It is a load probe, not a regression gate:
performance is gated by ``python -m bench`` (workload ``serve-open``).
"""

from repro.loadgen.base import (
    Req,
    Sample,
    SweepGridWorkload,
    Workload,
    parse_mix,
    percentile,
    summarize,
)
from repro.loadgen.engines import (
    ClosedLoopEngine,
    OpenLoopEngine,
    ReqGenEngine,
)

__all__ = [
    "ClosedLoopEngine",
    "OpenLoopEngine",
    "Req",
    "ReqGenEngine",
    "Sample",
    "SweepGridWorkload",
    "Workload",
    "parse_mix",
    "percentile",
    "summarize",
]
