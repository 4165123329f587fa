"""Differential validation: OoO simulator vs the in-order reference.

Runs the same trace/config through :func:`repro.cpu.simulate` and
:func:`repro.validate.reference.reference_run` (each on its own freshly
warmed memory system) and checks:

* **commit agreement** — both models retire exactly the trace;
* **IPC lower bound** — the out-of-order core is never slower than the
  fully serialized in-order reference;
* **order-insensitive agreement** — branch mispredicts, i-cache demand
  accesses/misses, and fetched bytes match exactly.

Returns a :class:`~repro.validate.invariants.ValidationReport`; callers
(the fuzzer, tests, the CLI) decide whether to raise.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.cpu.config import CpuConfig, GOOGLE_TABLET
from repro.cpu.pipeline import simulate
from repro.cpu.stats import SimStats
from repro.validate.invariants import ValidationReport
from repro.validate.reference import ReferenceStats, reference_run
from repro.trace.dynamic import Trace


def differential_check(
    trace: Trace,
    config: CpuConfig = GOOGLE_TABLET,
    critical_positions: Optional[Set[int]] = None,
    ooo_stats: Optional[SimStats] = None,
) -> ValidationReport:
    """Compare one trace's OoO run against the in-order reference.

    ``ooo_stats`` short-circuits the OoO run when the caller already has
    fresh stats for exactly this trace/config (the fuzzer reuses its
    invariant-checked runs).
    """
    report = ValidationReport(trace_name=trace.name,
                              config_name=config.name)
    if ooo_stats is None:
        ooo_stats = simulate(trace, config,
                             critical_positions=critical_positions,
                             validate=False, engine="inline")
    ref = reference_run(trace, config)
    _compare(report, trace, ooo_stats, ref)
    return report


def _compare(report: ValidationReport, trace: Trace, ooo: SimStats,
             ref: ReferenceStats) -> None:
    n = len(trace)
    if ooo.instructions != n:
        report.add(
            "diff_commit",
            f"OoO committed {ooo.instructions} of {n} trace entries",
        )
    if ref.instructions != n:
        report.add(
            "diff_commit",
            f"reference retired {ref.instructions} of {n} trace entries",
        )
    if ooo.cycles > ref.cycles:
        report.add(
            "diff_ipc_bound",
            f"OoO run took {ooo.cycles} cycles, slower than the serial "
            f"in-order reference's {ref.cycles}",
            ooo_ipc=ooo.ipc, ref_ipc=ref.ipc,
        )
    if ooo.branch_mispredicts != ref.branch_mispredicts:
        report.add(
            "diff_branch_mispredicts",
            f"OoO saw {ooo.branch_mispredicts} mispredicts, reference "
            f"{ref.branch_mispredicts} (order-insensitive: must match)",
        )
    if (ooo.icache_accesses != ref.icache_accesses
            or ooo.icache_misses != ref.icache_misses):
        report.add(
            "diff_icache",
            f"i-cache disagreement: OoO {ooo.icache_misses}/"
            f"{ooo.icache_accesses} misses/accesses, reference "
            f"{ref.icache_misses}/{ref.icache_accesses}",
        )
    expected_bytes = trace.dynamic_bytes()
    if ref.fetched_bytes != expected_bytes:
        report.add(
            "diff_fetched_bytes",
            f"reference fetched {ref.fetched_bytes} bytes, trace carries "
            f"{expected_bytes}",
        )
