"""Invariant checking over :class:`repro.cpu.pipeline.Simulator` runs.

The simulator's hot path has been rewritten twice for speed (flat
``_TraceTables``, locals-accumulated counters); the only guard so far was
"bit-identical SimStats" spot checks, which catch *drift* but not *shared*
bugs.  This module checks structural invariants any correct run must
satisfy, independent of the expected numbers:

* **Timestamp monotonicity** — every committed instruction advances
  through the pipeline in order: ``head <= fetch <= decode <= dispatch <=
  issue <= complete <= commit`` (CDPs collapse decode..complete onto one
  cycle, which still satisfies the chain).
* **Fetch-stall conservation** — every cycle classifies the fetch stage
  exactly once, so ``active + stalls + drained == cycles``; the critical
  sub-classification never exceeds the full one.
* **Residency conservation** — summed per-stage residencies equal total
  committed pipeline occupancy (``commit - head`` summed over committed
  instructions); the critical/chain sub-classes never exceed the full
  class.
* **Commit completeness** — a non-truncated run commits exactly the trace
  length.
* **Cache/DRAM conservation** — misses never exceed accesses at any
  level; L2 demand traffic is bounded by L1 misses; DRAM reads are
  bounded by L2 misses; prefetch counters sum across prefetchers.

Checking is wired into :func:`repro.cpu.simulate` behind the
``REPRO_VALIDATE`` environment variable (or an explicit ``validate=``
kwarg) and costs nothing when off: the simulator only allocates the
commit-cycle column and calls :meth:`RunValidator.on_run` when a
validator is attached, and stats are bit-identical either way.

Violations are counted in the metrics registry
(``repro_validate_violations_total{kind}``) and carry flight-recorder-style
context — the stage-entry cycles of the offending instruction and its
neighbours — so a failure is diagnosable without re-running.  By default a violation
raises :class:`InvariantViolationError`; pass ``strict=False`` to collect
a :class:`ValidationReport` instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro import telemetry

#: Environment switch for process-wide validation.
ENV_VALIDATE = "REPRO_VALIDATE"

#: Values of ``REPRO_VALIDATE`` that mean "off".
_OFF = ("", "0", "false", "off", "no")

#: Stage keys in pipeline order (mirrors repro.cpu.stats.STAGES, inlined
#: here so importing this module never triggers the repro.cpu package —
#: the pipeline imports us lazily, and a package-level cycle would be
#: easy to reintroduce).
_STAGES = ("fetch", "decode", "dispatch", "issue_wait", "execute",
           "commit_wait")

#: Timestamp columns in pipeline order, for monotonicity and context.
_TS_NAMES = ("head", "fetch", "decode", "dispatch", "issue", "complete",
             "commit")


def validation_enabled() -> bool:
    """True when ``REPRO_VALIDATE`` requests validation."""
    return os.environ.get(ENV_VALIDATE, "").strip().lower() not in _OFF


@dataclass
class Violation:
    """One failed invariant, with enough context to diagnose it."""

    kind: str
    message: str
    pos: Optional[int] = None
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "pos": self.pos,
            "context": self.context,
        }

    def __str__(self) -> str:
        where = f" @pos={self.pos}" if self.pos is not None else ""
        return f"[{self.kind}]{where} {self.message}"


@dataclass
class ValidationReport:
    """All violations found while checking one simulation run."""

    trace_name: str = ""
    config_name: str = ""
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str, pos: Optional[int] = None,
            **context: Any) -> None:
        self.violations.append(Violation(kind, message, pos, context))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace_name,
            "config": self.config_name,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }

    def summary(self) -> str:
        if self.ok:
            return (f"{self.trace_name} on {self.config_name}: "
                    f"all invariants hold")
        lines = [f"{self.trace_name} on {self.config_name}: "
                 f"{len(self.violations)} invariant violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class InvariantViolationError(AssertionError):
    """A simulation run violated a pipeline invariant."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


def _timeline_context(pos: int, columns: Sequence[Sequence[int]],
                      window: int = 2) -> Dict[str, List[int]]:
    """Flight-recorder-style excerpt: stage-entry cycles around ``pos``."""
    n = len(columns[0])
    lo = max(0, pos - window)
    hi = min(n, pos + window + 1)
    out: Dict[str, List[int]] = {"positions": list(range(lo, hi))}
    for name, col in zip(_TS_NAMES, columns):
        out[name] = [col[i] for i in range(lo, hi)]
    return out


# -- individual checks (each standalone-testable) ---------------------------


def check_timestamps(report: ValidationReport,
                     columns: Sequence[Sequence[int]],
                     max_violations: int = 8) -> None:
    """Per-instruction stage-entry cycles must be monotonic.

    ``columns`` is the 7-tuple ``(head, fetch, decode, dispatch, issue,
    complete, commit)``; entries with ``commit < 0`` (not committed, e.g.
    after a ``max_cycles`` cutoff) are skipped.
    """
    commit = columns[-1]
    found = 0
    for pos in range(len(commit)):
        if commit[pos] < 0:
            continue
        prev = 0
        prev_name = "start"
        for name, col in zip(_TS_NAMES, columns):
            t = col[pos]
            if t < prev:
                report.add(
                    "timestamp_monotonicity",
                    f"{name}={t} precedes {prev_name}={prev}",
                    pos=pos,
                    timeline=_timeline_context(pos, columns),
                )
                found += 1
                break
            prev = t
            prev_name = name
        if found >= max_violations:
            report.add("timestamp_monotonicity",
                       f"stopping after {max_violations} violations")
            return


def check_fetch_stalls(report: ValidationReport, stats: Any) -> None:
    """Every cycle classifies the fetch stage exactly once."""
    f = stats.fetch
    total = (f.active + f.stall_icache + f.stall_branch + f.stall_switch
             + f.stall_backpressure + f.drained)
    if total != stats.cycles:
        report.add(
            "fetch_stall_conservation",
            f"fetch-cycle classes sum to {total}, expected cycles="
            f"{stats.cycles}",
            active=f.active, icache=f.stall_icache, branch=f.stall_branch,
            switch=f.stall_switch, backpressure=f.stall_backpressure,
            drained=f.drained,
        )
    fc = stats.fetch_critical
    for attr in ("active", "stall_icache", "stall_branch", "stall_switch",
                 "stall_backpressure"):
        sub, full = getattr(fc, attr), getattr(f, attr)
        if sub > full:
            report.add(
                "fetch_stall_subset",
                f"critical fetch counter {attr}={sub} exceeds "
                f"all-instruction counter {full}",
            )


def check_residency(report: ValidationReport, stats: Any,
                    head: Sequence[int], commit: Sequence[int]) -> None:
    """Residency totals must equal committed pipeline occupancy."""
    res = stats.residency_all
    if res.instructions != stats.instructions:
        report.add(
            "residency_instructions",
            f"residency_all covers {res.instructions} instructions, "
            f"stats committed {stats.instructions}",
        )
    occupancy = 0
    for pos in range(len(commit)):
        if commit[pos] >= 0:
            occupancy += commit[pos] - head[pos]
    total = sum(res.totals.values())
    if total != occupancy:
        report.add(
            "residency_conservation",
            f"summed residencies {total} != committed occupancy "
            f"{occupancy} (sum of commit-head)",
            totals=dict(res.totals),
        )
    for name in ("residency_critical", "residency_chain"):
        sub = getattr(stats, name)
        if sub.instructions > res.instructions:
            report.add(
                "residency_subset",
                f"{name} covers {sub.instructions} instructions, more "
                f"than residency_all's {res.instructions}",
            )
        for stage in _STAGES:
            if sub.totals.get(stage, 0) > res.totals.get(stage, 0):
                report.add(
                    "residency_subset",
                    f"{name}.{stage}={sub.totals[stage]} exceeds "
                    f"residency_all.{stage}={res.totals[stage]}",
                )


def check_commit(report: ValidationReport, stats: Any, n: int) -> None:
    """Non-truncated runs commit the whole trace; truncated ones never
    commit more than it."""
    if stats.truncated:
        if stats.instructions >= n and n > 0:
            report.add(
                "commit_truncated",
                f"run marked truncated but committed {stats.instructions} "
                f"of {n}",
            )
        return
    if stats.instructions != n:
        report.add(
            "commit_completeness",
            f"committed {stats.instructions} instructions, trace has {n}",
        )


def check_memory(report: ValidationReport, stats: Any) -> None:
    """Cache/DRAM event conservation."""
    for level in ("icache", "dcache", "l2"):
        misses = getattr(stats, f"{level}_misses")
        accesses = getattr(stats, f"{level}_accesses")
        if misses > accesses:
            report.add(
                "cache_conservation",
                f"{level} misses {misses} exceed accesses {accesses}",
            )
        if misses < 0 or accesses < 0:
            report.add(
                "cache_conservation",
                f"negative {level} counters: accesses={accesses} "
                f"misses={misses}",
            )
    l1_misses = stats.icache_misses + stats.dcache_misses
    if stats.l2_accesses > l1_misses:
        report.add(
            "cache_conservation",
            f"L2 demand accesses {stats.l2_accesses} exceed L1 misses "
            f"{l1_misses} (demand traffic must originate at L1)",
        )
    if stats.dram_reads > stats.l2_misses:
        report.add(
            "cache_conservation",
            f"DRAM reads {stats.dram_reads} exceed L2 misses "
            f"{stats.l2_misses}",
        )
    component = sum(
        count for key, count
        in getattr(stats, "component_counters", {}).items()
        if key.startswith("prefetch.")
    )
    total = (stats.clpt_prefetches_issued + stats.efetch_prefetches_issued
             + component)
    if stats.prefetches_issued != total:
        report.add(
            "prefetch_conservation",
            f"prefetches_issued={stats.prefetches_issued} != CLPT "
            f"{stats.clpt_prefetches_issued} + EFetch "
            f"{stats.efetch_prefetches_issued} + components {component}",
        )


class RunValidator:
    """Checks one (or more) finished simulation runs.

    The simulator calls :meth:`on_run` with the same per-instruction
    timestamp columns the flight recorder gets, plus the run's
    :class:`~repro.cpu.stats.SimStats`.  Purely observational: attaching
    a validator never changes stats.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.reports: List[ValidationReport] = []

    # -- called by the simulator ---------------------------------------------

    def on_run(
        self,
        *,
        trace_name: str,
        config_name: str,
        stats: Any,
        n: int,
        head: Sequence[int],
        fetch: Sequence[int],
        decode: Sequence[int],
        dispatch: Sequence[int],
        issue: Sequence[int],
        complete: Sequence[int],
        commit: Sequence[int],
    ) -> ValidationReport:
        """Check every invariant for one finished run."""
        report = ValidationReport(trace_name=trace_name,
                                 config_name=config_name)
        columns = (head, fetch, decode, dispatch, issue, complete, commit)
        check_timestamps(report, columns)
        check_fetch_stalls(report, stats)
        check_residency(report, stats, head, commit)
        check_commit(report, stats, n)
        check_memory(report, stats)
        self.reports.append(report)
        for violation in report.violations:
            telemetry.inc("repro_validate_violations_total",
                          help="Simulator invariant violations, by kind.",
                          kind=violation.kind)
        if self.strict and not report.ok:
            raise InvariantViolationError(report)
        return report

    # -- consumers -----------------------------------------------------------

    @property
    def violations(self) -> List[Violation]:
        return [v for report in self.reports for v in report.violations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": len(self.reports),
            "violations": sum(len(r.violations) for r in self.reports),
            "reports": [r.to_dict() for r in self.reports
                        if not r.ok],
        }
