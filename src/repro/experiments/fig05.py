"""Fig 5 — IC shapes and CritIC coverage.

(a) IC length and dynamic spread: mobile chains are short (~<=20 members)
    and tightly packed (spread <= ~hundreds of instructions); SPEC chains
    run to the hundreds and spread over thousands.
(b) CDF of dynamic coverage by unique CritICs, and the sub-CDF of those
    directly representable in the 16-bit format (all-or-nothing rule) —
    the representable set stays within a few percent of the full set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dfg import ChainStats, Dfg, iter_maximal_paths
# Fig 5a reads paths, not Chain records; bench/workloads.py still traces
# the name fig05.iter_maximal_chains.
from repro.dfg import iter_maximal_chains  # noqa: F401
from repro.experiments.fig01 import GROUPS, _group_names
from repro.experiments.runner import app_context, format_table
from repro.telemetry import spanned


@dataclass
class Fig05aRow:
    group: str
    max_length: int
    mean_length: float
    max_spread: int
    mean_spread: float


@dataclass
class Fig05bRow:
    app: str
    unique_chains: int
    total_coverage_pct: float
    encodable_coverage_pct: float
    table_bytes: int


@dataclass
class Fig05Result:
    chain_stats: List[Fig05aRow]
    coverage: List[Fig05bRow]
    #: per-app coverage CDFs (all chains), truncated to first 50 points
    cdfs: Dict[str, List[float]]


@spanned("fig05.run")
def run(per_group: Optional[int] = None,
        walk_blocks: Optional[int] = None,
        mobile_apps: Optional[int] = 4) -> Fig05Result:
    """Reproduce Fig 5; Fig 5b covers the (first N) mobile apps."""
    stats_rows: List[Fig05aRow] = []
    for group in GROUPS:
        max_len = 0
        mean_len = 0.0
        max_spread = 0
        mean_spread = 0.0
        names = _group_names(group, per_group)
        for name in names:
            ctx = app_context(name, walk_blocks)
            stats = ChainStats.from_paths(
                iter_maximal_paths(Dfg(ctx.trace())))
            max_len = max(max_len, stats.max_length)
            mean_len += stats.mean_length
            max_spread = max(max_spread, stats.max_spread)
            mean_spread += stats.mean_spread
        count = len(names)
        stats_rows.append(Fig05aRow(
            group=group, max_length=max_len,
            mean_length=mean_len / count,
            max_spread=max_spread, mean_spread=mean_spread / count,
        ))

    coverage_rows: List[Fig05bRow] = []
    cdfs: Dict[str, List[float]] = {}
    for name in _group_names("mobile", mobile_apps):
        ctx = app_context(name, walk_blocks)
        profile = ctx.critic_profile()
        coverage_rows.append(Fig05bRow(
            app=name,
            unique_chains=len(profile),
            total_coverage_pct=100 * profile.total_coverage(),
            encodable_coverage_pct=100 * profile.total_coverage(
                encodable_only=True
            ),
            table_bytes=profile.table_bytes(),
        ))
        cdfs[name] = profile.coverage_cdf()[:50]
    return Fig05Result(chain_stats=stats_rows, coverage=coverage_rows,
                       cdfs=cdfs)


def format_result(result: Fig05Result) -> str:
    table_a = format_table(
        ["group", "max IC len", "mean IC len", "max spread", "mean spread"],
        [[r.group, str(r.max_length), f"{r.mean_length:.1f}",
          str(r.max_spread), f"{r.mean_spread:.1f}"]
         for r in result.chain_stats],
    )
    table_b = format_table(
        ["app", "unique CritICs", "coverage", "16-bit-able coverage",
         "table size"],
        [[r.app, str(r.unique_chains), f"{r.total_coverage_pct:.1f}%",
          f"{r.encodable_coverage_pct:.1f}%", f"{r.table_bytes}B"]
         for r in result.coverage],
    )
    return (
        "Fig 5a: IC length and spread by workload group\n"
        f"{table_a}\n\n"
        "Fig 5b: unique-CritIC dynamic coverage (and Thumb-encodable subset)\n"
        f"{table_b}"
    )
