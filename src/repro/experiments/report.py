"""Consolidated reproduction report: every figure/table in one run.

Command line::

    python -m repro.experiments.report                 # everything
    python -m repro.experiments.report fig10 fig13     # a subset
    python -m repro.experiments.report --walk 800 --apps 10 --out report.txt
    python -m repro.experiments.report fig10 --perf    # + telemetry section

Runs each figure module at the requested scale and emits the same rows the
paper reports, ready to diff against EXPERIMENTS.md.  Section headers
carry the per-figure wall time; ``--perf`` appends the telemetry phase
table (self vs cumulative time per phase, worker processes included) to
the chosen output stream(s).  Counters live in the metrics registry and
land in the run manifest's ``metrics.txt``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, TextIO

from repro import telemetry
from repro.cpu import format_table1
from repro.experiments import (
    fig01,
    fig03,
    fig05,
    fig08,
    fig10,
    fig11,
    fig12,
    fig13,
)
from repro.workloads import format_table2


def _section(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}\n"


def run_table1(_walk: Optional[int], _apps: Optional[int],
               _group: Optional[int]) -> str:
    return "Table I: baseline configuration\n" + format_table1()


def run_table2(_walk: Optional[int], _apps: Optional[int],
               _group: Optional[int]) -> str:
    return "Table II: evaluated workloads\n" + format_table2()


def run_fig01(walk, apps, group):
    return fig01.format_result(fig01.run(per_group=group, walk_blocks=walk))


def run_fig03(walk, apps, group):
    return fig03.format_result(fig03.run(per_group=group, walk_blocks=walk))


def run_fig05(walk, apps, group):
    return fig05.format_result(
        fig05.run(per_group=group, walk_blocks=walk, mobile_apps=apps)
    )


def run_fig08(walk, apps, group):
    return fig08.format_result(fig08.run(apps=apps, walk_blocks=walk))


def run_fig10(walk, apps, group):
    return fig10.format_result(fig10.run(apps=apps, walk_blocks=walk))


def run_fig11(walk, apps, group):
    capped = min(apps or 6, 6)
    return fig11.format_result(fig11.run(apps=capped, walk_blocks=walk))


def run_fig12(walk, apps, group):
    capped = min(apps or 3, 4)
    text_a = fig12.format_length(
        fig12.run_length_sensitivity(apps=capped, walk_blocks=walk))
    text_b = fig12.format_profile(
        fig12.run_profile_sensitivity(apps=capped, walk_blocks=walk))
    return f"{text_a}\n\n{text_b}"


def run_fig13(walk, apps, group):
    return fig13.format_result(fig13.run(apps=apps, walk_blocks=walk))


#: All report sections in presentation order.
SECTIONS: Dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "fig01": run_fig01,
    "fig03": run_fig03,
    "fig05": run_fig05,
    "fig08": run_fig08,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
}


def generate_report(
    sections: Optional[List[str]] = None,
    walk: Optional[int] = None,
    apps: Optional[int] = None,
    per_group: Optional[int] = 4,
    stream: Optional[TextIO] = None,
    perf: bool = False,
) -> str:
    """Run the requested sections and return (and optionally stream) the
    consolidated report text.

    Each section header carries that figure's wall time; ``perf=True``
    appends a final ``telemetry`` section with the phase table
    accumulated across the run (worker processes included).
    """
    chosen = sections or list(SECTIONS)
    unknown = [s for s in chosen if s not in SECTIONS]
    if unknown:
        raise KeyError(
            f"unknown sections {unknown}; choose from {sorted(SECTIONS)}"
        )
    parts: List[str] = []

    def emit(text: str) -> None:
        parts.append(text)
        if stream is not None:
            stream.write(text + "\n")
            stream.flush()

    for name in chosen:
        started = time.time()
        with telemetry.span(f"report.{name}"):
            body = SECTIONS[name](walk, apps, per_group)
        elapsed = time.time() - started
        emit(_section(f"{name}  (wall {elapsed:.1f}s)") + body)
    if perf:
        emit(_section("telemetry") + telemetry.report())
    return "\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables/figures.")
    parser.add_argument("sections", nargs="*",
                        help=f"sections to run ({', '.join(SECTIONS)})")
    parser.add_argument("--walk", type=int, default=None,
                        help="dynamic blocks per workload")
    parser.add_argument("--apps", type=int, default=None,
                        help="number of mobile apps (default: all)")
    parser.add_argument("--group", type=int, default=4,
                        help="benchmarks per SPEC group")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--perf", action="store_true",
                        help="append the telemetry phase table")
    args = parser.parse_args(argv)

    report = generate_report(
        sections=args.sections or None,
        walk=args.walk, apps=args.apps, per_group=args.group,
        stream=sys.stdout, perf=args.perf,
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
