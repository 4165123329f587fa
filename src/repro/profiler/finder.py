"""The offline CritIC finder (the paper's profiler, Sec. III-A2 / III-C).

Pipeline: dynamic trace -> its DFG -> (sampled) windows cut from it -> CritIC
occurrences -> hash-aggregate by static uid sequence -> ranked
:class:`~repro.profiler.profile_table.CriticProfile`.

The paper profiles with AOSP/QEMU + gem5 and aggregates 100s of GBs of IC
dumps with Spark; here windows are analyzed in-process, but the algorithm
(group-by chain identity, rank by coverage, threshold on average fanout) is
the same.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dfg.chains import (
    CRITIC_AVG_FANOUT_THRESHOLD,
    Chain,
    DEFAULT_MAX_CHAIN_LEN,
    find_critics,
)
from repro.dfg.graph import Dfg
from repro.profiler.profile_table import (
    CriticProfile,
    CriticRecord,
    annotate_block,
)
from repro.trace.dynamic import Trace
from repro.trace.program import Program
from repro.trace.sampling import plan_samples

#: Window length used when cutting long traces for per-window DFG analysis.
#: Mobile chains spread over at most a few hundred dynamic instructions
#: (Fig 5a), so 4k windows lose almost no chains while bounding memory.
DEFAULT_WINDOW = 4096


@dataclass(frozen=True)
class FinderConfig:
    """Knobs of the offline profiler."""

    threshold: float = CRITIC_AVG_FANOUT_THRESHOLD
    max_length: Optional[int] = None  # chains longer than this are split
    window: int = DEFAULT_WINDOW
    #: fraction of the execution profiled (Fig 12b sweeps this)
    profiled_fraction: float = 1.0
    #: number of sampled windows when profiled_fraction < 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.profiled_fraction <= 1.0:
            raise ValueError("profiled_fraction must be in (0, 1]")
        if self.window <= 0:
            raise ValueError("window must be positive")


def _window_critics(
    trace: Trace, config: FinderConfig
) -> Iterator[Tuple[int, List[Chain]]]:
    """``(window length, CritICs)`` per profiled window.

    Each window is cut from the trace's one dependence graph; sampled
    windows (``profiled_fraction < 1``) may overlap.
    """
    if config.profiled_fraction >= 1.0:
        windows = [(start, config.window)
                   for start in range(0, len(trace), config.window)]
    else:
        total = max(1, int(len(trace) * config.profiled_fraction))
        num_windows = max(1, total // config.window)
        windows = plan_samples(len(trace), num_windows, config.window,
                               seed=config.seed).windows
    max_len = config.max_length or DEFAULT_MAX_CHAIN_LEN
    graph = Dfg(trace)
    for start, length in windows:
        window = graph.window(start, length)
        yield len(window), find_critics(
            window, threshold=config.threshold, max_len=max_len)


def find_critic_profile(
    trace: Trace,
    program: Program,
    config: Optional[FinderConfig] = None,
    app_name: str = "",
) -> CriticProfile:
    """Run the offline profiler over ``trace`` and return the ranked table.

    Chains are identified per window (DFG fanout analysis + IC extraction),
    then aggregated by their static uid sequence; each unique chain records
    its occurrence count, mean criticality, encodability, and whether the
    compiler can hoist it (single basic block).
    """
    occurrences: Dict[Tuple[int, ...], int] = defaultdict(int)
    fanout_sums: Dict[Tuple[int, ...], float] = defaultdict(float)
    encodable: Dict[Tuple[int, ...], bool] = {}
    profiled = 0
    for length, chains in _window_critics(trace, config or FinderConfig()):
        profiled += length
        for chain in chains:
            occurrences[chain.uids] += 1
            fanout_sums[chain.uids] += chain.avg_fanout
            encodable[chain.uids] = chain.thumb_encodable

    records = [
        CriticRecord(
            uids=uids,
            occurrences=count,
            mean_avg_fanout=fanout_sums[uids] / count,
            thumb_encodable=encodable[uids],
            block_id=annotate_block(program, uids),
        )
        for uids, count in occurrences.items()
    ]
    return CriticProfile(records, profiled_instructions=profiled,
                         app_name=app_name)


def chains_per_window(trace: Trace,
                      config: Optional[FinderConfig] = None) -> List[List[Chain]]:
    """Raw per-window CritIC occurrences (used by analyses and tests)."""
    return [chains for _length, chains
            in _window_critics(trace, config or FinderConfig())]
