"""Fanout-based criticality marking and chain-gap statistics (Figs 1a/1b).

The conventional heuristic (Sec. II-A) marks an instruction critical when its
fanout — the number of instructions depending on its result — exceeds a
threshold.  Fig. 1b's key observation is *where* those critical instructions
sit relative to each other inside dependence chains: in mobile apps two
successive high-fanout instructions in a chain are separated by 1..5
low-fanout instructions; in SPEC most high-fanout instructions have no
dependent high-fanout successor at all.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence

from repro.dfg.graph import Dfg

#: Default direct-fanout threshold for marking an instruction critical.
#: The paper fixes the *chain average* threshold at 8 (Sec. III-C); we use
#: the same value for the single-instruction heuristic of prior work.
HIGH_FANOUT_THRESHOLD = 8

#: Gap label used when a high-fanout instruction has no dependent
#: high-fanout successor anywhere in its forward sole-producer chain.
NO_DEPENDENT = "none"


def critical_mask(
    fanouts: Sequence[int], threshold: int = HIGH_FANOUT_THRESHOLD
) -> List[bool]:
    """Per-position flag: is this instruction high-fanout (critical)?"""
    return [f >= threshold for f in fanouts]


def critical_fraction(
    fanouts: Sequence[int], threshold: int = HIGH_FANOUT_THRESHOLD
) -> float:
    """Fraction of dynamic instructions marked critical (Fig 1a, right axis)."""
    if not fanouts:
        return 0.0
    return sum(1 for f in fanouts if f >= threshold) / len(fanouts)


def gap_histogram(
    dfg: Dfg,
    threshold: int = HIGH_FANOUT_THRESHOLD,
    max_gap: int = 5,
) -> Dict[str, float]:
    """Fig 1b: distribution of low-fanout gaps between successive criticals.

    For every high-fanout instruction, walk its forward sole-producer chain
    until the next high-fanout instruction; the number of low-fanout
    instructions passed over is the *gap*.  Returns a normalized histogram
    over keys ``"none"`` (no dependent high-fanout successor), ``"0"`` ..
    ``str(max_gap)``, and ``f">{max_gap}"``.
    """
    mask = critical_mask(dfg.fanouts, threshold)
    counts: Counter = Counter()
    total = 0

    for pos, is_crit in enumerate(mask):
        if not is_crit:
            continue
        total += 1
        gap = _gap_to_next_critical(dfg, pos, mask, max_gap)
        counts[gap] += 1

    keys = [NO_DEPENDENT] + [str(g) for g in range(max_gap + 1)]
    keys.append(f">{max_gap}")
    if total == 0:
        return {k: 0.0 for k in keys}
    return {k: counts.get(k, 0) / total for k in keys}


def _gap_to_next_critical(
    dfg: Dfg, pos: int, mask: Sequence[bool], max_gap: int
) -> str:
    """Label the gap from ``pos`` to the next critical in its forward chain.

    Follows sole-producer edges (choosing, at each step, the child that
    reaches a critical instruction soonest) up to ``max_gap`` low-fanout
    hops; returns ``"none"`` if no critical successor is reachable.
    """
    best: int = -1
    # Breadth-first over a forest, so no node is reached twice.  FIFO via
    # an index cursor: list.pop(0) is O(n) per step.
    frontier = [(pos, 0)]
    head = 0
    while head < len(frontier):
        node, depth = frontier[head]
        head += 1
        for child in dfg.sole_producer_children(node):
            if mask[child]:
                gap = depth  # low-fanout instructions strictly between
                if best < 0 or gap < best:
                    best = gap
            elif depth < 2 * max_gap + 4:
                # Explore past max_gap so oversize gaps land in the
                # ">max_gap" bin rather than reading as "none".
                frontier.append((child, depth + 1))
    if best < 0:
        return NO_DEPENDENT
    if best > max_gap:
        return f">{max_gap}"
    return str(best)


def mean_fanout(fanouts: Iterable[int]) -> float:
    """Average direct fanout across a trace window."""
    values = list(fanouts)
    if not values:
        return 0.0
    return sum(values) / len(values)
