"""Instruction Chains (ICs) and Critical Instruction Chains (CritICs).

Paper Sec. III-A:

* An **IC** is an acyclic DFG path that is *independently schedulable*: every
  non-head member's only in-window producer is the previous path member.
  Any sub-path of an IC is an IC.
* The **criticality of an IC** is the average fanout per instruction of its
  members; chains whose average exceeds a threshold (paper: 8) are CritICs.

Enumeration uses the sole-producer forest of :class:`~repro.dfg.graph.Dfg`:
kept edges form a forest (each node has at most one kept incoming edge), and
ICs are exactly its downward paths.  Maximal ICs — used for the Fig. 5a
length/spread statistics — are root-to-leaf paths of that forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.dfg.graph import Dfg
from repro.isa.encoding import chain_thumb_encodable

#: Paper's chosen average-fanout threshold for marking an IC as a CritIC.
CRITIC_AVG_FANOUT_THRESHOLD = 8.0

#: Paper's practical cap on exploited CritIC length (Sec. IV-H: length 5
#: gives the bulk of the savings; longer sequences are rarer).
DEFAULT_MAX_CHAIN_LEN = 5


@dataclass(frozen=True)
class Chain:
    """One IC occurrence inside a trace window.

    Attributes:
        positions: window positions of the members, in dependence order.
        uids: static instruction uids of the members.
        avg_fanout: the chain criticality metric.
        spread: dynamic distance from first to last member (Fig. 5a).
        thumb_encodable: all-or-nothing 16-bit representability.
    """

    positions: Tuple[int, ...]
    uids: Tuple[int, ...]
    avg_fanout: float
    spread: int
    thumb_encodable: bool

    @property
    def length(self) -> int:
        return len(self.positions)

    def is_critical(
        self, threshold: float = CRITIC_AVG_FANOUT_THRESHOLD
    ) -> bool:
        """True if this chain qualifies as a CritIC at ``threshold``."""
        return self.avg_fanout > threshold


def make_chain(dfg: Dfg, positions: Sequence[int]) -> Chain:
    """Build a :class:`Chain` record for an explicit position path.

    Raises:
        ValueError: if the path is not a valid (self-contained) IC.
    """
    if not dfg.is_self_contained_path(positions):
        raise ValueError(f"positions {list(positions)} do not form an IC")
    instrs = [dfg.entry(p).instr for p in positions]
    fanout_sum = sum(dfg.fanouts[p] for p in positions)
    return Chain(
        positions=tuple(positions),
        uids=tuple(i.uid for i in instrs),
        avg_fanout=fanout_sum / len(positions),
        spread=positions[-1] - positions[0],
        thumb_encodable=chain_thumb_encodable(instrs),
    )


def iter_maximal_paths(
    dfg: Dfg, min_length: int = 2
) -> Iterator[List[int]]:
    """Yield maximal IC paths (root-to-leaf in the sole-producer forest).

    Paths shorter than ``min_length`` are skipped (a 1-instruction "chain"
    carries no chain-level information).  Depth-first from each root in
    position order, the last child first; each yielded path is a new list.
    """
    kids: Dict[int, List[int]] = {}
    for node, parent in enumerate(dfg.sole):
        if parent >= 0:
            kids.setdefault(parent, []).append(node)
    # (node, depth) frames; the lowest root is on top.
    stack = [(root, 0) for root in reversed(dfg.chain_roots())]
    path: List[int] = []
    while stack:
        node, depth = stack.pop()
        del path[depth:]
        path.append(node)
        below = kids.get(node)
        if below:
            stack.extend([(child, depth + 1) for child in below])
        elif len(path) >= min_length:
            yield path[:]


def iter_maximal_chains(dfg: Dfg, min_length: int = 2) -> Iterator[Chain]:
    """Yield :class:`Chain` records for every maximal IC."""
    for path in iter_maximal_paths(dfg, min_length=min_length):
        yield make_chain(dfg, path)


def best_subchains(
    dfg: Dfg,
    path: Sequence[int],
    threshold: float = CRITIC_AVG_FANOUT_THRESHOLD,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
    min_len: int = 2,
    exact_len: Optional[int] = None,
    claimed: Optional[Set[int]] = None,
) -> List[Chain]:
    """Extract non-overlapping CritIC sub-chains from one maximal IC path.

    All windows of length ``min_len..max_len`` (or exactly ``exact_len``,
    for the Fig. 12a per-length sensitivity study) are scored by average
    fanout; windows over ``threshold`` are chosen greedily best-first
    without overlap, so each instruction belongs to at most one CritIC —
    the property the compiler pass needs when rewriting.

    ``claimed`` (shared across calls by :func:`find_critics`) excludes
    positions already assigned to a chain by an overlapping maximal path.
    """
    lengths = (
        [exact_len] if exact_len is not None
        else list(range(min_len, max_len + 1))
    )
    fanouts = [dfg.fanouts[p] for p in path]
    if not fanouts or max(fanouts) <= threshold:
        return []  # no window's average exceeds its largest member
    claimed = claimed if claimed is not None else set()
    prefix = list(accumulate(fanouts, initial=0.0))

    # Longest qualifying window first (the paper ranks CritICs by dynamic
    # coverage, which favors longer chains); score breaks ties.
    candidates: List[Tuple[int, float, int]] = []  # (-length, -score, start)
    for length in lengths:
        if length < 2 or length > len(path):
            continue
        for start in range(len(path) - length + 1):
            score = (prefix[start + length] - prefix[start]) / length
            if score > threshold:
                candidates.append((-length, -score, start))
    candidates.sort()
    chains: List[Chain] = []
    for neg_length, _score, start in candidates:
        window = path[start:start - neg_length]
        if claimed.isdisjoint(window):
            claimed.update(window)
            chains.append(make_chain(dfg, window))
    chains.sort(key=lambda c: c.positions[0])
    return chains


def find_critics(
    dfg: Dfg,
    threshold: float = CRITIC_AVG_FANOUT_THRESHOLD,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
    exact_len: Optional[int] = None,
) -> List[Chain]:
    """Find all CritIC occurrences in a window, best-first per maximal IC.

    Positions are claimed globally, so the result is overlap-free across
    the whole window even when maximal paths share prefixes.
    """
    claimed: Set[int] = set()
    chains: List[Chain] = []
    for path in iter_maximal_paths(dfg):
        chains.extend(
            best_subchains(
                dfg, path, threshold=threshold, max_len=max_len,
                exact_len=exact_len, claimed=claimed,
            )
        )
    chains.sort(key=lambda c: c.positions[0])
    return chains


@dataclass(frozen=True)
class ChainStats:
    """Fig. 5a summary of IC lengths and spreads for one workload."""

    count: int
    max_length: int
    mean_length: float
    max_spread: int
    mean_spread: float

    @staticmethod
    def from_paths(paths: Iterable[Sequence[int]]) -> "ChainStats":
        """Summarize IC position paths, e.g. :func:`iter_maximal_paths`."""
        lengths: List[int] = []
        spreads: List[int] = []
        for path in paths:
            lengths.append(len(path))
            spreads.append(path[-1] - path[0])
        if not lengths:
            return ChainStats(0, 0, 0.0, 0, 0.0)
        return ChainStats(len(lengths), max(lengths),
                          sum(lengths) / len(lengths),
                          max(spreads), sum(spreads) / len(spreads))

    @staticmethod
    def from_chains(chains: Sequence[Chain]) -> "ChainStats":
        """Summarize :class:`Chain` records by their position paths."""
        return ChainStats.from_paths(c.positions for c in chains)
