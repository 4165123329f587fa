"""Set-associative cache model with pluggable replacement.

Latency-oriented (no port contention or MSHR occupancy): each access
reports hit/miss and the hierarchy composes miss latencies.  Counters feed
both the performance statistics and the energy model.

Replacement is a component: the cache owns the counters and the set
array, a :class:`repro.registry.protocols.ReplacementPolicy` (default
LRU) owns the per-set state layout and the hit/insert/victim mechanics.
Registered policies (``lru``, ``trrip``, plus any plugin) are selected by
name through ``MemoryConfig.icache_policy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def num_sets(name: str, size_bytes: int, assoc: int,
             line_bytes: int) -> int:
    """Sets of a ``size_bytes`` cache with ``assoc`` ways of
    ``line_bytes``; raises ``ValueError`` when they do not divide it."""
    if size_bytes % (assoc * line_bytes) != 0:
        raise ValueError(
            f"{name}: size {size_bytes} not divisible by "
            f"assoc*line ({assoc}*{line_bytes})"
        )
    return size_bytes // (assoc * line_bytes)


class Cache:
    """A size/assoc/line-size parameterized cache with pluggable
    replacement.

    Args:
        name: label used in stats dumps.
        size_bytes: total capacity.
        assoc: ways per set.
        line_bytes: cache-line size.
        hit_latency: cycles for a hit.
        policy: replacement policy instance (default: a fresh LRU) — one
            per cache; per-set state comes from ``policy.new_set()``.
    """

    __slots__ = ("name", "size_bytes", "assoc", "line_bytes",
                 "hit_latency", "num_sets", "stats", "policy", "_sets")

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_bytes: int, hit_latency: int,
                 policy: Optional[Any] = None):
        self.num_sets = num_sets(name, size_bytes, assoc, line_bytes)
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.stats = CacheStats()
        if policy is None:
            from repro.memory.replacement import LruPolicy
            policy = LruPolicy()
        self.policy = policy
        self._sets: List[Any] = [policy.new_set()
                                 for _ in range(self.num_sets)]

    def _locate(self, addr: int):
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def lookup(self, addr: int) -> bool:
        """Access the cache; returns True on hit.  The policy updates its
        recency/temperature state and fills the line on miss
        (allocate-on-miss)."""
        set_idx, tag = self._locate(addr)
        self.stats.accesses += 1
        hit, evicted = self.policy.access(self._sets[set_idx], tag,
                                          self.assoc)
        if hit:
            return True
        self.stats.misses += 1
        if evicted:
            self.stats.writebacks += 1
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without touching policy state or counters."""
        set_idx, tag = self._locate(addr)
        return self.policy.probe(self._sets[set_idx], tag)

    def fill(self, addr: int) -> None:
        """Install a line (prefetch path): no access/miss counters."""
        set_idx, tag = self._locate(addr)
        self.policy.fill(self._sets[set_idx], tag, self.assoc)

    def line_of(self, addr: int) -> int:
        """Line index of an address (for crossing detection)."""
        return addr // self.line_bytes
