"""Materialize a dynamic trace from a program and a block walk.

The workload generator produces a :class:`~repro.trace.program.Program` and a
*walk* — the sequence of basic-block executions (the analogue of replaying
the same recorded user input, paper Sec. III-A2).  Materializing the walk
over a program yields the dynamic trace; materializing the same walk over a
*compiler-transformed* program yields the transformed stream, giving a fair
before/after comparison.

Memory addresses are supplied by a :class:`MemoryModel` keyed by static
instruction uid and dynamic occurrence number, so the address stream is also
invariant across compiler transforms (uids survive rewrites).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.trace.dynamic import Trace, TraceEntry
from repro.trace.program import Program


class MemoryModel(Protocol):
    """Maps (static uid, occurrence index) to an effective byte address."""

    def address_for(self, uid: int, occurrence: int) -> int:
        """Return the address of the ``occurrence``-th execution of ``uid``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class StridedPattern:
    """Classic strided access: ``base + (occurrence * stride) % region``.

    ``region`` bounds the footprint so reuse (cache hits) happens once the
    pattern wraps.  ``stride == 0`` models a scalar/field repeatedly accessed.
    """

    base: int
    stride: int
    region: int

    def address_for(self, occurrence: int) -> int:
        if self.region <= 0:
            return self.base
        offset = (occurrence * self.stride) % self.region
        return self.base + (offset & ~0x3)

    def span(self) -> Tuple[int, int]:
        """[lo, hi) byte range this pattern can touch."""
        return (self.base, self.base + max(4, self.region))


@dataclass(frozen=True)
class HashedPattern:
    """Pseudo-random accesses within a region (pointer-chasing-like)."""

    base: int
    region: int
    salt: int = 0

    def address_for(self, occurrence: int) -> int:
        if self.region <= 0:
            return self.base
        mixed = zlib.crc32(
            occurrence.to_bytes(8, "little") + self.salt.to_bytes(8, "little")
        )
        return self.base + ((mixed % self.region) & ~0x3)

    def span(self) -> Tuple[int, int]:
        """[lo, hi) byte range this pattern can touch."""
        return (self.base, self.base + max(4, self.region))


class TableMemoryModel:
    """MemoryModel backed by a per-uid pattern table with a default region."""

    def __init__(self, default_base: int = 0x8000_0000,
                 default_region: int = 1 << 14):
        self._patterns: Dict[int, object] = {}
        self._default = StridedPattern(default_base, 4, default_region)

    def set_pattern(self, uid: int, pattern) -> None:
        """Assign an access pattern to a static memory instruction."""
        self._patterns[uid] = pattern

    def pattern_for(self, uid: int):
        """Return the pattern assigned to ``uid`` (default if none)."""
        return self._patterns.get(uid, self._default)

    def address_for(self, uid: int, occurrence: int) -> int:
        pattern = self._patterns.get(uid, self._default)
        return pattern.address_for(occurrence)


#: Branch kinds of a plan step: not a branch, always taken, or taken iff
#: the walk's next block is the branch target.
_NONE, _ALWAYS, _CONDITIONAL = 0, 1, 2

#: (instr, uid, pc, is_memory, branch kind, branch target) of one
#: static instruction.
_Step = Tuple[Instruction, int, int, bool, int, Optional[int]]


def _block_plan(program: Program, block_id: int,
                layout: Dict[int, int]) -> List[_Step]:
    """What :func:`materialize` needs of each instruction of a block,
    resolved once per block instead of once per dynamic instance."""
    plan = []
    for instr in program.block(block_id).instructions:
        branch = _NONE
        if instr.is_branch:
            branch = _CONDITIONAL if instr.cond.is_predicated else _ALWAYS
        plan.append((instr, instr.uid, layout[instr.uid], instr.is_memory,
                     branch, instr.target))
    return plan


def materialize(
    program: Program,
    walk: Sequence[int],
    memory: Optional[MemoryModel] = None,
    name: str = "trace",
) -> Trace:
    """Execute ``walk`` over ``program`` and return the dynamic trace.

    Branch outcomes are derived from the walk itself: a block-ending branch
    is *taken* iff the next block in the walk is its target (unconditional
    branches are always taken).
    """
    memory = memory if memory is not None else TableMemoryModel()
    address_for = memory.address_for
    layout = program.layout()
    occurrences: Dict[int, int] = {}
    entries: List[TraceEntry] = []
    append = entries.append
    plans: Dict[int, List[_Step]] = {}
    seq = 0

    for idx, block_id in enumerate(walk):
        plan = plans.get(block_id)
        if plan is None:
            plan = plans[block_id] = _block_plan(program, block_id, layout)
        next_block = walk[idx + 1] if idx + 1 < len(walk) else None
        for instr, uid, pc, is_memory, branch, target in plan:
            mem_addr = None
            if is_memory:
                occ = occurrences.get(uid, 0)
                occurrences[uid] = occ + 1
                mem_addr = address_for(uid, occ)
            taken = None
            if branch == _ALWAYS:
                taken = True
            elif branch == _CONDITIONAL:
                taken = next_block is not None and next_block == target
            append(TraceEntry(seq, instr, pc, mem_addr, taken))
            seq += 1

    return Trace(entries, name=name, program_name=program.name)

