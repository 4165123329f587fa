"""Dynamic trace containers.

A :class:`Trace` is the dynamic instruction stream of one app execution —
the analogue of the paper's QEMU-disassembler dump (Sec. III-C "Trace
Collection").  Each :class:`TraceEntry` records the static instruction
executed, its PC (from the program layout), the effective memory address for
loads/stores, and the actual branch outcome.

A trace has two forms.  Its *entries* are one :class:`TraceEntry` per
dynamic instruction, what the inline simulator and the analyses walk.
Its *columns* (:class:`TraceColumns`) are the same facts packed per
position over a table of statics, what the trace file stores and the
batch engine reads.  A materialized trace starts as entries and builds its
columns once, on first use; a loaded trace starts as columns and builds
its entries only when something reads them.  Columns are stdlib arrays
and bytes, so reading them needs no third-party array package (inline
workers must stay free of one).
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import count
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.isa.instruction import Encoding, Instruction


class TraceEntry(NamedTuple):
    """One executed dynamic instruction."""

    seq: int
    instr: Instruction
    pc: int
    mem_addr: Optional[int] = None
    taken: Optional[bool] = None

    @property
    def uid(self) -> int:
        """Uid of the static instruction this entry executes."""
        return self.instr.uid


#: ``TraceColumns.taken`` byte -> ``TraceEntry.taken``.
TAKEN_VALUES = (False, True, None)
#: ``TraceEntry.taken`` -> its byte (``None`` is 2).
_TAKEN_BYTE = {False: 0, True: 1, None: 2}


class TraceColumns(NamedTuple):
    """A trace as per-position columns over its distinct statics.

    Attributes:
        seq0: seq of entry 0; entry ``k`` has seq ``seq0 + k``.  ``None``
            when the entries' seqs are not consecutive from a
            non-negative first seq (such a trace cannot be dumped).
        statics: the distinct ``(instruction, pc)`` pairs, in first-
            occurrence order.
        index: ``array('i')``, each position's index into ``statics``.
        mem: ``array('q')``, each position's memory address, -1 for none.
        taken: one byte per position: 0 not taken, 1 taken, 2 no branch
            outcome (indexes :data:`TAKEN_VALUES`).
    """

    seq0: Optional[int]
    statics: List[Tuple[Instruction, int]]
    index: array
    mem: array
    taken: bytes


def _columns_of(entries: Sequence[TraceEntry]) -> TraceColumns:
    """The columns of ``entries``, in one pass."""
    slots = {}
    statics: List[Tuple[Instruction, int]] = []
    index = array("i")
    mem = array("q")
    taken = bytearray()
    seq0: Optional[int] = entries[0].seq if entries else 0
    expect = seq0
    for seq, instr, pc, addr, outcome in entries:
        key = (id(instr), pc)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(statics)
            statics.append((instr, pc))
        index.append(slot)
        mem.append(-1 if addr is None else addr)
        taken.append(_TAKEN_BYTE[outcome])
        if seq != expect:
            seq0 = None
        expect += 1
    if seq0 is not None and seq0 < 0:
        seq0 = None
    return TraceColumns(seq0, statics, index, mem, bytes(taken))


def _entries_of(columns: TraceColumns) -> List[TraceEntry]:
    """One :class:`TraceEntry` per position of ``columns``; positions of
    one static share its instruction object."""
    statics = columns.statics
    instrs = [instr for instr, _ in statics]
    pcs = [pc for _, pc in statics]
    index = columns.index
    return list(map(
        TraceEntry._make,
        zip(count(columns.seq0), map(instrs.__getitem__, index),
            map(pcs.__getitem__, index),
            [None if addr < 0 else addr for addr in columns.mem],
            map(TAKEN_VALUES.__getitem__, columns.taken)),
    ))


class Trace:
    """A dynamic instruction stream plus provenance metadata.

    ``entries`` is a plain list attribute.  A trace made by
    :meth:`from_columns` has none until the first read, which builds it
    from the columns (``__getattr__`` runs only while it is missing).
    """

    def __init__(
        self,
        entries: Sequence[TraceEntry],
        name: str = "trace",
        program_name: str = "",
    ):
        self.entries: List[TraceEntry] = list(entries)
        self.name = name
        self.program_name = program_name
        self._columns: Optional[TraceColumns] = None
        self._len = len(self.entries)

    @classmethod
    def from_columns(cls, columns: TraceColumns, name: str = "trace",
                     program_name: str = "") -> "Trace":
        """A trace whose entries are built from ``columns`` when first
        read; ``columns.seq0`` must not be ``None``."""
        trace = cls.__new__(cls)
        trace.name = name
        trace.program_name = program_name
        trace._columns = columns
        trace._len = len(columns.index)
        return trace

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: ``entries`` of
        # a trace made from columns, before its first read.
        columns = self.__dict__.get("_columns")
        if name != "entries" or columns is None:
            raise AttributeError(name)
        entries = self.entries = _entries_of(columns)
        return entries

    def columns(self) -> TraceColumns:
        """The trace's :class:`TraceColumns` (built once, then kept)."""
        if self._columns is None:
            self._columns = _columns_of(self.entries)
        return self._columns

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def window(self, start: int, length: int) -> "Trace":
        """Return a sub-trace of ``length`` entries starting at ``start``."""
        return Trace(
            self.entries[start:start + length],
            name=f"{self.name}[{start}:{start + length}]",
            program_name=self.program_name,
        )

    def _static_counts(self) -> List[Tuple[Instruction, int]]:
        """``(instruction, occurrences)`` per static of the columns."""
        columns = self.columns()
        occurrences = Counter(columns.index)
        return [(instr, occurrences[k])
                for k, (instr, _) in enumerate(columns.statics)]

    def dynamic_bytes(self) -> int:
        """Total fetched bytes along the dynamic stream (encoding-aware)."""
        return sum(instr.size_bytes * n for instr, n in self._static_counts())

    def count_thumb(self) -> int:
        """Number of dynamic instructions in 16-bit encoding."""
        return sum(n for instr, n in self._static_counts()
                   if instr.encoding is Encoding.THUMB16)
