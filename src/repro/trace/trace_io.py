"""Trace serialization: dump/load dynamic streams as text.

The paper's profiling flow instruments the QEMU disassembler to "output the
trace of instructions executed and data accessed" for offline analysis
(Sec. III-C).  This module is that interchange format, ``repro-trace v2``.
A dynamic stream repeats a few thousand static instructions across tens of
thousands of entries, so the file is columnar: each static instruction is
written once, and the dynamic stream is three packed columns::

    # repro-trace v2
    # name=<trace name>
    # program=<program name>
    # statics=<S>
    # entries=<N>
    # seq0=<seq of the first entry>
    uid <TAB> pc-hex <TAB> asm        S lines, in first-occurrence order
    i <index>,<index>,...             N static indices, comma-separated
    m <mem-hex|->,<mem-hex|->,...     N memory addresses, '-' for none
    t <T|N|-><T|N|->...               N chars: taken, not taken, no branch

A static is one distinct ``(instruction, pc)`` pair.  Its assembly column
round-trips through :mod:`repro.isa.assembly`, so a dumped trace reloads
without the generating program.  The file is the trace's
:class:`~repro.trace.dynamic.TraceColumns` written out: the dumper writes
``trace.columns()`` (built once from a materialized trace's entries and
kept, so the same pass also serves the batch engine), and the loader
builds only the columns, with one
:class:`~repro.isa.instruction.Instruction` per static that all of its
occurrences share — exactly as a materialized trace shares the program's
objects (the simulator's per-``id(instr)`` static-info memos rely on that
identity).  A loaded trace builds its ``TraceEntry`` objects only when
something first reads ``trace.entries``.  Entry ``k`` has seq
``seq0 + k``, so only traces with consecutive seqs (any materialized
trace or window of one) can be dumped.  Blank lines and other ``#``
lines are skipped.

Blobs reach the loader from the on-disk cache, which a crash or another
process may have left torn, so it parses plain text only, checks every
column at load time, and turns every malformation into
:class:`TraceFormatError` (a ``ValueError``), which the artifact cache
treats as a miss.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, TextIO, Tuple

from repro.isa.assembly import parse_line
from repro.isa.instruction import Instruction
from repro.trace.dynamic import Trace, TraceColumns

#: Format marker written as the first line.
HEADER = "# repro-trace v2"

#: Taken column characters, indexed by ``TraceColumns.taken`` byte.
_TAKEN_CHARS = b"NT-"
_TO_CHARS = bytes.maketrans(bytes(range(3)), _TAKEN_CHARS)
_TO_BYTES = bytes.maketrans(_TAKEN_CHARS, bytes(range(3)))

#: Column tags, in file order: static index, memory address, taken.
_COLUMNS = ("i", "m", "t")


def dump_trace(trace: Trace, stream: TextIO) -> int:
    """Write ``trace`` to ``stream``; returns the number of entries.

    Raises:
        ValueError: if the entries' seqs are not consecutive from a
            non-negative first seq.
    """
    columns = trace.columns()
    if columns.seq0 is None:
        raise ValueError(
            "only traces with consecutive, non-negative seqs can be dumped"
        )
    lines = [
        HEADER,
        f"# name={trace.name}",
        f"# program={trace.program_name}",
        f"# statics={len(columns.statics)}",
        f"# entries={len(columns.index)}",
        f"# seq0={columns.seq0}",
    ]
    lines.extend(
        f"{instr.uid}\t{pc:#x}\t{instr.to_text()}"
        for instr, pc in columns.statics
    )
    lines.append("i " + ",".join(map(str, columns.index)))
    lines.append("m " + ",".join(
        "-" if addr < 0 else f"{addr:x}" for addr in columns.mem
    ))
    lines.append("t " + columns.taken.translate(_TO_CHARS).decode("ascii"))
    stream.write("\n".join(lines) + "\n")
    return len(columns.index)


def dump_trace_to_path(trace: Trace, path: str) -> int:
    """Write ``trace`` to a file path."""
    with open(path, "w") as handle:
        return dump_trace(trace, handle)


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed."""


def _header_count(meta: Dict[str, str], key: str) -> int:
    """The non-negative integer header field ``key``."""
    if key not in meta:
        raise TraceFormatError(f"header lacks {key}=")
    value = meta[key]
    if not value.isdecimal():
        raise TraceFormatError(f"bad header {key}={value!r}")
    return int(value)


def load_trace(stream: TextIO) -> Trace:
    """Parse a trace previously written by :func:`dump_trace`.

    Raises:
        TraceFormatError: on any malformation, including a v1 file.
    """
    lines = stream.read().split("\n")
    if lines[0] != HEADER:
        raise TraceFormatError(
            f"bad header {lines[0]!r}; expected {HEADER!r}"
        )
    meta: Dict[str, str] = {}
    body: List[Tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
        elif line:
            body.append((lineno, line))
    n_statics = _header_count(meta, "statics")
    n_entries = _header_count(meta, "entries")
    seq0 = _header_count(meta, "seq0")
    if len(body) != n_statics + len(_COLUMNS):
        raise TraceFormatError(
            f"expected {n_statics} static lines and {len(_COLUMNS)} "
            f"columns, got {len(body)} lines"
        )

    statics: List[Tuple[Instruction, int]] = []
    for lineno, line in body[:n_statics]:
        fields = line.split("\t")
        if len(fields) != 3:
            raise TraceFormatError(
                f"line {lineno}: expected 3 tab-separated fields, "
                f"got {len(fields)}"
            )
        uid_s, pc_s, asm = fields
        try:
            statics.append((parse_line(asm, uid=int(uid_s)), int(pc_s, 16)))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc

    texts = []
    for (lineno, line), tag in zip(body[n_statics:], _COLUMNS):
        got, _, column = line.partition(" ")
        if got != tag:
            raise TraceFormatError(
                f"line {lineno}: expected column {tag!r}, got {got!r}"
            )
        texts.append(column)
    index_s, mem_s, taken_s = texts
    try:
        index = array("i", map(int, index_s.split(","))) if index_s \
            else array("i")
        mem = array("q", [-1 if s == "-" else int(s, 16)
                          for s in mem_s.split(",")]) if mem_s \
            else array("q")
        taken = taken_s.encode("ascii")
    except (ValueError, OverflowError) as exc:
        raise TraceFormatError(f"bad column value: {exc}") from None
    if taken.translate(None, _TAKEN_CHARS):
        raise TraceFormatError(f"bad taken column {taken_s[:40]!r}")
    if not len(index) == len(mem) == len(taken) == n_entries:
        raise TraceFormatError(
            f"column lengths {len(index)}/{len(mem)}/{len(taken)} "
            f"disagree with entries={n_entries}"
        )
    if index and not 0 <= min(index) <= max(index) < n_statics:
        raise TraceFormatError(
            f"static index out of range 0..{n_statics - 1}"
        )
    if mem and min(mem) < -1:
        raise TraceFormatError("negative memory address")
    columns = TraceColumns(seq0, statics, index, mem,
                           taken.translate(_TO_BYTES))
    return Trace.from_columns(columns, name=meta.get("name", "trace"),
                              program_name=meta.get("program", ""))


def load_trace_from_path(path: str) -> Trace:
    """Load a trace from a file path."""
    with open(path) as handle:
        return load_trace(handle)
