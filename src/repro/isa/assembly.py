"""Tiny assembler: render and parse the textual instruction form.

``Instruction.to_text()`` produces lines like::

    ADDEQ R1, R2, R3
    LDR R4, R5, #12
    B @17
    CDP <5>
    MOV R0, R1  ; .thumb

This module parses those lines back into :class:`Instruction` objects, which
gives the test-suite a round-trip property and the examples a readable dump
format.  The destination-register count is a function of the opcode (e.g.
``CMP``/stores/branches write no register), which makes the flat operand list
unambiguous.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.condition import Cond
from repro.isa.instruction import Encoding, Instruction
from repro.isa.opcodes import Opcode, opcode_info
from repro.isa.registers import LR, NUM_REGISTERS, PC, SP

#: Opcodes that write no destination register.  BL is not here: it writes
#: the link register (and renders it as its destination operand).
_ZERO_DEST = {
    Opcode.CMP,
    Opcode.TST,
    Opcode.STR,
    Opcode.STRB,
    Opcode.STRH,
    Opcode.VSTR,
    Opcode.B,
    Opcode.BX,
    Opcode.NOP,
    Opcode.CDP,
}


def dest_count(opcode: Opcode) -> int:
    """Number of destination registers ``opcode`` writes."""
    return 0 if opcode in _ZERO_DEST else 1


#: Register operand -> index: ``R0``..``R15`` and the SP/LR/PC aliases.
_REGISTERS = {f"R{n}": n for n in range(NUM_REGISTERS)}
_REGISTERS.update(SP=SP, LR=LR, PC=PC)


def _mnemonic_table() -> Dict[str, Tuple[Opcode, Cond]]:
    """Every ``<opcode><cond>`` word, ``AL`` spelled with no suffix.

    Longest opcode first wins a clash, so e.g. "LDRB" is not parsed as
    "LDR" + cond "B…".
    """
    table: Dict[str, Tuple[Opcode, Cond]] = {}
    for opcode in sorted(Opcode, key=lambda op: len(op.value), reverse=True):
        for cond in Cond:
            suffix = "" if cond is Cond.AL else cond.value
            table.setdefault(opcode.value + suffix, (opcode, cond))
    return table


_MNEMONIC_TABLE = _mnemonic_table()


class AsmError(ValueError):
    """Raised when a line cannot be parsed as an instruction."""


def _split_mnemonic(word: str) -> Tuple[Opcode, Cond]:
    try:
        return _MNEMONIC_TABLE[word]
    except KeyError:
        raise AsmError(f"unknown mnemonic {word!r}") from None


def parse_line(line: str, uid: int = -1) -> Instruction:
    """Parse one assembler line into an :class:`Instruction` with ``uid``.

    The uid is not part of the text form; passing it here builds (and
    validates) the instruction once instead of copying it with
    ``with_uid``.

    Raises:
        AsmError: on any syntax problem.
    """
    text = line.strip()
    encoding = Encoding.ARM32
    if ";" in text:
        text, comment = text.split(";", 1)
        if ".thumb" in comment:
            encoding = Encoding.THUMB16
        text = text.strip()
    if not text:
        raise AsmError("empty line")

    parts = text.split(None, 1)
    opcode, cond = _split_mnemonic(parts[0])
    operands = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []

    regs: List[int] = []
    imm: Optional[int] = None
    target: Optional[int] = None
    cdp_cover: Optional[int] = None
    for token in operands:
        if not token:
            raise AsmError(f"empty operand in {line!r}")
        reg = _REGISTERS.get(token)
        if reg is not None:
            regs.append(reg)
        elif token.startswith("#"):
            imm = int(token[1:])
        elif token.startswith("@"):
            target = int(token[1:])
        elif token.startswith("<") and token.endswith(">"):
            cdp_cover = int(token[1:-1])
        else:
            raise AsmError(f"bad operand {token!r} in {line!r}")

    # Branches-with-link may omit the implicit LR operand; everything else
    # must carry its destination.
    n_dest = min(dest_count(opcode), len(regs)) \
        if opcode is Opcode.BL else dest_count(opcode)
    if len(regs) < n_dest:
        raise AsmError(f"{opcode.value} needs {n_dest} destination register(s)")
    return Instruction(
        opcode=opcode,
        dests=tuple(regs[:n_dest]),
        srcs=tuple(regs[n_dest:]),
        imm=imm,
        cond=cond,
        target=target,
        encoding=encoding,
        cdp_cover=cdp_cover,
        uid=uid,
    )


def parse_program_text(text: str) -> List[Instruction]:
    """Parse a multi-line assembler listing, skipping blanks and comments."""
    instrs = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith(";"):
            continue
        instrs.append(parse_line(raw))
    return instrs


def format_program(instrs: List[Instruction]) -> str:
    """Render instructions one per line (inverse of parse_program_text)."""
    return "\n".join(i.to_text() for i in instrs)
