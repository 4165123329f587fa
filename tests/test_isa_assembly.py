"""Unit + property tests for the tiny assembler (repro.isa.assembly)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    AsmError,
    Cond,
    Encoding,
    Instruction,
    Opcode,
    dest_count,
    format_program,
    parse_line,
    parse_program_text,
)


class TestParse:
    def test_basic_add(self):
        instr = parse_line("ADD R1, R2, #4")
        assert instr.opcode is Opcode.ADD
        assert instr.dests == (1,)
        assert instr.srcs == (2,)
        assert instr.imm == 4

    def test_predicated(self):
        instr = parse_line("SUBNE R0, R1")
        assert instr.opcode is Opcode.SUB
        assert instr.cond is Cond.NE

    def test_cmp_has_no_dest(self):
        instr = parse_line("CMP R8, R9")
        assert instr.dests == ()
        assert instr.srcs == (8, 9)

    def test_store_has_no_dest(self):
        instr = parse_line("STR R0, R1, #8")
        assert instr.dests == ()
        assert instr.srcs == (0, 1)

    def test_branch_with_target(self):
        instr = parse_line("B @12")
        assert instr.target == 12

    def test_bl_is_not_b_plus_cond(self):
        instr = parse_line("BL @3")
        assert instr.opcode is Opcode.BL

    def test_ble_is_b_with_le(self):
        instr = parse_line("BLE @3")
        assert instr.opcode is Opcode.B
        assert instr.cond is Cond.LE

    def test_ldrb_not_parsed_as_ldr(self):
        instr = parse_line("LDRB R1, R2")
        assert instr.opcode is Opcode.LDRB

    def test_special_registers(self):
        instr = parse_line("BX LR")
        assert instr.srcs == (14,)

    def test_thumb_comment(self):
        instr = parse_line("MOV R0, #3  ; .thumb")
        assert instr.encoding is Encoding.THUMB16

    def test_cdp(self):
        instr = parse_line("CDP <5>")
        assert instr.cdp_cover == 5

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError):
            parse_line("FROB R1")

    def test_bad_operand(self):
        with pytest.raises(AsmError):
            parse_line("ADD R1, qux")

    def test_empty_line(self):
        with pytest.raises(AsmError):
            parse_line("   ")


class TestProgramText:
    def test_round_trip_listing(self):
        text = "\n".join([
            "MOV R0, #1",
            "; a comment line",
            "",
            "ADD R1, R0, #2",
            "CMP R1, R0",
            "BEQ @7",
        ])
        instrs = parse_program_text(text)
        assert len(instrs) == 4
        assert format_program(instrs).count("\n") == 3


class TestDestCount:
    def test_zero_dest_opcodes(self):
        for op in (Opcode.CMP, Opcode.TST, Opcode.STR, Opcode.B,
                   Opcode.BX, Opcode.NOP, Opcode.CDP):
            assert dest_count(op) == 0

    def test_bl_writes_link_register(self):
        assert dest_count(Opcode.BL) == 1
        instr = parse_line("BL LR, @3")
        assert instr.dests == (14,)
        assert parse_line("BL @3").dests == ()

    def test_one_dest_opcodes(self):
        for op in (Opcode.ADD, Opcode.LDR, Opcode.MUL, Opcode.MOV):
            assert dest_count(op) == 1


_PARSEABLE_OPCODES = [
    op for op in Opcode
    if op not in (Opcode.CDP, Opcode.B, Opcode.BL, Opcode.BX)
]


@given(
    op=st.sampled_from(_PARSEABLE_OPCODES),
    dest=st.integers(min_value=0, max_value=12),
    srcs=st.lists(st.integers(min_value=0, max_value=12),
                  min_size=1, max_size=2),
    imm=st.one_of(st.none(), st.integers(min_value=0, max_value=4000)),
    cond=st.sampled_from([Cond.AL, Cond.EQ, Cond.NE, Cond.GT]),
)
def test_property_roundtrip(op, dest, srcs, imm, cond):
    """to_text -> parse_line preserves every instruction field."""
    dests = (dest,) if dest_count(op) else ()
    instr = Instruction(op, dests=dests, srcs=tuple(srcs), imm=imm,
                        cond=cond)
    parsed = parse_line(instr.to_text())
    assert parsed.opcode is instr.opcode
    assert parsed.dests == instr.dests
    assert parsed.srcs == instr.srcs
    assert parsed.imm == instr.imm
    assert parsed.cond is instr.cond


def _text_forms(opcode, cond, encoding):
    """One instruction per operand shape ``to_text`` emits for ``opcode``:
    registers (incl. SP/LR/PC) alone, with ``#imm``, with ``@target``,
    and ``<cover>`` for CDP.  Shapes the instruction rejects are skipped."""
    dests = ((14,) if opcode is Opcode.BL else (3,)) if dest_count(opcode) \
        else ()
    srcs = () if opcode in (Opcode.B, Opcode.BL, Opcode.CDP) else (2, 13)
    shapes = [
        {},
        {"imm": -12},
        {"imm": 4000},
        {"target": 17},
        {"cdp_cover": 1},
        {"cdp_cover": 9},
    ]
    forms = []
    for shape in shapes:
        try:
            forms.append(Instruction(opcode, dests=dests, srcs=srcs,
                                     cond=cond, encoding=encoding, **shape))
        except ValueError:
            continue
    return forms


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.value)
def test_parse_line_inverts_to_text_with_uid(opcode):
    """For every opcode x condition x encoding and every operand shape,
    ``parse_line(i.to_text(), uid=u)`` rebuilds ``i`` and keeps ``u``."""
    checked = 0
    for cond in Cond:
        for encoding in Encoding:
            for uid, instr in enumerate(_text_forms(opcode, cond, encoding)):
                parsed = parse_line(instr.to_text(), uid=uid)
                assert parsed == instr, instr.to_text()
                assert parsed.uid == uid
                checked += 1
    assert checked >= len(Cond) * len(Encoding)


def test_parse_line_uid_defaults_to_unassigned():
    assert parse_line("ADD R1, R2, R3").uid == -1
    assert parse_line("ADD R1, R2, R3", uid=42).uid == 42
