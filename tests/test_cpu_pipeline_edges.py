"""Edge-case tests for the pipeline simulator."""

from functools import partial

import pytest

from repro.cpu import GOOGLE_TABLET, Simulator
from repro.cpu import simulate as _simulate
from repro.isa import Cond, Encoding, Instruction, Opcode
from repro.trace import BasicBlock, Program, Trace, TraceEntry, materialize

#: These tests check the Python cycle loop itself (the batch engine's
#: reference), so they name it rather than take the default engine.
simulate = partial(_simulate, engine="inline")


def alu(dest, *srcs, imm=None):
    return Instruction(Opcode.ADD, dests=(dest,), srcs=srcs, imm=imm)


class TestDegenerateTraces:
    def test_empty_trace(self):
        stats = simulate(Trace([]))
        assert stats.instructions == 0
        assert stats.cycles == 0

    def test_single_instruction(self):
        program = Program([BasicBlock(0, [alu(0, 1)])])
        stats = simulate(materialize(program, [0]))
        assert stats.instructions == 1
        assert stats.cycles >= 1

    def test_trace_ending_in_branch(self):
        program = Program([BasicBlock(0, [
            alu(0, 1),
            Instruction(Opcode.CMP, srcs=(0, 1)),
            Instruction(Opcode.B, cond=Cond.NE, target=0),
        ])])
        stats = simulate(materialize(program, [0]))
        assert stats.instructions == 3

    def test_trace_ending_in_cdp(self):
        """A trailing CDP with nothing after it must not hang."""
        program = Program([BasicBlock(0, [
            alu(0, 1),
            Instruction(Opcode.CDP, cdp_cover=1,
                        encoding=Encoding.THUMB16),
        ])])
        stats = simulate(materialize(program, [0]))
        assert stats.instructions == 2

    def test_all_long_latency(self):
        program = Program([BasicBlock(0, [
            Instruction(Opcode.VDIV, dests=(k % 6,), srcs=(6, 7))
            for k in range(8)
        ])])
        stats = simulate(materialize(program, [0]))
        assert stats.instructions == 8
        # One FP unit, 18-cycle latency each: heavily serialized.
        assert stats.cycles >= 8


class TestMispredictRecovery:
    def test_mispredicted_return_does_not_hang(self):
        # BX with an empty RAS mispredicts; redirect must still resolve.
        program = Program([BasicBlock(0, [
            alu(0, 1),
            Instruction(Opcode.BX, srcs=(14,)),
            alu(2, 0),
        ])])
        stats = simulate(materialize(program, [0]))
        assert stats.instructions == 3
        assert stats.branch_mispredicts >= 1

    def test_redirect_penalty_respected(self):
        from dataclasses import replace
        program = Program([BasicBlock(0, [
            Instruction(Opcode.BX, srcs=(14,)),
            alu(2, 0),
        ])])
        fast = simulate(materialize(program, [0]),
                        replace(GOOGLE_TABLET, redirect_penalty=0))
        slow = simulate(materialize(program, [0]),
                        replace(GOOGLE_TABLET, redirect_penalty=20))
        assert slow.cycles > fast.cycles


class TestStructuralLimits:
    def test_rob_never_exceeds_capacity(self):
        from dataclasses import replace
        config = replace(GOOGLE_TABLET, rob_entries=8)
        program = Program([BasicBlock(0, [
            alu(k % 8, 9, imm=1) for k in range(64)
        ])])
        sim = Simulator(materialize(program, [0] * 4), config)
        stats = sim.run()
        # Mean occupancy can never exceed the capacity.
        assert stats.rob_avg_occupancy <= 8 + 1e-9

    def test_issue_queue_bounded(self):
        from dataclasses import replace
        config = replace(GOOGLE_TABLET, issue_queue_entries=4)
        program = Program([BasicBlock(0, [
            alu(k % 8, 9, imm=1) for k in range(64)
        ])])
        stats = simulate(materialize(program, [0] * 4), config)
        assert stats.iq_avg_occupancy <= 4 + 1e-9

    def test_narrow_everything_still_completes(self):
        from dataclasses import replace
        config = replace(
            GOOGLE_TABLET, fetch_bytes_per_cycle=4, decode_width=1,
            rename_width=1, issue_width=1, commit_width=1,
            rob_entries=4, issue_queue_entries=2,
            fetch_queue_entries=2, decode_buffer_entries=1,
            scheduling_window=1,
        )
        program = Program([BasicBlock(0, [alu(k % 6, 7) for k in range(20)])])
        stats = simulate(materialize(program, [0]), config)
        assert stats.instructions == 20

    def test_unrestricted_scheduler_path(self):
        """scheduling_window=0 exercises the pure ready-list issue path."""
        from dataclasses import replace
        config = replace(GOOGLE_TABLET, scheduling_window=0)
        program = Program([BasicBlock(0, [alu(k % 6, 7) for k in range(40)])])
        stats = simulate(materialize(program, [0] * 3), config)
        assert stats.instructions == 120

    def test_backend_priority_with_window(self):
        from dataclasses import replace
        config = replace(GOOGLE_TABLET, backend_priority=True)
        program = Program([BasicBlock(0, [alu(k % 6, 7) for k in range(40)])])
        stats = simulate(materialize(program, [0] * 2), config)
        assert stats.instructions == 80
