"""Tests for the cycle-level pipeline simulator."""

from functools import partial

import pytest

from repro.cpu import simulate as _simulate
from repro.cpu import (
    CpuConfig,
    GOOGLE_TABLET,
    SimStats,
    Simulator,
    config_2xfd,
    config_perfect_br,
    speedup,
)
from repro.isa import Cond, Encoding, Instruction, Opcode
from repro.trace import BasicBlock, Program, materialize
from repro.workloads import generate, get_profile

#: These tests check the Python cycle loop itself (the batch engine's
#: reference), so they name it rather than take the default engine.
simulate = partial(_simulate, engine="inline")


def alu(dest, *srcs, imm=None):
    return Instruction(Opcode.ADD, dests=(dest,), srcs=srcs, imm=imm)


def run_block(instrs, config=GOOGLE_TABLET, repeats=1):
    program = Program([BasicBlock(0, list(instrs))])
    trace = materialize(program, [0] * repeats)
    return simulate(trace, config, warm=True)


class TestBasics:
    def test_empty_independent_block(self):
        stats = run_block([alu(k % 8, 9) for k in range(64)])
        assert stats.instructions == 64
        assert stats.cycles > 64 // 4  # bounded by width
        assert 0 < stats.ipc <= 4.0

    def test_serial_chain_is_dataflow_bound(self):
        chain = [alu(0, 9)]
        chain += [alu((k + 1) % 6, k % 6) for k in range(40)]
        stats = run_block(chain)
        # A serial chain can retire at most ~1 per cycle.
        assert stats.ipc < 1.5

    def test_all_instructions_commit(self):
        wl = generate(get_profile("Music"), walk_blocks=60)
        stats = simulate(wl.trace())
        assert stats.instructions == len(wl.trace())

    def test_max_cycles_cuts_off(self):
        wl = generate(get_profile("Music"), walk_blocks=60)
        stats = simulate(wl.trace(), max_cycles=50)
        assert stats.cycles == 50
        assert stats.instructions < len(wl.trace())

    def test_deterministic(self):
        wl = generate(get_profile("Email"), walk_blocks=60)
        a = simulate(wl.trace())
        b = simulate(wl.trace())
        assert a.cycles == b.cycles
        assert a.icache_misses == b.icache_misses


class TestThumbFetch:
    def test_thumb_code_no_slower_and_halves_icache_traffic(self):
        """Same dependence-free program in 16-bit form: the backend caps
        both at 4 IPC, but the Thumb stream touches half the lines."""
        arm = [alu(k % 6, 8, imm=1) for k in range(256)]
        thumb = [i.with_encoding(Encoding.THUMB16) for i in arm]
        arm_stats = run_block(arm)
        thumb_stats = run_block(thumb)
        assert thumb_stats.cycles <= arm_stats.cycles
        assert thumb_stats.icache_accesses < arm_stats.icache_accesses

    def test_thumb_recovers_supply_under_narrow_fetch(self):
        """When fetch bytes are the bottleneck (8B/cycle = 2 ARM words),
        the 16-bit stream is strictly faster."""
        from dataclasses import replace
        narrow = replace(GOOGLE_TABLET, fetch_bytes_per_cycle=8)
        arm = [alu(k % 6, 8, imm=1) for k in range(256)]
        thumb = [i.with_encoding(Encoding.THUMB16) for i in arm]
        assert run_block(thumb, narrow).cycles \
            < run_block(arm, narrow).cycles

    def test_cdp_consumed_at_decode(self):
        instrs = [Instruction(Opcode.CDP, cdp_cover=3,
                              encoding=Encoding.THUMB16)]
        instrs += [alu(k, 8, imm=1).with_encoding(Encoding.THUMB16)
                   for k in range(3)]
        stats = run_block(instrs)
        assert stats.cdp_decoded == 1
        assert stats.instructions == 4  # CDP commits as a slot


class TestBranchHandling:
    def test_mispredicts_cost_cycles(self):
        """A hard-to-predict branch stream runs slower with a real BPU
        than with a perfect one."""
        wl = generate(get_profile("Angrybirds"), walk_blocks=200)
        real = simulate(wl.trace())
        oracle = simulate(wl.trace(), config_perfect_br())
        assert real.branch_mispredicts > 0
        assert oracle.cycles <= real.cycles
        assert oracle.branch_mispredicts == 0

    def test_switch_branch_bubble(self):
        """Approach-1 switch branches inject fetch bubbles."""
        body = [alu(k % 6, 8, imm=1) for k in range(8)]
        enter = Instruction(Opcode.B, imm=0)
        leave = Instruction(Opcode.B, imm=0, encoding=Encoding.THUMB16)
        thumb_body = [i.with_encoding(Encoding.THUMB16) for i in body]
        plain = run_block(body * 8)
        switched = run_block((
            [enter] + thumb_body + [leave]) * 8)
        assert switched.fetch.stall_switch > 0
        assert plain.fetch.stall_switch == 0


class TestHardwareVariants:
    def test_2xfd_not_slower(self):
        wl = generate(get_profile("Maps"), walk_blocks=150)
        base = simulate(wl.trace())
        wide = simulate(wl.trace(), config_2xfd())
        assert wide.cycles <= base.cycles * 1.01

    def test_scoped_stats_populated(self):
        wl = generate(get_profile("Maps"), walk_blocks=100)
        stats = simulate(wl.trace())
        assert stats.residency_all.instructions == stats.instructions
        assert 0 < stats.residency_critical.instructions \
            < stats.instructions

    def test_chain_positions_scoped(self):
        wl = generate(get_profile("Maps"), walk_blocks=100)
        stats = simulate(wl.trace(), chain_positions={0, 1, 2})
        assert stats.residency_chain.instructions == 3


class TestStatsInvariants:
    def test_cycle_accounting_covers_all_cycles(self):
        wl = generate(get_profile("Office"), walk_blocks=100)
        stats = simulate(wl.trace())
        f = stats.fetch
        total = (f.active + f.stall_icache + f.stall_branch
                 + f.stall_switch + f.stall_backpressure + f.drained)
        assert total == stats.cycles

    def test_speedup_helper(self):
        a = SimStats(cycles=100, instructions=100)
        b = SimStats(cycles=80, instructions=100)
        assert speedup(a, b) == pytest.approx(1.25)
        assert speedup(a, SimStats()) == 0.0

    def test_stage_residencies_non_negative(self):
        wl = generate(get_profile("Office"), walk_blocks=80)
        stats = simulate(wl.trace())
        for value in stats.residency_all.totals.values():
            assert value >= 0
