"""Synthetic workload generator.

Produces a :class:`Workload` — program + block walk + memory model — whose
dynamic stream reproduces the structural characteristics the paper measures
for mobile apps and SPEC (see ``profiles.py``).  All randomness is drawn from
a single seeded ``random.Random``, so generation is fully deterministic.

Register conventions (documented here because the chain-detection guarantees
depend on them):

=================  =====================================================
R0..R5             chain registers: only chain members write these, and
                   every non-head member reads exactly one of them (its
                   predecessor's dest) -> sole-producer (IC) edges hold.
R6, R7             per-function base registers, written in the entry
                   block; chain heads read both (two producers -> the
                   head is a chain *root*, so chains do not leak across
                   loop iterations in mobile profiles).
R8..R10            consumer/filler registers (low fanout by construction).
R11                high-register filler (not Thumb-encodable).
R12                the "hostile" chain register: used to make a chain
                   member non-Thumb-encodable (paper Fig 5b's ~4.5 %).
=================  =====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.condition import Cond
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.trace.dynamic import Trace
from repro.trace.materialize import (
    HashedPattern,
    MemoryModel,
    StridedPattern,
    TableMemoryModel,
    materialize,
)
from repro.trace.program import BasicBlock, Program
from repro.workloads.profiles import WorkloadProfile

CHAIN_REGS: Tuple[int, ...] = (0, 1, 2, 3, 4, 5)
BASE_REGS: Tuple[int, int] = (6, 7)
FILLER_REGS: Tuple[int, ...] = (8, 9, 10)
HIGH_FILLER_REG = 11
HOSTILE_CHAIN_REG = 12

#: Wide immediate used to defeat Thumb encoding of a hostile chain member.
HOSTILE_IMM = 1 << 12

_CHAIN_OPS = (Opcode.ADD, Opcode.EOR, Opcode.LSL, Opcode.SUB, Opcode.ORR)
_FILLER_ALU = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR, Opcode.EOR,
               Opcode.LSR, Opcode.MOV)
_FP_OPS = (Opcode.VADD, Opcode.VSUB, Opcode.VMUL, Opcode.VDIV)
_LONG_OPS = (Opcode.MUL, Opcode.SDIV, Opcode.UDIV)

#: Base addresses of the synthetic address space.  The three regions are
#: fully disjoint so stores never alias loads by accident (an accidental
#: store->load dependence would sever a generated chain).
HEAP_BASE = 0x8000_0000
BIG_REGION_BASE = 0xA000_0000
STORE_REGION_BASE = 0xC000_0000


@dataclass
class FunctionInfo:
    """Control-flow metadata for one generated function."""

    index: int
    entry_block: int
    body_blocks: List[int] = field(default_factory=list)
    ret_block: int = -1
    #: body position -> callee function index, for call blocks
    calls: Dict[int, int] = field(default_factory=dict)
    #: body positions ending in a skip branch; value = hard-to-predict flag
    skips: Dict[int, bool] = field(default_factory=dict)
    #: loop iteration count when entered at top level (fixed per function
    #: so the two-level predictor can learn the loop-exit pattern, like the
    #: mostly-regular loops of real code)
    loop_iters: int = 1
    #: iteration count when entered as a callee (kept at 1-2 so call trees
    #: do not expand geometrically)
    callee_iters: int = 1


@dataclass
class Workload:
    """A generated program, its walk, and its memory model."""

    profile: WorkloadProfile
    program: Program
    walk: List[int]
    memory: MemoryModel
    functions: List[FunctionInfo]
    #: per-program trace memo: ``id(program) -> (program, trace)``.  The
    #: program reference is held alongside the trace so a dead program's
    #: ``id`` can never be recycled onto a stale entry.
    _trace_memo: Dict[int, Tuple[Program, Trace]] = field(
        default_factory=dict)

    @property
    def name(self) -> str:
        return self.profile.name

    def _materialized(self, program: Program, name: str) -> Trace:
        hit = self._trace_memo.get(id(program))
        if hit is not None and hit[0] is program:
            return hit[1]
        trace = materialize(program, self.walk, self.memory, name=name)
        self._trace_memo[id(program)] = (program, trace)
        return trace

    def trace(self) -> Trace:
        """Materialize (and memoize) the dynamic trace of this workload."""
        return self._materialized(self.program, self.profile.name)

    def trace_for(self, program: Program) -> Trace:
        """Materialize the same walk over a *transformed* program.

        Memoized per program object — a mutated program *copy* can never
        be served the original program's cached trace."""
        if program is self.program:
            return self.trace()
        return self._materialized(
            program, f"{self.profile.name}:transformed")

    def adopt_trace(self, trace: Trace) -> None:
        """Seed the memo with an externally recorded/loaded trace for the
        current program (no-op if a trace is already memoized)."""
        if id(self.program) not in self._trace_memo:
            self._trace_memo[id(self.program)] = (self.program, trace)


class _Builder:
    """Internal state machine that emits one workload."""

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        self.rng = random.Random(profile.seed)
        self.memory = TableMemoryModel()
        self.blocks: List[BasicBlock] = []
        self.functions: List[FunctionInfo] = []
        self._next_uid = 0
        self._next_block = 0
        self._filler_cursor = 0
        #: ring of recent filler destinations: sources rotate through it so
        #: background dataflow forms ~4 parallel strands (ILP ~4) instead of
        #: one serial chain that would gate the whole back end, while each
        #: destination still gets only ~1-2 readers (low fanout).
        self._recent_dests = [FILLER_REGS[0], FILLER_REGS[1],
                              FILLER_REGS[2], FILLER_REGS[0]]
        self._recent_cursor = 0
        #: outstanding (register, readers-still-needed) fanout obligations
        self._fanout_debt: List[Tuple[int, int]] = []

    # -- low-level emission --------------------------------------------------

    def _uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def _emit(self, out: List[Instruction], **kwargs) -> Instruction:
        instr = Instruction(uid=self._uid(), **kwargs)
        out.append(instr)
        return instr

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(self._next_block, [])
        self._next_block += 1
        self.blocks.append(block)
        return block

    def _filler_reg(self) -> int:
        self._filler_cursor = (self._filler_cursor + 1) % len(FILLER_REGS)
        return FILLER_REGS[self._filler_cursor]

    # -- memory patterns -----------------------------------------------------

    def _hot_pattern(self, fn_index: int) -> StridedPattern:
        base = HEAP_BASE + fn_index * self.profile.hot_region_bytes
        stride = self.rng.choice((0, 4, 4, 8))
        return StridedPattern(base, stride, self.profile.hot_region_bytes)

    def _chase_pattern(self, uid: int) -> HashedPattern:
        """Pointer-chase region for chain loads: sized beyond the d-cache
        so a realistic share of chain members resolve in the L2 — the
        dependence-resolution latency behind mobile F.StallForR+D."""
        return HashedPattern(
            HEAP_BASE + 0x100_0000, self.profile.chase_region_bytes,
            salt=uid,
        )

    def _big_pattern(self, uid: int) -> object:
        # Each static load streams through its own disjoint slice of the
        # big-data space: the aggregate footprint exceeds the L2, so these
        # are genuine DRAM-bound streams (the SPEC behaviour that makes
        # critical-load prefetching shine in Fig 1a).
        base = BIG_REGION_BASE + (uid % 1024) * self.profile.big_region_bytes
        if self.rng.random() < self.profile.strided_frac:
            stride = self.rng.choice((256, 256, 512, 1024))
            return StridedPattern(base, stride,
                                  self.profile.big_region_bytes)
        return HashedPattern(base, self.profile.big_region_bytes, salt=uid)

    def _store_pattern(self, fn_index: int) -> StridedPattern:
        base = STORE_REGION_BASE + fn_index * self.profile.hot_region_bytes
        return StridedPattern(base, 4, self.profile.hot_region_bytes)

    def _assign_load_pattern(self, instr: Instruction, fn_index: int) -> None:
        if self.rng.random() < self.profile.big_region_load_frac:
            self.memory.set_pattern(instr.uid, self._big_pattern(instr.uid))
        else:
            self.memory.set_pattern(instr.uid, self._hot_pattern(fn_index))

    # -- filler --------------------------------------------------------------

    def _pay_debt(self, exclude: Optional[int] = None) -> Optional[int]:
        """Pop one pending fanout obligation: a register whose producing
        critical member still needs readers.  Background instructions source
        their operands from these registers first, so the high fanout of
        critical chain members comes from code that exists anyway instead of
        dedicated consumer instructions (keeping chain members a realistic
        ~15-20 % of the dynamic stream, like the paper's ~30 % coverage).

        ``exclude`` skips entries for one register, so the two operand draws
        of a single filler never return the same register (a duplicated
        source would be deduplicated by the dependence analysis and the
        fanout payment silently lost).
        """
        # Oldest debts first: lingering old obligations would otherwise be
        # paid *inside* later chain windows, where their register may be
        # about to be recycled — creating WAR hazards that force the
        # compiler pass to skip otherwise-hoistable chains.
        for idx in range(len(self._fanout_debt)):
            reg, remaining = self._fanout_debt[idx]
            if reg == exclude:
                continue
            if remaining <= 1:
                del self._fanout_debt[idx]
            else:
                self._fanout_debt[idx] = (reg, remaining - 1)
            return reg
        return None

    def _forgive_debt(self, reg: int) -> None:
        """Drop unpaid debt on ``reg`` when the register is recycled.

        Emitting last-instant reader instructions here would place reads
        of the dying value directly before its redefinition — a WAR hazard
        inside every chain window longer than the register pool, which
        would force the compiler to skip those chains.  Forgiving the
        remainder instead just leaves the producing critical with slightly
        lower fanout than targeted (its readers were whatever background
        instructions the debt mechanism reached in time).
        """
        self._fanout_debt = [d for d in self._fanout_debt if d[0] != reg]

    def _flush_debt(self, out: List[Instruction]) -> None:
        """Realize all outstanding debt as explicit consumers (block end:
        these sit after every chain, so they can never be bypassed)."""
        rng = self.rng
        for reg, remaining in self._fanout_debt:
            for _ in range(remaining):
                cdest = self._filler_reg()
                if rng.random() < self.profile.filler_high_reg_frac:
                    cdest = HIGH_FILLER_REG
                self._emit(out,
                           opcode=rng.choice((Opcode.ADD, Opcode.EOR)),
                           dests=(cdest,), srcs=(reg,),
                           imm=rng.randrange(0, 200))
        self._fanout_debt.clear()

    def _emit_filler(self, out: List[Instruction], fn_index: int) -> None:
        """Emit one background instruction per the profile's mix."""
        rng = self.rng
        prof = self.profile
        roll = rng.random()
        dest = self._filler_reg()
        # Source operands pay outstanding fanout debt first; otherwise read
        # a recent filler destination from the ring (concentrating filler
        # fanout at 1-2 so the background fabric never grows accidental
        # high-fanout producers, which would pollute Fig 1).
        src = self._pay_debt()
        paying = src is not None
        if src is None:
            self._recent_cursor = (self._recent_cursor + 1) % 4
            src = self._recent_dests[self._recent_cursor]
        if src == dest:
            src = next(r for r in FILLER_REGS if r != dest)
        src2 = self._pay_debt(exclude=src)
        paying = paying or src2 is not None
        if src2 is None or src2 in (dest, src):
            src2 = rng.choice(
                [r for r in FILLER_REGS if r not in (dest, src)] or [src]
            )
        self._recent_dests[self._recent_cursor] = dest
        if roll < prof.load_frac:
            # Two-register addressing (base + index): background loads must
            # not form sole-producer chains across the stream.
            if rng.random() < prof.filler_high_reg_frac:
                dest = HIGH_FILLER_REG
            instr = self._emit(
                out, opcode=Opcode.LDR, dests=(dest,), srcs=(src, src2),
            )
            self._assign_load_pattern(instr, fn_index)
            return
        if roll < prof.load_frac + prof.store_frac:
            instr = self._emit(
                out, opcode=Opcode.STR, srcs=(src, src2),
                imm=rng.randrange(0, 128, 4),
            )
            self.memory.set_pattern(instr.uid, self._store_pattern(fn_index))
            return
        roll = rng.random()
        if roll < prof.fp_frac:
            op = rng.choice(_FP_OPS)
            self._emit(out, opcode=op, dests=(dest,), srcs=(src, src2))
            return
        if roll < prof.fp_frac + prof.long_latency_frac:
            op = rng.choice(_LONG_OPS)
            self._emit(out, opcode=op, dests=(dest,), srcs=(src, src2))
            return
        op = rng.choice(_FILLER_ALU)
        if op is Opcode.MOV and paying:
            op = Opcode.ADD  # a MOV-immediate would drop the debt read
        if rng.random() < prof.filler_high_reg_frac:
            dest = HIGH_FILLER_REG
        cond = Cond.AL
        if rng.random() < prof.filler_predicated_frac:
            cond = rng.choice((Cond.EQ, Cond.NE))
        imm_hi = 4096 if rng.random() < prof.filler_wide_imm_frac else 200
        if op is Opcode.MOV:
            self._emit(out, opcode=op, dests=(dest,),
                       imm=rng.randrange(0, imm_hi), cond=cond)
        else:
            # Two register sources: background instructions must not form
            # long sole-producer chains of their own (they are the *non*
            # critical fabric), so each one has two in-window producers.
            self._emit(out, opcode=op, dests=(dest,), srcs=(src, src2),
                       imm=rng.randrange(0, imm_hi), cond=cond)

    # -- mobile critical-chain motif ------------------------------------------

    def _sample_gap(self) -> int:
        weights = self.profile.gap_weights
        total = sum(weights.values())
        roll = self.rng.random() * total
        acc = 0.0
        for gap, weight in sorted(weights.items()):
            acc += weight
            if roll <= acc:
                return gap
        return max(weights)

    def _emit_chain_motif(self, out: List[Instruction],
                          fn_index: int) -> None:
        """Emit one CritIC-style dependence chain with its fanout consumers.

        Members form a sole-producer path (each reads exactly the previous
        member's destination); *critical* members additionally get K
        single-source consumers emitted between this member and the next,
        which both creates the fanout and spreads the chain out in the
        dynamic stream (paper Fig 5a's "spread").
        """
        rng = self.rng
        prof = self.profile
        length = rng.randint(*prof.chain_length)
        hostile = rng.random() < prof.chain_hostile_frac
        hostile_pos = rng.randrange(1, max(2, length)) if hostile else -1

        # Choose which members are critical by walking the gap distribution.
        criticals = {0}
        pos = 0
        while pos < length - 1:
            pos += self._sample_gap() + 1
            if pos < length:
                criticals.add(pos)

        prev_reg: Optional[int] = None
        for j in range(length):
            dest = CHAIN_REGS[j % len(CHAIN_REGS)]
            imm = rng.randrange(1, 200)
            if j == hostile_pos:
                if rng.random() < 0.5:
                    dest = HOSTILE_CHAIN_REG
                else:
                    imm = HOSTILE_IMM
            # Pool recycling: unpaid fanout on the register we are about
            # to rewrite is forgiven (see _forgive_debt).
            self._forgive_debt(dest)
            if j == 0:
                if rng.random() < prof.chain_load_head_frac:
                    instr = self._emit(
                        out, opcode=Opcode.LDR, dests=(dest,),
                        srcs=BASE_REGS,
                    )
                    self.memory.set_pattern(
                        instr.uid, self._chase_pattern(instr.uid)
                    )
                else:
                    self._emit(out, opcode=Opcode.ADD, dests=(dest,),
                               srcs=BASE_REGS)
            else:
                assert prev_reg is not None
                if rng.random() < prof.chain_load_frac:
                    instr = self._emit(
                        out, opcode=Opcode.LDR, dests=(dest,),
                        srcs=(prev_reg,), imm=min(imm, 124) & ~0x3,
                    )
                    self.memory.set_pattern(
                        instr.uid, self._chase_pattern(instr.uid)
                    )
                else:
                    op = rng.choice(_CHAIN_OPS)
                    self._emit(out, opcode=op, dests=(dest,),
                               srcs=(prev_reg,), imm=imm)
            prev_reg = dest

            if j in criticals:
                # Record the fanout this member must accumulate; background
                # instructions (fillers, stores, loads) between here and the
                # register's next reuse will source it (see _pay_debt).
                target = rng.randint(*prof.fanout_high)
                self._fanout_debt.append((dest, target - 1))
            for _ in range(rng.randint(*prof.chain_spacing)):
                self._emit_filler(out, fn_index)

    # -- SPEC motifs ----------------------------------------------------------

    def _emit_recurrence_members(self, out: List[Instruction],
                                 count: int) -> None:
        """Emit ``count`` members of the function-wide recurrence chains.

        SPEC profiles thread accumulators (R0..R2) through every body block
        and across loop iterations, giving the very long, low-fanout ICs of
        Fig 5a.
        """
        rng = self.rng
        for _ in range(count):
            reg = CHAIN_REGS[rng.randrange(3)]
            op = rng.choice((Opcode.ADD, Opcode.EOR, Opcode.SUB))
            self._emit(out, opcode=op, dests=(reg,), srcs=(reg,),
                       imm=rng.randrange(1, 200))

    def _emit_indep_critical(self, out: List[Instruction],
                             fn_index: int) -> None:
        """Emit a SPEC-style high-fanout producer group.

        The head is typically a big-region load.  With probability
        ``indep_chained_frac`` further high-fanout producers chain *directly*
        off it (gap 0) — SPEC's dominant chaining pattern per Fig 1b, which
        single-instruction criticality optimizations still handle because
        every member is individually visible as high-fanout.  Consumers read
        a second register too, so no low-fanout sole-producer path forms.
        """
        rng = self.rng
        prof = self.profile
        f = prof.indep_chained_frac
        members = rng.choices((1, 2, 3),
                              weights=(1.0 - f, f * 0.6, f * 0.4))[0]
        regs = [CHAIN_REGS[3 + (k % 3)] for k in range(members)]
        prev = None
        for k, dest in enumerate(regs):
            if k == 0:
                if rng.random() < 0.7:
                    instr = self._emit(out, opcode=Opcode.LDR,
                                       dests=(dest,), srcs=BASE_REGS)
                    self.memory.set_pattern(
                        instr.uid, self._big_pattern(instr.uid)
                    )
                else:
                    self._emit(out, opcode=Opcode.MUL, dests=(dest,),
                               srcs=(FILLER_REGS[0], FILLER_REGS[1]))
            else:
                self._emit(out, opcode=rng.choice((Opcode.LSL, Opcode.ADD)),
                           dests=(dest,), srcs=(prev,),
                           imm=rng.randrange(1, 32))
            fanout = rng.randint(*prof.indep_fanout)
            for _ in range(fanout):
                self._emit(
                    out, opcode=rng.choice((Opcode.ADD, Opcode.EOR)),
                    dests=(self._filler_reg(),),
                    srcs=(dest, self._filler_reg()),
                )
                if rng.random() < 0.2:
                    self._emit_filler(out, fn_index)
            prev = dest

    # -- blocks / functions ----------------------------------------------------

    def _emit_block_body(self, out: List[Instruction],
                         fn_index: int) -> None:
        rng = self.rng
        prof = self.profile
        target = rng.randint(*prof.block_instructions)
        if prof.chain_recurrent:
            # Rebase R6/R7 per block so their fanout stays at ~1 reader per
            # iteration (otherwise the per-call base write accumulates one
            # reader per iteration and pollutes the critical population).
            self._emit(out, opcode=Opcode.MOV, dests=(BASE_REGS[0],),
                       imm=rng.randrange(0, 200))
            self._emit(out, opcode=Opcode.MOV, dests=(BASE_REGS[1],),
                       imm=rng.randrange(0, 200))
            self._emit_recurrence_members(out, rng.randint(2, 4))
        if rng.random() < prof.chain_motif_prob:
            self._emit_chain_motif(out, fn_index)
        if rng.random() < prof.indep_critical_prob:
            self._emit_indep_critical(out, fn_index)
        while len(out) < target:
            self._emit_filler(out, fn_index)
        # Any fanout debt not yet absorbed by background instructions is
        # realized as explicit consumers before the block ends (chain
        # registers are dead across blocks by convention).
        self._flush_debt(out)

    def _end_with_branch(self, out: List[Instruction], opcode: Opcode,
                         cond: Cond, target: int) -> None:
        if cond.is_predicated:
            # Compare the stable base registers (the loop counter of real
            # code): the branch resolves as soon as it issues instead of
            # waiting behind the chain dataflow, keeping mispredict cost
            # at pipeline depth like real cores.
            self._emit(out, opcode=Opcode.CMP, srcs=BASE_REGS)
        self._emit(out, opcode=opcode, cond=cond, target=target)

    def build_function(self, fn_index: int) -> None:
        rng = self.rng
        prof = self.profile
        callee_pool = list(range(fn_index + 1, prof.num_functions))
        n_body = rng.randint(*prof.blocks_per_function)

        entry = self._new_block()
        body = [self._new_block() for _ in range(n_body)]
        ret = self._new_block()
        info = FunctionInfo(
            index=fn_index, entry_block=entry.block_id,
            body_blocks=[b.block_id for b in body],
            ret_block=ret.block_id,
            loop_iters=rng.randint(*prof.loop_iterations),
            callee_iters=rng.randint(1, 2),
        )

        # Entry: set up the per-function base registers + a little filler.
        out: List[Instruction] = []
        self._emit(out, opcode=Opcode.MOV, dests=(BASE_REGS[0],),
                   imm=rng.randrange(0, 200))
        self._emit(out, opcode=Opcode.MOV, dests=(BASE_REGS[1],),
                   imm=rng.randrange(0, 200))
        if prof.chain_recurrent:
            # Re-root the recurrence accumulators on every call: two
            # register sources mean the reset is never a sole-producer link,
            # so recurrence ICs cannot leak across function calls.
            for reg in CHAIN_REGS[:3]:
                self._emit(out, opcode=Opcode.ADD, dests=(reg,),
                           srcs=BASE_REGS)
        for _ in range(rng.randint(2, 5)):
            self._emit_filler(out, fn_index)
        entry.instructions = out

        for pos, block in enumerate(body):
            out = []
            self._emit_block_body(out, fn_index)
            is_last = pos == n_body - 1
            if is_last:
                # Loop-back branch.  Mobile functions loop through the entry
                # block (base registers rewritten per iteration, keeping
                # their fanout low); SPEC functions loop over the body only,
                # so the entry executes once per call and the recurrence
                # accumulators thread across all iterations of one call —
                # but reset between calls, bounding IC spread to one visit.
                loop_target = (body[0].block_id if prof.chain_recurrent
                               else entry.block_id)
                self._end_with_branch(out, Opcode.B, Cond.NE, loop_target)
            elif callee_pool and rng.random() < prof.call_frac:
                callee = rng.choice(callee_pool)
                info.calls[pos] = callee
                # Target patched to the callee's entry block later.
                self._emit(out, opcode=Opcode.BL, dests=(14,), target=callee)
            elif pos + 2 < n_body and rng.random() < prof.skip_branch_frac:
                hard = rng.random() < prof.hard_branch_frac
                info.skips[pos] = hard
                self._end_with_branch(out, Opcode.B, Cond.EQ,
                                      body[pos + 2].block_id)
            block.instructions = out

        ret.instructions = []
        self._emit(ret.instructions, opcode=Opcode.BX, srcs=(14,))
        self.functions.append(info)

    def build(self) -> Tuple[Program, List[FunctionInfo]]:
        for fn_index in range(self.profile.num_functions):
            self.build_function(fn_index)
        # Patch BL targets from callee function index to entry block id.
        for info in self.functions:
            block_ids = info.body_blocks
            for pos, callee in info.calls.items():
                block = self.blocks[block_ids[pos]]
                patched = block.instructions[-1]
                entry = self.functions[callee].entry_block
                block.instructions[-1] = Instruction(
                    opcode=Opcode.BL, dests=(14,), target=entry,
                    uid=patched.uid,
                )
        program = Program(self.blocks, name=self.profile.name)
        return program, self.functions


class _WalkBuilder:
    """Generates the dynamic block walk consistent with the program's CFG."""

    def __init__(self, profile: WorkloadProfile,
                 functions: List[FunctionInfo], rng: random.Random):
        self.profile = profile
        self.functions = functions
        self.rng = rng
        self.walk: List[int] = []
        #: per-skip-branch bias direction for easy (predictable) branches
        self._easy_bias: Dict[Tuple[int, int], bool] = {}

    def _skip_taken(self, fn_index: int, pos: int, hard: bool) -> bool:
        if hard:
            return self.rng.random() < 0.5
        key = (fn_index, pos)
        if key not in self._easy_bias:
            self._easy_bias[key] = self.rng.random() < 0.5
        bias = self._easy_bias[key]
        return bias if self.rng.random() < 0.97 else not bias

    def visit(self, fn_index: int, depth: int, budget: int) -> None:
        if len(self.walk) >= budget:
            return
        info = self.functions[fn_index]
        # Called functions run briefly (one or two loop iterations) — the
        # full iteration count only applies at the top level.  Without this
        # the call tree expands geometrically and the walk never rotates
        # across the app's many functions (killing the i-cache pressure
        # mobile apps exhibit).  Counts are per-function constants so the
        # loop-exit branch pattern is learnable (see FunctionInfo).
        iters = info.loop_iters if depth == 0 else info.callee_iters
        recurrent = self.profile.chain_recurrent
        if recurrent:
            # SPEC-style: the entry block runs once per call; the loop-back
            # branch targets the first body block.
            self.walk.append(info.entry_block)
        for _ in range(iters):
            if len(self.walk) >= budget:
                break
            if not recurrent:
                self.walk.append(info.entry_block)
            pos = 0
            body = info.body_blocks
            while pos < len(body):
                self.walk.append(body[pos])
                if pos in info.calls and depth < self.profile.max_call_depth \
                        and self.rng.random() < 0.7:
                    self.visit(info.calls[pos], depth + 1, budget)
                if pos in info.skips:
                    hard = info.skips[pos]
                    if self._skip_taken(fn_index, pos, hard):
                        pos += 2
                        continue
                pos += 1
        self.walk.append(info.ret_block)

    def build(self) -> List[int]:
        toplevel = [f.index for f in self.functions[:max(
            4, self.profile.num_functions // 4)]]
        budget = self.profile.walk_blocks
        while len(self.walk) < budget:
            fn = self.rng.choice(toplevel)
            self.visit(fn, 0, budget)
        return self.walk


def generate(profile: WorkloadProfile,
             walk_blocks: Optional[int] = None) -> Workload:
    """Generate the full workload for ``profile``.

    Args:
        profile: the workload parameterization.
        walk_blocks: optional override of the dynamic walk length (tests and
            quick benches use smaller values).
    """
    if walk_blocks is not None:
        profile = profile.scaled(walk_blocks / profile.walk_blocks)
    builder = _Builder(profile)
    program, functions = builder.build()
    walk_rng = random.Random(profile.seed ^ 0x5A5A5A)
    walk = _WalkBuilder(profile, functions, walk_rng).build()
    return Workload(
        profile=profile,
        program=program,
        walk=walk,
        memory=builder.memory,
        functions=functions,
    )
