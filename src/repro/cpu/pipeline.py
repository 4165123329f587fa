"""Cycle-level out-of-order superscalar pipeline (the gem5 stand-in).

Models the Table I Google-Tablet core: byte-granular fetch (so 16-bit Thumb
encodings double effective fetch bandwidth), i-cache and branch-prediction
driven supply stalls, a fetch queue whose back-pressure exposes
decode-to-commit congestion, a 128-entry ROB, dependence-driven wake-up,
FU-constrained issue, and in-order commit.

Stage processing order within a cycle is reverse-pipeline (commit,
writeback, issue, dispatch, decode, fetch), giving standard one-cycle
producer-to-consumer forwarding.

The simulator consumes a :class:`~repro.trace.dynamic.Trace` — the actual
executed path — and models *timing* faithfully: branch mispredictions stall
fetch until the branch resolves, i-cache misses stall supply, CDP format
switches cost a decode cycle, and Approach-1 switch branches inject fetch
bubbles.

Performance note: the cycle loop never touches :class:`Instruction` objects.
All per-entry facts it needs (byte size, FU class, base latency, branch
type, memory behaviour) are flattened into parallel arrays once per
``Simulator``, resolved per *static* instruction and broadcast over its
dynamic occurrences.  The loop then runs on plain list/bytearray indexing,
which is what lets the pure-Python model approach the paper's 100x500k
sample methodology at usable speed.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cpu.branch import ReturnAddressStack
from repro.cpu.config import CpuConfig, GOOGLE_TABLET
from repro.cpu.engines import resolve_engine
from repro.cpu.stats import STAGES, FetchStalls, SimStats, StageResidency
from repro.dfg.fanout import HIGH_FANOUT_THRESHOLD
from repro.isa.condition import Cond
from repro.isa.opcodes import InstrKind, Opcode
from repro.memory.hierarchy import MemorySystem
from repro.registry import BRANCH_PREDICTORS, PREFETCHERS, SIMULATORS
from repro.registry.protocols import PrefetcherBase
from repro.telemetry.recorder import (
    FlightRecorder,
    STALL_BACKPRESSURE,
    STALL_BRANCH,
    STALL_ICACHE,
    STALL_SWITCH,
)
from repro.trace.dependence import compute_consumers, compute_producers
from repro.trace.dynamic import Trace

#: FU class per InstrKind (branch and system ride the ALU pool's sidecar).
_FU_OF = {
    InstrKind.ALU: "alu",
    InstrKind.MUL: "mul",
    InstrKind.DIV: "mul",
    InstrKind.LOAD: "mem",
    InstrKind.STORE: "mem",
    InstrKind.BRANCH: "branch",
    InstrKind.FP: "fp",
    InstrKind.SYSTEM: "alu",
}

#: FU pool order used by the flattened per-entry FU-index array.
_FU_NAMES = ("alu", "mul", "fp", "mem", "branch")
_FU_INDEX = {name: i for i, name in enumerate(_FU_NAMES)}

#: Branch-type codes for the flattened per-entry array.
_BR_NONE = 0      # not a branch
_BR_SWITCH = 1    # Approach-1 format-switch branch
_BR_CALL = 2      # BL
_BR_RETURN = 3    # BX
_BR_OTHER = 4     # conditional or direct unconditional B


#: Forward-progress watchdog granularity: the pipeline state is
#: snapshotted every ``_WATCHDOG_PERIOD`` cycles, and two consecutive
#: snapshots with no commits, no fetch advance, and nothing in flight
#: mean the simulation can never finish.  Far above any real stall (the
#: longest modeled latency is a DRAM access, well under 1k cycles).
_WATCHDOG_PERIOD = 8192


class PipelineDeadlockError(RuntimeError):
    """The simulation made no forward progress and can never finish.

    Raised by the no-forward-progress watchdog instead of letting a
    ``run()`` without ``max_cycles`` spin toward ``1 << 62``.  The
    message carries the stuck state (cycle, commit point, buffer
    occupancies) for diagnosis.
    """


def resolve_validator(validator=None, validate: Optional[bool] = None):
    """The validator a run attaches: none when ``validate`` is False, a
    fresh strict :class:`repro.validate.RunValidator` when it is True
    and no ``validator`` is given, else ``validator``, else a strict one
    when ``REPRO_VALIDATE`` is set.  (Imported lazily: validation must
    cost nothing, not even an import, when off.)"""
    if validate is False:
        return None
    if validator is not None:
        return validator
    if validate is not True:
        value = os.environ.get("REPRO_VALIDATE", "").strip().lower()
        if value in ("", "0", "false", "off", "no"):
            return None
    from repro.validate.invariants import RunValidator
    return RunValidator()


def _is_switch_branch(instr) -> bool:
    """Approach-1 format-switch branch: unconditional B to the next PC."""
    return (instr.opcode is Opcode.B and instr.target is None
            and instr.cond is Cond.AL)


def _observes(prefetcher, method: str) -> bool:
    """Whether a prefetcher component overrides one observation point.

    Routing is decided once per simulator from the component's *class*,
    so the cycle loop only ever visits prefetchers that actually listen
    to the event in question.
    """
    impl = getattr(type(prefetcher), method, None)
    return impl is not None and impl is not getattr(PrefetcherBase, method)


def _static_facts(instr) -> tuple:
    """The per-entry facts the cycle loop reads, resolved for one static
    instruction: ``(size, latency, FU index, is_load, is_store, is_cdp,
    branch type, predicted)``; both engines broadcast them over the
    instruction's dynamic occurrences."""
    kind = instr.kind
    br = _BR_NONE
    pred = False
    if kind is InstrKind.BRANCH:
        op = instr.opcode
        if _is_switch_branch(instr):
            br = _BR_SWITCH
        elif op is Opcode.BL:
            br = _BR_CALL
        elif op is Opcode.BX:
            br = _BR_RETURN
        else:
            br = _BR_OTHER
            pred = instr.cond.is_predicated
    return (
        instr.size_bytes, instr.latency, _FU_INDEX[_FU_OF[kind]],
        instr.is_load, instr.is_store,
        instr.opcode is Opcode.CDP, br, pred,
    )


class _TraceTables:
    """Flat per-entry arrays + dependence maps for one trace.

    Everything here is a pure function of the trace contents, so instances
    are memoized per-``Trace`` (weakly) and shared across every
    :class:`Simulator` built over the same trace — e.g. the Fig 11 hardware
    sweep simulates one trace on seven configurations and pays for this
    analysis once.  All fields are read-only to the simulator.
    """

    __slots__ = (
        "producers", "consumers", "default_critical",
        "sizes", "lats", "fus", "isld", "isst", "iscdp",
        "brt", "brpred", "pcs", "mems", "takens",
    )

    def __init__(self, trace: Trace):
        self.producers = compute_producers(trace)
        self.consumers = compute_consumers(self.producers)
        self.default_critical = frozenset(
            i for i, c in enumerate(self.consumers)
            if len(c) >= HIGH_FANOUT_THRESHOLD
        )

        entries = trace.entries
        n = len(entries)
        sizes = [0] * n
        lats = [0] * n
        fus = bytearray(n)
        isld = bytearray(n)
        isst = bytearray(n)
        iscdp = bytearray(n)
        brt = bytearray(n)
        brpred = bytearray(n)
        pcs = [0] * n
        mems: List[Optional[int]] = [None] * n
        takens = bytearray(n)

        # Static facts are resolved once per distinct instruction object
        # and broadcast over its dynamic occurrences.
        static_info: Dict[int, tuple] = {}
        info_get = static_info.get
        for pos, entry in enumerate(entries):
            instr = entry.instr
            info = info_get(id(instr))
            if info is None:
                info = _static_facts(instr)
                static_info[id(instr)] = info
            sizes[pos] = info[0]
            lats[pos] = info[1]
            fus[pos] = info[2]
            isld[pos] = info[3]
            isst[pos] = info[4]
            iscdp[pos] = info[5]
            brt[pos] = info[6]
            brpred[pos] = info[7]
            pcs[pos] = entry.pc
            mems[pos] = entry.mem_addr
            takens[pos] = bool(entry.taken)

        self.sizes = sizes
        self.lats = lats
        self.fus = fus
        self.isld = isld
        self.isst = isst
        self.iscdp = iscdp
        self.brt = brt
        self.brpred = brpred
        self.pcs = pcs
        self.mems = mems
        self.takens = takens


_trace_tables: "weakref.WeakKeyDictionary[Trace, _TraceTables]" = \
    weakref.WeakKeyDictionary()


def _tables_for(trace: Trace) -> _TraceTables:
    """Memoized :class:`_TraceTables` for ``trace``."""
    tables = _trace_tables.get(trace)
    if tables is None:
        tables = _TraceTables(trace)
        _trace_tables[trace] = tables
    return tables


class Simulator:
    """One run of one trace on one CPU configuration."""

    __slots__ = (
        "trace", "config", "memory", "entries", "n",
        "producers", "consumers", "critical", "chain",
        "bpu", "ras", "prefetchers", "stats", "recorder", "validator",
        "_t", "_crit", "_chainb",
        "_load_pfs", "_call_pfs", "_fetch_pfs",
    )

    def __init__(
        self,
        trace: Trace,
        config: CpuConfig = GOOGLE_TABLET,
        memory: Optional[MemorySystem] = None,
        critical_positions: Optional[Set[int]] = None,
        chain_positions: Optional[Set[int]] = None,
        warm: bool = True,
        recorder: Optional[FlightRecorder] = None,
        validator=None,
        validate: Optional[bool] = None,
    ):
        """
        Args:
            trace: the dynamic stream to execute.
            config: hardware configuration.
            memory: optionally share/warm a memory system; a fresh one is
                built from ``config.memory`` when omitted.
            critical_positions: positions counted as "critical" for scoped
                stats and criticality-driven baselines; computed from
                direct fanout (threshold 8) when omitted.
            chain_positions: positions that are CritIC members (scoped
                residency stats for Fig 10b analyses).
            recorder: pipeline flight recorder to feed with per-instruction
                stage timings and fetch-stall causes; defaults to a
                file-backed one when ``REPRO_FLIGHT_RECORDER`` is set.
                Purely observational — stats are identical with or
                without it.
            validator: a :class:`repro.validate.RunValidator` to check
                the finished run's invariants; like the recorder it is
                purely observational (stats are bit-identical with it on
                or off), but a strict validator raises
                :class:`repro.validate.InvariantViolationError` on any
                violation.
            validate: force validation on (``True``: a fresh strict
                validator) or off (``False``), overriding both the
                ``validator`` default and the ``REPRO_VALIDATE``
                environment switch; ``None`` defers to them.
        """
        self.trace = trace
        self.config = config
        self.memory = memory or MemorySystem(config.memory)
        if warm:
            self.memory.warm(trace)
        self.entries = trace.entries
        self.n = len(self.entries)

        tables = _tables_for(trace)
        self._t = tables
        self.producers = tables.producers
        self.consumers = tables.consumers
        if critical_positions is None:
            critical_positions = set(tables.default_critical)
        self.critical = critical_positions
        self.chain = chain_positions or set()

        n = self.n
        crit = bytearray(n)
        for pos in self.critical:
            if 0 <= pos < n:
                crit[pos] = 1
        self._crit = crit
        chainb = bytearray(n)
        for pos in self.chain:
            if 0 <= pos < n:
                chainb[pos] = 1
        self._chainb = chainb

        self.bpu = BRANCH_PREDICTORS.create(config.branch_predictor, config)
        self.ras = ReturnAddressStack(perfect=config.perfect_branch)
        # Compose the prefetcher set from the registry and route each
        # component to the observation points its class implements —
        # decided here, once, so the cycle loop never probes capabilities.
        self.prefetchers = tuple(
            PREFETCHERS.create(name, config)
            for name in config.active_prefetchers()
        )
        self._load_pfs = tuple(
            p for p in self.prefetchers if _observes(p, "observe_load"))
        self._call_pfs = tuple(
            p for p in self.prefetchers if _observes(p, "observe_call"))
        self._fetch_pfs = tuple(
            p for p in self.prefetchers if _observes(p, "observe_fetch"))
        self.recorder = recorder if recorder is not None \
            else FlightRecorder.from_env()
        self.validator = resolve_validator(validator, validate)

        self.stats = SimStats(name=config.name)

    # -- main loop --------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        """Simulate to completion (or ``max_cycles``) and return stats."""
        n = self.n
        config = self.config
        mem = self.memory
        producers = self.producers
        consumers = self.consumers

        tables = self._t
        sizes = tables.sizes
        lats = tables.lats
        fus = tables.fus
        isld = tables.isld
        isst = tables.isst
        iscdp = tables.iscdp
        pcs = tables.pcs
        mems = tables.mems
        crit = self._crit
        chainb = self._chainb
        have_chain = bool(self.chain)

        mem_load = mem.load
        mem_store = mem.store
        load_pfs = self._load_pfs

        # timestamps (-1 = not yet)
        head_c = [-1] * n
        fetch_c = [-1] * n
        decode_c = [-1] * n
        dispatch_c = [-1] * n
        issue_c = [-1] * n
        complete_c = [-1] * n

        completed = bytearray(n)
        dispatched = bytearray(n)
        remaining = [0] * n

        # Flight-recorder/validator scratch: the commit column is only
        # allocated when an observer needs it, so the common path pays one
        # `is not None` test per commit/stall; neither observer ever feeds
        # back into timing.
        recorder = self.recorder
        validator = self.validator
        commit_c = [-1] * n \
            if recorder is not None or validator is not None else None
        stall_log: Optional[List[Tuple[int, int]]] = \
            [] if recorder is not None else None

        fetch_buffer: List[int] = []
        decode_buffer: List[int] = []
        rob: List[int] = []
        rob_head = 0
        ready: List[int] = []
        ready_critical: List[int] = []
        completing: Dict[int, List[int]] = {}
        completing_pop = completing.pop
        completing_get = completing.get
        sched_window = config.scheduling_window
        pending: List[int] = []
        pending_head = 0

        fetch_pos = 0
        unissued = 0
        icache_ready = 0
        fetch_resume = 0
        redirect_pos = -1
        last_line = -1
        line_bytes = mem.config.line_bytes

        decode_cap = config.decode_buffer_entries
        fq_cap = config.fetch_queue_entries
        backend_prio = config.backend_priority
        commit_width = config.commit_width
        rename_width = config.rename_width
        issue_width = config.issue_width
        rob_entries = config.rob_entries
        iq_entries = config.issue_queue_entries
        decode_width_bytes = config.decode_width * 4
        cdp_extra_bytes = 4 * config.cdp_decode_penalty
        redirect_penalty = config.redirect_penalty
        fu = config.fu
        fu_base = [fu.alu, fu.mul, fu.fp, fu.mem, fu.branch]

        def exec_latency(pos: int) -> int:
            """Execute latency including the memory system for loads/stores."""
            latency = lats[pos]
            if isld[pos]:
                addr = mems[pos]
                if addr is not None:
                    mlat = mem_load(addr)
                    if mlat > latency:
                        latency = mlat
                    if load_pfs:
                        critical = bool(crit[pos])
                        for pf in load_pfs:
                            for a in pf.observe_load(
                                    pcs[pos], addr, critical):
                                mem.prefetch_data(a)
            elif isst[pos]:
                addr = mems[pos]
                if addr is not None:
                    mlat = mem_store(addr)
                    if mlat > latency:
                        latency = mlat
            return latency if latency > 1 else 1

        stats = self.stats
        # Fetch-stall and occupancy counters accumulate in locals and flush
        # into the stats dataclasses once, after the loop.
        f_active = 0
        f_icache = 0
        f_branch = 0
        f_switch = 0
        f_bp = 0
        f_drained = 0
        fc_active = 0
        fc_icache = 0
        fc_branch = 0
        fc_switch = 0
        fc_bp = 0
        iq_occ_sum = 0
        iq_full = 0
        rob_occ_sum = 0
        cdp_decoded = 0
        # Per-stage residency accumulators (all / critical / chain classes).
        res_all = [0] * 6
        res_all_n = 0
        res_crit = [0] * 6
        res_crit_n = 0
        res_chain = [0] * 6
        res_chain_n = 0

        committed = 0
        now = 0
        limit = max_cycles if max_cycles is not None else 1 << 62
        # No-forward-progress watchdog state (see PipelineDeadlockError).
        wd_mask = _WATCHDOG_PERIOD - 1
        wd_committed = -1
        wd_fetch_pos = -1

        while committed < n and now < limit:
            # ---- commit ----
            width = commit_width
            while width and rob_head < len(rob):
                pos = rob[rob_head]
                if not completed[pos]:
                    break
                # Per-stage residency accounting, inlined and unrolled for
                # the common (non-critical, non-chain) case.
                iss = issue_c[pos]
                cmp_c = complete_c[pos]
                dsp = dispatch_c[pos]
                dec = decode_c[pos]
                issue_wait = iss - dsp
                res_all_n += 1
                v = dec - head_c[pos]
                if v > 0:
                    res_all[0] += v
                v = dsp - dec
                if v > 0:
                    res_all[1] += v
                if issue_wait > 0:
                    res_all[2] += 1
                    if issue_wait > 1:
                        res_all[3] += issue_wait - 1
                v = cmp_c - iss
                if v > 0:
                    res_all[4] += v
                v = now - cmp_c
                if v > 0:
                    res_all[5] += v
                if crit[pos] or (have_chain and chainb[pos]):
                    vals = (
                        dec - head_c[pos],
                        dsp - dec,
                        1 if issue_wait > 0 else 0,
                        issue_wait - 1,
                        cmp_c - iss,
                        now - cmp_c,
                    )
                    if crit[pos]:
                        res_crit_n += 1
                        for k in range(6):
                            v = vals[k]
                            if v > 0:
                                res_crit[k] += v
                    if have_chain and chainb[pos]:
                        res_chain_n += 1
                        for k in range(6):
                            v = vals[k]
                            if v > 0:
                                res_chain[k] += v
                if commit_c is not None:
                    commit_c[pos] = now
                rob_head += 1
                committed += 1
                width -= 1
            if rob_head > 4096:
                del rob[:rob_head]
                rob_head = 0

            # ---- writeback / wake-up ----
            done = completing_pop(now, None)
            if done is not None:
                for pos in done:
                    completed[pos] = 1
                    complete_c[pos] = now
                    for consumer in consumers[pos]:
                        if dispatched[consumer] and not completed[consumer]:
                            rem = remaining[consumer] - 1
                            remaining[consumer] = rem
                            if rem == 0 and not sched_window:
                                if backend_prio and crit[consumer]:
                                    ready_critical.append(consumer)
                                else:
                                    ready.append(consumer)

            # ---- issue ----
            if sched_window:
                # Restricted scheduler: out-of-order issue only among the
                # oldest `sched_window` unissued instructions.
                while pending_head < len(pending) \
                        and issue_c[pending[pending_head]] >= 0:
                    pending_head += 1
                if pending_head > 2048:
                    del pending[:pending_head]
                    pending_head = 0
                slots = issue_width
                caps = fu_base[:]
                window: List[int] = []
                idx = pending_head
                pending_len = len(pending)
                while idx < pending_len and len(window) < sched_window:
                    pos = pending[idx]
                    if issue_c[pos] < 0:
                        window.append(pos)
                    idx += 1
                if backend_prio:
                    window.sort(key=lambda p: not crit[p])
                for pos in window:
                    if slots == 0:
                        break
                    if remaining[pos] != 0:
                        continue
                    fu_i = fus[pos]
                    if caps[fu_i] <= 0:
                        continue
                    caps[fu_i] -= 1
                    slots -= 1
                    unissued -= 1
                    issue_c[pos] = now
                    t = now + exec_latency(pos)
                    lst = completing_get(t)
                    if lst is None:
                        completing[t] = [pos]
                    else:
                        lst.append(pos)
            elif ready or ready_critical:
                slots = issue_width
                caps = fu_base[:]
                queues = ((ready_critical, ready) if backend_prio
                          else (ready,))
                for queue in queues:
                    if not queue:
                        continue
                    leftovers: List[int] = []
                    for pos in queue:
                        if slots == 0:
                            leftovers.append(pos)
                            continue
                        fu_i = fus[pos]
                        if caps[fu_i] <= 0:
                            leftovers.append(pos)
                            continue
                        caps[fu_i] -= 1
                        slots -= 1
                        unissued -= 1
                        issue_c[pos] = now
                        t = now + exec_latency(pos)
                        lst = completing_get(t)
                        if lst is None:
                            completing[t] = [pos]
                        else:
                            lst.append(pos)
                    queue[:] = leftovers

            # ---- dispatch / rename ----
            width = rename_width
            while width and decode_buffer and len(rob) - rob_head \
                    < rob_entries \
                    and unissued < iq_entries:
                pos = decode_buffer.pop(0)
                unissued += 1
                dispatch_c[pos] = now
                dispatched[pos] = 1
                rem = 0
                for producer in producers[pos]:
                    if not completed[producer]:
                        rem += 1
                remaining[pos] = rem
                rob.append(pos)
                if sched_window:
                    pending.append(pos)
                elif rem == 0:
                    if backend_prio and crit[pos]:
                        ready_critical.append(pos)
                    else:
                        ready.append(pos)
                width -= 1

            # ---- decode ----
            # The decoder processes fetch words: decode_width 32-bit parcels
            # per cycle, i.e. up to 2x as many Thumb16 instructions — the
            # decoder-side half of the "nearly doubled fetch bandwidth".
            decode_bytes = decode_width_bytes
            while decode_bytes > 0 and fetch_buffer \
                    and len(decode_buffer) < decode_cap:
                pos = fetch_buffer[0]
                size = sizes[pos]
                if size > decode_bytes:
                    break
                if iscdp[pos]:
                    fetch_buffer.pop(0)
                    decode_c[pos] = now
                    # The CDP is consumed at decode (mode switch); the
                    # paper's conservative +1 decode-cycle cost is modeled
                    # as a full extra parcel of decoder occupancy.
                    cdp_decoded += 1
                    completed[pos] = 1  # never dispatched; commit skips it
                    complete_c[pos] = now
                    dispatch_c[pos] = now
                    issue_c[pos] = now
                    rob.append(pos)
                    dispatched[pos] = 1
                    decode_bytes -= size + cdp_extra_bytes
                    continue
                fetch_buffer.pop(0)
                decode_c[pos] = now
                decode_buffer.append(pos)
                decode_bytes -= size

            # ---- fetch ----
            if fetch_pos < n:
                if head_c[fetch_pos] < 0:
                    head_c[fetch_pos] = now
                is_crit_head = crit[fetch_pos]
                if redirect_pos >= 0:
                    done_c = complete_c[redirect_pos]
                    if done_c >= 0 and done_c + redirect_penalty <= now:
                        redirect_pos = -1
                if redirect_pos >= 0:
                    f_branch += 1
                    if is_crit_head:
                        fc_branch += 1
                    if stall_log is not None:
                        stall_log.append((now, STALL_BRANCH))
                elif now < fetch_resume:
                    f_switch += 1
                    if is_crit_head:
                        fc_switch += 1
                    if stall_log is not None:
                        stall_log.append((now, STALL_SWITCH))
                elif now < icache_ready:
                    f_icache += 1
                    if is_crit_head:
                        fc_icache += 1
                    if stall_log is not None:
                        stall_log.append((now, STALL_ICACHE))
                elif len(fetch_buffer) >= fq_cap:
                    f_bp += 1
                    if is_crit_head:
                        fc_bp += 1
                    if stall_log is not None:
                        stall_log.append((now, STALL_BACKPRESSURE))
                else:
                    fetched, fetch_pos, last_line, icache_ready, \
                        fetch_resume, redirect_pos = self._fetch_group(
                            now, fetch_pos, last_line, fetch_buffer,
                            fq_cap, fetch_c, head_c, line_bytes,
                        )
                    if fetched:
                        f_active += 1
                        if is_crit_head:
                            fc_active += 1
                    else:
                        f_icache += 1
                        if is_crit_head:
                            fc_icache += 1
                        if stall_log is not None:
                            stall_log.append((now, STALL_ICACHE))
            else:
                f_drained += 1

            iq_occ_sum += unissued
            if unissued >= iq_entries:
                iq_full += 1
            rob_occ_sum += len(rob) - rob_head

            # Watchdog: with nothing in flight and neither the commit
            # point nor the fetch point moving for a whole period, no
            # future cycle can differ from this one — fail loudly instead
            # of spinning toward the cycle limit.
            if now & wd_mask == wd_mask:
                if committed == wd_committed and fetch_pos == wd_fetch_pos \
                        and not completing:
                    raise PipelineDeadlockError(
                        f"no forward progress in {_WATCHDOG_PERIOD} "
                        f"cycles at cycle {now}: committed {committed}/"
                        f"{n}, fetch_pos={fetch_pos}, "
                        f"rob={len(rob) - rob_head}, unissued={unissued}, "
                        f"fetch_buffer={len(fetch_buffer)}, "
                        f"decode_buffer={len(decode_buffer)}, "
                        f"redirect_pos={redirect_pos} "
                        f"(trace {self.trace.name!r} on {config.name!r})"
                    )
                wd_committed = committed
                wd_fetch_pos = fetch_pos
            now += 1

        stats.cycles = now
        stats.instructions = committed
        stats.truncated = committed < n
        stats.cdp_decoded += cdp_decoded
        stats.iq_occupancy_sum += iq_occ_sum
        stats.iq_full_cycles += iq_full
        stats.rob_occupancy_sum += rob_occ_sum

        fstall = stats.fetch
        fstall.active += f_active
        fstall.stall_icache += f_icache
        fstall.stall_branch += f_branch
        fstall.stall_switch += f_switch
        fstall.stall_backpressure += f_bp
        fstall.drained += f_drained
        fstall_crit = stats.fetch_critical
        fstall_crit.active += fc_active
        fstall_crit.stall_icache += fc_icache
        fstall_crit.stall_branch += fc_branch
        fstall_crit.stall_switch += fc_switch
        fstall_crit.stall_backpressure += fc_bp

        for bucket, totals, count in (
            (stats.residency_all, res_all, res_all_n),
            (stats.residency_critical, res_crit, res_crit_n),
            (stats.residency_chain, res_chain, res_chain_n),
        ):
            bucket.instructions += count
            for stage, cycles in zip(STAGES, totals):
                if cycles:
                    bucket.totals[stage] += cycles

        self._finalize_memory_stats()

        if recorder is not None:
            recorder.on_run(
                trace_name=self.trace.name,
                config_name=config.name,
                cycles=now,
                instructions=committed,
                pcs=pcs,
                head=head_c,
                fetch=fetch_c,
                decode=decode_c,
                dispatch=dispatch_c,
                issue=issue_c,
                complete=complete_c,
                commit=commit_c,
                stalls=stall_log,
            )
        if validator is not None:
            validator.on_run(
                trace_name=self.trace.name,
                config_name=config.name,
                stats=stats,
                n=n,
                head=head_c,
                fetch=fetch_c,
                decode=decode_c,
                dispatch=dispatch_c,
                issue=issue_c,
                complete=complete_c,
                commit=commit_c,
            )
        return stats

    # -- helpers ---------------------------------------------------------------

    def _fetch_group(
        self, now: int, fetch_pos: int, last_line: int,
        fetch_buffer: List[int], fq_cap: int,
        fetch_c: List[int], head_c: List[int], line_bytes: int,
    ) -> Tuple[bool, int, int, int, int, int]:
        """Fetch up to fetch_bytes_per_cycle of instructions this cycle.

        Returns (fetched_any, new_fetch_pos, last_line, icache_ready,
        fetch_resume, redirect_pos).
        """
        config = self.config
        mem = self.memory
        tables = self._t
        sizes = tables.sizes
        pcs = tables.pcs
        brts = tables.brt
        budget = config.fetch_bytes_per_cycle
        fetched = False
        icache_ready = 0
        fetch_resume = 0
        redirect_pos = -1
        n = self.n
        icache_hit = mem.config.icache_hit
        buffered = len(fetch_buffer)
        fetch_pfs = self._fetch_pfs
        crit = self._crit

        while fetch_pos < n and budget > 0 and buffered < fq_cap:
            size = sizes[fetch_pos]
            if size > budget:
                break
            pc = pcs[fetch_pos]
            line = pc // line_bytes
            if line != last_line:
                latency = mem.ifetch(pc, now)
                last_line = line
                if fetch_pfs:
                    critical = bool(crit[fetch_pos])
                    for pf in fetch_pfs:
                        for ln in pf.observe_fetch(line, critical):
                            mem.prefetch_instruction_line(ln)
                if latency > icache_hit:
                    icache_ready = now + latency
                    break
            budget -= size
            fetch_buffer.append(fetch_pos)
            buffered += 1
            fetch_c[fetch_pos] = now
            if head_c[fetch_pos] < 0:
                head_c[fetch_pos] = now
            fetched = True
            pos = fetch_pos
            fetch_pos += 1

            if brts[pos]:
                stop, redirect_pos, fetch_resume = self._handle_branch(
                    pos, now, line_bytes
                )
                if stop:
                    break
        return (fetched, fetch_pos, last_line, icache_ready,
                fetch_resume, redirect_pos)

    def _handle_branch(self, pos: int, now: int,
                       line_bytes: int) -> Tuple[bool, int, int]:
        """Branch bookkeeping at fetch; returns (stop_group, redirect_pos,
        fetch_resume)."""
        tables = self._t
        brt = tables.brt[pos]
        if brt == _BR_SWITCH:
            # Approach-1 format switch: no misprediction, but the decoder
            # flushes its prefetched bytes around the mode change.
            return True, -1, now + 1 + self.config.switch_branch_bubble

        if brt == _BR_CALL:
            if pos + 1 < self.n:
                self.ras.push(tables.pcs[pos] + tables.sizes[pos])
                if self._call_pfs:
                    target_line = tables.pcs[pos + 1] // line_bytes
                    for pf in self._call_pfs:
                        for line in pf.observe_call(target_line):
                            self.memory.prefetch_instruction_line(line)
            return True, -1, 0  # unconditional taken: group ends

        if brt == _BR_RETURN:
            correct = self.ras.predict_return()
            if not correct:
                self.stats.branch_mispredicts += 1
                return True, pos, 0
            return True, -1, 0

        # conditional (or direct unconditional) B
        taken = bool(tables.takens[pos])
        if tables.brpred[pos]:
            correct = self.bpu.predict_conditional(tables.pcs[pos], taken)
            if not correct:
                self.stats.branch_mispredicts += 1
                return True, pos, 0
            return taken, -1, 0
        return taken, -1, 0

    def _finalize_memory_stats(self) -> None:
        stats = self.stats
        mem = self.memory
        stats.icache_accesses = mem.icache.stats.accesses
        stats.icache_misses = mem.icache.stats.misses
        stats.dcache_accesses = mem.dcache.stats.accesses
        stats.dcache_misses = mem.dcache.stats.misses
        stats.l2_accesses = mem.l2.stats.accesses
        stats.l2_misses = mem.l2.stats.misses
        stats.dram_reads = mem.dram.reads
        stats.branch_mispredicts += self.bpu.stats.cond_mispredicts
        # Per-prefetcher counts stay distinct (they used to race for one
        # field: the last observe() won when CLPT and EFetch were both
        # enabled); the combined counter is their sum.  The historical
        # components keep their dedicated SimStats fields; every other
        # registered prefetcher reports under ``component_counters``.
        total = 0
        for pf in self.prefetchers:
            total += pf.issued
            if pf.name == "clpt":
                stats.clpt_prefetches_issued = pf.issued
            elif pf.name == "efetch":
                stats.efetch_prefetches_issued = pf.issued
            else:
                stats.component_counters[f"prefetch.{pf.name}"] = pf.issued
        stats.prefetches_issued = total


def simulate(
    trace: Trace,
    config: CpuConfig = GOOGLE_TABLET,
    critical_positions: Optional[Set[int]] = None,
    chain_positions: Optional[Set[int]] = None,
    max_cycles: Optional[int] = None,
    warm: bool = True,
    recorder: Optional[FlightRecorder] = None,
    validator=None,
    validate: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimStats:
    """Convenience wrapper: build a Simulator and run it.

    ``validate=True`` attaches a strict invariant checker to this run
    (``False`` forces it off; ``None`` defers to an explicit
    ``validator`` or the ``REPRO_VALIDATE`` environment switch).  See
    :mod:`repro.validate`.

    ``engine`` selects the simulation engine from the
    :data:`repro.registry.SIMULATORS` registry (``None`` means
    ``batch``, which runs the cell on the C kernel or, when it cannot,
    on this module's :class:`Simulator`; pass ``engine="inline"`` to run
    the Python loop itself).  Engines are bit-identical; see
    :mod:`repro.cpu.engines`.
    """
    resolved = resolve_engine(engine)
    if resolved != "inline":
        return SIMULATORS.create(resolved)(
            trace, config,
            critical_positions=critical_positions,
            chain_positions=chain_positions,
            max_cycles=max_cycles,
            warm=warm,
            recorder=recorder,
            validator=validator,
            validate=validate,
        )
    sim = Simulator(
        trace, config,
        critical_positions=critical_positions,
        chain_positions=chain_positions,
        warm=warm,
        recorder=recorder,
        validator=validator,
        validate=validate,
    )
    return sim.run(max_cycles=max_cycles)
