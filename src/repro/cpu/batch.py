"""Batched lockstep simulation engine (the registry's ``batch`` engine).

The paper's grids (Figs 11-13) simulate the *same* sampled trace under
many hardware/scheme cells.  The inline :class:`repro.cpu.pipeline.
Simulator` pays per-cycle Python dispatch for every cell independently;
this engine removes that cost by splitting a cell into

1. **profiles** — everything the cycle loop obtains from the stateful
   branch/memory components, precomputed by replaying those components
   once in trace order (their state evolution is position-ordered, not
   timing-ordered, so the replay is exact — see below), and
2. a **cycle kernel** (:mod:`repro.cpu._batchkernel`) — pure integer
   stepping over the profiles, compiled from C at first use.  Its
   reference is the inline simulator.

Cells sharing a trace then advance together in lockstep rounds of a few
thousand cycles each, and profiles are weakly memoized per trace so a
seven-config hardware sweep replays the branch predictor and memory
system once per distinct configuration class, not once per cell.

Why the replay is exact
-----------------------

* Branch state (gshare + RAS) advances only when a branch is *consumed*
  at fetch, and fetch consumes trace positions strictly in order — so
  prediction outcomes are a pure function of position.
* I-side cache state advances only at i-line transitions of the fetch
  stream (again position-ordered).  The one timing-dependent quantity —
  the residual latency of an in-flight next-line prefetch — is resolved
  at run time from the *event times* the kernel records.
* The d-cache is private to the cell and is modeled dynamically inside
  the kernel (runtime-ordered LRU, same mechanics as
  :class:`repro.memory.replacement.LruPolicy`).
* The shared L2 is the only coupling between the i-side replay and the
  d-side runtime, and it never feeds back into the replay: L2 contents
  change latency only.  An L2 set that receives no more distinct lines
  (warm fills, i-side operations, d-side addresses) than its
  associativity never evicts, so every access to it hits, in any order.
  The remaining, *over-subscribed* sets are simulated inside the kernel
  from their exact post-warm LRU images, in runtime order (d-side
  accesses at issue, then i-side ones at fetch, as inline), together
  with the DRAM open-row table their misses read.

Fallbacks are per-cell and lossless: a cell the engine cannot vectorize
(a load-observing prefetcher such as ``clpt``, a truncated
``max_cycles`` run, a cold-start run, an attached flight recorder, a
kernel deadlock or ring overflow, or a host where the C kernel cannot
be compiled) runs on the inline simulator with identical
arguments.  Either way the returned ``SimStats`` are bit-identical to
the inline engine — the golden-stats suite (run under both engines) and
the identity matrix (``tests/test_identity_matrix.py``) enforce this.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import astuple
from collections import Counter
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.cpu import _batchkernel as bk
from repro.cpu.branch import ReturnAddressStack, TwoLevelPredictor
from repro.cpu.config import CpuConfig, GOOGLE_TABLET
from repro.cpu.pipeline import (
    _BR_CALL,
    _BR_RETURN,
    _BR_SWITCH,
    Simulator,
    _observes,
    _tables_for,
    _validator_from_env,
)
from repro.cpu.stats import STAGES, SimStats
from repro.memory.prefetch import (
    CriticalNextLinePrefetcher,
    EFetchPrefetcher,
)
from repro.memory.replacement import LruPolicy, TrripPolicy
from repro.registry import BRANCH_PREDICTORS, ICACHE_POLICIES, PREFETCHERS
from repro.trace.dynamic import Trace

#: Lockstep horizon: every active cell advances to ``round * _ROUND`` and
#: yields, so a batch interleaves at a few-thousand-cycle grain.
_ROUND_CYCLES = 4096


def _require_numpy():
    """numpy, or a loud error naming this engine (satellite contract:
    ``inline`` must stay importable and usable without numpy)."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy is a runtime dep
        raise ImportError(
            "the 'batch' simulation engine requires numpy (a runtime "
            "dependency of repro since the batch engine landed); install "
            "numpy or select the inline engine (--engine inline, or "
            "engine='inline' in simulate, run_apps or a SweepSpec)"
        ) from exc
    return numpy


# -- profiles ------------------------------------------------------------------


class _BranchProfile:
    """Per-position fetch actions + total mispredicts for one predictor
    configuration over one trace."""

    __slots__ = ("bact", "mispredicts")


class _MemoryProfile:
    """I-side event stream, warmed d-cache image, and the over-subscribed
    L2 sets' model for one memory configuration over one trace."""

    __slots__ = (
        "iev", "ev_kind", "ev_lat", "ev_creator", "n_events",
        "icache_accesses", "icache_misses", "l2_accesses",
        "dc_snapshot", "l2_snapshot", "dram", "d_l2",
        "iop_pos", "iop_call", "acc_slot", "acc_tag", "acc_row",
        "prefetch_issued",
    )


#: trace -> {profile key: profile} (weak, like the trace tables)
_profiles: "weakref.WeakKeyDictionary[Trace, Dict[Any, Any]]" = \
    weakref.WeakKeyDictionary()

#: trace -> derived numpy arrays (entry tables, CSR dependence maps,
#: packed entry flags, d-cache address splits)
_derived: "weakref.WeakKeyDictionary[Trace, Dict[Any, Any]]" = \
    weakref.WeakKeyDictionary()


def _profile_cache(trace: Trace) -> Dict[Any, Any]:
    cache = _profiles.get(trace)
    if cache is None:
        cache = {}
        _profiles[trace] = cache
    return cache


def _derived_cache(trace: Trace) -> Dict[Any, Any]:
    cache = _derived.get(trace)
    if cache is None:
        cache = {}
        _derived[trace] = cache
    return cache


def _build_branch_profile(trace: Trace, tables, config) -> _BranchProfile:
    """Replay the branch unit over the trace's branches, in trace order.

    Mirrors ``Simulator._handle_branch``: the RAS trains at calls, the
    predictor at predicated conditionals, both strictly in fetch-
    consumption order — which is trace order — so outcomes are exact.
    """
    n = len(trace.entries)
    bact = bytearray(n)
    bpu = BRANCH_PREDICTORS.create(config.branch_predictor, config)
    ras = ReturnAddressStack(perfect=config.perfect_branch)
    brt = tables.brt
    brpred = tables.brpred
    pcs = tables.pcs
    sizes = tables.sizes
    takens = tables.takens
    wrong = 0
    for pos in range(n):
        b = brt[pos]
        if not b:
            continue
        if b == _BR_SWITCH:
            bact[pos] = 3
        elif b == _BR_CALL:
            if pos + 1 < n:
                ras.push(pcs[pos] + sizes[pos])
            bact[pos] = 1
        elif b == _BR_RETURN:
            if ras.predict_return():
                bact[pos] = 1
            else:
                wrong += 1
                bact[pos] = 2
        else:
            taken = bool(takens[pos])
            if brpred[pos]:
                if bpu.predict_conditional(pcs[pos], taken):
                    bact[pos] = 1 if taken else 0
                else:
                    wrong += 1
                    bact[pos] = 2
            else:
                bact[pos] = 1 if taken else 0
    profile = _BranchProfile()
    profile.bact = bact
    profile.mispredicts = wrong + bpu.stats.cond_mispredicts
    return profile


def _branch_profile(trace: Trace, tables, config) -> _BranchProfile:
    """Memoized per trace when the predictor is the stock two-level one
    (a custom registered predictor could read arbitrary config fields,
    so it gets a fresh, unmemoized replay per cell)."""
    bpu = BRANCH_PREDICTORS.create(config.branch_predictor, config)
    if type(bpu) is not TwoLevelPredictor:
        return _build_branch_profile(trace, tables, config)
    key = (
        "bp", BRANCH_PREDICTORS.identity(config.branch_predictor),
        config.bpu_entries, config.bpu_history_bits,
        config.perfect_branch,
    )
    cache = _profile_cache(trace)
    profile = cache.get(key)
    if profile is None:
        profile = _build_branch_profile(trace, tables, config)
        cache[key] = profile
    return profile


def _build_memory_profile(np, trace: Trace, tables, config,
                          crit: bytearray) -> _MemoryProfile:
    """Replay warmup + the i-side of the memory system in trace order.

    Produces the fetch-event stream (one event per i-line transition of
    the fetch stream, exactly as ``MemorySystem.ifetch`` would see it),
    the post-warm d-cache image, and the kernel's model of the
    over-subscribed L2 sets: their post-warm LRU images, the i-side L2
    operations that touch them (in position order), and the d-side
    accesses that map to them.

    The i-side replay never consults the L2 (L2 contents change only
    latency), so it runs to the end with the L2 left at its post-warm
    image and merely records every i-side L2 operation: the demand
    lookup of an i-miss with no in-flight prefetch, and each
    ``prefetch_instruction_line`` fill.  A set is over-subscribed when
    it receives more distinct lines (warm fills, recorded i-side
    operations, d-side addresses) than it has ways; every other set
    never evicts, so all its accesses hit.
    """
    from repro.memory.dram import Dram
    from repro.memory.hierarchy import MemorySystem

    mc = config.memory
    ms = MemorySystem(mc)
    ms.warm(trace)
    icache = ms.icache
    l2 = ms.l2
    line_bytes = mc.line_bytes
    num_l2_sets = l2.num_sets
    l2_assoc = l2.assoc

    prefetchers = tuple(
        PREFETCHERS.create(name, config)
        for name in config.active_prefetchers()
    )
    fetch_pfs = tuple(
        p for p in prefetchers if _observes(p, "observe_fetch"))
    call_pfs = tuple(
        p for p in prefetchers if _observes(p, "observe_call"))

    n = len(trace.entries)
    pcs = tables.pcs
    brt = tables.brt
    iev = [-1] * n
    ev_kind = bytearray()
    ev_lat: List[int] = []
    ev_creator: List[int] = []
    #: i-side L2 operations in position order: (pos, at_call, line, addr,
    #: event) — ``event`` is the demand lookup's event index, -1 for fills
    iops: List[Tuple[int, int, int, int, int]] = []
    #: line -> creator event index (mirror of ``_inflight_ilines``, whose
    #: state evolution depends only on membership, never on the stored
    #: ready times — those are reconstructed at run time as
    #: ``ev_time[creator] + l2_hit``)
    inflight: Dict[int, int] = {}
    nlp = mc.next_line_prefetch
    icache_hit = mc.icache_hit
    l2_hit = mc.l2_hit
    probe = icache.probe
    ilookup = icache.lookup
    ifill = icache.fill
    last_line = -1

    for pos in range(n):
        pc = pcs[pos]
        line = pc // line_bytes
        if line != last_line:
            ev = len(ev_lat)
            iev[pos] = ev
            last_line = line
            for k in range(1, nlp + 1):
                target = line + k
                if target not in inflight \
                        and not probe(target * line_bytes):
                    inflight[target] = ev
            if ilookup(pc):
                inflight.pop(line, None)
                ev_kind.append(0)
                ev_lat.append(icache_hit)
                ev_creator.append(0)
            else:
                creator = inflight.pop(line, None)
                if creator is not None:
                    ev_kind.append(1)
                    ev_lat.append(0)
                    ev_creator.append(creator)
                else:
                    iops.append((pos, 0, line, pc, ev))
                    ev_kind.append(0)
                    ev_lat.append(icache_hit + l2_hit)
                    ev_creator.append(0)
            if fetch_pfs:
                critical = bool(crit[pos])
                for pf in fetch_pfs:
                    for ln in pf.observe_fetch(line, critical):
                        ifill(ln * line_bytes)
                        iops.append((pos, 0, ln, 0, -1))
        if call_pfs and brt[pos] == _BR_CALL and pos + 1 < n:
            target_line = pcs[pos + 1] // line_bytes
            for pf in call_pfs:
                for ln in pf.observe_call(target_line):
                    ifill(ln * line_bytes)
                    iops.append((pos, 1, ln, 0, -1))

    # Over-subscribed L2 sets: distinct lines beyond associativity.
    lines = {pc // line_bytes for pc in pcs}
    lines.update(addr // line_bytes for addr in tables.mems
                 if addr is not None)
    lines.update(op[2] for op in iops)
    per_set = Counter(line % num_l2_sets for line in lines)
    hot = sorted(s for s, count in per_set.items() if count > l2_assoc)
    slot_of = {s: k for k, s in enumerate(hot)}

    # The kernel's access table: the i-side operations on those sets
    # first (entry k is operation k), then the d-side accesses to them.
    row_bytes = Dram.ROW_BYTES
    iop_pos: List[int] = []
    iop_call = bytearray()
    i_slot: List[int] = []
    i_tag: List[int] = []
    i_row: List[int] = []
    l2_lookups = 0
    for pos, at_call, line, addr, ev in iops:
        if ev >= 0:
            l2_lookups += 1
        slot = slot_of.get(line % num_l2_sets)
        if slot is None:
            continue
        if ev >= 0:
            ev_kind[ev] = 2
        iop_pos.append(pos)
        iop_call.append(at_call)
        i_slot.append(slot)
        i_tag.append(line // num_l2_sets)
        i_row.append(addr // row_bytes)
    iop_pos.append(-1)  # sentinel: matches no position
    iop_call.append(0)

    derived = _trace_derived(np, trace, tables)
    mem = derived["mem"]
    d_line = mem // line_bytes
    lut = np.full(num_l2_sets, -1, dtype=np.int32)
    lut[hot] = np.arange(len(hot), dtype=np.int32)
    d_slot = np.where(derived["touch"], lut[d_line % num_l2_sets], -1)
    d_pos = np.flatnonzero(d_slot >= 0)
    d_l2 = np.full(n, -1, dtype=np.int32)
    d_l2[d_pos] = len(i_slot) + np.arange(len(d_pos), dtype=np.int32)

    profile = _MemoryProfile()
    profile.iev = np.array(iev, dtype=np.int32)
    profile.ev_kind = ev_kind
    profile.ev_lat = np.array(ev_lat, dtype=np.int32)
    profile.ev_creator = np.array(ev_creator, dtype=np.int32)
    profile.n_events = len(ev_lat)
    profile.icache_accesses = icache.stats.accesses
    profile.icache_misses = icache.stats.misses
    profile.l2_accesses = l2_lookups
    profile.prefetch_issued = tuple(
        (pf.name, pf.issued) for pf in prefetchers)
    profile.dc_snapshot = _lru_image(ms.dcache, range(ms.dcache.num_sets))
    # The replay never touched the L2, so it still holds the exact
    # post-warm image (warm is position-ordered).
    profile.l2_snapshot = _lru_image(l2, hot)
    profile.iop_pos = np.array(iop_pos, dtype=np.int32)
    profile.iop_call = iop_call
    # (one trailing unused entry: the kernel takes a pointer even when
    # no set is over-subscribed)
    profile.acc_slot = np.concatenate((
        np.array(i_slot, dtype=np.int32), d_slot[d_pos].astype(np.int32),
        np.zeros(1, dtype=np.int32)))
    profile.acc_tag = np.concatenate((
        np.array(i_tag, dtype=np.int64), d_line[d_pos] // num_l2_sets,
        np.zeros(1, dtype=np.int64)))
    profile.acc_row = np.concatenate((
        np.array(i_row, dtype=np.int64), mem[d_pos] // row_bytes,
        np.zeros(1, dtype=np.int64)))
    profile.d_l2 = d_l2
    timings = ms.dram.timings
    row_hit = timings.t_overhead + timings.t_cl + timings.t_burst
    profile.dram = (Dram.NUM_RANKS * Dram.BANKS_PER_RANK, row_hit,
                    row_hit + timings.t_rp + timings.t_rcd)
    return profile


def _lru_image(cache, sets) -> Tuple[int, int, List[int], List[int]]:
    """``(num_sets, assoc, occupancy, flat MRU-first tags)`` of the given
    LRU sets of ``cache``, in order."""
    assoc = cache.assoc
    sets = list(sets)
    occ = [len(cache._sets[s]) for s in sets]
    flat = [0] * (len(sets) * assoc)
    for k, s in enumerate(sets):
        base = k * assoc
        for w, tag in enumerate(cache._sets[s]):
            flat[base + w] = tag
    return len(sets), assoc, occ, flat


def _memory_profile(np, trace: Trace, tables, config, crit: bytearray,
                    created) -> _MemoryProfile:
    """Memoized per trace when every composed component is a known
    builtin (custom factories may read arbitrary config fields, so they
    replay fresh per cell — still exact, just unshared)."""
    from repro.memory.replacement import make_policy

    shareable = all(
        type(p) in (EFetchPrefetcher, CriticalNextLinePrefetcher)
        for p in created
    ) and type(make_policy(config.memory.icache_policy)) \
        in (LruPolicy, TrripPolicy)
    if not shareable:
        return _build_memory_profile(np, trace, tables, config, crit)
    key: Tuple[Any, ...] = (
        "mem", astuple(config.memory),
        tuple(PREFETCHERS.identity(name)
              for name in config.active_prefetchers()),
        ICACHE_POLICIES.identity(config.memory.icache_policy),
    )
    if any(_observes(p, "observe_fetch") for p in created):
        # fetch-observing prefetchers see per-position criticality
        key = key + (bytes(crit),)
    cache = _profile_cache(trace)
    profile = cache.get(key)
    if profile is None:
        profile = _build_memory_profile(np, trace, tables, config, crit)
        cache[key] = profile
    return profile


# -- shared-array assembly -----------------------------------------------------


def _csr(np, lists) -> Tuple[Any, Any]:
    """(pointer, index) arrays of a per-position list of lists."""
    n = len(lists)
    ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.fromiter(map(len, lists), dtype=np.int32, count=n),
              out=ptr[1:])
    idx = np.fromiter(chain.from_iterable(lists), dtype=np.int32,
                      count=int(ptr[-1]))
    return ptr, idx


def _trace_derived(np, trace: Trace, tables) -> Dict[str, Any]:
    """Per-trace arrays: the entry tables, CSR dependence maps, packed
    entry flags, memory addresses (-1 for none) with the mask of entries
    whose load/store touches memory, and the max base latency (wheel
    sizing)."""
    cache = _derived_cache(trace)
    rec = cache.get("base")
    if rec is not None:
        return rec
    n = len(trace.entries)
    isld = np.frombuffer(tables.isld, dtype=np.uint8)
    isst = np.frombuffer(tables.isst, dtype=np.uint8)
    iscdp = np.frombuffer(tables.iscdp, dtype=np.uint8)
    mem = np.fromiter((-1 if addr is None else addr
                       for addr in tables.mems), dtype=np.int64, count=n)
    prod_ptr, prod_idx = _csr(np, tables.producers)
    cons_ptr, cons_idx = _csr(np, tables.consumers)
    rec = {
        "sizes": np.array(tables.sizes, dtype=np.int32),
        "lats": np.array(tables.lats, dtype=np.int32),
        "fus": np.frombuffer(tables.fus, dtype=np.uint8),
        "flags": (isld * bk.FLAG_LOAD | isst * bk.FLAG_STORE
                  | iscdp * bk.FLAG_CDP).astype(np.uint8),
        "prod_ptr": prod_ptr,
        "prod_idx": prod_idx,
        "cons_ptr": cons_ptr,
        "cons_idx": cons_idx,
        "mem": mem,
        "touch": ((isld | isst) != 0) & (mem >= 0),
        "max_lat": max(tables.lats) if n else 1,
    }
    cache["base"] = rec
    return rec


def _dcache_map(np, trace: Trace, tables, line_bytes: int,
                dc_sets: int) -> Tuple[Any, Any]:
    """Per-position d-cache (set, tag) split; tag -1 encodes "no memory
    access" (entries whose ``mem_addr`` is None never touch memory)."""
    cache = _derived_cache(trace)
    key = ("dmap", line_bytes, dc_sets)
    rec = cache.get(key)
    if rec is not None:
        return rec
    derived = _trace_derived(np, trace, tables)
    touch = derived["touch"]
    line = derived["mem"] // line_bytes
    rec = (np.where(touch, line % dc_sets, 0).astype(np.int32),
           np.where(touch, line // dc_sets, -1))
    cache[key] = rec
    return rec


def _make_shared(np, trace: Trace, tables, config, bp: _BranchProfile,
                 mp: _MemoryProfile, crit_np) -> bk.SharedArrays:
    """Assemble one cell class's read-only numpy arrays.

    Every n-sized array is built once per trace or per profile, so
    cells of the same class share them.
    """
    derived = _trace_derived(np, trace, tables)
    sh = bk.SharedArrays()
    sh.n = len(trace.entries)
    for name in ("sizes", "lats", "fus", "flags", "prod_ptr", "prod_idx",
                 "cons_ptr", "cons_idx"):
        setattr(sh, name, derived[name])
    sh.bact = np.frombuffer(bp.bact, dtype=np.uint8)
    sh.crit = crit_np
    sh.d_set, sh.d_tag = _dcache_map(np, trace, tables,
                                     config.memory.line_bytes,
                                     mp.dc_snapshot[0])
    sh.ev_kind = np.frombuffer(mp.ev_kind, dtype=np.uint8)
    sh.iop_call = np.frombuffer(mp.iop_call, dtype=np.uint8)
    for name in ("iev", "ev_lat", "ev_creator", "d_l2", "iop_pos",
                 "acc_slot", "acc_tag", "acc_row"):
        setattr(sh, name, getattr(mp, name))
    return sh


# -- stats assembly ------------------------------------------------------------


def _finalize_cell(np, trace: Trace, config, cell: bk.CellState,
                   bp: _BranchProfile, mp: _MemoryProfile,
                   crit_mask, chain_mask, validator) -> SimStats:
    """Assemble one cell's ``SimStats`` from kernel registers + stage
    timestamp matrices — field for field what the inline finalize does."""
    regs = cell.regs
    n = len(trace.entries)

    def g(index: int) -> int:
        return int(regs[index])

    stats = SimStats(name=config.name)
    stats.cycles = g(bk.R_NOW)
    stats.instructions = g(bk.R_COMMITTED)
    stats.truncated = False
    stats.cdp_decoded = g(bk.R_CDP_DECODED)
    stats.iq_occupancy_sum = g(bk.R_IQ_OCC_SUM)
    stats.iq_full_cycles = g(bk.R_IQ_FULL)
    stats.rob_occupancy_sum = g(bk.R_ROB_OCC_SUM)

    fstall = stats.fetch
    fstall.active = g(bk.R_F_ACTIVE)
    fstall.stall_icache = g(bk.R_F_ICACHE)
    fstall.stall_branch = g(bk.R_F_BRANCH)
    fstall.stall_switch = g(bk.R_F_SWITCH)
    fstall.stall_backpressure = g(bk.R_F_BP)
    fstall.drained = g(bk.R_F_DRAINED)
    fcrit = stats.fetch_critical
    fcrit.active = g(bk.R_FC_ACTIVE)
    fcrit.stall_icache = g(bk.R_FC_ICACHE)
    fcrit.stall_branch = g(bk.R_FC_BRANCH)
    fcrit.stall_switch = g(bk.R_FC_SWITCH)
    fcrit.stall_backpressure = g(bk.R_FC_BP)

    head = cell.head_c
    dec = cell.decode_c
    dsp = cell.dispatch_c
    iss = cell.issue_c
    cmp_c = cell.complete_c
    cmt = cell.commit_c
    iw = iss - dsp
    stage_cols = (
        np.maximum(dec - head, 0),
        np.maximum(dsp - dec, 0),
        (iw > 0).astype(np.int64),
        np.maximum(iw - 1, 0),
        np.maximum(cmp_c - iss, 0),
        np.maximum(cmt - cmp_c, 0),
    )
    for bucket, mask in (
        (stats.residency_all, None),
        (stats.residency_critical, crit_mask),
        (stats.residency_chain, chain_mask),
    ):
        if mask is None:
            bucket.instructions = n
            totals = [int(col.sum()) for col in stage_cols]
        elif mask is False:
            continue  # no chain positions: all-zero bucket, like inline
        else:
            bucket.instructions = int(mask.sum())
            totals = [int(col[mask].sum()) for col in stage_cols]
        for stage, cycles in zip(STAGES, totals):
            bucket.totals[stage] = cycles

    stats.icache_accesses = mp.icache_accesses
    stats.icache_misses = mp.icache_misses
    stats.dcache_accesses = g(bk.R_DC_ACC)
    stats.dcache_misses = g(bk.R_DC_MISS)
    stats.l2_accesses = mp.l2_accesses + g(bk.R_L2D_ACC)
    stats.l2_misses = g(bk.R_L2_MISS)
    stats.dram_reads = g(bk.R_DRAM_READS)
    stats.branch_mispredicts = bp.mispredicts
    total = 0
    for name, issued in mp.prefetch_issued:
        total += issued
        if name == "clpt":
            stats.clpt_prefetches_issued = issued
        elif name == "efetch":
            stats.efetch_prefetches_issued = issued
        else:
            stats.component_counters[f"prefetch.{name}"] = issued
    stats.prefetches_issued = total

    if validator is not None:
        validator.on_run(
            trace_name=trace.name,
            config_name=config.name,
            stats=stats,
            n=n,
            head=cell.head_c.tolist(),
            fetch=cell.fetch_c.tolist(),
            decode=cell.decode_c.tolist(),
            dispatch=cell.dispatch_c.tolist(),
            issue=cell.issue_c.tolist(),
            complete=cell.complete_c.tolist(),
            commit=cell.commit_c.tolist(),
        )
    return stats


# -- the engine ----------------------------------------------------------------


class _CellPlan:
    __slots__ = ("index", "config", "reason", "bp", "mp", "shared",
                 "cell", "status")

    def __init__(self, index: int, config) -> None:
        self.index = index
        self.config = config
        self.reason: Optional[str] = None
        self.bp: Optional[_BranchProfile] = None
        self.mp: Optional[_MemoryProfile] = None
        self.shared = None
        self.cell = None
        self.status = 1


#: diagnostics of the most recent ``simulate_batch`` call (tests and the
#: dispatch report read this; purely observational)
_last_report: Optional[Dict[str, Any]] = None


def last_batch_report() -> Optional[Dict[str, Any]]:
    """Diagnostics of the most recent batch: width, fast/fallback split
    (with per-cell reasons), lockstep rounds, and the kernel used."""
    return _last_report


def simulate_batch(
    trace: Trace,
    configs: Sequence[CpuConfig],
    critical_positions: Optional[Set[int]] = None,
    chain_positions: Optional[Set[int]] = None,
    max_cycles: Optional[int] = None,
    warm: bool = True,
    recorder=None,
    validator=None,
    validate: Optional[bool] = None,
) -> List[SimStats]:
    """Simulate one trace under many configurations; returns per-config
    ``SimStats``, bit-identical to running each cell inline.

    Cells the engine cannot vectorize run on the inline simulator with
    identical arguments (see the module docstring for the triggers);
    ``last_batch_report()`` tells which path each cell took.
    """
    global _last_report
    np = _require_numpy()
    configs = list(configs)

    # Resolve the validator exactly once, mirroring Simulator.__init__
    # (fallback cells receive the same resolved instance).
    if validate is False:
        resolved = None
    elif validate is True and validator is None:
        from repro.validate.invariants import RunValidator
        resolved = RunValidator()
    elif validator is not None:
        resolved = validator
    else:
        resolved = _validator_from_env()

    tables = _tables_for(trace)
    n = len(trace.entries)
    crit = bytearray(n)
    crit_source = tables.default_critical \
        if critical_positions is None else critical_positions
    for pos in crit_source:
        if 0 <= pos < n:
            crit[pos] = 1
    chainb = bytearray(n)
    for pos in (chain_positions or ()):
        if 0 <= pos < n:
            chainb[pos] = 1

    if max_cycles is not None:
        global_reason: Optional[str] = "max-cycles"
    elif not warm:
        global_reason = "cold-start"
    elif recorder is not None \
            or os.environ.get("REPRO_FLIGHT_RECORDER", ""):
        global_reason = "flight-recorder"
    else:
        cfn = bk.get_kernel()
        global_reason = "no C kernel" if cfn is None else None

    plans = [_CellPlan(i, config) for i, config in enumerate(configs)]
    for plan in plans:
        if global_reason is not None:
            plan.reason = global_reason
            continue
        created = tuple(
            PREFETCHERS.create(name, plan.config)
            for name in plan.config.active_prefetchers()
        )
        if any(_observes(p, "observe_load") for p in created):
            plan.reason = "load-observing prefetcher"
            continue
        plan.bp = _branch_profile(trace, tables, plan.config)
        plan.mp = _memory_profile(np, trace, tables, plan.config, crit,
                                  created)

    fast = [plan for plan in plans if plan.reason is None]
    kernel_name = "none"
    rounds = 0
    active_cell_rounds = 0
    with telemetry.span("simulate.batch", width=len(plans)) as span:
        if fast:
            kernel_name = "c"
            crit_np = np.frombuffer(bytes(crit), dtype=np.uint8)
            max_lat = _trace_derived(np, trace, tables)["max_lat"]
            shared_cache: Dict[Any, Any] = {}
            for plan in fast:
                skey = (id(plan.bp), id(plan.mp))
                sh = shared_cache.get(skey)
                if sh is None:
                    sh = _make_shared(np, trace, tables, plan.config,
                                      plan.bp, plan.mp, crit_np)
                    shared_cache[skey] = sh
                plan.shared = sh
                mc = plan.config.memory
                # worst d-side path: a load missing the d-cache, the L2
                # and the open DRAM row
                max_latency = max(max_lat,
                                  mc.dcache_hit + mc.l2_hit
                                  + plan.mp.dram[2], 1)
                plan.cell = bk.make_cell(sh, plan.mp, plan.config,
                                         max_latency, np)

            running = list(fast)
            while running:
                rounds += 1
                horizon = rounds * _ROUND_CYCLES
                active_cell_rounds += len(running)
                still = []
                for plan in running:
                    status = bk.advance_cell_c(
                        cfn, plan.shared, plan.cell, horizon)
                    if status == 1:
                        still.append(plan)
                    else:
                        plan.status = status
                        if status == 2:
                            plan.reason = "kernel deadlock"
                        elif status == 3:
                            plan.reason = "kernel ring overflow"
                running = still

        # occupancy: mean fraction of the batch still active per round
        span.attrs.update(
            fast=sum(1 for p in plans if p.reason is None),
            fallbacks=sum(1 for p in plans if p.reason is not None),
            rounds=rounds,
            kernel=kernel_name,
            occupancy=round(
                active_cell_rounds / (rounds * len(plans)), 4)
            if rounds else 0.0,
        )

        crit_mask = np.frombuffer(bytes(crit),
                                  dtype=np.uint8).astype(bool)
        chain_mask = np.frombuffer(bytes(chainb),
                                   dtype=np.uint8).astype(bool) \
            if chain_positions else False

        results: List[Optional[SimStats]] = [None] * len(plans)
        for plan in plans:
            if plan.reason is None:
                results[plan.index] = _finalize_cell(
                    np, trace, plan.config, plan.cell, plan.bp, plan.mp,
                    crit_mask, chain_mask, resolved,
                )
            else:
                sim = Simulator(
                    trace, plan.config,
                    critical_positions=None if critical_positions is None
                    else set(critical_positions),
                    chain_positions=chain_positions,
                    warm=warm,
                    recorder=recorder,
                    validator=resolved,
                    validate=False if resolved is None else None,
                )
                results[plan.index] = sim.run(max_cycles=max_cycles)

    fast_cells = sum(1 for p in plans if p.reason is None)
    fallbacks = [(p.config.name, p.reason) for p in plans
                 if p.reason is not None]
    occupancy = (round(active_cell_rounds / (rounds * len(plans)), 4)
                 if rounds else 0.0)
    telemetry.inc("repro_batch_groups_total",
                  help="Lockstep batch groups simulated, by kernel.",
                  kernel=kernel_name)
    telemetry.observe("repro_batch_group_width", len(plans),
                      buckets=telemetry.metrics.WIDTH_BUCKETS,
                      help="Cells per lockstep batch group.")
    telemetry.inc("repro_batch_cells_total", fast_cells,
                  help="Cells by batch execution path.", path="fast")
    if fallbacks:
        telemetry.inc("repro_batch_cells_total", len(fallbacks),
                      help="Cells by batch execution path.",
                      path="fallback")
    for config_name, reason in fallbacks:
        telemetry.inc("repro_batch_fallback_total",
                      help="Per-cell inline fallbacks by reason.",
                      reason=reason)
        telemetry.emit("batch.fallback", config=config_name,
                       reason=reason, trace_len=len(trace.entries))
    if rounds:
        telemetry.observe("repro_batch_occupancy", occupancy,
                          buckets=telemetry.metrics.RATIO_BUCKETS,
                          help="Mean fraction of a batch group still "
                               "active per lockstep round.")
    telemetry.emit("batch.group", width=len(plans), fast=fast_cells,
                   fallbacks=len(fallbacks), rounds=rounds,
                   kernel=kernel_name, occupancy=occupancy)
    _last_report = {
        "width": len(plans),
        "fast": fast_cells,
        "fallbacks": fallbacks,
        "rounds": rounds,
        "kernel": kernel_name,
        "occupancy": occupancy,
    }
    return results  # type: ignore[return-value]


def simulate_cell(
    trace: Trace,
    config: CpuConfig = GOOGLE_TABLET,
    critical_positions: Optional[Set[int]] = None,
    chain_positions: Optional[Set[int]] = None,
    max_cycles: Optional[int] = None,
    warm: bool = True,
    recorder=None,
    validator=None,
    validate: Optional[bool] = None,
) -> SimStats:
    """Single-cell entry point (the ``SIMULATORS['batch']`` engine's
    ``simulate()``-compatible surface): a batch of width one."""
    return simulate_batch(
        trace, [config],
        critical_positions=critical_positions,
        chain_positions=chain_positions,
        max_cycles=max_cycles,
        warm=warm,
        recorder=recorder,
        validator=validator,
        validate=validate,
    )[0]
