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
  d-side runtime.  The engine proves per trace x config that no L2 set
  ever holds more distinct lines than its associativity (warm fills plus
  every replay fill), in which case no L2 access can miss and the L2 is
  order-independent; otherwise the cell **falls back to inline**.

Fallbacks are per-cell and lossless: a cell the engine cannot vectorize
(a load-observing prefetcher such as ``clpt``, a truncated
``max_cycles`` run, a cold-start run, an attached flight recorder, an
L2-unsafe trace, a kernel ring overflow, or a host where the C kernel
cannot be compiled) runs on the inline simulator with identical
arguments.  Either way the returned ``SimStats`` are bit-identical to
the inline engine — the golden-stats suite and the ``--engine`` fuzz
metamorphic enforce this.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import astuple
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
            "numpy or select the inline engine (--engine inline, "
            "REPRO_SIM_ENGINE=inline, or simulate(..., engine='inline'))"
        ) from exc
    return numpy


# -- profiles ------------------------------------------------------------------


class _BranchProfile:
    """Per-position fetch actions + total mispredicts for one predictor
    configuration over one trace."""

    __slots__ = ("bact", "mispredicts", "np_cache")

    def __init__(self) -> None:
        self.np_cache: Dict[str, Any] = {}


class _MemoryProfile:
    """I-side event stream + warmed d-cache image for one memory
    configuration over one trace (``unsafe`` names the reason when the
    L2-safety precondition fails and the cell must run inline)."""

    __slots__ = (
        "iev", "ev_kind", "ev_lat", "ev_creator", "n_events",
        "icache_accesses", "icache_misses", "l2_accesses",
        "dc_snapshot", "prefetch_issued", "unsafe", "np_cache",
    )

    def __init__(self) -> None:
        self.unsafe: Optional[str] = None
        self.np_cache: Dict[str, Any] = {}


#: trace -> {profile key: profile} (weak, like the trace tables)
_profiles: "weakref.WeakKeyDictionary[Trace, Dict[Any, Any]]" = \
    weakref.WeakKeyDictionary()

#: trace -> derived arrays (CSR dependence maps, packed entry flags,
#: d-cache address splits) + cached numpy views
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


def _build_memory_profile(trace: Trace, tables, config,
                          crit: bytearray) -> _MemoryProfile:
    """Replay warmup + the i-side of the memory system in trace order.

    Produces the fetch-event stream (one event per i-line transition of
    the fetch stream, exactly as ``MemorySystem.ifetch`` would see it),
    the post-warm d-cache image, and the L2-safety verdict.
    """
    from repro.memory.hierarchy import MemorySystem

    mc = config.memory
    ms = MemorySystem(mc)
    icache = ms.icache
    l2 = ms.l2
    dcache = ms.dcache
    line_bytes = mc.line_bytes
    num_l2_sets = l2.num_sets
    l2_assoc = l2.assoc

    # Distinct-lines-per-L2-set tracking: eviction happens iff a set ever
    # sees more distinct lines than ways, which is order-independent — so
    # sets of tags decide safety regardless of interleaving.
    l2_seen: Dict[int, Set[int]] = {}

    def track(addr: int) -> None:
        line = addr // line_bytes
        s = line % num_l2_sets
        tags = l2_seen.get(s)
        if tags is None:
            tags = l2_seen[s] = set()
        tags.add(line // num_l2_sets)

    # warmup: mirror of MemorySystem.warm, with L2-set tracking
    last_iline = -1
    for entry in trace:
        iline = entry.pc // line_bytes
        if iline != last_iline:
            addr = iline * line_bytes
            l2.fill(addr)
            icache.fill(addr)
            track(addr)
            last_iline = iline
        if entry.mem_addr is not None:
            l2.fill(entry.mem_addr)
            dcache.fill(entry.mem_addr)
            track(entry.mem_addr)

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
    l2lookup = l2.lookup
    unsafe: Optional[str] = None
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
                    track(pc)
                    if l2lookup(pc):
                        ev_kind.append(0)
                        ev_lat.append(icache_hit + l2_hit)
                        ev_creator.append(0)
                    else:
                        unsafe = "i-side L2 miss"
                        break
            if fetch_pfs:
                critical = bool(crit[pos])
                for pf in fetch_pfs:
                    for ln in pf.observe_fetch(line, critical):
                        addr = ln * line_bytes
                        l2.fill(addr)
                        icache.fill(addr)
                        track(addr)
        if call_pfs and brt[pos] == _BR_CALL and pos + 1 < n:
            target_line = pcs[pos + 1] // line_bytes
            for pf in call_pfs:
                for ln in pf.observe_call(target_line):
                    addr = ln * line_bytes
                    l2.fill(addr)
                    icache.fill(addr)
                    track(addr)

    profile = _MemoryProfile()
    if unsafe is None:
        for tags in l2_seen.values():
            if len(tags) > l2_assoc:
                unsafe = "L2 set conflict (lines exceed associativity)"
                break
    profile.unsafe = unsafe
    if unsafe is not None:
        return profile

    profile.iev = iev
    profile.ev_kind = ev_kind
    profile.ev_lat = ev_lat
    profile.ev_creator = ev_creator
    profile.n_events = len(ev_lat)
    profile.icache_accesses = icache.stats.accesses
    profile.icache_misses = icache.stats.misses
    profile.l2_accesses = l2.stats.accesses
    profile.prefetch_issued = tuple(
        (pf.name, pf.issued) for pf in prefetchers)

    occ = [len(ways) for ways in dcache._sets]
    flat = [0] * (dcache.num_sets * dcache.assoc)
    for s, ways in enumerate(dcache._sets):
        base = s * dcache.assoc
        for w, tag in enumerate(ways):
            flat[base + w] = tag
    profile.dc_snapshot = (dcache.num_sets, dcache.assoc, occ, flat)
    return profile


def _memory_profile(trace: Trace, tables, config, crit: bytearray,
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
        return _build_memory_profile(trace, tables, config, crit)
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
        profile = _build_memory_profile(trace, tables, config, crit)
        cache[key] = profile
    return profile


# -- shared-array assembly -----------------------------------------------------


def _trace_derived(trace: Trace, tables) -> Dict[str, Any]:
    """Per-trace arrays: CSR dependence maps, packed entry flags, and
    the trace's max base latency (wheel sizing)."""
    cache = _derived_cache(trace)
    rec = cache.get("base")
    if rec is not None:
        return rec
    n = len(trace.entries)
    flags = bytearray(n)
    isld = tables.isld
    isst = tables.isst
    iscdp = tables.iscdp
    for pos in range(n):
        flags[pos] = ((bk.FLAG_LOAD if isld[pos] else 0)
                      | (bk.FLAG_STORE if isst[pos] else 0)
                      | (bk.FLAG_CDP if iscdp[pos] else 0))
    prod_ptr = [0] * (n + 1)
    total = 0
    for pos, prods in enumerate(tables.producers):
        total += len(prods)
        prod_ptr[pos + 1] = total
    prod_idx = [0] * total
    k = 0
    for prods in tables.producers:
        for p in prods:
            prod_idx[k] = p
            k += 1
    cons_ptr = [0] * (n + 1)
    total = 0
    for pos, cons in enumerate(tables.consumers):
        total += len(cons)
        cons_ptr[pos + 1] = total
    cons_idx = [0] * total
    k = 0
    for cons in tables.consumers:
        for c in cons:
            cons_idx[k] = c
            k += 1
    rec = {
        "flags": flags,
        "prod_ptr": prod_ptr,
        "prod_idx": prod_idx,
        "cons_ptr": cons_ptr,
        "cons_idx": cons_idx,
        "max_lat": max(tables.lats) if n else 1,
    }
    cache["base"] = rec
    return rec


def _dcache_map(trace: Trace, tables, line_bytes: int,
                dc_sets: int) -> Tuple[List[int], List[int]]:
    """Per-position d-cache (set, tag) split; tag -1 encodes "no memory
    address" (entries whose ``mem_addr`` is None never touch memory)."""
    cache = _derived_cache(trace)
    key = ("dmap", line_bytes, dc_sets)
    rec = cache.get(key)
    if rec is not None:
        return rec
    n = len(trace.entries)
    d_set = [0] * n
    d_tag = [-1] * n
    mems = tables.mems
    isld = tables.isld
    isst = tables.isst
    for pos in range(n):
        if isld[pos] or isst[pos]:
            addr = mems[pos]
            if addr is not None:
                line = addr // line_bytes
                d_set[pos] = line % dc_sets
                d_tag[pos] = line // dc_sets
    rec = (d_set, d_tag)
    cache[key] = rec
    return rec


def _np_i32(np, values, cache: Dict[str, Any], key: str):
    arr = cache.get(key)
    if arr is None:
        arr = np.array(values, dtype=np.int32)
        cache[key] = arr
    return arr


def _np_i64(np, values, cache: Dict[str, Any], key: str):
    arr = cache.get(key)
    if arr is None:
        arr = np.array(values, dtype=np.int64)
        cache[key] = arr
    return arr


def _np_u8(np, values, cache: Dict[str, Any], key: str):
    arr = cache.get(key)
    if arr is None:
        arr = np.frombuffer(bytes(values), dtype=np.uint8)
        cache[key] = arr
    return arr


def _make_shared(np, trace: Trace, tables, config, bp: _BranchProfile,
                 mp: _MemoryProfile, crit_np) -> bk.SharedArrays:
    """Assemble one cell class's read-only numpy arrays.

    Heavyweight n-sized arrays are cached per trace (and per profile) so
    cells of the same class share them.
    """
    derived = _trace_derived(trace, tables)
    dc_sets = mp.dc_snapshot[0]
    d_set, d_tag = _dcache_map(trace, tables, config.memory.line_bytes,
                               dc_sets)
    sh = bk.SharedArrays()
    sh.n = len(trace.entries)
    cache = _derived_cache(trace)
    npc = cache.setdefault("np", {})
    sh.sizes = _np_i32(np, tables.sizes, npc, "sizes")
    sh.lats = _np_i32(np, tables.lats, npc, "lats")
    sh.fus = _np_u8(np, tables.fus, npc, "fus")
    sh.flags = _np_u8(np, derived["flags"], npc, "flags")
    sh.prod_ptr = _np_i32(np, derived["prod_ptr"], npc, "prod_ptr")
    sh.prod_idx = _np_i32(np, derived["prod_idx"], npc, "prod_idx")
    sh.cons_ptr = _np_i32(np, derived["cons_ptr"], npc, "cons_ptr")
    sh.cons_idx = _np_i32(np, derived["cons_idx"], npc, "cons_idx")
    sh.bact = _np_u8(np, bp.bact, bp.np_cache, "bact")
    sh.crit = crit_np
    sh.iev = _np_i32(np, mp.iev, mp.np_cache, "iev")
    sh.ev_kind = _np_u8(np, mp.ev_kind, mp.np_cache, "ev_kind")
    sh.ev_lat = _np_i32(np, mp.ev_lat, mp.np_cache, "ev_lat")
    sh.ev_creator = _np_i32(np, mp.ev_creator, mp.np_cache, "ev_creator")
    dkey = ("d_set", config.memory.line_bytes, dc_sets)
    tkey = ("d_tag", config.memory.line_bytes, dc_sets)
    sh.d_set = _np_i32(np, d_set, npc, dkey)
    sh.d_tag = _np_i64(np, d_tag, npc, tkey)
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
    stats.l2_misses = 0
    stats.dram_reads = 0
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
        plan.mp = _memory_profile(trace, tables, plan.config, crit,
                                  created)
        if plan.mp.unsafe is not None:
            plan.reason = plan.mp.unsafe

    fast = [plan for plan in plans if plan.reason is None]
    kernel_name = "none"
    rounds = 0
    active_cell_rounds = 0
    with telemetry.span("simulate.batch", width=len(plans)) as span:
        if fast:
            kernel_name = "c"
            crit_np = np.frombuffer(bytes(crit), dtype=np.uint8)
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
                max_latency = max(_trace_derived(trace, tables)["max_lat"],
                                  mc.dcache_hit + mc.l2_hit, 1)
                plan.cell = bk.make_cell(sh, plan.mp.n_events, plan.config,
                                         plan.mp.dc_snapshot, max_latency,
                                         np)

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

    telemetry.count("simulate.batch.instructions",
                    sum(r.instructions for r in results))
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
