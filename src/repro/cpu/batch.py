"""Batched simulation engine (the registry's ``batch`` engine, the
default).

The paper's grids (Figs 10-13) simulate sampled traces under many
hardware/scheme cells.  The inline :class:`repro.cpu.pipeline.
Simulator` pays per-cycle Python dispatch for every cell independently;
this engine removes that cost by splitting a cell into

1. **columns** — the trace's per-entry facts and dependence maps as
   numpy arrays (:class:`_TraceArrays`), gathered from the trace's own
   columns (``Trace.columns()``: no ``TraceEntry`` objects are built
   for a loaded trace) with per-static gathers and a vectorized
   last-writer scan, never through the inline engine's
   ``_TraceTables``;
2. **profiles** — everything the cycle loop obtains from the stateful
   branch/memory components, precomputed by replaying those components
   once in trace order (their state evolution is position-ordered, not
   timing-ordered, so the replay is exact — see below), and
3. a **cycle kernel** (:mod:`repro.cpu._batchkernel`) — pure integer
   stepping over the columns and profiles, compiled from C at first
   use.  Its reference is the inline simulator.

Each cell then runs to completion in one kernel call, one cell at a
time, and columns and profiles are weakly memoized per trace so a
seven-config hardware sweep replays the branch predictor and memory
system once per distinct configuration class, not once per cell.

Why the replay is exact
-----------------------

* Warm-up only fills, so an LRU cache's post-warm state is, per set,
  the ``assoc`` distinct lines filled last, most recent first: the
  batch engine computes those images from the columns instead of
  replaying ``MemorySystem.warm`` (a non-LRU i-cache is still filled
  in order).
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
    _static_facts,
    resolve_validator,
)
from repro.cpu.stats import STAGES, SimStats
from repro.dfg.fanout import HIGH_FANOUT_THRESHOLD
from repro.isa.registers import NUM_REGISTERS
from repro.memory.prefetch import (
    CriticalNextLinePrefetcher,
    EFetchPrefetcher,
)
from repro.memory.replacement import LruPolicy, TrripPolicy, make_policy
from repro.registry import BRANCH_PREDICTORS, ICACHE_POLICIES, PREFETCHERS
from repro.trace.dependence import reads_flags, writes_flags
from repro.trace.dynamic import Trace


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


# -- per-trace columns ---------------------------------------------------------

#: Dependence keys of the last-writer scan: architectural registers are
#: ``0..NUM_REGISTERS-1``, the condition flags one past them, and memory
#: words (dense ids) after that.
_FLAGS_KEY = NUM_REGISTERS
_WORD_BASE = NUM_REGISTERS + 1


class _TraceArrays:
    """Everything the batch engine reads from one trace, as numpy columns
    gathered from ``trace.columns()``: a loaded trace is simulated
    without building its ``TraceEntry`` objects, and the inline engine's
    ``_TraceTables`` is never built for a kernel cell.

    Static facts are resolved once per static and gathered over its
    occurrences.  The dependence maps are CSR arrays equal, element for
    element and in order, to
    :func:`repro.trace.dependence.compute_producers` and
    ``compute_consumers``; ``critical`` is the default high-fanout mask.
    ``mem`` is -1 where an entry has no address, and ``touch`` marks the
    loads and stores that have one.  ``profiles`` memoizes this trace's
    branch and memory profiles, post-warm cache images and d-cache
    splits.
    """

    __slots__ = (
        "n", "sizes", "lats", "fus", "flags", "brt", "brpred", "pcs",
        "mem", "touch", "takens", "prod_ptr", "prod_idx", "cons_ptr",
        "cons_idx", "critical", "max_lat", "profiles",
    )


#: trace -> its columns (weak: they die with the trace)
_arrays: "weakref.WeakKeyDictionary[Trace, _TraceArrays]" = \
    weakref.WeakKeyDictionary()


def _trace_arrays(np, trace: Trace) -> _TraceArrays:
    """Memoized :class:`_TraceArrays` for ``trace``."""
    arrays = _arrays.get(trace)
    if arrays is None:
        arrays = _build_trace_arrays(np, trace)
        _arrays[trace] = arrays
    return arrays


def _build_trace_arrays(np, trace: Trace) -> _TraceArrays:
    columns = trace.columns()
    n = len(columns.index)
    sidx = np.frombuffer(columns.index, dtype=np.int32)
    statics = [instr for instr, _ in columns.statics]
    facts = [_static_facts(instr) for instr in statics]

    def gather(field: int, dtype) -> Any:
        column = np.fromiter((f[field] for f in facts), dtype=dtype,
                             count=len(facts))
        return column[sidx]

    a = _TraceArrays()
    a.n = n
    a.sizes = gather(0, np.int32)
    a.lats = gather(1, np.int32)
    a.fus = gather(2, np.uint8)
    isld = gather(3, np.bool_)
    isst = gather(4, np.bool_)
    a.flags = (isld * bk.FLAG_LOAD | isst * bk.FLAG_STORE
               | gather(5, np.bool_) * bk.FLAG_CDP).astype(np.uint8)
    a.brt = gather(6, np.uint8)
    a.brpred = gather(7, np.bool_)
    a.pcs = np.fromiter((pc for _, pc in columns.statics), dtype=np.int64,
                        count=len(statics))[sidx]
    # (read-only views of the trace's own columns)
    a.mem = np.frombuffer(columns.mem, dtype=np.int64)
    a.mem.flags.writeable = False
    a.takens = np.frombuffer(columns.taken, dtype=np.uint8) == 1
    a.touch = (isld | isst) & (a.mem >= 0)
    a.max_lat = int(a.lats.max()) if n else 1

    # Registers read and written per static, -1 padded; the flags are
    # one more written (CMP/TST) or read (predicated) key.
    reads = [instr.srcs for instr in statics]
    writes = [instr.dests + ((_FLAGS_KEY,) if writes_flags(instr) else ())
              for instr in statics]
    s_src = _padded(np, reads)
    s_dst = _padded(np, writes)
    s_rflags = np.fromiter(map(reads_flags, statics), dtype=np.bool_,
                           count=len(statics))
    (a.prod_ptr, a.prod_idx, a.cons_ptr, a.cons_idx,
     a.critical) = _dependence(np, n, s_src[sidx], s_rflags[sidx],
                               s_dst[sidx], isld, isst, a.mem)
    a.profiles = {}
    return a


def _padded(np, rows: List[Tuple[int, ...]]) -> Any:
    """``rows`` as one int64 matrix, each row -1 padded to the widest."""
    out = np.full((len(rows), max(map(len, rows), default=0)), -1,
                  dtype=np.int64)
    for k, row in enumerate(rows):
        out[k, :len(row)] = row
    return out


def _dependence(np, n: int, src, rflags, dst, isld, isst,
                mem) -> Tuple[Any, Any, Any, Any, Any]:
    """Producer and consumer CSR maps plus the default critical mask.

    Every entry's candidate producers sit in one row, in
    ``compute_producers``' order: the last writer of each source
    register, then of the flags (when the entry reads them), then the
    last store to the loaded word.  Each is found by one last-writer
    scan over all keys at once; repeats within a row are dropped,
    keeping the first.
    """
    has_mem = mem >= 0
    stores = np.flatnonzero(isst & has_mem)
    loads = np.flatnonzero(isld & has_mem)
    _, word = np.unique(np.concatenate((mem[stores], mem[loads])) & ~0x3,
                        return_inverse=True)
    word = word.reshape(-1) + _WORD_BASE

    w_row, w_col = np.nonzero(dst >= 0)
    w_key = np.concatenate((dst[w_row, w_col], word[:len(stores)]))
    w_pos = np.concatenate((w_row, stores))

    width = src.shape[1]
    r_row, r_col = np.nonzero(src >= 0)
    f_row = np.flatnonzero(rflags)
    rows = np.concatenate((r_row, f_row, loads))
    cols = np.concatenate((r_col, np.full(len(f_row), width),
                           np.full(len(loads), width + 1)))
    keys = np.concatenate((src[r_row, r_col],
                           np.full(len(f_row), _FLAGS_KEY),
                           word[len(stores):]))
    cand = np.full((n, width + 2), -1, dtype=np.int64)
    cand[rows, cols] = _last_writer(np, n, w_key, w_pos, keys, rows)
    for j in range(1, width + 2):
        column = cand[:, j]
        for i in range(j):
            column[column == cand[:, i]] = -1

    valid = cand >= 0
    counts = valid.sum(axis=1)
    prod_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=prod_ptr[1:])
    prod_idx = cand[valid].astype(np.int32)
    fanout = np.bincount(prod_idx, minlength=n)
    cons_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(fanout, out=cons_ptr[1:])
    consumers = np.repeat(np.arange(n, dtype=np.int32), counts)
    cons_idx = consumers[np.argsort(prod_idx, kind="stable")]
    return (prod_ptr, prod_idx, cons_ptr, cons_idx,
            fanout >= HIGH_FANOUT_THRESHOLD)


def _last_writer(np, n: int, w_key, w_pos, r_key, r_pos) -> Any:
    """For each read ``(key, position)``: the latest position before it
    that wrote the same key, or -1."""
    span = n + 1
    writes = np.sort(w_key * span + w_pos)
    if not len(writes):
        return np.full(len(r_key), -1, dtype=np.int64)
    at = np.searchsorted(writes, r_key * span + r_pos) - 1
    prev = writes[np.maximum(at, 0)]
    return np.where((at >= 0) & (prev // span == r_key), prev % span, -1)


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


def _build_branch_profile(np, arrays: _TraceArrays,
                          config) -> _BranchProfile:
    """Replay the branch unit over the trace's branches, in trace order.

    Mirrors ``Simulator._handle_branch``: the RAS trains at calls, the
    predictor at predicated conditionals, both strictly in fetch-
    consumption order — which is trace order — so outcomes are exact.
    """
    n = arrays.n
    bact = bytearray(n)
    bpu = BRANCH_PREDICTORS.create(config.branch_predictor, config)
    ras = ReturnAddressStack(perfect=config.perfect_branch)
    at = np.flatnonzero(arrays.brt)
    wrong = 0
    for pos, b, pred, pc, size, taken in zip(
            at.tolist(), arrays.brt[at].tolist(),
            arrays.brpred[at].tolist(), arrays.pcs[at].tolist(),
            arrays.sizes[at].tolist(), arrays.takens[at].tolist()):
        if b == _BR_SWITCH:
            bact[pos] = 3
        elif b == _BR_CALL:
            if pos + 1 < n:
                ras.push(pc + size)
            bact[pos] = 1
        elif b == _BR_RETURN:
            if ras.predict_return():
                bact[pos] = 1
            else:
                wrong += 1
                bact[pos] = 2
        elif pred:
            if bpu.predict_conditional(pc, taken):
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


def _branch_profile(np, arrays: _TraceArrays, config) -> _BranchProfile:
    """Memoized per trace when the predictor is the stock two-level one
    (a custom registered predictor could read arbitrary config fields,
    so it gets a fresh, unmemoized replay per cell)."""
    bpu = BRANCH_PREDICTORS.create(config.branch_predictor, config)
    if type(bpu) is not TwoLevelPredictor:
        return _build_branch_profile(np, arrays, config)
    key = (
        "bp", BRANCH_PREDICTORS.identity(config.branch_predictor),
        config.bpu_entries, config.bpu_history_bits,
        config.perfect_branch,
    )
    profile = arrays.profiles.get(key)
    if profile is None:
        profile = _build_branch_profile(np, arrays, config)
        arrays.profiles[key] = profile
    return profile


def _build_memory_profile(np, arrays: _TraceArrays, config,
                          crit) -> _MemoryProfile:
    """Replay the i-side of the memory system in trace order, from the
    post-warm cache images.

    Produces the fetch-event stream (one event per i-line transition of
    the fetch stream, exactly as ``MemorySystem.ifetch`` would see it),
    the post-warm d-cache image, and the kernel's model of the
    over-subscribed L2 sets: their post-warm LRU images, the i-side L2
    operations that touch them (in position order), and the d-side
    accesses that map to them.  The caches start as
    ``MemorySystem.warm`` leaves them (:func:`_warm_caches`); only the
    i-cache is a live cache, for the replay.

    The i-side replay never consults the L2 (L2 contents change only
    latency), so it runs to the end with the L2 left at its post-warm
    image and merely records every i-side L2 operation: the demand
    lookup of an i-miss with no in-flight prefetch, and each
    ``prefetch_instruction_line`` fill.  A set is over-subscribed when
    it receives more distinct lines (warm fills, recorded i-side
    operations, d-side addresses) than it has ways; every other set
    never evicts, so all its accesses hit.  Only the positions where
    the fetch stream enters a new i-line (and, with a call-observing
    prefetcher, the calls) can change i-side state, so the replay
    visits just those.
    """
    from repro.memory.dram import Dram, DramTimings

    mc = config.memory
    line_bytes = mc.line_bytes
    n = arrays.n
    pcs = arrays.pcs
    lines, starts = _fetch_lines(np, arrays, line_bytes)
    icache, dc_image, l2_image = _warm_caches(np, arrays, mc)
    num_l2_sets, l2_assoc, l2_occ, l2_tags = l2_image

    prefetchers = tuple(
        PREFETCHERS.create(name, config)
        for name in config.active_prefetchers()
    )
    fetch_pfs = tuple(
        p for p in prefetchers if _observes(p, "observe_fetch"))
    call_pfs = tuple(
        p for p in prefetchers if _observes(p, "observe_call"))

    is_call = np.zeros(n, dtype=np.bool_)
    if call_pfs:
        is_call[:n - 1] = arrays.brt[:n - 1] == _BR_CALL
        visit = np.union1d(starts, np.flatnonzero(is_call))
    else:
        visit = starts
    is_start = np.zeros(n, dtype=np.bool_)
    is_start[starts] = True
    next_line = lines[np.minimum(visit + 1, n - 1)]

    iev = np.full(n, -1, dtype=np.int32)
    iev[starts] = np.arange(len(starts), dtype=np.int32)
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

    for pos, line, pc, start, call, target_line, critical in zip(
            visit.tolist(), lines[visit].tolist(), pcs[visit].tolist(),
            is_start[visit].tolist(), is_call[visit].tolist(),
            next_line.tolist(), crit[visit].tolist()):
        if start:
            ev = len(ev_lat)
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
            for pf in fetch_pfs:
                for ln in pf.observe_fetch(line, bool(critical)):
                    ifill(ln * line_bytes)
                    iops.append((pos, 0, ln, 0, -1))
        if call:
            for pf in call_pfs:
                for ln in pf.observe_call(target_line):
                    ifill(ln * line_bytes)
                    iops.append((pos, 1, ln, 0, -1))

    # Over-subscribed L2 sets: distinct lines beyond associativity.
    mem = arrays.mem
    # (A sort and a first-of-run mask: np.unique's hash path would
    # import numpy.ma, about 35 ms on a fresh worker's first cell.)
    touched = np.sort(np.concatenate((
        lines, mem[mem >= 0] // line_bytes,
        np.array([op[2] for op in iops], dtype=np.int64))))
    touched = touched[np.diff(touched, prepend=-1) != 0]
    per_set = np.bincount(touched % num_l2_sets, minlength=num_l2_sets)
    hot = np.flatnonzero(per_set > l2_assoc).tolist()
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

    d_line = mem // line_bytes
    lut = np.full(num_l2_sets, -1, dtype=np.int32)
    lut[hot] = np.arange(len(hot), dtype=np.int32)
    d_slot = np.where(arrays.touch, lut[d_line % num_l2_sets], -1)
    d_pos = np.flatnonzero(d_slot >= 0)
    d_l2 = np.full(n, -1, dtype=np.int32)
    d_l2[d_pos] = len(i_slot) + np.arange(len(d_pos), dtype=np.int32)

    profile = _MemoryProfile()
    profile.iev = iev
    profile.ev_kind = ev_kind
    profile.ev_lat = np.array(ev_lat, dtype=np.int32)
    profile.ev_creator = np.array(ev_creator, dtype=np.int32)
    profile.n_events = len(ev_lat)
    profile.icache_accesses = icache.stats.accesses
    profile.icache_misses = icache.stats.misses
    profile.l2_accesses = l2_lookups
    profile.prefetch_issued = tuple(
        (pf.name, pf.issued) for pf in prefetchers)
    profile.dc_snapshot = dc_image
    # The replay never touches the L2, so the kernel starts the hot sets
    # from their post-warm image.
    profile.l2_snapshot = (len(hot), l2_assoc, l2_occ[hot],
                           l2_tags.reshape(-1, l2_assoc)[hot].reshape(-1))
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
    timings = DramTimings()
    row_hit = timings.t_overhead + timings.t_cl + timings.t_burst
    profile.dram = (Dram.NUM_RANKS * Dram.BANKS_PER_RANK, row_hit,
                    row_hit + timings.t_rp + timings.t_rcd)
    return profile


def _fetch_lines(np, arrays: _TraceArrays, line_bytes: int
                 ) -> Tuple[Any, Any]:
    """Each position's i-line, and the positions where the fetch stream
    enters a new one."""
    lines = arrays.pcs // line_bytes
    return lines, np.flatnonzero(np.diff(lines, prepend=-1))


def _warm_caches(np, arrays: _TraceArrays, mc) -> Tuple[Any, Any, Any]:
    """What ``MemorySystem(mc).warm`` leaves over this trace: a live
    i-cache (the replay's), and the d-cache and L2 images.

    An LRU i-cache starts from its image; any other policy's state is
    not a recency order, so it is filled in order at the i-line
    transitions, as ``warm`` fills it.
    """
    from repro.memory.cache import Cache, num_sets

    line_bytes = mc.line_bytes
    icache = Cache("icache", mc.icache_bytes, mc.icache_assoc, line_bytes,
                   mc.icache_hit, policy=make_policy(mc.icache_policy))
    if type(icache.policy) is LruPolicy:
        icache._sets = _image_rows(_warm_image(
            np, arrays, "icache", line_bytes, icache.num_sets,
            icache.assoc))
    else:
        lines, starts = _fetch_lines(np, arrays, line_bytes)
        for line in lines[starts].tolist():
            icache.fill(line * line_bytes)
    dc_image = _warm_image(
        np, arrays, "dcache", line_bytes,
        num_sets("dcache", mc.dcache_bytes, mc.dcache_assoc, line_bytes),
        mc.dcache_assoc)
    l2_image = _warm_image(
        np, arrays, "l2", line_bytes,
        num_sets("l2", mc.l2_bytes, mc.l2_assoc, line_bytes), mc.l2_assoc)
    return icache, dc_image, l2_image


def _warm_image(np, arrays: _TraceArrays, level: str, line_bytes: int,
                sets: int, assoc: int) -> Tuple[int, int, Any, Any]:
    """The LRU image ``MemorySystem.warm`` leaves in its ``level``
    cache (``icache``, ``dcache`` or ``l2``) of ``sets`` x ``assoc``
    lines of ``line_bytes``, memoized per trace and geometry.

    ``warm`` fills the i-cache at each i-line transition, the d-cache
    at each address, and the L2 with both, in position order: the
    i-fill of position ``p`` at time ``2p``, its d-fill at ``2p + 1``.
    After a run of fills, an LRU set holds the ``assoc`` distinct lines
    filled last, most recent first.  Returns ``(sets, assoc, occupancy,
    flat MRU-first tags)``, the kernel's image form, as numpy arrays.
    """
    key = ("warm", level, line_bytes, sets, assoc)
    image = arrays.profiles.get(key)
    if image is not None:
        return image
    lines, starts = _fetch_lines(np, arrays, line_bytes)
    mem = arrays.mem
    has = np.flatnonzero(mem >= 0)
    if level == "icache":
        filled, times = lines[starts], starts
    elif level == "dcache":
        filled, times = mem[has] // line_bytes, has
    else:
        filled = np.concatenate((lines[starts], mem[has] // line_bytes))
        times = np.concatenate((2 * starts, 2 * has + 1))
    # the last fill of each distinct line
    order = np.lexsort((times, filled))
    filled = filled[order]
    times = times[order]
    last = np.ones(len(filled), dtype=np.bool_)
    last[:-1] = filled[1:] != filled[:-1]
    filled = filled[last]
    times = times[last]
    # per set, most recent first; ways past ``assoc`` were evicted
    set_of = filled % sets
    order = np.lexsort((-times, set_of))
    set_of = set_of[order]
    way = np.arange(len(set_of)) - np.searchsorted(set_of, set_of)
    kept = way < assoc
    set_of = set_of[kept]
    tags = np.zeros(sets * assoc, dtype=np.int64)
    tags[set_of * assoc + way[kept]] = filled[order][kept] // sets
    occupancy = np.bincount(set_of, minlength=sets).astype(np.int32)
    image = arrays.profiles[key] = (sets, assoc, occupancy, tags)
    return image


def _image_rows(image: Tuple[int, int, Any, Any]) -> List[List[int]]:
    """An image as ``Cache._sets`` of an LRU cache: per set, its tags
    MRU first."""
    _, assoc, occupancy, tags = image
    rows = tags.reshape(-1, assoc).tolist()
    for row, occupied in zip(rows, occupancy.tolist()):
        del row[occupied:]
    return rows


def _memory_profile(np, arrays: _TraceArrays, config, crit,
                    created) -> _MemoryProfile:
    """Memoized per trace when every composed component is a known
    builtin (custom factories may read arbitrary config fields, so they
    replay fresh per cell — still exact, just unshared)."""
    shareable = all(
        type(p) in (EFetchPrefetcher, CriticalNextLinePrefetcher)
        for p in created
    ) and type(make_policy(config.memory.icache_policy)) \
        in (LruPolicy, TrripPolicy)
    if not shareable:
        return _build_memory_profile(np, arrays, config, crit)
    key: Tuple[Any, ...] = (
        "mem", astuple(config.memory),
        tuple(PREFETCHERS.identity(name)
              for name in config.active_prefetchers()),
        ICACHE_POLICIES.identity(config.memory.icache_policy),
    )
    if any(_observes(p, "observe_fetch") for p in created):
        # fetch-observing prefetchers see per-position criticality
        key = key + (crit.tobytes(),)
    profile = arrays.profiles.get(key)
    if profile is None:
        profile = _build_memory_profile(np, arrays, config, crit)
        arrays.profiles[key] = profile
    return profile


# -- shared-array assembly -----------------------------------------------------


def _dcache_map(np, arrays: _TraceArrays, line_bytes: int,
                dc_sets: int) -> Tuple[Any, Any]:
    """Per-position d-cache (set, tag) split; tag -1 encodes "no memory
    access" (entries whose ``mem_addr`` is None never touch memory)."""
    key = ("dmap", line_bytes, dc_sets)
    rec = arrays.profiles.get(key)
    if rec is None:
        line = arrays.mem // line_bytes
        rec = (np.where(arrays.touch, line % dc_sets, 0).astype(np.int32),
               np.where(arrays.touch, line // dc_sets, -1))
        arrays.profiles[key] = rec
    return rec


def _make_shared(np, arrays: _TraceArrays, config, bp: _BranchProfile,
                 mp: _MemoryProfile, crit) -> bk.SharedArrays:
    """One cell's read-only kernel inputs: views of the arrays built
    once per trace or per profile, so building them copies nothing."""
    sh = bk.SharedArrays()
    sh.n = arrays.n
    for name in ("sizes", "lats", "fus", "flags", "prod_ptr", "prod_idx",
                 "cons_ptr", "cons_idx"):
        setattr(sh, name, getattr(arrays, name))
    sh.bact = np.frombuffer(bp.bact, dtype=np.uint8)
    sh.crit = crit
    sh.d_set, sh.d_tag = _dcache_map(np, arrays, config.memory.line_bytes,
                                     mp.dc_snapshot[0])
    sh.ev_kind = np.frombuffer(mp.ev_kind, dtype=np.uint8)
    sh.iop_call = np.frombuffer(mp.iop_call, dtype=np.uint8)
    for name in ("iev", "ev_lat", "ev_creator", "d_l2", "iop_pos",
                 "acc_slot", "acc_tag", "acc_row"):
        setattr(sh, name, getattr(mp, name))
    return sh


def _position_mask(np, n: int, positions) -> Any:
    """A uint8 mask of length ``n`` set at ``positions`` (out-of-range
    positions are ignored, as the inline simulator ignores them)."""
    mask = np.zeros(n, dtype=np.uint8)
    if positions:
        at = np.fromiter(positions, dtype=np.int64, count=len(positions))
        mask[at[(at >= 0) & (at < n)]] = 1
    return mask


# -- stats assembly ------------------------------------------------------------


def _finalize_cell(np, trace: Trace, config, cell: bk.CellState,
                   bp: _BranchProfile, mp: _MemoryProfile,
                   crit_mask, chain_mask, validator) -> SimStats:
    """Assemble one cell's ``SimStats`` from kernel registers + stage
    timestamp matrices — field for field what the inline finalize does."""
    regs = cell.regs
    n = len(trace)

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
    __slots__ = ("index", "config", "reason", "bp", "mp")

    def __init__(self, index: int, config) -> None:
        self.index = index
        self.config = config
        self.reason: Optional[str] = None
        self.bp: Optional[_BranchProfile] = None
        self.mp: Optional[_MemoryProfile] = None


def _run_on_kernel(np, cfn, trace: Trace, arrays: _TraceArrays,
                   plan: _CellPlan, crit, crit_mask, chain_mask,
                   validator) -> Optional[SimStats]:
    """Run one cell to completion on the kernel: its stats, or ``None``
    with ``plan.reason`` set when the cell must be redone inline.  The
    cell's state lives only for this call."""
    mc = plan.config.memory
    # worst d-side path: a load missing the d-cache, the L2 and the open
    # DRAM row
    max_latency = max(arrays.max_lat,
                      mc.dcache_hit + mc.l2_hit + plan.mp.dram[2], 1)
    shared = _make_shared(np, arrays, plan.config, plan.bp, plan.mp, crit)
    cell = bk.make_cell(shared, plan.mp, plan.config, max_latency, np)
    status = bk.run_cell(cfn, shared, cell)
    if status == 0:
        return _finalize_cell(np, trace, plan.config, cell, plan.bp,
                              plan.mp, crit_mask, chain_mask, validator)
    plan.reason = "kernel deadlock" if status == 2 \
        else "kernel ring overflow"
    return None


#: diagnostics of the most recent ``simulate_batch`` call (tests and the
#: dispatch report read this; purely observational)
_last_report: Optional[Dict[str, Any]] = None


def last_batch_report() -> Optional[Dict[str, Any]]:
    """Diagnostics of the most recent batch: width, fast/fallback split
    (with per-cell reasons), and the kernel used."""
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
    # fallback cells receive the same resolved instance
    resolved = resolve_validator(validator, validate)

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
    created_by_plan = []
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
        created_by_plan.append((plan, created))

    # The trace's columns are built only when some cell runs on the
    # kernel; fallback cells build the inline tables instead.
    kernel_name = "c" if created_by_plan else "none"
    if created_by_plan:
        arrays = _trace_arrays(np, trace)
        crit = arrays.critical.astype(np.uint8) \
            if critical_positions is None \
            else _position_mask(np, arrays.n, critical_positions)
        crit_mask = crit.astype(bool)
        chain_mask = _position_mask(np, arrays.n, chain_positions) \
            .astype(bool) if chain_positions else False
        for plan, created in created_by_plan:
            plan.bp = _branch_profile(np, arrays, plan.config)
            plan.mp = _memory_profile(np, arrays, plan.config, crit,
                                      created)

    results: List[Optional[SimStats]] = [None] * len(plans)
    with telemetry.span("simulate.batch", width=len(plans)) as span:
        for plan in plans:
            if plan.reason is None:
                results[plan.index] = _run_on_kernel(
                    np, cfn, trace, arrays, plan, crit, crit_mask,
                    chain_mask, resolved)
            if plan.reason is not None:
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
        fallbacks = [(p.config.name, p.reason) for p in plans
                     if p.reason is not None]
        fast_cells = len(plans) - len(fallbacks)
        span.attrs.update(fast=fast_cells, fallbacks=len(fallbacks),
                          kernel=kernel_name)

    telemetry.inc("repro_batch_groups_total",
                  help="Batch groups simulated, by kernel.",
                  kernel=kernel_name)
    telemetry.observe("repro_batch_group_width", len(plans),
                      buckets=telemetry.metrics.WIDTH_BUCKETS,
                      help="Cells per batch group.")
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
                       reason=reason, trace_len=len(trace))
    telemetry.emit("batch.group", width=len(plans), fast=fast_cells,
                   fallbacks=len(fallbacks), kernel=kernel_name)
    _last_report = {
        "width": len(plans),
        "fast": fast_cells,
        "fallbacks": fallbacks,
        "kernel": kernel_name,
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
