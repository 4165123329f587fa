"""Cell state and C cycle-kernel loader for the batch simulation engine.

The batch engine (:mod:`repro.cpu.batch`) precomputes everything the
inline :class:`repro.cpu.pipeline.Simulator` derives from the memory
system and branch predictor into flat *profiles* (branch actions, i-side
fetch events, warmed images of the d-cache and of the over-subscribed
L2 sets), which reduces one grid cell's cycle loop to pure integer
state-machine stepping over those arrays.
That stepper is a small C translation of the inline simulator's
``run()`` loop (``_batchkernel.c``), compiled on first use with the
system C compiler into a per-user cache directory and loaded via
:mod:`ctypes`.  No third-party build machinery, no pip dependency.

Its reference is the inline simulator itself: the golden-stats gate,
run under both engines, and the identity matrix
(``tests/test_identity_matrix.py``) compare the two bit for bit.  When no compiler is available,
:func:`get_kernel` returns ``None`` and the batch engine runs every cell
inline (same numbers, less speed).

The kernel operates on one *cell* (a :class:`CellState`) at a time and
advances it up to a caller-chosen cycle horizon, which is what lets the
batch engine run many cells in lockstep rounds.  All mutable state lives
in the cell's ``regs`` vector and side arrays, so a cell can be resumed
across rounds freely.

Status codes returned by the kernel:

====  ========================================================
0     trace fully committed (``regs[R_NOW]`` is the cycle count)
1     cycle horizon reached; resume with a later horizon
2     no-forward-progress deadlock (mirror of the inline watchdog)
3     ring-capacity overflow — caller must redo the cell inline
====  ========================================================
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Any, List, Optional, Tuple

# -- register layout -----------------------------------------------------------
# One int64 vector per cell holds every scalar the cycle loop mutates
# (machine state, statistics counters) plus the cell's configuration
# constants, so a kernel call is pure array-in/array-out.  The C kernel
# mirrors these indices with #defines; the bit-identity tests against
# the inline simulator pin the layout.

# mutable machine state
R_NOW = 0
R_COMMITTED = 1
R_FETCH_POS = 2
R_ICACHE_READY = 3
R_FETCH_RESUME = 4
R_REDIRECT_POS = 5
R_ROB_HEAD = 6
R_ROB_TAIL = 7
R_FQ_HEAD = 8
R_FQ_TAIL = 9
R_DQ_HEAD = 10
R_DQ_TAIL = 11
R_PEND_HEAD = 12
R_PEND_TAIL = 13
R_READY_N = 14
R_READYC_N = 15
R_UNISSUED = 16
R_NEXT_EV = 17
R_INFLIGHT = 18
R_WD_COMMITTED = 19
R_WD_FETCH_POS = 20
# statistics counters
R_F_ACTIVE = 21
R_F_ICACHE = 22
R_F_BRANCH = 23
R_F_SWITCH = 24
R_F_BP = 25
R_F_DRAINED = 26
R_FC_ACTIVE = 27
R_FC_ICACHE = 28
R_FC_BRANCH = 29
R_FC_SWITCH = 30
R_FC_BP = 31
R_IQ_OCC_SUM = 32
R_IQ_FULL = 33
R_ROB_OCC_SUM = 34
R_CDP_DECODED = 35
R_DC_ACC = 36
R_DC_MISS = 37
R_L2D_ACC = 38
# configuration constants
R_COMMIT_W = 39
R_RENAME_W = 40
R_ISSUE_W = 41
R_ROB_ENTRIES = 42
R_IQ_ENTRIES = 43
R_DECODE_BYTES = 44
R_CDP_EXTRA = 45
R_FETCH_BYTES = 46
R_FQ_CAP = 47
R_DECODE_CAP = 48
R_SCHED_WIN = 49
R_BACKEND_PRIO = 50
R_REDIRECT_PEN = 51
R_SWITCH_BUBBLE = 52
R_FU_ALU = 53
R_FU_MUL = 54
R_FU_FP = 55
R_FU_MEM = 56
R_FU_BRANCH = 57
R_ICACHE_HIT = 58
R_L2_HIT = 59
R_DCACHE_HIT = 60
R_DC_SETS = 61
R_DC_ASSOC = 62
R_ROB_MASK = 63
R_FQ_MASK = 64
R_DQ_MASK = 65
R_PEND_MASK = 66
R_WHEEL_MASK = 67
# over-subscribed L2 sets and DRAM: state, counters, constants
R_NEXT_IOP = 68
R_L2_MISS = 69
R_DRAM_READS = 70
R_L2_ASSOC = 71
R_DRAM_BANKS = 72
R_DRAM_ROW_HIT = 73
R_DRAM_ROW_MISS = 74

R_COUNT = 75

#: entry flag bits (packed from the trace tables' isld/isst/iscdp)
FLAG_LOAD = 1
FLAG_STORE = 2
FLAG_CDP = 4


def pow2ceil(value: int) -> int:
    """Smallest power of two >= max(value, 1)."""
    size = 1
    while size < value:
        size <<= 1
    return size


class SharedArrays:
    """Read-only per-batch numpy arrays shared by every cell of one
    class."""

    __slots__ = (
        "n", "sizes", "lats", "fus", "flags", "bact", "crit",
        "iev", "ev_kind", "ev_lat", "ev_creator",
        "prod_ptr", "prod_idx", "cons_ptr", "cons_idx",
        "d_set", "d_tag",
        "d_l2", "iop_pos", "iop_call", "acc_slot", "acc_tag", "acc_row",
    )


class CellState:
    """All mutable state of one in-flight grid cell."""

    __slots__ = (
        "regs", "head_c", "fetch_c", "decode_c", "dispatch_c",
        "issue_c", "complete_c", "commit_c",
        "completed", "dispatched", "remaining",
        "rob", "fq", "dq", "pending", "ready", "readyc",
        "wheel_head", "wheel_tail", "next_comp", "ev_time",
        "dc_tags", "dc_occ", "window",
        "l2_tags", "l2_occ", "dram_rows",
        "shared", "index", "cptrs",
    )


def make_cell(shared: SharedArrays, profile: Any, config: Any,
              max_latency: int, np: Any) -> CellState:
    """Build the initial :class:`CellState` for one config.

    ``np`` is the numpy module.  ``profile`` is the cell's memory
    profile: its ``dc_snapshot`` and ``l2_snapshot`` are the post-warm
    images ``(num_sets, assoc, occupancy, flat MRU tags)`` of the
    d-cache and of the over-subscribed L2 sets, and ``dram`` is
    ``(banks, row-hit latency, row-miss latency)``.
    """
    n = shared.n
    dc_sets, dc_assoc, dc_occ_img, dc_tags_img = profile.dc_snapshot
    _, l2_assoc, l2_occ_img, l2_tags_img = profile.l2_snapshot
    dram_banks, dram_row_hit, dram_row_miss = profile.dram

    rob_cap = pow2ceil(4 * config.rob_entries + 256)
    fq_cap_ring = pow2ceil(config.fetch_queue_entries)
    dq_cap = pow2ceil(config.decode_buffer_entries)
    wheel_cap = pow2ceil(max_latency + 2)
    ready_cap = config.issue_queue_entries + 8
    win_cap = 2 * max(config.scheduling_window, 1) + 2

    cs = CellState()
    cs.shared = shared
    cs.cptrs = None

    regs = [0] * R_COUNT
    regs[R_REDIRECT_POS] = -1
    regs[R_WD_COMMITTED] = -1
    regs[R_WD_FETCH_POS] = -1
    regs[R_COMMIT_W] = config.commit_width
    regs[R_RENAME_W] = config.rename_width
    regs[R_ISSUE_W] = config.issue_width
    regs[R_ROB_ENTRIES] = config.rob_entries
    regs[R_IQ_ENTRIES] = config.issue_queue_entries
    regs[R_DECODE_BYTES] = config.decode_width * 4
    regs[R_CDP_EXTRA] = 4 * config.cdp_decode_penalty
    regs[R_FETCH_BYTES] = config.fetch_bytes_per_cycle
    regs[R_FQ_CAP] = config.fetch_queue_entries
    regs[R_DECODE_CAP] = config.decode_buffer_entries
    regs[R_SCHED_WIN] = config.scheduling_window
    regs[R_BACKEND_PRIO] = 1 if config.backend_priority else 0
    regs[R_REDIRECT_PEN] = config.redirect_penalty
    regs[R_SWITCH_BUBBLE] = config.switch_branch_bubble
    regs[R_FU_ALU] = config.fu.alu
    regs[R_FU_MUL] = config.fu.mul
    regs[R_FU_FP] = config.fu.fp
    regs[R_FU_MEM] = config.fu.mem
    regs[R_FU_BRANCH] = config.fu.branch
    regs[R_ICACHE_HIT] = config.memory.icache_hit
    regs[R_L2_HIT] = config.memory.l2_hit
    regs[R_DCACHE_HIT] = config.memory.dcache_hit
    regs[R_DC_SETS] = dc_sets
    regs[R_DC_ASSOC] = dc_assoc
    regs[R_ROB_MASK] = rob_cap - 1
    regs[R_FQ_MASK] = fq_cap_ring - 1
    regs[R_DQ_MASK] = dq_cap - 1
    regs[R_PEND_MASK] = rob_cap - 1
    regs[R_WHEEL_MASK] = wheel_cap - 1
    regs[R_L2_ASSOC] = l2_assoc
    regs[R_DRAM_BANKS] = dram_banks
    regs[R_DRAM_ROW_HIT] = dram_row_hit
    regs[R_DRAM_ROW_MISS] = dram_row_miss

    cs.regs = np.array(regs, dtype=np.int64)
    for name in ("head_c", "fetch_c", "decode_c", "dispatch_c",
                 "issue_c", "complete_c", "commit_c"):
        setattr(cs, name, np.full(n, -1, dtype=np.int64))
    cs.completed = np.zeros(n, dtype=np.uint8)
    cs.dispatched = np.zeros(n, dtype=np.uint8)
    cs.remaining = np.zeros(n, dtype=np.int32)
    cs.rob = np.zeros(rob_cap, dtype=np.int32)
    cs.fq = np.zeros(fq_cap_ring, dtype=np.int32)
    cs.dq = np.zeros(dq_cap, dtype=np.int32)
    cs.pending = np.zeros(rob_cap, dtype=np.int32)
    cs.ready = np.zeros(ready_cap, dtype=np.int32)
    cs.readyc = np.zeros(ready_cap, dtype=np.int32)
    cs.wheel_head = np.zeros(wheel_cap, dtype=np.int32)
    cs.wheel_tail = np.zeros(wheel_cap, dtype=np.int32)
    cs.next_comp = np.zeros(n, dtype=np.int32)
    cs.ev_time = np.zeros(max(profile.n_events, 1), dtype=np.int64)
    cs.dc_tags = np.array(dc_tags_img, dtype=np.int64)
    cs.dc_occ = np.array(dc_occ_img, dtype=np.int32)
    cs.window = np.zeros(win_cap, dtype=np.int32)
    # (padded to one entry: the kernel takes a pointer even when no L2
    # set is over-subscribed)
    cs.l2_tags = np.array(l2_tags_img if len(l2_tags_img) else [0],
                          dtype=np.int64)
    cs.l2_occ = np.array(l2_occ_img if len(l2_occ_img) else [0],
                         dtype=np.int32)
    cs.dram_rows = np.full(dram_banks, -1, dtype=np.int64)
    return cs


# -- C kernel loading ----------------------------------------------------------

#: pointer-argument order of the C entry point (after the two scalars
#: ``n`` and ``max_now``); must match ``repro_batch_advance`` exactly.
_PTR_FIELDS = (
    # shared
    "sizes", "lats", "fus", "flags", "bact", "crit",
    "iev", "ev_kind", "ev_lat", "ev_creator",
    "prod_ptr", "prod_idx", "cons_ptr", "cons_idx", "d_set", "d_tag",
    "d_l2", "iop_pos", "iop_call", "acc_slot", "acc_tag", "acc_row",
    # cell
    "regs", "head_c", "fetch_c", "decode_c", "dispatch_c", "issue_c",
    "complete_c", "commit_c", "completed", "dispatched", "remaining",
    "rob", "fq", "dq", "pending", "ready", "readyc",
    "wheel_head", "wheel_tail", "next_comp", "ev_time",
    "dc_tags", "dc_occ", "window", "l2_tags", "l2_occ", "dram_rows",
)

_SHARED_FIELDS = _PTR_FIELDS[:_PTR_FIELDS.index("regs")]
_CELL_FIELDS = _PTR_FIELDS[len(_SHARED_FIELDS):]

_ckernel: Any = False  # tri-state: False = not probed, None = unavailable


def _c_source_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "_batchkernel.c")


#: Compiler flags of the kernel build.  ``-O0`` keeps the one-off build,
#: which lands on a process's first batch cell, cheap: 0.06-0.12 s on
#: 2 vCPUs against 0.5-0.6 s at ``-O2``.  The kernel is a small part of
#: a cell either way: the seven Fig-11 configs of Music at walk 700 step
#: in about 31 ms at ``-O0`` and 22 ms at ``-O2``.
_CFLAGS = ("-O0", "-shared", "-fPIC")


def _so_path(cache_dir: str, source: bytes) -> str:
    """The cached library for this source under these flags: both are in
    the name, so a build left by other flags is never reused."""
    digest = hashlib.sha256(
        source + b"\0" + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"batchkernel-{digest}.so")


def _build_request() -> Optional[Tuple[str, str, str]]:
    """``(compiler, source, library)`` under this process's environment
    (``CC``, ``REPRO_BATCH_KERNEL_DIR``), or ``None`` when the source
    cannot be read."""
    source = _c_source_path()
    try:
        with open(source, "rb") as handle:
            text = handle.read()
    except OSError:
        return None
    cache_dir = os.environ.get("REPRO_BATCH_KERNEL_DIR", "").strip() \
        or os.path.join(tempfile.gettempdir(),
                        f"repro-batchkernel-{os.getuid()}")
    compiler = os.environ.get("CC", "").strip() or "cc"
    return compiler, source, _so_path(cache_dir, text)


def _compile(compiler: str, source: str, so_path: str) -> bool:
    """Compile ``source`` into ``so_path`` through a temp file next to
    it; whatever happens, no temp file outlives the call."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(so_path), suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, source],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(OSError):  # gone after os.replace
            os.unlink(tmp)


def _build(compiler: str, source: str, so_path: str) -> bool:
    """Make sure ``so_path`` exists.  Processes and threads sharing the
    directory build one library between them: the first compiles under
    ``<so>.lock``, the others wait for it and find its build."""
    if os.path.exists(so_path):
        return True
    try:
        os.makedirs(os.path.dirname(so_path), exist_ok=True)
        with open(so_path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            return os.path.exists(so_path) \
                or _compile(compiler, source, so_path)
    except OSError:
        return False


def _build_ckernel() -> Optional[ctypes.CDLL]:
    request = _build_request()
    if request is None or not _build(*request):
        return None
    try:
        lib = ctypes.CDLL(request[2])
        fn = lib.repro_batch_advance
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_longlong
    fn.argtypes = [ctypes.c_longlong, ctypes.c_longlong] \
        + [ctypes.c_void_p] * len(_PTR_FIELDS)
    return fn


def get_kernel() -> Optional[Any]:
    """The compiled C kernel, or ``None`` when it cannot be built.

    The kernel is compiled once per source revision and flag set
    (:data:`_CFLAGS`) into a per-user cache dir, the first time a batch
    cell needs it, never at import; any failure (no compiler, read-only
    disk) yields ``None`` and the batch engine runs its cells inline
    instead.
    """
    global _ckernel
    if _ckernel is False:
        _ckernel = _build_ckernel()
    return _ckernel


def prebuild() -> None:
    """Start compiling the kernel library on a background thread, unless
    this process has probed the kernel or the library is on disk.

    The grid plan calls this when it groups batch cells
    (``runner.group_cells``): when those go to fleet workers, the
    compile overlaps the workers' imports, and they load the library
    instead of compiling it.  The thread only writes
    the library file (through :func:`_build`'s lock), under the compiler
    and directory resolved here; it never touches this module's state,
    and :func:`get_kernel` in this process still loads the library
    itself.  It is not a daemon, so the process exits only after the
    compile (bounded by its timeout) and leaves no temp file behind.
    """
    if _ckernel is not False:
        return
    request = _build_request()
    if request is not None and not os.path.exists(request[2]):
        threading.Thread(target=_build, args=request,
                         name="batchkernel-build").start()


def cell_pointers(sh: SharedArrays, cs: CellState) -> List[int]:
    """The C call's pointer-argument vector for one cell (cached)."""
    if cs.cptrs is None:
        ptrs = [getattr(sh, name).ctypes.data for name in _SHARED_FIELDS]
        ptrs += [getattr(cs, name).ctypes.data for name in _CELL_FIELDS]
        cs.cptrs = ptrs
    return cs.cptrs


def advance_cell_c(fn: Any, sh: SharedArrays, cs: CellState,
                   max_now: int) -> int:
    return int(fn(sh.n, max_now, *cell_pointers(sh, cs)))
