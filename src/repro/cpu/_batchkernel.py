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

The kernel runs one *cell* (a :class:`CellState`) to completion in one
call.  Its machine state lives in C locals; the cell's ``regs`` vector
carries the configuration in and the cycle count and counters out, and
its side arrays (rings, timestamps, cache images) are numpy allocations
made here.

Status codes returned by the kernel:

====  ========================================================
0     trace fully committed (``regs[R_NOW]`` is the cycle count)
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
from typing import Any, Optional, Tuple

# -- register layout -----------------------------------------------------------
# One int64 vector per cell: the kernel writes the cycle count, the
# commit count and the statistics counters, and reads the cell's
# configuration constants.  The C kernel mirrors these indices with
# #defines; the bit-identity tests against the inline simulator pin the
# layout.

# results
R_NOW = 0
R_COMMITTED = 1
R_F_ACTIVE = 2
R_F_ICACHE = 3
R_F_BRANCH = 4
R_F_SWITCH = 5
R_F_BP = 6
R_F_DRAINED = 7
R_FC_ACTIVE = 8
R_FC_ICACHE = 9
R_FC_BRANCH = 10
R_FC_SWITCH = 11
R_FC_BP = 12
R_IQ_OCC_SUM = 13
R_IQ_FULL = 14
R_ROB_OCC_SUM = 15
R_CDP_DECODED = 16
R_DC_ACC = 17
R_DC_MISS = 18
R_L2D_ACC = 19
R_L2_MISS = 20
R_DRAM_READS = 21
# configuration constants
R_COMMIT_W = 22
R_RENAME_W = 23
R_ISSUE_W = 24
R_ROB_ENTRIES = 25
R_IQ_ENTRIES = 26
R_DECODE_BYTES = 27
R_CDP_EXTRA = 28
R_FETCH_BYTES = 29
R_FQ_CAP = 30
R_DECODE_CAP = 31
R_SCHED_WIN = 32
R_BACKEND_PRIO = 33
R_REDIRECT_PEN = 34
R_SWITCH_BUBBLE = 35
R_FU_ALU = 36
R_FU_MUL = 37
R_FU_FP = 38
R_FU_MEM = 39
R_FU_BRANCH = 40
R_ICACHE_HIT = 41
R_L2_HIT = 42
R_DCACHE_HIT = 43
R_DC_ASSOC = 44
R_ROB_MASK = 45
R_FQ_MASK = 46
R_DQ_MASK = 47
R_PEND_MASK = 48
R_WHEEL_MASK = 49
R_L2_ASSOC = 50
R_DRAM_BANKS = 51
R_DRAM_ROW_HIT = 52
R_DRAM_ROW_MISS = 53

R_COUNT = 54

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
    """Read-only numpy views of one cell's trace columns and profiles."""

    __slots__ = (
        "n", "sizes", "lats", "fus", "flags", "bact", "crit",
        "iev", "ev_kind", "ev_lat", "ev_creator",
        "prod_ptr", "prod_idx", "cons_ptr", "cons_idx",
        "d_set", "d_tag",
        "d_l2", "iop_pos", "iop_call", "acc_slot", "acc_tag", "acc_row",
    )


class CellState:
    """The kernel's output and scratch arrays for one grid cell."""

    __slots__ = (
        "regs", "head_c", "fetch_c", "decode_c", "dispatch_c",
        "issue_c", "complete_c", "commit_c",
        "completed", "dispatched", "remaining",
        "rob", "fq", "dq", "pending", "ready", "readyc",
        "wheel_head", "wheel_tail", "next_comp", "ev_time",
        "dc_tags", "dc_occ", "window",
        "l2_tags", "l2_occ", "dram_rows",
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
    _, dc_assoc, dc_occ_img, dc_tags_img = profile.dc_snapshot
    _, l2_assoc, l2_occ_img, l2_tags_img = profile.l2_snapshot
    dram_banks, dram_row_hit, dram_row_miss = profile.dram

    rob_cap = pow2ceil(4 * config.rob_entries + 256)
    fq_cap_ring = pow2ceil(config.fetch_queue_entries)
    dq_cap = pow2ceil(config.decode_buffer_entries)
    wheel_cap = pow2ceil(max_latency + 2)
    ready_cap = config.issue_queue_entries + 8
    win_cap = 2 * max(config.scheduling_window, 1) + 2

    cs = CellState()
    regs = [0] * R_COUNT
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

#: pointer-argument order of the C entry point (after the scalar ``n``);
#: must match ``repro_batch_run`` exactly.
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
        fn = lib.repro_batch_run
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_longlong
    fn.argtypes = [ctypes.c_longlong] + [ctypes.c_void_p] * len(_PTR_FIELDS)
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


def run_cell(fn: Any, sh: SharedArrays, cs: CellState) -> int:
    """Run one cell on the kernel ``fn`` to completion; returns the
    kernel's status code."""
    ptrs = [getattr(sh, name).ctypes.data for name in _SHARED_FIELDS]
    ptrs += [getattr(cs, name).ctypes.data for name in _CELL_FIELDS]
    return int(fn(sh.n, *ptrs))
