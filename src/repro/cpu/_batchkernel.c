/* Batch-engine cycle kernel: the inline simulator's run() loop
 * (repro.cpu.pipeline.Simulator) over precomputed branch/memory
 * profiles.
 *
 * Compiled on demand by repro.cpu._batchkernel.get_kernel() with the
 * system C compiler (flags: _batchkernel._CFLAGS) and loaded via
 * ctypes.  The inline simulator is its reference: the golden-stats
 * gate, run under both engines, and the identity matrix
 * (tests/test_identity_matrix.py) require bit-identical SimStats.
 * Without a compiler the batch engine runs every cell inline instead.
 *
 * Memory model.  The d-cache is simulated here in full (runtime-ordered
 * LRU).  Of the shared L2, only the over-subscribed sets -- those that
 * receive more distinct lines than ways -- are simulated, from their
 * post-warm LRU images, together with the DRAM open-row table behind
 * them; every other set never evicts, so its accesses always hit.  The
 * access table (acc_slot/acc_tag/acc_row) lists the accesses to those
 * sets: first the i-side operations in position order (iop_pos/iop_call
 * say where each runs), then the d-side ones (d_l2 maps a position to
 * its entry).  As inline, d-side accesses happen at issue and i-side
 * ones at fetch, issue first within a cycle: an event of kind 2 is a
 * demand lookup, made when fetch consumes the event, followed by the
 * fetch-observer fills of that line; call-observer fills follow the
 * fetch of their call.
 *
 * One call runs a cell to completion.  Return codes: 0 done, 2 deadlock,
 * 3 ring overflow.
 */

/* register layout — must match _batchkernel.py exactly: the cycle
 * count and counters out, then the configuration in */
#define R_NOW 0
#define R_COMMITTED 1
#define R_F_ACTIVE 2
#define R_F_ICACHE 3
#define R_F_BRANCH 4
#define R_F_SWITCH 5
#define R_F_BP 6
#define R_F_DRAINED 7
#define R_FC_ACTIVE 8
#define R_FC_ICACHE 9
#define R_FC_BRANCH 10
#define R_FC_SWITCH 11
#define R_FC_BP 12
#define R_IQ_OCC_SUM 13
#define R_IQ_FULL 14
#define R_ROB_OCC_SUM 15
#define R_CDP_DECODED 16
#define R_DC_ACC 17
#define R_DC_MISS 18
#define R_L2D_ACC 19
#define R_L2_MISS 20
#define R_DRAM_READS 21
#define R_COMMIT_W 22
#define R_RENAME_W 23
#define R_ISSUE_W 24
#define R_ROB_ENTRIES 25
#define R_IQ_ENTRIES 26
#define R_DECODE_BYTES 27
#define R_CDP_EXTRA 28
#define R_FETCH_BYTES 29
#define R_FQ_CAP 30
#define R_DECODE_CAP 31
#define R_SCHED_WIN 32
#define R_BACKEND_PRIO 33
#define R_REDIRECT_PEN 34
#define R_SWITCH_BUBBLE 35
#define R_FU_ALU 36
#define R_FU_MUL 37
#define R_FU_FP 38
#define R_FU_MEM 39
#define R_FU_BRANCH 40
#define R_ICACHE_HIT 41
#define R_L2_HIT 42
#define R_DCACHE_HIT 43
#define R_DC_ASSOC 44
#define R_ROB_MASK 45
#define R_FQ_MASK 46
#define R_DQ_MASK 47
#define R_PEND_MASK 48
#define R_WHEEL_MASK 49
#define R_L2_ASSOC 50
#define R_DRAM_BANKS 51
#define R_DRAM_ROW_HIT 52
#define R_DRAM_ROW_MISS 53

#define FLAG_LOAD 1
#define FLAG_STORE 2
#define FLAG_CDP 4

/* repro.cpu.pipeline._WATCHDOG_PERIOD - 1 */
#define WD_MASK 8191

typedef long long i64;
typedef int i32;
typedef unsigned char u8;

/* Memory-side state of one cell: the d-cache, the over-subscribed L2
 * sets, the DRAM open-row table, and their counters. */
typedef struct {
    const i32 *d_set;
    const i64 *d_tag;
    const i32 *d_l2;
    const i32 *acc_slot;
    const i64 *acc_tag;
    const i64 *acc_row;
    i64 *dc_tags;
    i32 *dc_occ;
    i64 *l2_tags;
    i32 *l2_occ;
    i64 *dram_rows;
    i64 dc_assoc, l2_assoc, dcache_hit, l2_hit;
    i64 dram_banks, dram_row_hit, dram_row_miss;
    i64 dc_acc, dc_miss, l2d_acc, l2_miss, dram_reads;
} Mem;

/* One access to an LRU set of `assoc` ways (MRU first); LruPolicy's
 * access and fill share these recency mechanics.  Returns 1 on a hit. */
static inline int lru_touch(i64 *tags, i32 *occ, i64 set, i64 assoc,
                            i64 tag)
{
    i64 base = set * assoc;
    i64 used = occ[set];
    i64 way = -1, end, w;
    for (w = 0; w < used; w++) {
        if (tags[base + w] == tag) { way = w; break; }
    }
    if (way >= 0) {
        end = way;
    } else if (used < assoc) {
        occ[set] = (i32)(used + 1);
        end = used;
    } else {
        end = assoc - 1;
    }
    for (w = end; w > 0; w--) tags[base + w] = tags[base + w - 1];
    tags[base] = tag;
    return way >= 0;
}

/* The L2 helpers run only on accesses to over-subscribed sets, so they
 * stay out of line: inlining them buys no speed and costs compile time. */
#define COLD __attribute__((noinline))

/* Prefetch fill of access-table entry k into its over-subscribed set. */
static COLD void l2_fill(Mem *m, i64 k)
{
    lru_touch(m->l2_tags, m->l2_occ, m->acc_slot[k], m->l2_assoc,
              m->acc_tag[k]);
}

/* Demand lookup of access-table entry k (Cache.lookup); a miss reads
 * DRAM (Dram.access) unless `reads` is 0 (MemorySystem.store).  Returns
 * the DRAM latency, 0 on a hit. */
static COLD i64 l2_demand(Mem *m, i64 k, int reads)
{
    i64 row, bank;
    if (lru_touch(m->l2_tags, m->l2_occ, m->acc_slot[k], m->l2_assoc,
                  m->acc_tag[k]))
        return 0;
    m->l2_miss += 1;
    if (!reads) return 0;
    m->dram_reads += 1;
    row = m->acc_row[k];
    bank = row % m->dram_banks;
    if (m->dram_rows[bank] == row) return m->dram_row_hit;
    m->dram_rows[bank] = row;
    return m->dram_row_miss;
}

/* Execute latency of the instruction at `pos` issuing now, including
 * its data access (MemorySystem.load / .store). */
static inline i64 exec_latency(Mem *m, i64 pos, i64 latency, i64 flag)
{
    if (flag & (FLAG_LOAD | FLAG_STORE)) {
        i64 tag = m->d_tag[pos];
        if (tag >= 0) {
            i64 mlat = m->dcache_hit;
            m->dc_acc += 1;
            if (!lru_touch(m->dc_tags, m->dc_occ, m->d_set[pos],
                           m->dc_assoc, tag)) {
                i64 k = m->d_l2[pos];
                i64 dram = 0;
                m->dc_miss += 1;
                m->l2d_acc += 1;
                if (k >= 0) dram = l2_demand(m, k, flag & FLAG_LOAD);
                if (flag & FLAG_LOAD) mlat += m->l2_hit + dram;
            }
            if (mlat > latency) latency = mlat;
        }
    }
    return latency < 1 ? 1 : latency;
}

i64 repro_batch_run(
    i64 n,
    /* shared (read-only) */
    const i32 *sizes, const i32 *lats, const u8 *fus, const u8 *flags,
    const u8 *bact, const u8 *crit,
    const i32 *iev, const u8 *ev_kind, const i32 *ev_lat,
    const i32 *ev_creator,
    const i32 *prod_ptr, const i32 *prod_idx,
    const i32 *cons_ptr, const i32 *cons_idx,
    const i32 *d_set, const i64 *d_tag,
    const i32 *d_l2, const i32 *iop_pos, const u8 *iop_call,
    const i32 *acc_slot, const i64 *acc_tag, const i64 *acc_row,
    /* cell (mutable) */
    i64 *regs, i64 *head_c, i64 *fetch_c, i64 *decode_c, i64 *dispatch_c,
    i64 *issue_c, i64 *complete_c, i64 *commit_c,
    u8 *completed, u8 *dispatched, i32 *remaining,
    i32 *rob, i32 *fq, i32 *dq, i32 *pending, i32 *ready, i32 *readyc,
    i32 *wheel_head, i32 *wheel_tail, i32 *next_comp, i64 *ev_time,
    i64 *dc_tags, i32 *dc_occ, i32 *window,
    i64 *l2_tags, i32 *l2_occ, i64 *dram_rows)
{
    i64 now = 0, committed = 0, fetch_pos = 0;
    i64 icache_ready = 0, fetch_resume = 0, redirect_pos = -1;
    i64 rob_head = 0, rob_tail = 0, fq_head = 0, fq_tail = 0;
    i64 dq_head = 0, dq_tail = 0, pend_head = 0, pend_tail = 0;
    i64 nready = 0, nreadyc = 0, unissued = 0, next_ev = 0, in_flight = 0;
    i64 wd_committed = -1, wd_fetch_pos = -1, next_iop = 0;
    Mem mem = {0};

    i64 f_active = 0, f_icache = 0, f_branch = 0, f_switch = 0, f_bp = 0;
    i64 f_drained = 0;
    i64 fc_active = 0, fc_icache = 0, fc_branch = 0, fc_switch = 0;
    i64 fc_bp = 0;
    i64 iq_occ_sum = 0, iq_full = 0, rob_occ_sum = 0, cdp_decoded = 0;

    const i64 commit_w = regs[R_COMMIT_W];
    const i64 rename_w = regs[R_RENAME_W];
    const i64 issue_w = regs[R_ISSUE_W];
    const i64 rob_entries = regs[R_ROB_ENTRIES];
    const i64 iq_entries = regs[R_IQ_ENTRIES];
    const i64 decode_bytes_w = regs[R_DECODE_BYTES];
    const i64 cdp_extra = regs[R_CDP_EXTRA];
    const i64 fetch_bytes = regs[R_FETCH_BYTES];
    const i64 fq_cap = regs[R_FQ_CAP];
    const i64 decode_cap = regs[R_DECODE_CAP];
    const i64 sched_win = regs[R_SCHED_WIN];
    const i64 backend_prio = regs[R_BACKEND_PRIO];
    const i64 redirect_pen = regs[R_REDIRECT_PEN];
    const i64 switch_bubble = regs[R_SWITCH_BUBBLE];
    i64 fu_base[5];
    const i64 icache_hit = regs[R_ICACHE_HIT];
    const i64 l2_hit = regs[R_L2_HIT];
    const i64 rob_mask = regs[R_ROB_MASK];
    const i64 fq_mask = regs[R_FQ_MASK];
    const i64 dq_mask = regs[R_DQ_MASK];
    const i64 pend_mask = regs[R_PEND_MASK];
    const i64 wheel_mask = regs[R_WHEEL_MASK];

    i64 caps[5];
    fu_base[0] = regs[R_FU_ALU];
    fu_base[1] = regs[R_FU_MUL];
    fu_base[2] = regs[R_FU_FP];
    fu_base[3] = regs[R_FU_MEM];
    fu_base[4] = regs[R_FU_BRANCH];

    mem.d_set = d_set;
    mem.d_tag = d_tag;
    mem.d_l2 = d_l2;
    mem.acc_slot = acc_slot;
    mem.acc_tag = acc_tag;
    mem.acc_row = acc_row;
    mem.dc_tags = dc_tags;
    mem.dc_occ = dc_occ;
    mem.l2_tags = l2_tags;
    mem.l2_occ = l2_occ;
    mem.dram_rows = dram_rows;
    mem.dc_assoc = regs[R_DC_ASSOC];
    mem.l2_assoc = regs[R_L2_ASSOC];
    mem.dcache_hit = regs[R_DCACHE_HIT];
    mem.l2_hit = l2_hit;
    mem.dram_banks = regs[R_DRAM_BANKS];
    mem.dram_row_hit = regs[R_DRAM_ROW_HIT];
    mem.dram_row_miss = regs[R_DRAM_ROW_MISS];

    while (committed < n) {

        /* ---- commit ---- */
        {
            i64 width = commit_w;
            while (width && rob_head != rob_tail) {
                i64 pos = rob[rob_head & rob_mask];
                if (!completed[pos]) break;
                commit_c[pos] = now;
                rob_head += 1;
                committed += 1;
                width -= 1;
            }
        }

        /* ---- writeback / wake-up ---- */
        {
            i64 slot = now & wheel_mask;
            i64 link = wheel_head[slot];
            if (link) {
                wheel_head[slot] = 0;
                wheel_tail[slot] = 0;
                while (link) {
                    i64 pos = link - 1;
                    i64 k;
                    completed[pos] = 1;
                    complete_c[pos] = now;
                    in_flight -= 1;
                    for (k = cons_ptr[pos]; k < cons_ptr[pos + 1]; k++) {
                        i64 consumer = cons_idx[k];
                        if (dispatched[consumer]
                                && !completed[consumer]) {
                            i64 rem = remaining[consumer] - 1;
                            remaining[consumer] = (i32)rem;
                            if (rem == 0 && !sched_win) {
                                if (backend_prio && crit[consumer]) {
                                    readyc[nreadyc++] = (i32)consumer;
                                } else {
                                    ready[nready++] = (i32)consumer;
                                }
                            }
                        }
                    }
                    link = next_comp[pos];
                }
            }
        }

        /* ---- issue ---- */
        if (sched_win) {
            i64 slots = issue_w;
            i64 wn = 0, wcrit = 0, idx, i;
            while (pend_head != pend_tail
                    && issue_c[pending[pend_head & pend_mask]] >= 0)
                pend_head += 1;
            caps[0] = fu_base[0]; caps[1] = fu_base[1];
            caps[2] = fu_base[2]; caps[3] = fu_base[3];
            caps[4] = fu_base[4];
            idx = pend_head;
            while (idx != pend_tail && wn < sched_win) {
                i64 pos = pending[idx & pend_mask];
                if (issue_c[pos] < 0) window[wn++] = (i32)pos;
                idx += 1;
            }
            if (backend_prio && wn) {
                /* stable critical-first partition into the scratch
                 * upper half, then copy back */
                i64 m = 0;
                for (i = 0; i < wn; i++)
                    if (crit[window[i]]) window[wn + m++] = window[i];
                wcrit = m;
                for (i = 0; i < wn; i++)
                    if (!crit[window[i]]) window[wn + m++] = window[i];
                for (i = 0; i < wn; i++) window[i] = window[wn + i];
                (void)wcrit;
            }
            for (i = 0; i < wn; i++) {
                i64 pos = window[i];
                i64 t, slot2, tail;
                if (slots == 0) break;
                if (remaining[pos] != 0) continue;
                if (caps[fus[pos]] <= 0) continue;
                caps[fus[pos]] -= 1;
                slots -= 1;
                unissued -= 1;
                issue_c[pos] = now;
                t = now + exec_latency(&mem, pos, lats[pos], flags[pos]);
                slot2 = t & wheel_mask;
                tail = wheel_tail[slot2];
                if (tail) next_comp[tail - 1] = (i32)(pos + 1);
                else wheel_head[slot2] = (i32)(pos + 1);
                wheel_tail[slot2] = (i32)(pos + 1);
                next_comp[pos] = 0;
                in_flight += 1;
            }
        } else if (nready || nreadyc) {
            i64 slots = issue_w;
            i64 q;
            caps[0] = fu_base[0]; caps[1] = fu_base[1];
            caps[2] = fu_base[2]; caps[3] = fu_base[3];
            caps[4] = fu_base[4];
            for (q = backend_prio ? 1 : 0; q >= 0; q--) {
                i32 *queue = q ? readyc : ready;
                i64 count = q ? nreadyc : nready;
                i64 kept = 0, i;
                if (!count) continue;
                for (i = 0; i < count; i++) {
                    i64 pos = queue[i];
                    i64 t, slot2, tail;
                    if (slots == 0 || caps[fus[pos]] <= 0) {
                        queue[kept++] = (i32)pos;
                        continue;
                    }
                    caps[fus[pos]] -= 1;
                    slots -= 1;
                    unissued -= 1;
                    issue_c[pos] = now;
                    t = now + exec_latency(&mem, pos, lats[pos],
                                           flags[pos]);
                    slot2 = t & wheel_mask;
                    tail = wheel_tail[slot2];
                    if (tail) next_comp[tail - 1] = (i32)(pos + 1);
                    else wheel_head[slot2] = (i32)(pos + 1);
                    wheel_tail[slot2] = (i32)(pos + 1);
                    next_comp[pos] = 0;
                    in_flight += 1;
                }
                if (q) nreadyc = kept;
                else nready = kept;
            }
        }

        /* ---- dispatch / rename ---- */
        {
            i64 width = rename_w;
            while (width && dq_head != dq_tail
                    && rob_tail - rob_head < rob_entries
                    && unissued < iq_entries) {
                i64 pos = dq[dq_head & dq_mask];
                i64 rem = 0, k;
                dq_head += 1;
                unissued += 1;
                dispatch_c[pos] = now;
                dispatched[pos] = 1;
                for (k = prod_ptr[pos]; k < prod_ptr[pos + 1]; k++)
                    if (!completed[prod_idx[k]]) rem += 1;
                remaining[pos] = (i32)rem;
                if (rob_tail - rob_head > rob_mask) return 3;
                rob[rob_tail & rob_mask] = (i32)pos;
                rob_tail += 1;
                if (sched_win) {
                    if (pend_tail - pend_head > pend_mask) return 3;
                    pending[pend_tail & pend_mask] = (i32)pos;
                    pend_tail += 1;
                } else if (rem == 0) {
                    if (backend_prio && crit[pos]) {
                        readyc[nreadyc++] = (i32)pos;
                    } else {
                        ready[nready++] = (i32)pos;
                    }
                }
                width -= 1;
            }
        }

        /* ---- decode ---- */
        {
            i64 decode_bytes = decode_bytes_w;
            while (decode_bytes > 0 && fq_head != fq_tail
                    && dq_tail - dq_head < decode_cap) {
                i64 pos = fq[fq_head & fq_mask];
                i64 size = sizes[pos];
                if (size > decode_bytes) break;
                if (flags[pos] & FLAG_CDP) {
                    fq_head += 1;
                    decode_c[pos] = now;
                    cdp_decoded += 1;
                    completed[pos] = 1;
                    complete_c[pos] = now;
                    dispatch_c[pos] = now;
                    issue_c[pos] = now;
                    if (rob_tail - rob_head > rob_mask) return 3;
                    rob[rob_tail & rob_mask] = (i32)pos;
                    rob_tail += 1;
                    dispatched[pos] = 1;
                    decode_bytes -= size + cdp_extra;
                    continue;
                }
                fq_head += 1;
                decode_c[pos] = now;
                dq[dq_tail & dq_mask] = (i32)pos;
                dq_tail += 1;
                decode_bytes -= size;
            }
        }

        /* ---- fetch ---- */
        if (fetch_pos < n) {
            i64 is_crit_head;
            if (head_c[fetch_pos] < 0) head_c[fetch_pos] = now;
            is_crit_head = crit[fetch_pos];
            if (redirect_pos >= 0) {
                i64 done_c = complete_c[redirect_pos];
                if (done_c >= 0 && done_c + redirect_pen <= now)
                    redirect_pos = -1;
            }
            if (redirect_pos >= 0) {
                f_branch += 1;
                if (is_crit_head) fc_branch += 1;
            } else if (now < fetch_resume) {
                f_switch += 1;
                if (is_crit_head) fc_switch += 1;
            } else if (now < icache_ready) {
                f_icache += 1;
                if (is_crit_head) fc_icache += 1;
            } else if (fq_tail - fq_head >= fq_cap) {
                f_bp += 1;
                if (is_crit_head) fc_bp += 1;
            } else {
                i64 budget = fetch_bytes;
                i64 fetched = 0;
                i64 buffered = fq_tail - fq_head;
                icache_ready = 0;
                fetch_resume = 0;
                redirect_pos = -1;
                while (fetch_pos < n && budget > 0 && buffered < fq_cap) {
                    i64 size = sizes[fetch_pos];
                    i64 ev, pos, action;
                    if (size > budget) break;
                    ev = iev[fetch_pos];
                    if (ev >= next_ev) {
                        i64 latency;
                        ev_time[ev] = now;
                        next_ev = ev + 1;
                        if (ev_kind[ev] == 1) {
                            i64 residual = ev_time[ev_creator[ev]]
                                + l2_hit - now;
                            if (residual < 0) residual = 0;
                            latency = icache_hit + residual;
                        } else {
                            latency = ev_lat[ev];
                            if (ev_kind[ev] == 2)
                                latency += l2_demand(&mem, next_iop++, 1);
                        }
                        /* fetch-observer fills, right after the ifetch */
                        while (iop_pos[next_iop] == fetch_pos
                                && !iop_call[next_iop])
                            l2_fill(&mem, next_iop++);
                        if (latency > icache_hit) {
                            icache_ready = now + latency;
                            break;
                        }
                    }
                    budget -= size;
                    fq[fq_tail & fq_mask] = (i32)fetch_pos;
                    fq_tail += 1;
                    buffered += 1;
                    fetch_c[fetch_pos] = now;
                    if (head_c[fetch_pos] < 0) head_c[fetch_pos] = now;
                    fetched = 1;
                    pos = fetch_pos;
                    fetch_pos += 1;
                    /* call-observer fills, once the call is fetched */
                    while (iop_pos[next_iop] == pos)
                        l2_fill(&mem, next_iop++);
                    action = bact[pos];
                    if (action) {
                        if (action == 1) break;
                        if (action == 2) { redirect_pos = pos; break; }
                        fetch_resume = now + 1 + switch_bubble;
                        break;
                    }
                }
                if (fetched) {
                    f_active += 1;
                    if (is_crit_head) fc_active += 1;
                } else {
                    f_icache += 1;
                    if (is_crit_head) fc_icache += 1;
                }
            }
        } else {
            f_drained += 1;
        }

        iq_occ_sum += unissued;
        if (unissued >= iq_entries) iq_full += 1;
        rob_occ_sum += rob_tail - rob_head;

        if ((now & WD_MASK) == WD_MASK) {
            if (committed == wd_committed && fetch_pos == wd_fetch_pos
                    && !in_flight)
                return 2;
            wd_committed = committed;
            wd_fetch_pos = fetch_pos;
        }
        now += 1;
    }

    regs[R_NOW] = now;
    regs[R_COMMITTED] = committed;
    regs[R_F_ACTIVE] = f_active;
    regs[R_F_ICACHE] = f_icache;
    regs[R_F_BRANCH] = f_branch;
    regs[R_F_SWITCH] = f_switch;
    regs[R_F_BP] = f_bp;
    regs[R_F_DRAINED] = f_drained;
    regs[R_FC_ACTIVE] = fc_active;
    regs[R_FC_ICACHE] = fc_icache;
    regs[R_FC_BRANCH] = fc_branch;
    regs[R_FC_SWITCH] = fc_switch;
    regs[R_FC_BP] = fc_bp;
    regs[R_IQ_OCC_SUM] = iq_occ_sum;
    regs[R_IQ_FULL] = iq_full;
    regs[R_ROB_OCC_SUM] = rob_occ_sum;
    regs[R_CDP_DECODED] = cdp_decoded;
    regs[R_DC_ACC] = mem.dc_acc;
    regs[R_DC_MISS] = mem.dc_miss;
    regs[R_L2D_ACC] = mem.l2d_acc;
    regs[R_L2_MISS] = mem.l2_miss;
    regs[R_DRAM_READS] = mem.dram_reads;
    return 0;
}
