/* The C pass kernel of repro.sim.npsim: one circuit-independent
   entry point, repro_run_pass, runs a whole fault-simulation pass
   over the uint64 rows and plan arrays npsim hands it.  npsim
   compiles this file with cffi once per process; its cdef declares
   repro_run_pass with the same signature.  Opcode values mirror
   logicsim's OP_* constants. */
typedef unsigned long long u64;

/* Force the machines of f0 to 0 and those of f1 to 1 (keep = mask &
   ~(f0 | f1)): all of them with a NULL `on`, else only the machines
   set in `on`. */
static void repro_blend(u64* z, u64* o, const u64* f0, const u64* f1,
                        const u64* keep, const u64* on, long W) {
    long w;
    if (!on) {
        for (w = 0; w < W; w++) {
            z[w] = (z[w] & keep[w]) | f0[w];
            o[w] = (o[w] & keep[w]) | f1[w];
        }
        return;
    }
    for (w = 0; w < W; w++) {
        u64 hold = keep[w] | ~on[w];
        z[w] = (z[w] & hold) | (f0[w] & on[w]);
        o[w] = (o[w] & hold) | (f1[w] & on[w]);
    }
}

static void repro_diff_acc(const u64* z, const u64* o, u64* acc,
                           long W) {
    long w;
    if (o[0] & 1ULL) {
        for (w = 0; w < W; w++) acc[w] |= z[w];
    } else if (z[0] & 1ULL) {
        for (w = 0; w < W; w++) acc[w] |= o[w];
    }
}

/* The scan-out diff of one block (words [at, at + BW) of each row)
   over the observed next-state rows: every flip-flop when
   n_scan_obs < 0, else the listed positions. */
static void repro_scan_diff(const u64* ns_zero, const u64* ns_one,
                            long W, long n_ff, long n_scan_obs,
                            const int* scan_obs, u64* acc, long at,
                            long BW) {
    long i, n = n_scan_obs < 0 ? n_ff : n_scan_obs;
    for (i = 0; i < n; i++) {
        long r = n_scan_obs < 0 ? i : (long)scan_obs[i];
        repro_diff_acc(ns_zero + r * W + at, ns_one + r * W + at,
                       acc + at, BW);
    }
}

/* One frame of gate evaluation in topological order, with fanout-
   branch overrides and post-gate stem forcing (of the machines `on`
   selects; none at all unless `force`). */
static void repro_eval_gates(
    u64* zero, u64* one, const u64* mask, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    const int* stem_site,
    const u64* st_f0, const u64* st_f1, const u64* st_keep,
    const int* br_start, const int* br_count,
    const int* br_pin, const u64* br_f0, const u64* br_f1,
    const u64* br_keep, const u64* on, int force,
    u64* scr_z, u64* scr_o)
{
    long g, i, w, b;
    for (g = 0; g < n_gates; g++) {
        long out = g_out[g];
        long s = g_foff[g], e = g_foff[g + 1];
        long k = e - s;
        const u64* fz[64];
        const u64* fo[64];
        u64* zz = zero + out * W;
        u64* oo = one + out * W;
        int op = g_op[g];
        long bc = force ? br_count[out] : 0;
        int ssite = force ? stem_site[out] : -1;
        for (i = 0; i < k; i++) {
            fz[i] = zero + (long)g_fan[s + i] * W;
            fo[i] = one + (long)g_fan[s + i] * W;
        }
        if (bc) {
            /* Fanout-branch overrides: force this gate's view of
               the overridden fanin pins (scratch copies). */
            u64 copied = 0;
            for (b = br_start[out]; b < br_start[out] + bc; b++) {
                long pin = br_pin[b];
                u64* cz = scr_z + pin * W;
                u64* co = scr_o + pin * W;
                if (!((copied >> pin) & 1ULL)) {
                    for (w = 0; w < W; w++) {
                        cz[w] = fz[pin][w];
                        co[w] = fo[pin][w];
                    }
                    fz[pin] = cz;
                    fo[pin] = co;
                    copied |= 1ULL << pin;
                }
                repro_blend(cz, co, br_f0 + b * W, br_f1 + b * W,
                            br_keep + b * W, on, W);
            }
        }
        switch (op) {
        case 0: case 1:                  /* AND / NAND */
            for (w = 0; w < W; w++) { zz[w] = 0; oo[w] = mask[w]; }
            for (i = 0; i < k; i++)
                for (w = 0; w < W; w++) {
                    zz[w] |= fz[i][w];
                    oo[w] &= fo[i][w];
                }
            break;
        case 2: case 3:                  /* OR / NOR */
            for (w = 0; w < W; w++) { zz[w] = mask[w]; oo[w] = 0; }
            for (i = 0; i < k; i++)
                for (w = 0; w < W; w++) {
                    zz[w] &= fz[i][w];
                    oo[w] |= fo[i][w];
                }
            break;
        case 4: case 5:                  /* XOR / XNOR pairwise */
            for (w = 0; w < W; w++) {
                zz[w] = fz[0][w];
                oo[w] = fo[0][w];
            }
            for (i = 1; i < k; i++)
                for (w = 0; w < W; w++) {
                    u64 nz = (zz[w] & fz[i][w]) | (oo[w] & fo[i][w]);
                    u64 no = (zz[w] & fo[i][w]) | (oo[w] & fz[i][w]);
                    zz[w] = nz;
                    oo[w] = no;
                }
            break;
        case 6: case 7:                  /* NOT / BUF */
            for (w = 0; w < W; w++) {
                zz[w] = fz[0][w];
                oo[w] = fo[0][w];
            }
            break;
        case 8:                          /* CONST0 */
            for (w = 0; w < W; w++) { zz[w] = mask[w]; oo[w] = 0; }
            break;
        default:                         /* CONST1 */
            for (w = 0; w < W; w++) { zz[w] = 0; oo[w] = mask[w]; }
        }
        if (op == 1 || op == 3 || op == 5 || op == 6) {
            /* Inverting gate: swap the value rails. */
            for (w = 0; w < W; w++) {
                u64 t = zz[w];
                zz[w] = oo[w];
                oo[w] = t;
            }
        }
        if (ssite >= 0)
            repro_blend(zz, oo, st_f0 + (long)ssite * W,
                        st_f1 + (long)ssite * W,
                        st_keep + (long)ssite * W, on, W);
    }
}

/* A pass over frames start_frame..last_frame.  The W words of a row
   are n_blocks blocks of W / n_blocks words; each block is one test
   with its own fault-free machine at its bit 0 and the plan's faulty
   machines after it.  vecs holds frames x blocks x PIs values, and
   block b observes its POs through frame block_last[b] and its
   scan-out at that frame (a NULL block_last: every block ends at
   last_frame).  Records mode fills per-frame PO and scan-out diff
   rows instead and never stops early.  Every site forces its
   machines in every frame when inj_on is NULL; otherwise inj_on
   holds one row of W words per frame and frame f forces only the
   machines set in row f. */
int repro_run_pass(
    u64* zero, u64* one, const u64* mask, const u64* live, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    long n_pi, const int* pi_ids,
    long n_po, const int* po_ids,
    long n_ff, const int* ff_ids, const int* ffd_ids,
    const int* stem_site,
    const u64* st_f0, const u64* st_f1, const u64* st_keep,
    long n_src_stem, const int* src_stem_ids, const int* src_stem_site,
    const int* br_start, const int* br_count,
    const int* br_pin, const u64* br_f0, const u64* br_f1,
    const u64* br_keep,
    long n_ffbr, const int* ffbr_pos,
    const u64* ffbr_f0, const u64* ffbr_f1, const u64* ffbr_keep,
    const u64* inj_on,
    const unsigned char* vecs,
    long start_frame, long last_frame,
    long n_blocks, const long* block_last,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
    u64* rec_po, u64* rec_scan,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught, long* stop_frame, long* frames_done)
{
    long f, p, i, w, b;
    long BW = W / n_blocks;
    for (f = start_frame; f <= last_frame; f++) {
        /* The machines this frame forces; a frame that forces none
           skips every blend. */
        const u64* on = inj_on ? inj_on + f * W : 0;
        int force = !on;
        for (w = 0; on && w < W && !force; w++)
            force = on[w] != 0;
        /* Load primary inputs, each block under its own mask words
           (pack_scalar semantics: 0 -> zero row, 1 -> one row, X ->
           neither). */
        for (p = 0; p < n_pi; p++) {
            u64* z = zero + (long)pi_ids[p] * W;
            u64* o = one + (long)pi_ids[p] * W;
            for (b = 0; b < n_blocks; b++) {
                unsigned char v = vecs[(f * n_blocks + b) * n_pi + p];
                for (w = b * BW; w < (b + 1) * BW; w++) {
                    z[w] = (v == 0) ? mask[w] : 0;
                    o[w] = (v == 1) ? mask[w] : 0;
                }
            }
        }
        /* Stems on source nets (PIs and FF outputs), every frame. */
        for (i = 0; force && i < n_src_stem; i++) {
            long nid = src_stem_ids[i];
            long s = src_stem_site[i];
            repro_blend(zero + nid * W, one + nid * W,
                        st_f0 + s * W, st_f1 + s * W,
                        st_keep + s * W, on, W);
        }
        /* Gates in topological order. */
        repro_eval_gates(zero, one, mask, W, n_gates, g_op, g_out,
                         g_foff, g_fan, stem_site, st_f0, st_f1,
                         st_keep, br_start, br_count, br_pin,
                         br_f0, br_f1, br_keep, on, force, scr_z,
                         scr_o);
        (*frames_done)++;
        /* Next state: captured FF data values + FF branch blends. */
        for (i = 0; i < n_ff; i++) {
            const u64* dz = zero + (long)ffd_ids[i] * W;
            const u64* dn = one + (long)ffd_ids[i] * W;
            u64* nz = ns_zero + i * W;
            u64* no = ns_one + i * W;
            for (w = 0; w < W; w++) { nz[w] = dz[w]; no[w] = dn[w]; }
        }
        for (b = 0; force && b < n_ffbr; b++)
            repro_blend(ns_zero + (long)ffbr_pos[b] * W,
                        ns_one + (long)ffbr_pos[b] * W,
                        ffbr_f0 + b * W, ffbr_f1 + b * W,
                        ffbr_keep + b * W, on, W);
        if (rec_po) {
            /* Records mode: per-frame PO and scan-out diff words, no
               early exit, flip-flops always advance. */
            u64* rp = rec_po + f * W;
            u64* rs = rec_scan + f * W;
            for (w = 0; w < W; w++) { rp[w] = 0; rs[w] = 0; }
            for (b = 0; b < n_blocks; b++) {
                for (i = 0; i < n_po; i++)
                    repro_diff_acc(zero + (long)po_ids[i] * W + b * BW,
                                   one + (long)po_ids[i] * W + b * BW,
                                   rp + b * BW, BW);
                repro_scan_diff(ns_zero, ns_one, W, n_ff, n_scan_obs,
                                scan_obs, rs, b * BW, BW);
            }
        } else {
            /* Detect mode: each block adds its PO diffs through its
               last frame and its scan-out diff at that frame to the
               caught machines. */
            int sat = 1;
            for (b = 0; b < n_blocks; b++) {
                long last = block_last ? block_last[b] : last_frame;
                if (observe_po && f <= last)
                    for (i = 0; i < n_po; i++)
                        repro_diff_acc(
                            zero + (long)po_ids[i] * W + b * BW,
                            one + (long)po_ids[i] * W + b * BW,
                            caught + b * BW, BW);
                if (scan_out && f == last)
                    repro_scan_diff(ns_zero, ns_one, W, n_ff,
                                    n_scan_obs, scan_obs, caught,
                                    b * BW, BW);
                caught[b * BW] &= ~1ULL;
            }
            /* Saturated once every live faulty machine is caught:
               machines outside `live` ride along but never hold a
               pass open. */
            for (b = 0; b < n_blocks && sat; b++)
                for (w = b * BW; w < (b + 1) * BW && sat; w++) {
                    u64 m = w == b * BW ? live[w] & ~1ULL : live[w];
                    if ((caught[w] & m) != m) sat = 0;
                }
            if (sat) { *stop_frame = f; return 1; }
        }
        for (i = 0; i < n_ff; i++) {
            u64* z = zero + (long)ff_ids[i] * W;
            u64* o = one + (long)ff_ids[i] * W;
            for (w = 0; w < W; w++) {
                z[w] = ns_zero[i * W + w];
                o[w] = ns_one[i * W + w];
            }
        }
    }
    *stop_frame = last_frame + 1;
    return 0;
}
