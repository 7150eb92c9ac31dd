/* The C pass kernel of repro.sim.npsim: one circuit-independent
   entry point, repro_run_pass, runs a whole fault-simulation pass
   over the uint64 rows npsim hands it.  The first process on a source
   tree builds this file with $CC and keeps the library in __pycache__
   beside it (or under $REPRO_KERNEL_CACHE); later processes load that
   build.  cffi only dlopens the library, and npsim's cdef declares
   repro_run_pass with the same signature.  Opcode values mirror
   logicsim's OP_* constants.

   A pass's faulty machines are a list: machine bit k + 1 of every
   block is fault machines[k], whose entry in the fault-site table
   (four ints per fault: kind, net or flip-flop position, pin, value)
   says where it forces which value.  Kinds: 0 a stem (the net's
   value), 1 a fanout branch (pin `pin` of the gate driving the net),
   2 a flip-flop data-pin branch (the captured next state). */
typedef unsigned long long u64;

/* Force machine k's bit of every block of the rows z / o to v. */
static void repro_force(u64* z, u64* o, long k, int v, long BW,
                        long n_blocks) {
    long w = (k + 1) >> 6, b;
    u64 bit = 1ULL << ((k + 1) & 63);
    for (b = 0; b < n_blocks; b++, w += BW) {
        z[w] = v ? z[w] & ~bit : z[w] | bit;
        o[w] = v ? o[w] | bit : o[w] & ~bit;
    }
}

/* A pass's machine lists: each site's machines are linked from its
   head through next[k].  repro_force_list forces those of one list
   that force in frame f -- every one without `frames`, else those of
   that frame -- on the rows z / o; a branch machine forces its pin's
   rows, pin * W words on. */
typedef struct {
    const int* sites; const int* machines; const int* frames;
    const int* next; long f, BW, n_blocks, W;
} repro_list;

static void repro_force_list(const repro_list* L, long head, u64* z,
                             u64* o) {
    long k;
    for (k = head; k >= 0; k = L->next[k]) {
        const int* s = L->sites + 4L * L->machines[k];
        if (!L->frames || L->frames[k] == L->f)
            repro_force(z + (s[0] == 1 ? s[2] * L->W : 0),
                        o + (s[0] == 1 ? s[2] * L->W : 0), k, s[3],
                        L->BW, L->n_blocks);
    }
}

/* One frame against the trail: tz / to are the current sequence's
   captured rows at the checkpoint this frame reaches, later the
   machines that sequence still catches after it.  When the good
   machine's rows equal the trail's, both rails, a machine whose rows
   do too catches from here on exactly what later says.  Returns 1
   once the verdict is sure: such a machine is uncaught and outside
   later (caught is left as it is), or every machine is caught or in
   later with equal rows (caught gets every machine). */
static int repro_rejoin(const u64* nz, const u64* no, const u64* tz,
                        const u64* to, const u64* later,
                        const u64* mask, u64* caught, long W,
                        long n_ff) {
    long i, w;
    int sure = 1;
    for (w = 0; w < W; w++) {
        u64 m = w ? mask[w] : mask[w] & ~1ULL, eq = mask[w];
        for (i = 0; i < n_ff && eq; i++)
            eq &= ~((nz[i * W + w] ^ tz[i * W + w]) |
                    (no[i * W + w] ^ to[i * W + w]));
        if (w == 0 && !(eq & 1ULL))
            return 0;
        eq &= m;
        if (eq & ~caught[w] & ~later[w])
            return 1;
        if (((caught[w] | (eq & later[w])) & m) != m)
            sure = 0;
    }
    for (w = 0; w < W && sure; w++)
        caught[w] |= w ? mask[w] : mask[w] & ~1ULL;
    return sure;
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
   branch overrides (scratch copies of the overridden fanin rows) and
   post-gate stem forcing, when `force`. */
static void repro_eval_gates(
    u64* zero, u64* one, const u64* mask, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    const repro_list* L, const int* stem_head, const int* br_head,
    int force, u64* scr_z, u64* scr_o)
{
    long g, i, w, k;
    for (g = 0; g < n_gates; g++) {
        long out = g_out[g];
        long s = g_foff[g], e = g_foff[g + 1];
        long n = e - s;
        const u64* fz[64];
        const u64* fo[64];
        u64* zz = zero + out * W;
        u64* oo = one + out * W;
        int op = g_op[g];
        for (i = 0; i < n; i++) {
            fz[i] = zero + (long)g_fan[s + i] * W;
            fo[i] = one + (long)g_fan[s + i] * W;
        }
        if (force && br_head[out] >= 0) {
            u64 copied = 0;
            for (k = br_head[out]; k >= 0; k = L->next[k]) {
                long pin = L->sites[4L * L->machines[k] + 2];
                if (!((copied >> pin) & 1ULL)) {
                    for (w = 0; w < W; w++) {
                        scr_z[pin * W + w] = fz[pin][w];
                        scr_o[pin * W + w] = fo[pin][w];
                    }
                    fz[pin] = scr_z + pin * W;
                    fo[pin] = scr_o + pin * W;
                    copied |= 1ULL << pin;
                }
            }
            repro_force_list(L, br_head[out], scr_z, scr_o);
        }
        switch (op) {
        case 0: case 1:                  /* AND / NAND */
            for (w = 0; w < W; w++) { zz[w] = 0; oo[w] = mask[w]; }
            for (i = 0; i < n; i++)
                for (w = 0; w < W; w++) {
                    zz[w] |= fz[i][w];
                    oo[w] &= fo[i][w];
                }
            break;
        case 2: case 3:                  /* OR / NOR */
            for (w = 0; w < W; w++) { zz[w] = mask[w]; oo[w] = 0; }
            for (i = 0; i < n; i++)
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
            for (i = 1; i < n; i++)
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
        if (force)
            repro_force_list(L, stem_head[out], zz, oo);
    }
}

/* A pass over frames 0..n_frames - 1; returns the frames it ran.  The
   W words of a row are n_blocks blocks of W / n_blocks words; each
   block is one test with its own fault-free machine at its bit 0 and
   the n_machines listed machines after it (`mask`, W words of
   scratch, gets those bits).  vecs holds frames x blocks x PIs
   values, and block b observes its POs through frame block_last[b]
   and its scan-out at that frame (a NULL block_last: every block
   ends at the last frame).  Detect mode stops once every machine is
   caught; records mode fills per-frame PO and scan-out diff rows
   instead and never stops early.  Every machine forces in every
   frame when `frames` is NULL, else machine k only in frame
   frames[k].  `links` is scratch of 2 n_nets + n_ff + n_machines
   ints: the per-site machine lists, built once per call.

   A one-block pass may take a trail: rows of n_ff x W words per
   frame in trail_zero / trail_one, W words per frame in later.
   Records mode writes frame f's captured rows (after flip-flop
   branch forcing) to trail row f.  Detect mode with later, after
   frame f's detection step, checks the captured rows against trail
   row f (repro_rejoin) and stops once that makes the verdict sure:
   unsaturated when a machine can no longer be caught, saturated when
   every machine is caught or sure to be. */
long repro_run_pass(
    u64* zero, u64* one, u64* mask, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    long n_pi, const int* pi_ids,
    long n_po, const int* po_ids,
    long n_ff, const int* ff_ids, const int* ffd_ids,
    long n_nets, const int* sites,
    long n_machines, const int* machines, const int* frames,
    int* links,
    const unsigned char* vecs, long n_frames,
    long n_blocks, const long* block_last,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
    u64* rec_po, u64* rec_scan,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught,
    u64* trail_zero, u64* trail_one, const u64* later)
{
    long f, p, i, w, b, k;
    long BW = W / n_blocks, first = 0, last = n_frames - 1;
    int* stem_head = links;
    int* br_head = links + n_nets;
    int* ff_head = links + 2 * n_nets;
    int* next = ff_head + n_ff;
    repro_list L;
    L.sites = sites; L.machines = machines; L.frames = frames;
    L.next = next; L.BW = BW; L.n_blocks = n_blocks; L.W = W;
    for (w = 0; w < W; w++) {
        long lo = (w % BW) * 64, n = n_machines + 1 - lo;
        mask[w] = n >= 64 ? ~0ULL : n > 0 ? (1ULL << n) - 1 : 0;
    }
    for (i = 0; i < 2 * n_nets + n_ff; i++) links[i] = -1;
    if (frames) { first = n_frames; last = -1; }
    for (k = 0; k < n_machines; k++) {
        const int* s = sites + 4L * machines[k];
        int* head = (s[0] == 2 ? ff_head : s[0] == 1 ? br_head
                     : stem_head) + s[1];
        next[k] = *head;
        *head = (int)k;
        if (frames && frames[k] < first) first = frames[k];
        if (frames && frames[k] > last) last = frames[k];
    }
    for (f = 0; f < n_frames; f++) {
        /* A frame outside every machine's frame skips the forcing. */
        int force = f >= first && f <= last;
        L.f = f;
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
        /* Stems on source nets (PIs and FF outputs). */
        for (p = 0; force && p < n_pi + n_ff; p++) {
            long nid = p < n_pi ? pi_ids[p] : ff_ids[p - n_pi];
            repro_force_list(&L, stem_head[nid], zero + nid * W,
                             one + nid * W);
        }
        /* Gates in topological order. */
        repro_eval_gates(zero, one, mask, W, n_gates, g_op, g_out,
                         g_foff, g_fan, &L, stem_head, br_head, force,
                         scr_z, scr_o);
        /* Next state: captured FF data values + FF branch forcing. */
        for (i = 0; i < n_ff; i++) {
            const u64* dz = zero + (long)ffd_ids[i] * W;
            const u64* dn = one + (long)ffd_ids[i] * W;
            u64* nz = ns_zero + i * W;
            u64* no = ns_one + i * W;
            for (w = 0; w < W; w++) { nz[w] = dz[w]; no[w] = dn[w]; }
            if (force)
                repro_force_list(&L, ff_head[i], nz, no);
        }
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
            if (trail_zero)
                for (i = 0; i < n_ff * W; i++) {
                    trail_zero[f * n_ff * W + i] = ns_zero[i];
                    trail_one[f * n_ff * W + i] = ns_one[i];
                }
        } else {
            /* Detect mode: each block adds its PO diffs through its
               last frame and its scan-out diff at that frame to the
               caught machines; saturated once every machine is. */
            int sat = 1;
            for (b = 0; b < n_blocks; b++) {
                long end = block_last ? block_last[b] : n_frames - 1;
                if (observe_po && f <= end)
                    for (i = 0; i < n_po; i++)
                        repro_diff_acc(
                            zero + (long)po_ids[i] * W + b * BW,
                            one + (long)po_ids[i] * W + b * BW,
                            caught + b * BW, BW);
                if (scan_out && f == end)
                    repro_scan_diff(ns_zero, ns_one, W, n_ff,
                                    n_scan_obs, scan_obs, caught,
                                    b * BW, BW);
                caught[b * BW] &= ~1ULL;
            }
            if (later &&
                repro_rejoin(ns_zero, ns_one, trail_zero + f * n_ff * W,
                             trail_one + f * n_ff * W, later + f * W,
                             mask, caught, W, n_ff))
                return f + 1;
            for (w = 0; w < W && sat; w++) {
                u64 m = w % BW ? mask[w] : mask[w] & ~1ULL;
                if ((caught[w] & m) != m) sat = 0;
            }
            if (sat) return f + 1;
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
    return n_frames;
}
