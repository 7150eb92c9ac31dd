"""The C-kernel pass executor: fault simulation on ``uint64`` arrays.

The big-int path keeps every net's packed machines in a pair of
Python integers and pays interpreter overhead per gate *and* per
frame: one arbitrary-precision bitwise op is cheap, but a 330-gate
frame costs hundreds of microseconds of bytecode dispatch, dict
probes for injection sites, and list traffic on the branch-fault
slow path.  This module re-hosts a pass chunk on arrays: per-net
words become a pair of ``(n_nets, n_words)`` ``uint64`` arrays
(net-major -- see DESIGN.md section 13 for the layout rationale) and
the whole pass loop runs in a *circuit-independent* C kernel,
compiled once per process with cffi and the system C compiler.  The
circuit (opcode/fanin tables) and the chunk's injection sites (stem /
fanout-branch / flip-flop-branch forcing masks) are handed over as
dense plan arrays, so a frame costs a few microseconds with zero
per-frame Python work; Python regains control only at pass
boundaries and at in-pass repack points.

With numpy, cffi and a C compiler present, every fault-simulation
pass chunk runs here; otherwise
:attr:`repro.sim.logicsim.CompiledCircuit.array_backend` is ``None``
and everything runs on big-int words
(:func:`kernel_unavailable_reason` says why).  The kernel mirrors
:class:`repro.sim.fault_sim.FaultSimulator`'s big-int pass loops
operation for operation -- load, source stems, topological gate
evaluation with branch overrides and post-gate stem forcing,
next-state capture with flip-flop branch blends, PO / scan
observation, the ``caught`` bookkeeping, the saturation break and
the in-pass repack trigger -- so detection sets are byte-identical
either way (enforced by the production-vs-reference equivalence
suites and the sanitizer's shadow checks).

numpy and cffi are optional dependencies: install the ``fast`` extra
(``pip install repro[fast]``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile
from collections import OrderedDict
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Set, Tuple, Union)

from . import values as V

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fault_sim import FaultSimulator, _Chunk, _LaneChunk
    from .logicsim import CompiledCircuit


class MissingNumpyError(ImportError):
    """numpy is not installed (the backend cannot be built)."""


def require_numpy() -> Any:
    """Import and return numpy, or raise an actionable error."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy present in CI
        raise MissingNumpyError(
            "the C-kernel array backend requires numpy; install the "
            "optional extra with `pip install repro[fast]`.  Without "
            "it every simulation runs on big-int words, with the "
            "same results") from exc
    return numpy


def numpy_available() -> bool:
    """True when numpy can be imported."""
    try:
        require_numpy()
    except MissingNumpyError:
        return False
    return True


# ----------------------------------------------------------------------
# The circuit-independent C kernel
# ----------------------------------------------------------------------
# One C function runs a whole pass (many frames) over the array state.
# It is generated once -- the circuit travels in plan arrays, not in
# the source -- so the process pays a single sub-second compile no
# matter how many circuits it simulates.  Opcode values mirror
# logicsim's OP_* constants (asserted at backend build time).

_KERNEL_SOURCE = r"""
typedef unsigned long long u64;

static void repro_blend(u64* z, u64* o, const u64* f0, const u64* f1,
                        const u64* keep, long W) {
    long w;
    for (w = 0; w < W; w++) {
        z[w] = (z[w] & keep[w]) | f0[w];
        o[w] = (o[w] & keep[w]) | f1[w];
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

/* One frame of gate evaluation in topological order, with fanout-
   branch overrides and post-gate stem forcing -- shared by the
   detect/records pass and the lane-transposed trial pass so the two
   can never drift apart. */
static void repro_eval_gates(
    u64* zero, u64* one, const u64* mask, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    const int* stem_site,
    const u64* st_f0, const u64* st_f1, const u64* st_keep,
    const int* br_start, const int* br_count,
    const int* br_pin, const u64* br_f0, const u64* br_f1,
    const u64* br_keep,
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
        long bc = br_count[out];
        int ssite = stem_site[out];
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
                            br_keep + b * W, W);
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
                        st_keep + (long)ssite * W, W);
    }
}

int repro_run_pass(
    u64* zero, u64* one, const u64* mask, long W,
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
    const unsigned char* vecs,
    long start_frame, long last_frame,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
    int early_exit, long repack_min_machines,
    long repack_min_frames_left, long n_machines,
    u64* rec_po, u64* rec_scan,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught, long* stop_frame, long* frames_done)
{
    long f, p, i, w, b;
    for (f = start_frame; f <= last_frame; f++) {
        /* Load primary inputs (pack_scalar semantics: 0 -> zero row,
           1 -> one row, X -> neither). */
        const unsigned char* vec = vecs + f * n_pi;
        for (p = 0; p < n_pi; p++) {
            u64* z = zero + (long)pi_ids[p] * W;
            u64* o = one + (long)pi_ids[p] * W;
            unsigned char v = vec[p];
            for (w = 0; w < W; w++) {
                z[w] = (v == 0) ? mask[w] : 0;
                o[w] = (v == 1) ? mask[w] : 0;
            }
        }
        /* Stems on source nets (PIs and FF outputs), every frame. */
        for (i = 0; i < n_src_stem; i++) {
            long nid = src_stem_ids[i];
            long s = src_stem_site[i];
            repro_blend(zero + nid * W, one + nid * W,
                        st_f0 + s * W, st_f1 + s * W,
                        st_keep + s * W, W);
        }
        /* Gates in topological order. */
        repro_eval_gates(zero, one, mask, W, n_gates, g_op, g_out,
                         g_foff, g_fan, stem_site, st_f0, st_f1,
                         st_keep, br_start, br_count, br_pin,
                         br_f0, br_f1, br_keep, scr_z, scr_o);
        (*frames_done)++;
        /* Next state: captured FF data values + FF branch blends. */
        for (i = 0; i < n_ff; i++) {
            const u64* dz = zero + (long)ffd_ids[i] * W;
            const u64* dn = one + (long)ffd_ids[i] * W;
            u64* nz = ns_zero + i * W;
            u64* no = ns_one + i * W;
            for (w = 0; w < W; w++) { nz[w] = dz[w]; no[w] = dn[w]; }
        }
        for (b = 0; b < n_ffbr; b++)
            repro_blend(ns_zero + (long)ffbr_pos[b] * W,
                        ns_one + (long)ffbr_pos[b] * W,
                        ffbr_f0 + b * W, ffbr_f1 + b * W,
                        ffbr_keep + b * W, W);
        if (rec_po) {
            /* Records mode: per-frame PO and scan-out diff words, no
               early exit, flip-flops always advance. */
            u64* rp = rec_po + f * W;
            u64* rs = rec_scan + f * W;
            for (w = 0; w < W; w++) { rp[w] = 0; rs[w] = 0; }
            for (i = 0; i < n_po; i++)
                repro_diff_acc(zero + (long)po_ids[i] * W,
                               one + (long)po_ids[i] * W, rp, W);
            if (n_scan_obs < 0) {
                for (i = 0; i < n_ff; i++)
                    repro_diff_acc(ns_zero + i * W, ns_one + i * W,
                                   rs, W);
            } else {
                for (i = 0; i < n_scan_obs; i++)
                    repro_diff_acc(ns_zero + (long)scan_obs[i] * W,
                                   ns_one + (long)scan_obs[i] * W,
                                   rs, W);
            }
            for (i = 0; i < n_ff; i++) {
                u64* z = zero + (long)ff_ids[i] * W;
                u64* o = one + (long)ff_ids[i] * W;
                for (w = 0; w < W; w++) {
                    z[w] = ns_zero[i * W + w];
                    o[w] = ns_one[i * W + w];
                }
            }
            continue;
        }
        /* Detect mode: accumulate caught machines. */
        if (observe_po)
            for (i = 0; i < n_po; i++)
                repro_diff_acc(zero + (long)po_ids[i] * W,
                               one + (long)po_ids[i] * W, caught, W);
        if (scan_out && f == last_frame) {
            if (n_scan_obs < 0) {
                for (i = 0; i < n_ff; i++)
                    repro_diff_acc(ns_zero + i * W, ns_one + i * W,
                                   caught, W);
            } else {
                for (i = 0; i < n_scan_obs; i++)
                    repro_diff_acc(ns_zero + (long)scan_obs[i] * W,
                                   ns_one + (long)scan_obs[i] * W,
                                   caught, W);
            }
        }
        caught[0] &= ~1ULL;
        {
            int sat = 1;
            for (w = 0; w < W; w++) {
                u64 m = mask[w];
                if (w == 0) m &= ~1ULL;
                if (caught[w] != m) { sat = 0; break; }
            }
            if (sat) { *stop_frame = f; return 1; }
        }
        if (early_exit) {
            u64 any = 0;
            long pc = 0;
            for (w = 0; w < W; w++) {
                any |= caught[w];
                pc += __builtin_popcountll(caught[w]);
            }
            if (any && n_machines >= repack_min_machines &&
                    (last_frame - f) >= repack_min_frames_left &&
                    2 * pc >= n_machines) {
                *stop_frame = f;
                return 2;
            }
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

/* Lane-transposed trial pass: each lane carries an independent test
   (its own scan-in state and PI sequence), each lane *block* one
   injected fault, and the fault-free reference arrives pre-computed
   (and pre-replicated across blocks) from a separate good pass.
   `act` masks the lanes still inside their own sequence at a frame
   (PO observation), `end_mask` the lanes whose last frame it is
   (scan-out diff against the captured state).  No repack, no early
   exit beyond full saturation (status 1); mirrors FaultSimulator.
   _run_trial_chunk word for word. */
int repro_run_lane_pass(
    u64* zero, u64* one, const u64* mask, long W,
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
    long n_frames,
    const u64* pi_zero, const u64* pi_one,
    const u64* act, const u64* end_mask,
    int observe_po,
    const u64* good_po_z, const u64* good_po_o,
    long n_slots, const int* slot_pos,
    const u64* good_sc_z, const u64* good_sc_o,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught, long* frames_done)
{
    long f, p, i, w, b;
    for (f = 0; f < n_frames; f++) {
        /* Load per-lane primary-input words (pre-replicated). */
        for (p = 0; p < n_pi; p++) {
            u64* z = zero + (long)pi_ids[p] * W;
            u64* o = one + (long)pi_ids[p] * W;
            const u64* pz = pi_zero + (f * n_pi + p) * W;
            const u64* po = pi_one + (f * n_pi + p) * W;
            for (w = 0; w < W; w++) { z[w] = pz[w]; o[w] = po[w]; }
        }
        for (i = 0; i < n_src_stem; i++) {
            long nid = src_stem_ids[i];
            long s = src_stem_site[i];
            repro_blend(zero + nid * W, one + nid * W,
                        st_f0 + s * W, st_f1 + s * W,
                        st_keep + s * W, W);
        }
        repro_eval_gates(zero, one, mask, W, n_gates, g_op, g_out,
                         g_foff, g_fan, stem_site, st_f0, st_f1,
                         st_keep, br_start, br_count, br_pin,
                         br_f0, br_f1, br_keep, scr_z, scr_o);
        (*frames_done)++;
        for (i = 0; i < n_ff; i++) {
            const u64* dz = zero + (long)ffd_ids[i] * W;
            const u64* dn = one + (long)ffd_ids[i] * W;
            u64* nz = ns_zero + i * W;
            u64* no = ns_one + i * W;
            for (w = 0; w < W; w++) { nz[w] = dz[w]; no[w] = dn[w]; }
        }
        for (b = 0; b < n_ffbr; b++)
            repro_blend(ns_zero + (long)ffbr_pos[b] * W,
                        ns_one + (long)ffbr_pos[b] * W,
                        ffbr_f0 + b * W, ffbr_f1 + b * W,
                        ffbr_keep + b * W, W);
        if (observe_po) {
            const u64* a = act + f * W;
            for (i = 0; i < n_po; i++) {
                const u64* gz = good_po_z + (f * n_po + i) * W;
                const u64* go = good_po_o + (f * n_po + i) * W;
                const u64* fz = zero + (long)po_ids[i] * W;
                const u64* fo = one + (long)po_ids[i] * W;
                for (w = 0; w < W; w++)
                    caught[w] |= a[w] &
                        ((gz[w] & fo[w]) | (go[w] & fz[w]));
            }
        }
        if (n_slots) {
            const u64* e = end_mask + f * W;
            u64 any_end = 0;
            for (w = 0; w < W; w++) any_end |= e[w];
            if (any_end) {
                for (i = 0; i < n_slots; i++) {
                    const u64* gz = good_sc_z + (f * n_slots + i) * W;
                    const u64* go = good_sc_o + (f * n_slots + i) * W;
                    const u64* nz = ns_zero + (long)slot_pos[i] * W;
                    const u64* no = ns_one + (long)slot_pos[i] * W;
                    for (w = 0; w < W; w++)
                        caught[w] |= e[w] &
                            ((gz[w] & no[w]) | (go[w] & nz[w]));
                }
            }
        }
        {
            int sat = 1;
            for (w = 0; w < W; w++)
                if (caught[w] != mask[w]) { sat = 0; break; }
            if (sat) return 1;
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
    return 0;
}

/* Fault-free lane pass: the good-value reference for the trial pass
   above.  Each lane carries one trial's own PI sequence; no faults
   are injected (the caller passes an empty plan: stem_site all -1,
   br_count all 0).  Emits per-frame PO lane words and the captured
   next-state words of the observed scan slots -- every frame, the
   Python caller slices by its end masks.  Mirrors FaultSimulator.
   _good_trial_pass word for word. */
void repro_run_good_lane_pass(
    u64* zero, u64* one, const u64* mask, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    long n_pi, const int* pi_ids,
    long n_po, const int* po_ids,
    long n_ff, const int* ff_ids, const int* ffd_ids,
    const int* stem_site,
    const u64* st_f0, const u64* st_f1, const u64* st_keep,
    const int* br_start, const int* br_count,
    const int* br_pin, const u64* br_f0, const u64* br_f1,
    const u64* br_keep,
    long n_frames,
    const u64* pi_zero, const u64* pi_one,
    int observe_po, u64* good_po_z, u64* good_po_o,
    long n_slots, const int* slot_pos,
    u64* good_sc_z, u64* good_sc_o,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o)
{
    long f, p, i, w;
    for (f = 0; f < n_frames; f++) {
        for (p = 0; p < n_pi; p++) {
            u64* z = zero + (long)pi_ids[p] * W;
            u64* o = one + (long)pi_ids[p] * W;
            const u64* pz = pi_zero + (f * n_pi + p) * W;
            const u64* po = pi_one + (f * n_pi + p) * W;
            for (w = 0; w < W; w++) { z[w] = pz[w]; o[w] = po[w]; }
        }
        repro_eval_gates(zero, one, mask, W, n_gates, g_op, g_out,
                         g_foff, g_fan, stem_site, st_f0, st_f1,
                         st_keep, br_start, br_count, br_pin,
                         br_f0, br_f1, br_keep, scr_z, scr_o);
        if (observe_po) {
            u64* gz = good_po_z + f * n_po * W;
            u64* go = good_po_o + f * n_po * W;
            for (i = 0; i < n_po; i++) {
                const u64* z = zero + (long)po_ids[i] * W;
                const u64* o = one + (long)po_ids[i] * W;
                for (w = 0; w < W; w++) {
                    gz[i * W + w] = z[w];
                    go[i * W + w] = o[w];
                }
            }
        }
        for (i = 0; i < n_ff; i++) {
            const u64* dz = zero + (long)ffd_ids[i] * W;
            const u64* dn = one + (long)ffd_ids[i] * W;
            for (w = 0; w < W; w++) {
                ns_zero[i * W + w] = dz[w];
                ns_one[i * W + w] = dn[w];
            }
        }
        if (n_slots) {
            u64* sz = good_sc_z + f * n_slots * W;
            u64* so = good_sc_o + f * n_slots * W;
            for (i = 0; i < n_slots; i++) {
                long pos = slot_pos[i];
                for (w = 0; w < W; w++) {
                    sz[i * W + w] = ns_zero[pos * W + w];
                    so[i * W + w] = ns_one[pos * W + w];
                }
            }
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
}
"""

_KERNEL_CDEF = """
typedef unsigned long long u64;
int repro_run_pass(
    u64* zero, u64* one, const u64* mask, long W,
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
    const unsigned char* vecs,
    long start_frame, long last_frame,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
    int early_exit, long repack_min_machines,
    long repack_min_frames_left, long n_machines,
    u64* rec_po, u64* rec_scan,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught, long* stop_frame, long* frames_done);
int repro_run_lane_pass(
    u64* zero, u64* one, const u64* mask, long W,
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
    long n_frames,
    const u64* pi_zero, const u64* pi_one,
    const u64* act, const u64* end_mask,
    int observe_po,
    const u64* good_po_z, const u64* good_po_o,
    long n_slots, const int* slot_pos,
    const u64* good_sc_z, const u64* good_sc_o,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught, long* frames_done);
void repro_run_good_lane_pass(
    u64* zero, u64* one, const u64* mask, long W,
    long n_gates, const int* g_op, const int* g_out,
    const long* g_foff, const int* g_fan,
    long n_pi, const int* pi_ids,
    long n_po, const int* po_ids,
    long n_ff, const int* ff_ids, const int* ffd_ids,
    const int* stem_site,
    const u64* st_f0, const u64* st_f1, const u64* st_keep,
    const int* br_start, const int* br_count,
    const int* br_pin, const u64* br_f0, const u64* br_f1,
    const u64* br_keep,
    long n_frames,
    const u64* pi_zero, const u64* pi_one,
    int observe_po, u64* good_po_z, u64* good_po_o,
    long n_slots, const int* slot_pos,
    u64* good_sc_z, u64* good_sc_o,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o);
"""

#: Kernel pass-loop return codes.
_STATUS_DONE = 0
_STATUS_SATURATED = 1
_STATUS_REPACK = 2

#: Process-lifetime kernel cache: (ffi, lib) or an unavailability
#: reason string.  Compiled lazily on first backend construction.
_KERNEL: Optional[Tuple[Any, Any]] = None
_KERNEL_ERROR: Optional[str] = None
_KERNEL_TRIED = False


def _find_cc() -> Optional[str]:
    """The C compiler to use: ``$CC``, then ``cc``, then ``gcc``."""
    env = os.environ.get("CC")
    if env:
        return env if os.path.sep in env else shutil.which(env)
    return shutil.which("cc") or shutil.which("gcc")


def _kernel_cache_path() -> Optional[str]:
    """Cross-process kernel cache: ``$REPRO_KERNEL_CACHE/<hash>.so``.

    The filename is keyed on the kernel source *and* its cdef, so a
    restored cache directory (CI persists it across jobs) can never
    dlopen a shared object built from different source -- a source
    change simply misses the cache and recompiles.  Unset env means
    no cache: every process compiles into its own tempdir as before.
    """
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        return None
    digest = hashlib.sha256(
        (_KERNEL_CDEF + _KERNEL_SOURCE).encode()).hexdigest()[:16]
    return os.path.join(root, f"repro_kernel-{digest}.so")


def _load_kernel() -> Optional[Tuple[Any, Any]]:
    """Compile and dlopen the pass kernel once per process.

    Returns ``(ffi, lib)`` or ``None`` (reason in
    :func:`kernel_unavailable_reason`).  Never raises: a missing
    compiler or cffi just disables the fast path.
    """
    global _KERNEL, _KERNEL_ERROR, _KERNEL_TRIED
    if _KERNEL_TRIED:
        return _KERNEL
    _KERNEL_TRIED = True
    try:
        from cffi import FFI
    except ImportError:
        _KERNEL_ERROR = "cffi is not installed"
        return None
    cached = _kernel_cache_path()
    if cached is not None and os.path.exists(cached):
        try:
            ffi = FFI()
            ffi.cdef(_KERNEL_CDEF)
            lib = ffi.dlopen(cached)
            _KERNEL = (ffi, lib)
            return _KERNEL
        except Exception:  # pragma: no cover - corrupt cache entry
            pass  # fall through to a fresh compile
    cc = _find_cc()
    if cc is None:
        _KERNEL_ERROR = "no C compiler found (set $CC)"
        return None
    tmpdir = tempfile.mkdtemp(prefix="repro-np-kernel-")
    c_path = os.path.join(tmpdir, "repro_kernel.c")
    so_path = os.path.join(tmpdir, "repro_kernel.so")
    try:
        with open(c_path, "w") as handle:
            handle.write(_KERNEL_SOURCE)
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", so_path, c_path],
            check=True, capture_output=True, timeout=120)
        ffi = FFI()
        ffi.cdef(_KERNEL_CDEF)
        lib = ffi.dlopen(so_path)
    except Exception as exc:  # pragma: no cover - toolchain-specific
        _KERNEL_ERROR = f"kernel build failed: {exc}"
        return None
    if cached is not None:
        try:
            os.makedirs(os.path.dirname(cached), exist_ok=True)
            # Atomic publish: concurrent processes may race here, but
            # every writer produces an identical file.
            tmp_copy = f"{cached}.tmp-{os.getpid()}"
            shutil.copy(so_path, tmp_copy)
            os.replace(tmp_copy, cached)
        except OSError:  # pragma: no cover - read-only cache dir
            pass
    _KERNEL = (ffi, lib)
    return _KERNEL


#: Most fanins one gate may have on the kernel route (the kernel holds
#: a gate's fanin row pointers in fixed arrays of this size).
MAX_FANIN = 64


def kernel_unavailable_reason(
        circuit: "Optional[CompiledCircuit]" = None) -> Optional[str]:
    """Why pass chunks cannot run on the C kernel, or ``None``.

    Without ``circuit`` this reports on the host: numpy, cffi and a C
    compiler (or a cached kernel) are all needed.  With ``circuit`` it
    also reports a gate with more than :data:`MAX_FANIN` fanins, which
    keeps that circuit on big-int words.
    """
    if importlib.util.find_spec("numpy") is None:
        return "numpy is not installed"
    _load_kernel()
    if _KERNEL_ERROR is not None:
        return _KERNEL_ERROR
    if circuit is not None:
        arity = max([len(fins) for _, _, fins in circuit.ops] or [0])
        if arity > MAX_FANIN:
            return (f"a gate has {arity} fanins; the kernel holds at "
                    f"most {MAX_FANIN}")
    return None


# ----------------------------------------------------------------------
# Per-chunk injection plan
# ----------------------------------------------------------------------


def _rows_array(np: Any, words: Sequence[int], n_words: int) -> Any:
    """Big-int words as a ``(max(1, len(words)), n_words)`` uint64
    array, in one buffer conversion (a per-row
    :func:`~repro.sim.values.word_to_array` loop is the plan-build
    hot spot on short passes)."""
    if not words:
        return np.zeros((1, n_words), dtype=np.uint64)
    size = n_words * 8
    data = b"".join(w.to_bytes(size, "little") for w in words)
    return np.frombuffer(data, dtype="<u8").reshape(
        len(words), n_words).copy()


class _ChunkPlan:
    """Dense array form of one :class:`_Chunk`'s injection data.

    Blend order mirrors the big-int engine exactly: branch entries
    apply in their list order, flip-flop branch entries likewise, and
    every blend uses its own ``keep = mask & ~(m0 | m1)`` -- so
    repeated sites on one pin compose identically.

    ``n_bits`` is the word width in machine bits; it defaults to the
    :class:`_Chunk` layout (``len(indices) + 1`` for the good bit)
    and must be passed explicitly for :class:`_LaneChunk` layouts
    (``n_groups * n_lanes``, no good bit) -- both chunk flavors carry
    the same ``mask`` / ``stems`` / ``branch`` / ``ff_branch`` /
    ``src_stem_ids`` fields this plan consumes.
    """

    def __init__(self, backend: "ArrayBackend",
                 chunk: "Union[_Chunk, _LaneChunk]",
                 n_bits: Optional[int] = None) -> None:
        np = backend.np
        self.chunk = chunk
        if n_bits is None:
            n_bits = len(chunk.indices) + 1
        self.n_words = (n_bits + 63) // 64
        W = self.n_words
        self.mask = V.word_to_array(chunk.mask, W)
        n_nets = backend.circuit.n_nets

        stems = list(chunk.stems.items())
        self.stem_site = np.full(n_nets, -1, dtype=np.int32)
        for i, (nid, _) in enumerate(stems):
            self.stem_site[nid] = i
        self.st_f0 = _rows_array(np, [m0 for _, (m0, _) in stems], W)
        self.st_f1 = _rows_array(np, [m1 for _, (_, m1) in stems], W)
        self.st_keep = _rows_array(
            np, [chunk.mask & ~(m0 | m1) for _, (m0, m1) in stems], W)
        self.src_stem_ids = np.asarray(chunk.src_stem_ids,
                                       dtype=np.int32)
        self.src_stem_site = np.asarray(
            [int(self.stem_site[nid]) for nid in chunk.src_stem_ids],
            dtype=np.int32)

        self.br_start = np.zeros(n_nets, dtype=np.int32)
        self.br_count = np.zeros(n_nets, dtype=np.int32)
        br_pin: List[int] = []
        br_rows: List[Tuple[int, int]] = []
        for out, entries in chunk.branch.items():
            self.br_start[out] = len(br_pin)
            self.br_count[out] = len(entries)
            for pin, m0, m1 in entries:
                br_pin.append(pin)
                br_rows.append((m0, m1))
        self.br_pin = np.asarray(br_pin or [0], dtype=np.int32)
        self.br_f0 = _rows_array(np, [m0 for m0, _ in br_rows], W)
        self.br_f1 = _rows_array(np, [m1 for _, m1 in br_rows], W)
        self.br_keep = _rows_array(
            np, [chunk.mask & ~(m0 | m1) for m0, m1 in br_rows], W)

        self.n_ffbr = len(chunk.ff_branch)
        self.ffbr_pos = np.asarray(
            [pos for pos, _, _ in chunk.ff_branch] or [0],
            dtype=np.int32)
        self.ffbr_f0 = _rows_array(
            np, [m0 for _, m0, _ in chunk.ff_branch], W)
        self.ffbr_f1 = _rows_array(
            np, [m1 for _, _, m1 in chunk.ff_branch], W)
        self.ffbr_keep = _rows_array(
            np, [chunk.mask & ~(m0 | m1)
                 for _, m0, m1 in chunk.ff_branch], W)
        #: Lazily built cffi casts of this plan's arrays; reset to
        #: ``None`` whenever the arrays are swapped after construction
        #: (see :meth:`ArrayBackend._kernel_segment`).
        self._kptrs: Optional[Tuple[Any, ...]] = None


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class ArrayBackend:
    """C-kernel pass executor bound to one compiled circuit.

    Built by :attr:`repro.sim.logicsim.CompiledCircuit.array_backend`
    when :func:`kernel_unavailable_reason` finds nothing missing for
    the circuit; constructing one directly requires the same.
    """

    def __init__(self, circuit: "CompiledCircuit") -> None:
        reason = kernel_unavailable_reason(circuit)
        if reason is not None:
            raise ValueError(f"no C-kernel backend: {reason}")
        self.np = require_numpy()
        np = self.np
        self.circuit = circuit
        ops = circuit.ops
        self.n_gates = len(ops)
        self.max_arity = max([len(f) for _, _, f in ops] or [1])
        self.g_op = np.asarray([op for op, _, _ in ops] or [0],
                               dtype=np.int32)
        self.g_out = np.asarray([out for _, out, _ in ops] or [0],
                                dtype=np.int32)
        foff = [0]
        fan: List[int] = []
        for _, _, fins in ops:
            fan.extend(fins)
            foff.append(len(fan))
        self.g_foff = np.asarray(foff, dtype=np.int64)
        self.g_fan = np.asarray(fan or [0], dtype=np.int32)
        self.pi_ids = np.asarray(circuit.pi_ids or [0], dtype=np.int32)
        self.po_ids = np.asarray(circuit.po_ids or [0], dtype=np.int32)
        self.ff_ids = np.asarray(circuit.ff_ids or [0], dtype=np.int32)
        self.ffd_ids = np.asarray(circuit.ff_d_ids or [0],
                                  dtype=np.int32)
        self._kernel = _load_kernel()
        #: Lazily built cffi casts of the circuit-constant arrays
        #: (see :meth:`_kernel_segment`).
        self._const_ptrs: Optional[Tuple[Any, ...]] = None
        # Fault-free injection plans for the good lane pass, keyed by
        # word width (circuit-wide, so safely shared across simulators).
        self._empty_plans: Dict[int, Tuple[Any, ...]] = {}

    #: Plans retained by :meth:`_plan_for`.  Small: pipeline phases
    #: re-simulate a handful of target sets over and over (Phase-2
    #: omission trials alone issue thousands of short passes on the
    #: same set), and one bench1k plan is only a few hundred KB.
    _PLAN_CACHE_SIZE = 8

    def _plan_for(self, sim: "FaultSimulator",
                  chunk: "Union[_Chunk, _LaneChunk]",
                  n_bits: Optional[int] = None) -> _ChunkPlan:
        """The injection plan for ``chunk``, LRU-cached by fault set.

        A chunk's stems/branches/mask are a pure function of its
        fault indices (in order) for a fixed circuit and fault list,
        so an equal index tuple means an identical plan.  Lane-chunk
        plans additionally depend on the lane count (the injection
        masks replicate per lane block), which ``n_bits`` encodes
        into the key.  The cache lives on the simulator (not this
        backend, which is shared per-circuit across simulators whose
        fault lists may differ).  Repacked chunks are per-call
        transients and bypass the cache.
        """
        cache: "OrderedDict[Tuple[Any, ...], _ChunkPlan]" = \
            sim.__dict__.setdefault("_np_plan_cache", OrderedDict())
        if n_bits is None:
            key: Tuple[Any, ...] = tuple(chunk.indices)
        else:
            key = ("lane", n_bits, *chunk.indices)
        plan = cache.get(key)
        if plan is None:
            plan = _ChunkPlan(self, chunk, n_bits)
            cache[key] = plan
            if len(cache) > self._PLAN_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
            plan.chunk = chunk
        return plan

    # ------------------------------------------------------------------
    def _init_state(self, plan: _ChunkPlan,
                    init_state: V.Vector) -> Tuple[Any, Any]:
        """Array state with the flip-flop rows packed from a vector
        (:func:`repro.sim.values.pack_scalar` semantics)."""
        np = self.np
        W = plan.n_words
        zero = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        one = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        for nid, val in zip(self.circuit.ff_ids, init_state):
            if val == V.ZERO:
                zero[nid] = plan.mask
            elif val == V.ONE:
                one[nid] = plan.mask
        return zero, one

    def _state_from_words(self, plan: _ChunkPlan,
                          zero_words: Sequence[int],
                          one_words: Sequence[int]) -> Tuple[Any, Any]:
        """Array state from full per-net big-int word lists (used to
        resume after an in-pass repack)."""
        np = self.np
        W = plan.n_words
        zero = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        one = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        for nid in self.circuit.ff_ids:
            if zero_words[nid]:
                zero[nid] = V.word_to_array(zero_words[nid], W)
            if one_words[nid]:
                one[nid] = V.word_to_array(one_words[nid], W)
        return zero, one

    def _vec_array(self, vectors: Sequence[V.Vector]) -> Any:
        """The PI sequence as a ``(n_frames, n_pi)`` uint8 array
        (0 / 1 / X scalars; width-independent)."""
        np = self.np
        arr = np.asarray(vectors, dtype=np.uint8)
        if arr.ndim == 1:  # zero PIs
            arr = arr.reshape(len(vectors), 0)
        return np.ascontiguousarray(arr)

    # ------------------------------------------------------------------
    def _kernel_segment(
        self, plan: _ChunkPlan, zero: Any, one: Any, vec_arr: Any,
        start: int, last: int, observe_po: bool, scan_out: bool,
        scan_observe: Optional[Sequence[int]], early_exit: bool,
        rec_po: Optional[Any], rec_scan: Optional[Any],
        ns_zero: Any, ns_one: Any, caught: Any,
    ) -> Tuple[int, int, int]:
        """One kernel call; returns ``(status, stop_frame, frames)``."""
        from . import fault_sim as FS
        np = self.np
        ffi, lib = self._kernel  # type: ignore[misc]
        W = plan.n_words

        def u64p(arr: Any) -> Any:
            return ffi.cast("u64*", arr.ctypes.data)

        def i32p(arr: Any) -> Any:
            return ffi.cast("int*", arr.ctypes.data)

        if scan_observe is None:
            n_scan_obs = -1
            scan_obs = np.zeros(1, dtype=np.int32)
        else:
            n_scan_obs = len(scan_observe)
            scan_obs = np.asarray(list(scan_observe) or [0],
                                  dtype=np.int32)
        scr_z = np.zeros((self.max_arity, W), dtype=np.uint64)
        scr_o = np.zeros((self.max_arity, W), dtype=np.uint64)
        stop = ffi.new("long*")
        frames = ffi.new("long*")
        # Pointer casts dominate short segments (a TDF capture runs
        # two per launch frame), so the backend-constant and
        # plan-constant casts are built once and reused; the plan
        # cache is invalidated (set to None) by anyone who swaps a
        # plan's arrays after construction.
        if self._const_ptrs is None:
            self._const_ptrs = (
                i32p(self.g_op), i32p(self.g_out),
                ffi.cast("long*", self.g_foff.ctypes.data),
                i32p(self.g_fan), i32p(self.pi_ids),
                i32p(self.po_ids), i32p(self.ff_ids),
                i32p(self.ffd_ids))
        (p_gop, p_gout, p_gfoff, p_gfan, p_pi, p_po, p_ff,
         p_ffd) = self._const_ptrs
        if getattr(plan, "_kptrs", None) is None:
            plan._kptrs = (
                u64p(plan.mask), i32p(plan.stem_site),
                u64p(plan.st_f0), u64p(plan.st_f1),
                u64p(plan.st_keep), i32p(plan.src_stem_ids),
                i32p(plan.src_stem_site), i32p(plan.br_start),
                i32p(plan.br_count), i32p(plan.br_pin),
                u64p(plan.br_f0), u64p(plan.br_f1),
                u64p(plan.br_keep), i32p(plan.ffbr_pos),
                u64p(plan.ffbr_f0), u64p(plan.ffbr_f1),
                u64p(plan.ffbr_keep))
        (p_mask, p_site, p_stf0, p_stf1, p_stkeep, p_srcids,
         p_srcsite, p_brstart, p_brcount, p_brpin, p_brf0, p_brf1,
         p_brkeep, p_ffbrpos, p_ffbrf0, p_ffbrf1,
         p_ffbrkeep) = plan._kptrs
        status = lib.repro_run_pass(
            u64p(zero), u64p(one), p_mask, W,
            self.n_gates, p_gop, p_gout,
            p_gfoff,
            p_gfan,
            len(self.circuit.pi_ids), p_pi,
            len(self.circuit.po_ids), p_po,
            len(self.circuit.ff_ids), p_ff,
            p_ffd,
            p_site,
            p_stf0, p_stf1, p_stkeep,
            len(plan.src_stem_ids),
            p_srcids, p_srcsite,
            p_brstart, p_brcount,
            p_brpin, p_brf0, p_brf1,
            p_brkeep,
            plan.n_ffbr, p_ffbrpos,
            p_ffbrf0, p_ffbrf1,
            p_ffbrkeep,
            ffi.cast("unsigned char*", vec_arr.ctypes.data),
            start, last,
            int(observe_po), int(scan_out), n_scan_obs, i32p(scan_obs),
            int(early_exit), FS._REPACK_MIN_MACHINES,
            FS._REPACK_MIN_FRAMES_LEFT, len(plan.chunk.indices),
            u64p(rec_po) if rec_po is not None else ffi.NULL,
            u64p(rec_scan) if rec_scan is not None else ffi.NULL,
            u64p(ns_zero), u64p(ns_one), u64p(scr_z), u64p(scr_o),
            u64p(caught), stop, frames)
        return int(status), int(stop[0]), int(frames[0])

    # ------------------------------------------------------------------
    def run_detect_chunk(
        self, sim: "FaultSimulator", chunk: "_Chunk",
        vectors: Sequence[V.Vector], init_state: V.Vector,
        scan_out: bool, observe_po: bool, early_exit: bool,
        scan_observe: Optional[Sequence[int]], detected: Set[int],
    ) -> int:
        """One chunk of :meth:`FaultSimulator.detect` on arrays.

        Mirrors the big-int chunk loop exactly (saturation break,
        in-pass repack via the parent's :meth:`_repack`, counter
        accounting) and accumulates into ``detected``.  Returns the
        number of frames simulated.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        last = len(vectors) - 1
        if last < 0:
            return 0
        vec_arr = self._vec_array(vectors)
        plan = self._plan_for(sim, chunk)
        zero, one = self._init_state(plan, init_state)
        caught_arr = np.zeros(plan.n_words, dtype=np.uint64)
        ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)),
                            plan.n_words), dtype=np.uint64)
        ns_one = np.zeros_like(ns_zero)
        frames_total = 0
        frame = 0
        while frame <= last:
            status, stop, frames = self._kernel_segment(
                plan, zero, one, vec_arr, frame, last, observe_po,
                scan_out, scan_observe, early_exit, None, None,
                ns_zero, ns_one, caught_arr)
            frames_total += frames
            counters.note_words(frames, len(chunk.indices))
            if status != _STATUS_REPACK:
                break
            caught_int = V.array_to_word(caught_arr)
            n_dropped = 0
            for pos, fid in enumerate(chunk.indices):
                if caught_int & chunk.bit_of(pos):
                    detected.add(fid)
                    n_dropped += 1
            ns_z_ints = [V.array_to_word(ns_zero[i])
                         for i in range(len(self.circuit.ff_ids))]
            ns_o_ints = [V.array_to_word(ns_one[i])
                         for i in range(len(self.circuit.ff_ids))]
            chunk, zw, ow = sim._repack(chunk, caught_int,
                                        ns_z_ints, ns_o_ints)
            counters.repacks += 1
            counters.faults_dropped += n_dropped
            plan = _ChunkPlan(self, chunk)
            zero, one = self._state_from_words(plan, zw, ow)
            caught_arr = np.zeros(plan.n_words, dtype=np.uint64)
            ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)),
                                plan.n_words), dtype=np.uint64)
            ns_one = np.zeros_like(ns_zero)
            frame = stop + 1
        caught = V.array_to_word(caught_arr)
        for pos, fid in enumerate(chunk.indices):
            if caught & chunk.bit_of(pos):
                detected.add(fid)
        return frames_total

    # ------------------------------------------------------------------
    def run_suffix_chunk(
        self, sim: "FaultSimulator", chunk: "_Chunk",
        vectors: Sequence[V.Vector], ff_zero: Sequence[int],
        ff_one: Sequence[int], caught: int,
        scan_observe: Optional[Sequence[int]],
    ) -> Tuple[int, int]:
        """One chunk of a Phase-2 omission suffix trial on arrays.

        Resumes from a checkpoint (per-flip-flop big-int word pairs
        plus the cumulative PO ``caught`` mask), runs the suffix with
        PO observation every frame and scan-out on the last frame,
        and stops early once every machine is caught -- exactly the
        ``record=False`` big-int loop in
        :meth:`repro.core.omission._CheckpointedRun._run_suffix`,
        with the scan-out diff folded into the returned mask (the
        caller ORs them anyway).  Returns ``(mask, frames_run)``.

        The caller keeps the big-int path for ``record=True``
        rebuilds, which need per-frame trails.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        last = len(vectors) - 1
        if last < 0:
            return caught, 0
        plan = self._plan_for(sim, chunk)
        W = plan.n_words
        zero = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        one = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        if self.circuit.ff_ids:
            zero[self.ff_ids] = _rows_array(np, list(ff_zero), W)
            one[self.ff_ids] = _rows_array(np, list(ff_one), W)
        caught_arr = V.word_to_array(caught, W)
        ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)), W),
                           dtype=np.uint64)
        ns_one = np.zeros_like(ns_zero)
        vec_arr = self._vec_array(vectors)
        _, _, frames = self._kernel_segment(
            plan, zero, one, vec_arr, 0, last, True, True,
            scan_observe, False, None, None, ns_zero, ns_one,
            caught_arr)
        counters.note_words(frames, len(chunk.indices))
        return V.array_to_word(caught_arr), frames

    # ------------------------------------------------------------------
    def run_lane_chunk(
        self, sim: "FaultSimulator", chunk: "_LaneChunk",
        n_frames: int,
        pi_words: Sequence[Sequence[Tuple[int, int]]],
        acts: Sequence[int], ends: Sequence[int],
        init_words: Sequence[Tuple[int, int]],
        good_po: Sequence[Sequence[Tuple[int, int]]],
        good_scan: Sequence[Optional[Sequence[Tuple[int, int]]]],
        slot_pos: Sequence[int], observe_po: bool,
    ) -> Tuple[int, int]:
        """One lane-transposed pass chunk on the C kernel.

        Serves both :meth:`FaultSimulator.detect_trials` (per-lane PI
        words, ragged ``acts`` / ``ends`` masks) and the kernel route
        of :meth:`FaultSimulator.detect_candidates` (shared PI words,
        all lanes active, scan-out only on the last frame).  All lane
        words arrive *unreplicated* (one block wide); the block
        replication across fault groups happens here, in big-int
        arithmetic, before the one-shot array conversion.  Returns
        ``(caught, frames_done)`` with ``caught`` a big-int over the
        chunk's ``n_groups * n_lanes`` bits.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        n_bits = chunk.n_groups * chunk.n_lanes
        plan = self._plan_for(sim, chunk, n_bits=n_bits)
        W = plan.n_words
        rep = chunk.replication
        n_nets = self.circuit.n_nets
        aligned = chunk.n_lanes % 64 == 0
        wb = chunk.n_lanes // 64

        def rep_rows(rows: Sequence[int]) -> Any:
            # With lane blocks on 64-bit boundaries the group
            # replication is an exact array tile of the one-block
            # rows, skipping the per-row big-int multiply and bytes
            # round-trip (the top cost of wide trial chunks).
            if aligned:
                return np.tile(_rows_array(np, rows, wb),
                               (1, chunk.n_groups))
            return _rows_array(np, [r * rep for r in rows], W)

        zero = np.zeros((n_nets, W), dtype=np.uint64)
        one = np.zeros((n_nets, W), dtype=np.uint64)
        for (z, o), nid in zip(init_words, self.circuit.ff_ids):
            if z:
                zero[nid] = (np.tile(V.word_to_array(z, wb),
                                     chunk.n_groups) if aligned
                             else V.word_to_array(z * rep, W))
            if o:
                one[nid] = (np.tile(V.word_to_array(o, wb),
                                    chunk.n_groups) if aligned
                            else V.word_to_array(o * rep, W))
        pi_z = rep_rows([pz for frame in pi_words for pz, _ in frame])
        pi_o = rep_rows([po for frame in pi_words for _, po in frame])
        act_arr = rep_rows(acts)
        end_arr = rep_rows(ends)
        if observe_po:
            gp_z = rep_rows(
                [gz for frame in good_po for gz, _ in frame])
            gp_o = rep_rows(
                [go for frame in good_po for _, go in frame])
        else:
            gp_z = np.zeros((1, W), dtype=np.uint64)
            gp_o = np.zeros((1, W), dtype=np.uint64)
        n_slots = (len(slot_pos)
                   if any(s is not None for s in good_scan) else 0)
        if n_slots:
            sc_rows_z: List[int] = []
            sc_rows_o: List[int] = []
            for frame_scan in good_scan:
                if frame_scan is None:
                    sc_rows_z.extend([0] * n_slots)
                    sc_rows_o.extend([0] * n_slots)
                else:
                    for gz, go in frame_scan:
                        sc_rows_z.append(gz)
                        sc_rows_o.append(go)
            sc_z = rep_rows(sc_rows_z)
            sc_o = rep_rows(sc_rows_o)
        else:
            sc_z = np.zeros((1, W), dtype=np.uint64)
            sc_o = np.zeros((1, W), dtype=np.uint64)
        slot_arr = np.asarray(list(slot_pos) or [0], dtype=np.int32)
        ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)), W),
                           dtype=np.uint64)
        ns_one = np.zeros_like(ns_zero)
        scr_z = np.zeros((self.max_arity, W), dtype=np.uint64)
        scr_o = np.zeros_like(scr_z)
        caught_arr = np.zeros(W, dtype=np.uint64)
        ffi, lib = self._kernel  # type: ignore[misc]

        def u64p(arr: Any) -> Any:
            return ffi.cast("u64*", arr.ctypes.data)

        def i32p(arr: Any) -> Any:
            return ffi.cast("int*", arr.ctypes.data)

        frames = ffi.new("long*")
        lib.repro_run_lane_pass(
            u64p(zero), u64p(one), u64p(plan.mask), W,
            self.n_gates, i32p(self.g_op), i32p(self.g_out),
            ffi.cast("long*", self.g_foff.ctypes.data),
            i32p(self.g_fan),
            len(self.circuit.pi_ids), i32p(self.pi_ids),
            len(self.circuit.po_ids), i32p(self.po_ids),
            len(self.circuit.ff_ids), i32p(self.ff_ids),
            i32p(self.ffd_ids),
            i32p(plan.stem_site),
            u64p(plan.st_f0), u64p(plan.st_f1), u64p(plan.st_keep),
            len(plan.src_stem_ids),
            i32p(plan.src_stem_ids), i32p(plan.src_stem_site),
            i32p(plan.br_start), i32p(plan.br_count),
            i32p(plan.br_pin), u64p(plan.br_f0), u64p(plan.br_f1),
            u64p(plan.br_keep),
            plan.n_ffbr, i32p(plan.ffbr_pos),
            u64p(plan.ffbr_f0), u64p(plan.ffbr_f1),
            u64p(plan.ffbr_keep),
            n_frames,
            u64p(pi_z), u64p(pi_o), u64p(act_arr), u64p(end_arr),
            int(observe_po), u64p(gp_z), u64p(gp_o),
            n_slots, i32p(slot_arr), u64p(sc_z), u64p(sc_o),
            u64p(ns_zero), u64p(ns_one), u64p(scr_z), u64p(scr_o),
            u64p(caught_arr), frames)
        frames_done = int(frames[0])
        counters.note_words(frames_done,
                            chunk.n_groups * chunk.n_lanes)
        return V.array_to_word(caught_arr), frames_done

    # ------------------------------------------------------------------
    def _empty_plan_for(self, W: int) -> Tuple[Any, ...]:
        """Cached no-fault plan arrays for the good lane pass."""
        cached = self._empty_plans.get(W)
        if cached is None:
            np = self.np
            n_nets = self.circuit.n_nets
            cached = (
                np.full(n_nets, -1, dtype=np.int32),   # stem_site
                np.zeros((1, W), dtype=np.uint64),     # st_f0
                np.zeros((1, W), dtype=np.uint64),     # st_f1
                np.zeros((1, W), dtype=np.uint64),     # st_keep
                np.zeros(n_nets, dtype=np.int32),      # br_start
                np.zeros(n_nets, dtype=np.int32),      # br_count
                np.zeros(1, dtype=np.int32),           # br_pin
                np.zeros((1, W), dtype=np.uint64),     # br_f0
                np.zeros((1, W), dtype=np.uint64),     # br_f1
                np.zeros((1, W), dtype=np.uint64),     # br_keep
            )
            self._empty_plans[W] = cached
        return cached

    def run_good_lane_pass(
        self, sim: "FaultSimulator", n_lanes: int, n_frames: int,
        pi_words: Sequence[Sequence[Tuple[int, int]]],
        ends: Sequence[int],
        init_words: Sequence[Tuple[int, int]],
        observe_po: bool, slot_pos: Sequence[int], scan_out: bool,
    ) -> Tuple[List[List[Tuple[int, int]]],
               List[Optional[List[Tuple[int, int]]]]]:
        """The fault-free reference pass of
        :meth:`FaultSimulator.detect_trials` on the C kernel.

        Consumes the caller-built per-frame PI lane words and returns
        ``(po_frames, scan_frames)`` in exactly the big-int format of
        :meth:`FaultSimulator._good_trial_pass` -- per-frame per-PO
        good lane word pairs, and captured scan-slot word pairs on
        frames where some trial ends (``None`` elsewhere).  This pass
        dominated batched Phase-4 trials when it ran frame by frame
        in Python; one kernel call replaces the whole loop.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        W = max(1, (n_lanes + 63) // 64)
        mask = V.word_to_array((1 << n_lanes) - 1, W)
        n_nets = self.circuit.n_nets
        zero = np.zeros((n_nets, W), dtype=np.uint64)
        one = np.zeros((n_nets, W), dtype=np.uint64)
        for (z, o), nid in zip(init_words, self.circuit.ff_ids):
            if z:
                zero[nid] = V.word_to_array(z, W)
            if o:
                one[nid] = V.word_to_array(o, W)
        pi_z = _rows_array(
            np, [pz for frame in pi_words for pz, _ in frame], W)
        pi_o = _rows_array(
            np, [po for frame in pi_words for _, po in frame], W)
        n_po = len(self.circuit.po_ids)
        if observe_po:
            gp_z = np.zeros((max(1, n_frames * n_po), W),
                            dtype=np.uint64)
        else:
            gp_z = np.zeros((1, W), dtype=np.uint64)
        gp_o = np.zeros_like(gp_z)
        slots = list(slot_pos) if scan_out else []
        n_slots = len(slots)
        sc_z = np.zeros((max(1, n_frames * n_slots), W),
                        dtype=np.uint64)
        sc_o = np.zeros_like(sc_z)
        slot_arr = np.asarray(slots or [0], dtype=np.int32)
        ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)), W),
                           dtype=np.uint64)
        ns_one = np.zeros_like(ns_zero)
        scr_z = np.zeros((self.max_arity, W), dtype=np.uint64)
        scr_o = np.zeros_like(scr_z)
        (stem_site, st_f0, st_f1, st_keep, br_start, br_count,
         br_pin, br_f0, br_f1, br_keep) = self._empty_plan_for(W)
        ffi, lib = self._kernel  # type: ignore[misc]

        def u64p(arr: Any) -> Any:
            return ffi.cast("u64*", arr.ctypes.data)

        def i32p(arr: Any) -> Any:
            return ffi.cast("int*", arr.ctypes.data)

        lib.repro_run_good_lane_pass(
            u64p(zero), u64p(one), u64p(mask), W,
            self.n_gates, i32p(self.g_op), i32p(self.g_out),
            ffi.cast("long*", self.g_foff.ctypes.data),
            i32p(self.g_fan),
            len(self.circuit.pi_ids), i32p(self.pi_ids),
            n_po, i32p(self.po_ids),
            len(self.circuit.ff_ids), i32p(self.ff_ids),
            i32p(self.ffd_ids),
            i32p(stem_site), u64p(st_f0), u64p(st_f1), u64p(st_keep),
            i32p(br_start), i32p(br_count),
            i32p(br_pin), u64p(br_f0), u64p(br_f1), u64p(br_keep),
            n_frames,
            u64p(pi_z), u64p(pi_o),
            int(observe_po), u64p(gp_z), u64p(gp_o),
            n_slots, i32p(slot_arr), u64p(sc_z), u64p(sc_o),
            u64p(ns_zero), u64p(ns_one), u64p(scr_z), u64p(scr_o))
        counters.note_words(n_frames, n_lanes)

        def _rows_to_words(arr: Any, n_rows: int) -> List[int]:
            if W == 1:
                words: List[int] = arr[:n_rows, 0].tolist()
                return words
            return [V.array_to_word(arr[r]) for r in range(n_rows)]

        po_frames: List[List[Tuple[int, int]]] = []
        if observe_po:
            gz = _rows_to_words(gp_z, n_frames * n_po)
            go = _rows_to_words(gp_o, n_frames * n_po)
            for f in range(n_frames):
                base = f * n_po
                po_frames.append(list(zip(gz[base:base + n_po],
                                          go[base:base + n_po])))
        else:
            po_frames = [[] for _ in range(n_frames)]
        scan_frames: List[Optional[List[Tuple[int, int]]]] = []
        if n_slots:
            sz = _rows_to_words(sc_z, n_frames * n_slots)
            so = _rows_to_words(sc_o, n_frames * n_slots)
            for f in range(n_frames):
                if ends[f]:
                    base = f * n_slots
                    scan_frames.append(
                        list(zip(sz[base:base + n_slots],
                                 so[base:base + n_slots])))
                else:
                    scan_frames.append(None)
        else:
            scan_frames = [None] * n_frames
        return po_frames, scan_frames

    # ------------------------------------------------------------------
    def run_records_chunk(
        self, sim: "FaultSimulator", chunk: "_Chunk",
        vectors: Sequence[V.Vector], init_state: V.Vector,
        scan_observe: Optional[Sequence[int]],
        po_first: Dict[int, int], scan_diff: List[Set[int]],
    ) -> None:
        """One chunk of :meth:`FaultSimulator.run_with_records` on
        arrays (no early exit; per-frame PO / scan-out diff words)."""
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        n_frames = len(vectors)
        if n_frames == 0:
            return
        plan = self._plan_for(sim, chunk)
        W = plan.n_words
        zero, one = self._init_state(plan, init_state)
        rec_po = np.zeros((n_frames, W), dtype=np.uint64)
        rec_scan = np.zeros((n_frames, W), dtype=np.uint64)
        vec_arr = self._vec_array(vectors)
        ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)), W),
                           dtype=np.uint64)
        ns_one = np.zeros_like(ns_zero)
        caught = np.zeros(W, dtype=np.uint64)
        self._kernel_segment(
            plan, zero, one, vec_arr, 0, n_frames - 1, True, True,
            scan_observe, False, rec_po, rec_scan, ns_zero, ns_one,
            caught)
        counters.note_words(n_frames, len(chunk.indices))
        po_seen = 0
        for frame in range(n_frames):
            po_now = V.array_to_word(rec_po[frame])
            po_new = po_now & ~po_seen & ~1
            if po_new:
                for pos, fid in enumerate(chunk.indices):
                    if po_new & chunk.bit_of(pos):
                        po_first[fid] = frame
                po_seen |= po_new
            sdiff = V.array_to_word(rec_scan[frame]) & ~1
            if sdiff:
                frame_set = scan_diff[frame]
                for pos, fid in enumerate(chunk.indices):
                    if sdiff & chunk.bit_of(pos):
                        frame_set.add(fid)
