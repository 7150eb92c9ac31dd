"""The C-kernel pass executor: fault simulation on ``uint64`` arrays.

The big-int path keeps every net's packed machines in a pair of
Python integers and pays interpreter overhead per gate *and* per
frame: one arbitrary-precision bitwise op is cheap, but a 330-gate
frame costs hundreds of microseconds of bytecode dispatch, dict
probes for injection sites, and list traffic on the branch-fault
slow path.  This module re-hosts a pass on arrays: per-net words
become a pair of ``(n_nets, n_words)`` ``uint64`` arrays (net-major
-- see DESIGN.md section 13 for the layout rationale) and the whole
pass loop runs in a *circuit-independent* C kernel, compiled once
per process with cffi and the system C compiler.  The circuit
(opcode/fanin tables) and a plan's injection sites (stem /
fanout-branch / flip-flop-branch forcing masks) are handed over as
dense plan arrays, so a frame costs a few microseconds with zero
per-frame Python work; Python regains control only at pass
boundaries.

The set-up of a pass is paid once per plan, not once per call.  A
simulator's ``detect`` and ``run_with_records`` calls share one
*fault-universe plan* (:class:`_Universe`): every simulated
representative has a fixed machine bit, and a call selects its
targets with a live-machine mask.  An incremental (sequence-
generation) simulation and a Phase-2 checkpointed run each build a
plan of their own fixed target once.  Every plan owns an
:class:`_Arena`: its buffers and kernel pointers are created once
and reused by every call.  Detections are decoded from the caught
and record words with numpy.

With numpy, cffi and a C compiler present, every fault-simulation
pass runs here; otherwise
:attr:`repro.sim.logicsim.CompiledCircuit.array_backend` is ``None``
and everything runs on big-int words
(:func:`kernel_unavailable_reason` says why).  The kernel mirrors
:class:`repro.sim.fault_sim.FaultSimulator`'s big-int pass loops
operation for operation -- load, source stems, topological gate
evaluation with branch overrides and post-gate stem forcing,
next-state capture with flip-flop branch blends, PO / scan
observation, the ``caught`` bookkeeping and the saturation break --
so detection sets are byte-identical either way (enforced by the
production-vs-reference equivalence suites and the sanitizer's
shadow checks).

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
    const unsigned char* vecs,
    long start_frame, long last_frame,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
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
            /* Saturated once every live machine is caught: machines
               outside `live` ride along but never hold a pass open. */
            int sat = 1;
            for (w = 0; w < W; w++) {
                u64 m = live[w];
                if (w == 0) m &= ~1ULL;
                if ((caught[w] & m) != m) { sat = 0; break; }
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

/* Lane-transposed trial pass: each lane carries an independent test
   (its own scan-in state and PI sequence), each lane *block* one
   injected fault, and the fault-free reference arrives pre-computed
   (and pre-replicated across blocks) from a separate good pass.
   `act` masks the lanes still inside their own sequence at a frame
   (PO observation), `end_mask` the lanes whose last frame it is
   (scan-out diff against the captured state).  No early exit
   beyond full saturation (status 1); mirrors FaultSimulator.
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
    const unsigned char* vecs,
    long start_frame, long last_frame,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
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

#: Compiler flags of the kernel build (part of the cache key).
_CFLAGS = ("-O2", "-shared", "-fPIC")

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

    The filename is keyed on the kernel source, its cdef, the ``$CC``
    value and the compile flags, so a restored cache directory (CI
    persists it across jobs) can never dlopen a shared object built
    from different source or by a different compiler -- a change to
    any of them simply misses the cache and recompiles (and a ``$CC``
    that names no compiler reports that, whatever the cache holds).
    Unset env means no cache: every process compiles the kernel
    itself.
    """
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        return None
    key = "\0".join((_KERNEL_CDEF, _KERNEL_SOURCE,
                     os.environ.get("CC", ""), *_CFLAGS))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(root, f"repro_kernel-{digest}.so")


def _load_kernel() -> Optional[Tuple[Any, Any]]:
    """Compile and dlopen the pass kernel once per process.

    Returns ``(ffi, lib)`` or ``None`` (reason in
    :func:`kernel_unavailable_reason`).  Never raises: a missing
    compiler or cffi just disables the fast path.  The build
    directory is removed once the library is loaded (and published
    to the cache, when one is configured); a loaded shared object
    stays mapped after its file is unlinked.
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
    try:
        c_path = os.path.join(tmpdir, "repro_kernel.c")
        so_path = os.path.join(tmpdir, "repro_kernel.so")
        try:
            with open(c_path, "w") as handle:
                handle.write(_KERNEL_SOURCE)
            subprocess.run([cc, *_CFLAGS, "-o", so_path, c_path],
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
                # Atomic publish: concurrent processes may race here,
                # but every writer produces an identical file.
                tmp_copy = f"{cached}.tmp-{os.getpid()}"
                shutil.copy(so_path, tmp_copy)
                os.replace(tmp_copy, cached)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
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


def _u64p(ffi: Any, arr: Any) -> Any:
    """A ``u64*`` kernel argument for a uint64 array."""
    return ffi.cast("u64*", arr.ctypes.data)


def _i32p(ffi: Any, arr: Any) -> Any:
    """An ``int*`` kernel argument for an int32 array."""
    return ffi.cast("int*", arr.ctypes.data)


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
    ``src_stem_ids`` fields this plan consumes.  The fault-free plan
    of the good lane pass and the transition-fault capture templates
    (:mod:`repro.delay.transition`) are plans of site-free
    :class:`_Chunk` instances.
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
        #: Lazily built kernel arguments of this plan; reset to
        #: ``None`` whenever the arrays are swapped after construction
        #: (see :meth:`ArrayBackend._plan_args`).
        self._kptrs: Optional[Tuple[Any, Tuple[Any, ...]]] = None


class _Arena:
    """The buffers and kernel arguments of one plan, created once.

    Every ``repro_run_pass`` call of the plan runs in these buffers:
    the per-net state rows (the flip-flop rows carry state between
    calls), the next-state and branch-scratch rows, the ``caught`` and
    ``live`` words and the stop-frame / frame-count cells, each cast
    to a kernel pointer here.  The vector and record buffers grow on
    demand and are recast only when they grow.  ``live`` starts as
    the plan's whole mask; a universe part narrows it per call.
    ``fault_of[b]`` is the fault index at machine bit ``b`` (``-1``
    for the good bit and the padding).
    """

    def __init__(self, backend: "ArrayBackend", plan: _ChunkPlan) -> None:
        np = backend.np
        self.np = np
        ffi, self._lib = backend._kernel  # type: ignore[misc]
        self._ffi = ffi
        circuit = backend.circuit
        W = plan.n_words
        self.plan = plan
        self.ff_rows = backend.ff_rows
        self.n_machines = len(plan.chunk.indices)
        self.fault_of = np.full(64 * W, -1, dtype=np.int64)
        self.fault_of[1:self.n_machines + 1] = plan.chunk.indices
        self.zero = np.zeros((circuit.n_nets, W), dtype=np.uint64)
        self.one = np.zeros_like(self.zero)
        self.ns_zero = np.zeros((max(1, len(circuit.ff_ids)), W),
                                dtype=np.uint64)
        self.ns_one = np.zeros_like(self.ns_zero)
        self.scr_z = np.zeros((backend.max_arity, W), dtype=np.uint64)
        self.scr_o = np.zeros_like(self.scr_z)
        self.caught = np.zeros(W, dtype=np.uint64)
        self.live = plan.mask.copy()
        self._frames = ffi.new("long*")
        p_mask, p_sites = backend._plan_args(plan)
        self._head = (_u64p(ffi, self.zero), _u64p(ffi, self.one), p_mask,
                      _u64p(ffi, self.live), W, *backend._circuit_args(),
                      *p_sites)
        self._tail = (_u64p(ffi, self.ns_zero), _u64p(ffi, self.ns_one),
                      _u64p(ffi, self.scr_z), _u64p(ffi, self.scr_o),
                      _u64p(ffi, self.caught), ffi.new("long*"),
                      self._frames)
        self.vecs = np.zeros((0, len(circuit.pi_ids)), dtype=np.uint8)
        self._vecs_p = ffi.NULL
        self.rec_po = np.zeros((0, W), dtype=np.uint64)
        self.rec_scan = np.zeros_like(self.rec_po)
        self._rec_p = (ffi.NULL, ffi.NULL)
        self._obs_key: Optional[Tuple[int, ...]] = None
        self._obs = np.zeros(1, dtype=np.int32)
        self._obs_p = _i32p(ffi, self._obs)

    def load_vectors(self, vectors: Sequence[V.Vector]) -> int:
        """Copy a PI sequence into the vector buffer (frame 0 first);
        returns its frame count."""
        n = len(vectors)
        if n > len(self.vecs):
            self.vecs = self.np.zeros((max(n, 2 * len(self.vecs)),
                                       self.vecs.shape[1]),
                                      dtype=self.np.uint8)
            self._vecs_p = self._ffi.cast("unsigned char*",
                                          self.vecs.ctypes.data)
        if n:
            self.vecs[:n] = vectors
        return n

    def load_scan_in(self, state: V.Vector) -> None:
        """Pack the flip-flop rows from a scan-in vector
        (:func:`repro.sim.values.pack_scalar` semantics) and clear the
        caught words."""
        np = self.np
        values = np.asarray(state, dtype=np.uint8)[:, None]
        mask = self.plan.mask
        self.zero[self.ff_rows] = (values == V.ZERO) * mask
        self.one[self.ff_rows] = (values == V.ONE) * mask
        self.caught.fill(0)

    def run(self, n_frames: int, observe_po: bool, scan_out: bool,
            scan_observe: Optional[Sequence[int]],
            records: bool = False) -> int:
        """One kernel pass over the first ``n_frames`` loaded vectors;
        returns the frames it ran.  With ``records`` the pass fills
        ``rec_po`` / ``rec_scan`` row by row and never stops early."""
        np, ffi = self.np, self._ffi
        if n_frames > len(self.vecs):
            raise ValueError(f"{n_frames}-frame pass over a "
                             f"{len(self.vecs)}-frame vector buffer")
        if records and n_frames > len(self.rec_po):
            rows = max(n_frames, 2 * len(self.rec_po))
            self.rec_po = np.zeros((rows, self.plan.n_words),
                                   dtype=np.uint64)
            self.rec_scan = np.zeros_like(self.rec_po)
            self._rec_p = (_u64p(ffi, self.rec_po),
                           _u64p(ffi, self.rec_scan))
        key = None if scan_observe is None else tuple(scan_observe)
        if key != self._obs_key:
            if key and not all(0 <= p < len(self.ff_rows) for p in key):
                raise ValueError(f"scan-out position outside the "
                                 f"{len(self.ff_rows)} flip-flops")
            self._obs = np.asarray(key or (0,), dtype=np.int32)
            self._obs_p = _i32p(ffi, self._obs)
            self._obs_key = key
        # The kernel adds to the frames cell rather than overwriting it.
        self._frames[0] = 0
        self._lib.repro_run_pass(
            *self._head, self._vecs_p, 0, n_frames - 1, int(observe_po),
            int(scan_out), -1 if key is None else len(key), self._obs_p,
            *(self._rec_p if records else (ffi.NULL, ffi.NULL)),
            *self._tail)
        return int(self._frames[0])

    def bits(self, words: Any) -> Any:
        """Ascending machine-bit positions set in a word row (bit ``b``
        is bit ``b % 64`` of word ``b // 64``)."""
        np = self.np
        return np.flatnonzero(np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8),
            bitorder="little"))

    def faults_in(self, words: Any) -> List[int]:
        """Fault indices at the machine bits set in ``words`` (the good
        bit stands for none)."""
        fids: List[int] = self.fault_of[self.bits(words)].tolist()
        return fids if not fids or fids[0] >= 0 else fids[1:]


class _Universe:
    """A simulator's fault-universe plan for ``detect`` and
    ``run_with_records``.

    Every representative the simulator can simulate (proven-untestable
    classes left out) has a fixed machine bit: ``_build_chunks`` runs
    once over all of them, giving balanced parts of at most
    ``fused_cap`` machines, and each part is one plan with its arena.
    A call sets each part's ``live`` words to its target's bits plus
    the good bit and skips the parts with no live bit; every word of
    the other parts runs, and a part stops once its live machines are
    caught.
    """

    def __init__(self, backend: "ArrayBackend",
                 sim: "FaultSimulator") -> None:
        from ..analysis import sanitizer
        np = backend.np
        self.np = np
        reps, _ = sim._prepare_target(range(len(sim.faults)))
        self.parts: List[_Arena] = []
        # Per fault: its part and machine bit (bit 0, the good
        # machine's, marks a fault outside the universe).
        self.part_of = np.zeros(len(sim.faults), dtype=np.intp)
        self.bit_of = np.zeros(len(sim.faults), dtype=np.intp)
        for k, chunk in enumerate(sim._build_chunks(reps)):
            if sanitizer.enabled():
                sanitizer.check_chunk(chunk, "FaultSimulator universe")
            idx = np.asarray(chunk.indices, dtype=np.intp)
            self.part_of[idx] = k
            self.bit_of[idx] = np.arange(1, len(idx) + 1)
            self.parts.append(_Arena(backend, _ChunkPlan(backend, chunk)))

    def select(self, target: Sequence[int]) -> List[Tuple[_Arena, int]]:
        """Point the ``live`` words of every part ``target`` touches
        at it; returns those parts, in order, with their live-machine
        counts."""
        np = self.np
        t = np.asarray(target, dtype=np.intp)
        if not len(t):
            return []
        bits = self.bit_of[t]
        if bits.min() == 0:
            raise ValueError("target fault outside the simulator's "
                             "universe")
        parts = self.part_of[t] if len(self.parts) > 1 else None
        selected: List[Tuple[_Arena, int]] = []
        for k in ([0] if parts is None else np.unique(parts).tolist()):
            arena = self.parts[k]
            flags = np.zeros(len(arena.fault_of), dtype=bool)
            flags[bits if parts is None else bits[parts == k]] = True
            n_live = int(np.count_nonzero(flags))
            flags[0] = True   # the good machine
            arena.live[:] = np.packbits(flags, bitorder="little").view("<u8")
            selected.append((arena, n_live))
        return selected


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
        #: Flip-flop state rows (empty when there are none).
        self.ff_rows = np.asarray(circuit.ff_ids, dtype=np.intp)
        self._kernel = _load_kernel()
        #: Lazily built circuit-constant kernel arguments (see
        #: :meth:`_circuit_args`).
        self._circuit_kargs: Optional[Tuple[Any, ...]] = None
        # Fault-free injection plans for the good lane pass, keyed by
        # word width (circuit-wide, so safely shared across simulators).
        self._empty_plans: Dict[int, _ChunkPlan] = {}

    def universe(self, sim: "FaultSimulator") -> _Universe:
        """A new fault-universe plan of ``sim`` (see :class:`_Universe`)."""
        return _Universe(self, sim)

    def arena(self, chunk: "_Chunk") -> _Arena:
        """A plan of ``chunk``, built once, with its arena: the kernel
        route of a consumer whose target is fixed."""
        return _Arena(self, _ChunkPlan(self, chunk))

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

    def _vec_array(self, vectors: Sequence[V.Vector]) -> Any:
        """The PI sequence as a ``(n_frames, n_pi)`` uint8 array
        (0 / 1 / X scalars; width-independent)."""
        np = self.np
        arr = np.asarray(vectors, dtype=np.uint8)
        if arr.ndim == 1:  # zero PIs
            arr = arr.reshape(len(vectors), 0)
        return np.ascontiguousarray(arr)

    # ------------------------------------------------------------------
    # Pointer casts dominate short kernel calls (a TDF capture runs two
    # segments per launch frame, a trial pass two lane calls), so the
    # circuit-constant and plan-constant arguments are cast once and
    # reused by every entry point.
    def _circuit_args(self) -> Tuple[Any, ...]:
        """The circuit-constant kernel arguments: gate tables, then
        the PI / PO / flip-flop id lists with their counts."""
        if self._circuit_kargs is None:
            ffi, _ = self._kernel  # type: ignore[misc]
            c = self.circuit
            self._circuit_kargs = (
                self.n_gates, _i32p(ffi, self.g_op),
                _i32p(ffi, self.g_out),
                ffi.cast("long*", self.g_foff.ctypes.data),
                _i32p(ffi, self.g_fan),
                len(c.pi_ids), _i32p(ffi, self.pi_ids),
                len(c.po_ids), _i32p(ffi, self.po_ids),
                len(c.ff_ids), _i32p(ffi, self.ff_ids),
                _i32p(ffi, self.ffd_ids))
        return self._circuit_kargs

    def _plan_args(self, plan: _ChunkPlan) -> Tuple[Any, Tuple[Any, ...]]:
        """``(mask, sites)``: a plan's word mask and its injection
        tables (stems, source stems, branches, flip-flop branches,
        with their counts) as kernel arguments, cached on the plan."""
        if plan._kptrs is None:
            ffi, _ = self._kernel  # type: ignore[misc]
            plan._kptrs = (_u64p(ffi, plan.mask), (
                _i32p(ffi, plan.stem_site), _u64p(ffi, plan.st_f0),
                _u64p(ffi, plan.st_f1), _u64p(ffi, plan.st_keep),
                len(plan.src_stem_ids), _i32p(ffi, plan.src_stem_ids),
                _i32p(ffi, plan.src_stem_site),
                _i32p(ffi, plan.br_start), _i32p(ffi, plan.br_count),
                _i32p(ffi, plan.br_pin), _u64p(ffi, plan.br_f0),
                _u64p(ffi, plan.br_f1), _u64p(ffi, plan.br_keep),
                plan.n_ffbr, _i32p(ffi, plan.ffbr_pos),
                _u64p(ffi, plan.ffbr_f0), _u64p(ffi, plan.ffbr_f1),
                _u64p(ffi, plan.ffbr_keep)))
        return plan._kptrs

    def _kernel_segment(
        self, plan: _ChunkPlan, zero: Any, one: Any, vec_arr: Any,
        start: int, last: int, observe_po: bool, scan_out: bool,
        ns_zero: Any, ns_one: Any, caught: Any,
    ) -> Tuple[int, int, int]:
        """One kernel call on caller-owned arrays, every machine of the
        plan live (the transition-fault captures); returns ``(status,
        stop_frame, frames)``."""
        np = self.np
        ffi, lib = self._kernel  # type: ignore[misc]
        W = plan.n_words
        scan_obs = np.zeros(1, dtype=np.int32)
        scr_z = np.zeros((self.max_arity, W), dtype=np.uint64)
        scr_o = np.zeros((self.max_arity, W), dtype=np.uint64)
        stop = ffi.new("long*")
        frames = ffi.new("long*")
        p_mask, p_sites = self._plan_args(plan)
        status = lib.repro_run_pass(
            _u64p(ffi, zero), _u64p(ffi, one), p_mask, p_mask, W,
            *self._circuit_args(), *p_sites,
            ffi.cast("unsigned char*", vec_arr.ctypes.data),
            start, last, int(observe_po), int(scan_out), -1,
            _i32p(ffi, scan_obs), ffi.NULL, ffi.NULL,
            _u64p(ffi, ns_zero), _u64p(ffi, ns_one), _u64p(ffi, scr_z),
            _u64p(ffi, scr_o), _u64p(ffi, caught), stop, frames)
        return int(status), int(stop[0]), int(frames[0])

    # ------------------------------------------------------------------
    def run_detect_chunk(
        self, sim: "FaultSimulator", arena: _Arena, n_live: int,
        vectors: Sequence[V.Vector], init_state: V.Vector,
        scan_out: bool, observe_po: bool,
        scan_observe: Optional[Sequence[int]],
    ) -> Tuple[List[int], int]:
        """One universe part of :meth:`FaultSimulator.detect`: a kernel
        pass that stops once the part's live machines are caught.

        Returns ``(detected, frames_run)``: the live faults caught.
        """
        counters = sim.counters
        counters.np_passes += 1
        n_frames = arena.load_vectors(vectors)
        if n_frames == 0:
            return [], 0
        arena.load_scan_in(init_state)
        frames = arena.run(n_frames, observe_po, scan_out, scan_observe)
        counters.note_words(frames, n_live)
        return arena.faults_in(arena.caught & arena.live), frames

    # ------------------------------------------------------------------
    def checkpoint_rows(self, arena: _Arena, ff_zero: Sequence[int],
                        ff_one: Sequence[int], caught: int) -> Tuple[Any, ...]:
        """A Phase-2 checkpoint (per-flip-flop big-int word pairs and
        the cumulative PO ``caught`` mask) as arena-width arrays."""
        np = self.np
        W = arena.plan.n_words
        n_ff = len(ff_zero)
        return (_rows_array(np, ff_zero, W)[:n_ff],
                _rows_array(np, ff_one, W)[:n_ff],
                V.word_to_array(caught, W))

    def run_suffix_chunk(
        self, sim: "FaultSimulator", arena: _Arena,
        vectors: Sequence[V.Vector], checkpoint: Tuple[Any, ...],
        scan_observe: Optional[Sequence[int]],
    ) -> Tuple[List[int], int]:
        """One chunk of a Phase-2 omission suffix trial on the kernel.

        Resumes from a checkpoint of :meth:`checkpoint_rows`, runs the
        suffix with PO observation every frame and scan-out on the
        last frame, and stops early once every machine is caught --
        exactly the ``record=False`` big-int loop in
        :meth:`repro.core.omission._CheckpointedRun._run_suffix`, with
        the scan-out diff folded into the caught words (the caller
        ORs them anyway).  Returns ``(detected, frames_run)``.
        """
        counters = sim.counters
        counters.np_passes += 1
        n_frames = arena.load_vectors(vectors)
        ff_zero, ff_one, caught = checkpoint
        arena.zero[arena.ff_rows] = ff_zero
        arena.one[arena.ff_rows] = ff_one
        arena.caught[:] = caught
        frames = arena.run(n_frames, True, True, scan_observe)
        counters.note_words(frames, arena.n_machines)
        return arena.faults_in(arena.caught), frames

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
        """One chunk of :meth:`FaultSimulator.detect_trials` on the C
        kernel (per-lane PI words, ragged ``acts`` / ``ends`` masks).

        All lane words arrive *unreplicated* (one block wide); the block
        replication across fault groups happens here, in big-int
        arithmetic, before the one-shot array conversion.  Returns
        ``(caught, frames_done)`` with ``caught`` a big-int over the
        chunk's ``n_groups * n_lanes`` bits.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        n_bits = chunk.n_groups * chunk.n_lanes
        plan = _ChunkPlan(self, chunk, n_bits)
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
        frames = ffi.new("long*")
        p_mask, p_sites = self._plan_args(plan)
        lib.repro_run_lane_pass(
            _u64p(ffi, zero), _u64p(ffi, one), p_mask, W,
            *self._circuit_args(), *p_sites,
            n_frames,
            _u64p(ffi, pi_z), _u64p(ffi, pi_o), _u64p(ffi, act_arr),
            _u64p(ffi, end_arr),
            int(observe_po), _u64p(ffi, gp_z), _u64p(ffi, gp_o),
            n_slots, _i32p(ffi, slot_arr), _u64p(ffi, sc_z),
            _u64p(ffi, sc_o),
            _u64p(ffi, ns_zero), _u64p(ffi, ns_one), _u64p(ffi, scr_z),
            _u64p(ffi, scr_o), _u64p(ffi, caught_arr), frames)
        frames_done = int(frames[0])
        counters.note_words(frames_done,
                            chunk.n_groups * chunk.n_lanes)
        return V.array_to_word(caught_arr), frames_done

    # ------------------------------------------------------------------
    def _empty_plan_for(self, W: int) -> _ChunkPlan:
        """Cached no-fault plan of ``W`` words for the good lane pass
        (a site-free chunk; the pass supplies its own lane mask)."""
        plan = self._empty_plans.get(W)
        if plan is None:
            from .fault_sim import _Chunk
            plan = _ChunkPlan(self, _Chunk(indices=[], mask=0),
                              n_bits=64 * W)
            self._empty_plans[W] = plan
        return plan

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
        ffi, lib = self._kernel  # type: ignore[misc]
        # The good pass takes the stem and branch tables only.
        _, (site, st_f0, st_f1, st_keep, _, _, _, br_start, br_count,
            br_pin, br_f0, br_f1, br_keep, _, _, _, _, _) = \
            self._plan_args(self._empty_plan_for(W))
        lib.repro_run_good_lane_pass(
            _u64p(ffi, zero), _u64p(ffi, one), _u64p(ffi, mask), W,
            *self._circuit_args(),
            site, st_f0, st_f1, st_keep,
            br_start, br_count, br_pin, br_f0, br_f1, br_keep,
            n_frames,
            _u64p(ffi, pi_z), _u64p(ffi, pi_o),
            int(observe_po), _u64p(ffi, gp_z), _u64p(ffi, gp_o),
            n_slots, _i32p(ffi, slot_arr), _u64p(ffi, sc_z),
            _u64p(ffi, sc_o),
            _u64p(ffi, ns_zero), _u64p(ffi, ns_one), _u64p(ffi, scr_z),
            _u64p(ffi, scr_o))
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
    def run_step(self, sim: "FaultSimulator", arena: _Arena,
                 vector: V.Vector, commit: bool) -> Tuple[Any, Any]:
        """One frame of an incremental simulation: a one-frame
        records-mode kernel call in ``arena``.

        Returns the frame's ``(po_diff, scan_diff)`` machine words (rows
        of the arena's record buffers, valid until its next call).
        Records mode always advances the flip-flop rows, so unless
        ``commit`` they are saved before the call and restored after
        it (every other row is reloaded or recomputed next frame).
        """
        sim.counters.np_passes += 1
        rows = arena.ff_rows
        if not commit:
            saved_zero = arena.zero[rows]
            saved_one = arena.one[rows]
        arena.load_vectors((vector,))
        arena.run(1, True, True, None, records=True)
        if not commit:
            arena.zero[rows] = saved_zero
            arena.one[rows] = saved_one
        return arena.rec_po[0], arena.rec_scan[0]

    # ------------------------------------------------------------------
    def run_records_chunk(
        self, sim: "FaultSimulator", arena: _Arena, n_live: int,
        vectors: Sequence[V.Vector], init_state: V.Vector,
        scan_observe: Optional[Sequence[int]],
        po_first: Dict[int, int], scan_diff: List[Set[int]],
    ) -> None:
        """One universe part of :meth:`FaultSimulator.run_with_records`
        (no early exit; per-frame PO / scan-out diff words), decoded
        into ``po_first`` and ``scan_diff`` for the live faults."""
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        n_frames = arena.load_vectors(vectors)
        if n_frames == 0:
            return
        arena.load_scan_in(init_state)
        arena.run(n_frames, True, True, scan_observe, records=True)
        counters.note_words(n_frames, n_live)
        live = arena.live.copy()
        live[0] &= ~np.uint64(1)

        def bit_matrix(rec: Any) -> Any:
            # Row f, column b: machine bit b differs at frame f.
            return np.unpackbits(
                (rec[:n_frames] & live).astype("<u8", copy=False)
                .view(np.uint8), axis=1, bitorder="little")

        po_bits = bit_matrix(arena.rec_po)
        seen = np.flatnonzero(po_bits.any(axis=0))
        po_first.update(zip(arena.fault_of[seen].tolist(),
                            po_bits[:, seen].argmax(axis=0).tolist()))
        frames, bits = np.nonzero(bit_matrix(arena.rec_scan))
        fids = arena.fault_of[bits].tolist()
        bounds = np.searchsorted(frames, np.arange(n_frames + 1)).tolist()
        for frame in range(n_frames):
            if bounds[frame] < bounds[frame + 1]:
                scan_diff[frame].update(
                    fids[bounds[frame]:bounds[frame + 1]])
