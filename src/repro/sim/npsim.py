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
plan of their own fixed target once, and a multi-trial pass one plan
per chunk whose words repeat in one block per trial.  Every plan owns
an :class:`_Arena`: its buffers and kernel pointers are created once,
after the plan is validated (:func:`_check_plan`), and reused by every
call.  Detections are decoded from the caught and record words with
numpy.  The arena is a *pass store*: it saves
and restores the flip-flop rows and ``caught`` (Phase-2 checkpoints
stay arrays; a rebuild records its trail with one-frame calls),
weighs and decodes machine bits and reads the good state, so the
consumers in :mod:`repro.sim.fault_sim` and :mod:`repro.core.omission`
are written once against it and its big-int twin,
:class:`repro.sim.fault_sim._WordArena`.

With numpy, cffi and a C compiler present, every fault-simulation
pass runs here; otherwise
:attr:`repro.sim.logicsim.CompiledCircuit.array_backend` is ``None``
and everything runs on big-int words
(:func:`kernel_unavailable_reason` says why).  The kernel's C
source, ``kernel.c``, ships beside this module.  It has one entry
point, ``repro_run_pass``, and mirrors the word arena's pass loop
operation for operation -- load, source stems, topological gate
evaluation with branch overrides and post-gate stem forcing,
next-state capture with flip-flop branch blends, PO / scan
observation, the ``caught`` bookkeeping and the saturation break --
so detection sets are byte-identical either way (enforced by the
production-vs-reference equivalence suites and the sanitizer's
shadow checks).  Only the kernel takes per-frame injection rows
(``inj_on``), which the transition-fault passes of
:mod:`repro.delay.transition` use; without the kernel those run on
their own scalar route.

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
                    Set, Tuple)

from . import values as V

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .counters import SimCounters
    from .fault_sim import FaultSimulator, _Chunk, _TrialBlocks
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
# Its source, kernel.c, ships beside this module and is compiled once
# -- the circuit travels in plan arrays, not in the source -- so the
# process pays a single sub-second compile no matter how many circuits
# it simulates.

#: The kernel's C source (package data, read when the kernel loads).
_KERNEL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "kernel.c")

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
    const u64* inj_on,
    const unsigned char* vecs,
    long start_frame, long last_frame,
    long n_blocks, const long* block_last,
    int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs,
    u64* rec_po, u64* rec_scan,
    u64* ns_zero, u64* ns_one,
    u64* scr_z, u64* scr_o,
    u64* caught, long* stop_frame, long* frames_done);
"""

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


def _kernel_source() -> str:
    """The kernel's C source text.

    Raises
    ------
    OSError
        If ``kernel.c`` is missing or unreadable.
    """
    with open(_KERNEL_PATH) as handle:
        return handle.read()


def _kernel_cache_path(source: str) -> Optional[str]:
    """Cross-process kernel cache: ``$REPRO_KERNEL_CACHE/<hash>.so``.

    The filename is keyed on the kernel ``source``, its cdef, the ``$CC``
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
    key = "\0".join((_KERNEL_CDEF, source,
                     os.environ.get("CC", ""), *_CFLAGS))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(root, f"repro_kernel-{digest}.so")


def _load_kernel() -> Optional[Tuple[Any, Any]]:
    """Compile and dlopen the pass kernel once per process.

    Returns ``(ffi, lib)`` or ``None`` (reason in
    :func:`kernel_unavailable_reason`).  Never raises: a missing
    compiler, cffi or kernel source just disables the fast path.  The
    source is read here, not at import.  The build
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
    try:
        source = _kernel_source()
    except OSError as exc:
        _KERNEL_ERROR = f"kernel source unreadable: {exc}"
        return None
    cached = _kernel_cache_path(source)
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
                handle.write(source)
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

    Without ``circuit`` this reports on the host: numpy, cffi, the
    kernel source and a C compiler (or a cached kernel) are all
    needed.  With ``circuit`` it
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
    array, in one buffer conversion (bit ``w`` of a word is bit
    ``w % 64`` of element ``w // 64``)."""
    if not words:
        return np.zeros((1, n_words), dtype=np.uint64)
    size = n_words * 8
    data = b"".join(w.to_bytes(size, "little") for w in words)
    return np.frombuffer(data, dtype="<u8").reshape(
        len(words), n_words).copy()


class _ChunkPlan:
    """Dense array form of one :class:`_Chunk`'s injection data, tiled
    over ``n_blocks`` blocks.

    Blend order mirrors the big-int engine exactly: branch entries
    apply in their list order, flip-flop branch entries likewise, and
    every blend uses its own ``keep = mask & ~(m0 | m1)`` -- so
    repeated sites on one pin compose identically.

    A block is the whole number of words that hold the chunk's good
    bit 0 and its faulty machines.  Every row repeats one block's
    words ``n_blocks`` times, so each block carries the same machines
    (one test per block in a multi-trial pass, see
    :meth:`repro.sim.fault_sim.FaultSimulator.detect_trials`).

    Every site forces its machines in every frame unless the plan has
    ``inj_on`` rows, one row of words per pass frame: then frame ``f``
    forces only the machines set in row ``f``.  A transition-fault
    pass (:mod:`repro.delay.transition`) is such a plan: a site-free
    single-block chunk given stem sites by :meth:`force_stems`.
    """

    def __init__(self, backend: "ArrayBackend", chunk: "_Chunk",
                 n_blocks: int = 1) -> None:
        np = backend.np
        #: The fault index of machine bit ``i + 1`` of each block.
        self.indices: Sequence[int] = chunk.indices
        self.n_blocks = n_blocks
        block_words = (len(chunk.indices) + 64) // 64
        self.n_words = block_words * n_blocks
        n_nets = backend.circuit.n_nets

        def rows(words: Sequence[int]) -> Any:
            arr = _rows_array(np, words, block_words)
            return arr if n_blocks == 1 else np.tile(arr, (1, n_blocks))

        self.mask = rows([chunk.mask])[0]
        stems = list(chunk.stems.items())
        self.stem_site = np.full(n_nets, -1, dtype=np.int32)
        for i, (nid, _) in enumerate(stems):
            self.stem_site[nid] = i
        self.st_f0 = rows([m0 for _, (m0, _) in stems])
        self.st_f1 = rows([m1 for _, (_, m1) in stems])
        self.st_keep = rows([chunk.mask & ~(m0 | m1)
                             for _, (m0, m1) in stems])
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
        self.br_f0 = rows([m0 for m0, _ in br_rows])
        self.br_f1 = rows([m1 for _, m1 in br_rows])
        self.br_keep = rows([chunk.mask & ~(m0 | m1)
                             for m0, m1 in br_rows])

        self.n_ffbr = len(chunk.ff_branch)
        self.ffbr_pos = np.asarray(
            [pos for pos, _, _ in chunk.ff_branch] or [0],
            dtype=np.int32)
        self.ffbr_f0 = rows([m0 for _, m0, _ in chunk.ff_branch])
        self.ffbr_f1 = rows([m1 for _, _, m1 in chunk.ff_branch])
        self.ffbr_keep = rows([chunk.mask & ~(m0 | m1)
                               for _, m0, m1 in chunk.ff_branch])
        self.inj_on: Optional[Any] = None

    def force_stems(self, backend: "ArrayBackend", nets: Any, st_f0: Any,
                    st_f1: Any, inj_on: Any) -> None:
        """Give a site-free single-block plan its stem sites as arrays:
        stem row ``s`` forces net ``nets[s]`` (distinct nets) to 0 on
        the machines of ``st_f0[s]`` and to 1 on those of
        ``st_f1[s]``, and pass frame ``f`` forces only the machines set
        in row ``f`` of ``inj_on``."""
        np = backend.np
        self.stem_site[nets] = np.arange(len(nets), dtype=np.int32)
        self.st_f0, self.st_f1 = st_f0, st_f1
        self.st_keep = self.mask & ~(st_f0 | st_f1)
        src = nets[backend.is_source[nets]]
        self.src_stem_ids = src.astype(np.int32)
        self.src_stem_site = self.stem_site[src]
        self.inj_on = inj_on


#: A plan's ``uint64`` row arrays, in groups that share a row count.
_PLAN_ROWS = (("st_f0", "st_f1", "st_keep"), ("br_f0", "br_f1", "br_keep"),
              ("ffbr_f0", "ffbr_f1", "ffbr_keep"))
#: A plan's ``int32`` index arrays.
_PLAN_INDEX = ("stem_site", "src_stem_ids", "src_stem_site", "br_start",
               "br_count", "br_pin", "ffbr_pos")


def _check_plan(backend: "ArrayBackend", plan: _ChunkPlan) -> None:
    """Raise :class:`ValueError` unless the kernel can safely run
    ``plan``: every array has the dtype, C-contiguity and word count
    the kernel assumes (``inj_on``, when present, included), and every
    index it follows stays inside the array it indexes (stem sites and
    source stems, branch row ranges and pins, flip-flop branch
    positions), with a block count that divides the words.  The
    arena checks each pass's length against the ``inj_on`` rows."""
    np = backend.np
    W, n_nets = plan.n_words, backend.circuit.n_nets

    def bad(what: str) -> ValueError:
        return ValueError(f"malformed kernel plan: {what}")

    if plan.n_blocks < 1 or W < 1 or W % plan.n_blocks:
        raise bad(f"{plan.n_blocks} blocks over {W} words")
    rows = sum(_PLAN_ROWS, ()) + (("inj_on",) if plan.inj_on is not None
                                  else ())
    for name in ("mask",) + rows:
        arr = getattr(plan, name)
        if (arr.dtype != np.uint64 or not arr.flags.c_contiguous or
                arr.ndim != (1 if name == "mask" else 2) or
                arr.shape[-1] != W):
            raise bad(f"{name} is not a C-contiguous uint64 array of "
                      f"{W}-word rows")
    for name in _PLAN_INDEX:
        arr = getattr(plan, name)
        if (arr.dtype != np.int32 or not arr.flags.c_contiguous or
                arr.ndim != 1):
            raise bad(f"{name} is not a C-contiguous int32 vector")
    n_rows: List[int] = []
    for group in _PLAN_ROWS:
        counts = {len(getattr(plan, name)) for name in group}
        if len(counts) != 1:
            raise bad(f"{'/'.join(group)} row counts differ")
        n_rows.append(counts.pop())
    n_stems, n_br, n_ffbr = n_rows

    def inside(arr: Any, low: int, high: int) -> bool:
        return not len(arr) or (int(arr.min()) >= low and
                                int(arr.max()) < high)

    if (len(plan.stem_site) != n_nets or
            not inside(plan.stem_site, -1, n_stems)):
        raise bad("a stem site lies outside the stem rows")
    if (len(plan.src_stem_site) != len(plan.src_stem_ids) or
            not inside(plan.src_stem_ids, 0, n_nets) or
            not inside(plan.src_stem_site, 0, n_stems)):
        raise bad("a source stem lies outside the nets or stem rows")
    start, count = plan.br_start, plan.br_count
    if (len(start) != n_nets or len(count) != n_nets or
            len(plan.br_pin) != n_br or not inside(count, 0, n_br + 1)):
        raise bad("branch tables do not match the nets or rows")
    nets = np.flatnonzero(count)
    if len(nets):
        first = start[nets].astype(np.int64)
        width = count[nets].astype(np.int64)
        if first.min() < 0 or (first + width).max() > n_br:
            raise bad("a branch range runs past the branch rows")
        # Each branch row's pin, against its gate's fanin count.
        rows = np.repeat(first - np.cumsum(width) + width, width) + \
            np.arange(int(width.sum()))
        pins = plan.br_pin[rows]
        if (pins < 0).any() or (
                pins >= np.repeat(backend.net_arity[nets], width)).any():
            raise bad("a branch pin lies past its gate's fanins")
    if (not 0 <= plan.n_ffbr <= n_ffbr or len(plan.ffbr_pos) != n_ffbr or
            not inside(plan.ffbr_pos[:plan.n_ffbr], 0,
                       len(backend.circuit.ff_ids))):
        raise bad("a flip-flop branch lies outside the flip-flops")


class _Arena:
    """The buffers and kernel arguments of one plan, created once: the
    kernel's pass store (its big-int twin, with the same interface, is
    :class:`repro.sim.fault_sim._WordArena`).

    Every ``repro_run_pass`` call of the plan runs in these buffers:
    the per-net state rows (the flip-flop rows carry state between
    calls), the next-state and branch-scratch rows, the ``caught`` and
    ``live`` words and the stop-frame / frame-count cells, each cast
    to a kernel pointer here.  The vector and record buffers grow on
    demand and are recast only when they grow.  ``live`` starts as
    the plan's whole mask; a universe part narrows it per call.
    ``fault_of[b]`` is the fault index at machine bit ``b`` of a block
    (``-1`` for the good bit and the padding).  A checkpoint
    (:meth:`save`) is the flip-flop rows and ``caught``, as arrays.
    Every :meth:`run` counts one kernel pass in ``counters``.

    A plan of several blocks runs one test per block: such a store
    only loads (:meth:`load_blocks`), runs and decodes per block
    (:meth:`faults_by_block`).  The plan is validated
    (:func:`_check_plan`) before any pointer to it is cast.
    """

    def __init__(self, backend: "ArrayBackend", plan: _ChunkPlan,
                 counters: "SimCounters") -> None:
        _check_plan(backend, plan)
        np = backend.np
        self.np = np
        self.counters = counters
        ffi, self._lib = backend._kernel  # type: ignore[misc]
        self._ffi = ffi
        circuit = backend.circuit
        W = plan.n_words
        self.plan = plan
        self.ff_rows = backend.ff_rows
        self.n_machines = len(plan.indices)
        self.n_blocks = plan.n_blocks
        self.block_words = W // plan.n_blocks
        self.fault_of = np.full(64 * self.block_words, -1, dtype=np.int64)
        self.fault_of[1:self.n_machines + 1] = plan.indices
        self.zero = np.zeros((circuit.n_nets, W), dtype=np.uint64)
        self.one = np.zeros_like(self.zero)
        self.ns_zero = np.zeros((max(1, len(circuit.ff_ids)), W),
                                dtype=np.uint64)
        self.ns_one = np.zeros_like(self.ns_zero)
        self.scr_z = np.zeros((backend.max_arity, W), dtype=np.uint64)
        self.scr_o = np.zeros_like(self.scr_z)
        self.caught = np.zeros(W, dtype=np.uint64)
        self.live = plan.mask.copy()
        self._weights: Any = None
        self._frames = ffi.new("long*")
        p_mask, p_sites = backend._plan_args(plan)
        self._head = (_u64p(ffi, self.zero), _u64p(ffi, self.one), p_mask,
                      _u64p(ffi, self.live), W, *backend._circuit_args(),
                      *p_sites)
        self._tail = (_u64p(ffi, self.ns_zero), _u64p(ffi, self.ns_one),
                      _u64p(ffi, self.scr_z), _u64p(ffi, self.scr_o),
                      _u64p(ffi, self.caught), ffi.new("long*"),
                      self._frames)
        self.n_pi = len(circuit.pi_ids)
        self.vecs = np.zeros((0, self.n_blocks * self.n_pi), dtype=np.uint8)
        self._vecs_p = ffi.NULL
        # Each block's last frame; a single block ends where the pass
        # does.
        self.block_last = np.zeros(self.n_blocks, dtype=np.int64)
        self._blocks = (self.n_blocks, ffi.NULL if self.n_blocks == 1 else
                        ffi.cast("long*", self.block_last.ctypes.data))
        self.rec_po = np.zeros((0, W), dtype=np.uint64)
        self.rec_scan = np.zeros_like(self.rec_po)
        self._rec_p = (ffi.NULL, ffi.NULL)
        self._obs_key: Optional[Tuple[int, ...]] = None
        self._obs = np.zeros(1, dtype=np.int32)
        self._obs_p = _i32p(ffi, self._obs)

    def _vector_rows(self, n: int) -> None:
        """Grow the vector buffer to at least ``n`` frames."""
        if n > len(self.vecs):
            self.vecs = self.np.zeros((max(n, 2 * len(self.vecs)),
                                       self.vecs.shape[1]),
                                      dtype=self.np.uint8)
            self._vecs_p = self._ffi.cast("unsigned char*",
                                          self.vecs.ctypes.data)

    def load_vectors(self, vectors: Sequence[V.Vector]) -> int:
        """Copy a PI sequence into the vector buffer (frame 0 first);
        returns its frame count."""
        n = len(vectors)
        self._vector_rows(n)
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

    def load_blocks(self, blocks: "_TrialBlocks") -> int:
        """Load one test per block: block ``b`` gets test ``b``'s
        scan-in state and PI sequence (X past its end) and observes
        through its last frame.  Clears the caught words; returns the
        longest sequence's frame count.

        Raises
        ------
        ValueError
            If the tests do not fill the blocks, or a block's last
            frame lies outside the vector buffer.
        """
        np = self.np
        n_blocks, n = self.n_blocks, blocks.n_frames
        if blocks.n_blocks != n_blocks:
            raise ValueError(f"{blocks.n_blocks} tests for {n_blocks} "
                             f"blocks")
        states = np.frombuffer(blocks.state_bytes, dtype=np.uint8).reshape(
            n_blocks, len(self.ff_rows)).T[:, :, None]
        mask = self.plan.mask[:self.block_words]
        width = (len(self.ff_rows), self.plan.n_words)
        self.zero[self.ff_rows] = ((states == V.ZERO) * mask).reshape(width)
        self.one[self.ff_rows] = ((states == V.ONE) * mask).reshape(width)
        self.caught.fill(0)
        self._vector_rows(n)
        self.vecs[:n] = np.frombuffer(blocks.pi_bytes, dtype=np.uint8) \
            .reshape(n_blocks, n, self.n_pi).transpose(1, 0, 2) \
            .reshape(n, n_blocks * self.n_pi)
        self.block_last[:] = blocks.last
        if int(self.block_last.max()) >= len(self.vecs):
            raise ValueError("a block's last frame lies outside the "
                             "vector buffer")
        return n

    def run(self, n_frames: int, observe_po: bool, scan_out: bool,
            scan_observe: Optional[Sequence[int]],
            records: bool = False) -> int:
        """One kernel pass over the first ``n_frames`` loaded vectors;
        returns the frames it ran.  With ``records`` the pass fills
        ``rec_po`` / ``rec_scan`` row by row and never stops early.
        The caller validates ``scan_observe``.

        Raises
        ------
        ValueError
            If the pass is longer than the vector buffer or than the
            plan's ``inj_on`` rows.
        """
        np, ffi = self.np, self._ffi
        self.counters.np_passes += 1
        if n_frames > len(self.vecs):
            raise ValueError(f"{n_frames}-frame pass over a "
                             f"{len(self.vecs)}-frame vector buffer")
        inj_on = self.plan.inj_on
        if inj_on is not None and n_frames > len(inj_on):
            raise ValueError(f"{n_frames}-frame pass over {len(inj_on)} "
                             f"injection rows")
        if records and n_frames > len(self.rec_po):
            rows = max(n_frames, 2 * len(self.rec_po))
            self.rec_po = np.zeros((rows, self.plan.n_words),
                                   dtype=np.uint64)
            self.rec_scan = np.zeros_like(self.rec_po)
            self._rec_p = (_u64p(ffi, self.rec_po),
                           _u64p(ffi, self.rec_scan))
        key = None if scan_observe is None else tuple(scan_observe)
        if key != self._obs_key:
            self._obs = np.asarray(key or (0,), dtype=np.int32)
            self._obs_p = _i32p(ffi, self._obs)
            self._obs_key = key
        # The kernel adds to the frames cell rather than overwriting it.
        self._frames[0] = 0
        self._lib.repro_run_pass(
            *self._head, self._vecs_p, 0, n_frames - 1, *self._blocks,
            int(observe_po), int(scan_out), -1 if key is None else len(key),
            self._obs_p, *(self._rec_p if records else (ffi.NULL, ffi.NULL)),
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

    def faults_by_block(self) -> List[List[int]]:
        """Per block, the fault indices of its caught machines."""
        np = self.np
        bits = np.unpackbits(
            self.caught.astype("<u8", copy=False).view(np.uint8),
            bitorder="little").reshape(self.n_blocks, -1)
        blocks, pos = np.nonzero(bits)
        fids: List[int] = self.fault_of[pos].tolist()
        bounds = np.searchsorted(
            blocks, np.arange(self.n_blocks + 1)).tolist()
        return [fids[bounds[b]:bounds[b + 1]]
                for b in range(self.n_blocks)]

    def saturated(self) -> bool:
        """Whether every live machine is caught."""
        want = self.live.copy()
        want[0] &= ~self.np.uint64(1)
        return bool(((self.caught & want) == want).all())

    def observe_scan(self, scan_observe: Optional[Sequence[int]]) -> None:
        """Add to ``caught`` what a scan-out of the current flip-flop
        state detects (``repro_diff_acc`` on every observed row)."""
        np = self.np
        rows = (self.ff_rows if scan_observe is None
                else self.ff_rows[list(scan_observe)])
        zero, one = self.zero[rows], self.one[rows]
        diff = np.where((one[:, :1] & 1).astype(bool), zero,
                        np.where((zero[:, :1] & 1).astype(bool), one, 0))
        self.caught |= np.bitwise_or.reduce(diff, axis=0)

    def save(self) -> Tuple[Any, Any, Any]:
        """A checkpoint of the flip-flop rows and ``caught``."""
        return (self.zero[self.ff_rows], self.one[self.ff_rows],
                self.caught.copy())

    def restore(self, checkpoint: Tuple[Any, Any, Any]) -> None:
        """Load a checkpoint into the flip-flop rows and ``caught``."""
        ff_zero, ff_one, caught = checkpoint
        self.zero[self.ff_rows] = ff_zero
        self.one[self.ff_rows] = ff_one
        self.caught[:] = caught

    def bit_weights(self, expand: Optional[Dict[int, List[int]]]) -> None:
        """Weigh each machine by the requested faults it stands for: its
        class's member count under translation (``expand``), else 1."""
        weights = (self.fault_of >= 0).astype(self.np.int64)
        if expand is not None:
            weights[1:self.n_machines + 1] = [
                len(expand[fid]) for fid in self.plan.indices]
        self._weights = weights

    def weight(self, words: Any) -> int:
        """The faults the machine bits of ``words`` stand for."""
        return int(self._weights[self.bits(words)].sum())

    def good_state(self) -> V.Vector:
        """The fault-free machine's flip-flop state."""
        good_zero = (self.zero[self.ff_rows, 0] & 1).tolist()
        good_one = (self.one[self.ff_rows, 0] & 1).tolist()
        return tuple(V.word_scalar(z, o)
                     for z, o in zip(good_zero, good_one))

    def records(self, n_frames: int, po_first: Dict[int, int],
                scan_diff: List[Set[int]]) -> None:
        """Decode the last records-mode pass for the live faults: each
        one's first PO-detecting frame into ``po_first`` and, per
        frame, those a scan-out there detects into ``scan_diff``."""
        np = self.np
        if not n_frames:
            return
        live = self.live.copy()
        live[0] &= ~np.uint64(1)

        def bit_matrix(rec: Any) -> Any:
            # Row f, column b: machine bit b differs at frame f.
            return np.unpackbits(
                (rec[:n_frames] & live).astype("<u8", copy=False)
                .view(np.uint8), axis=1, bitorder="little")

        po_bits = bit_matrix(self.rec_po)
        seen = np.flatnonzero(po_bits.any(axis=0))
        po_first.update(zip(self.fault_of[seen].tolist(),
                            po_bits[:, seen].argmax(axis=0).tolist()))
        frames, bits = np.nonzero(bit_matrix(self.rec_scan))
        fids = self.fault_of[bits].tolist()
        bounds = np.searchsorted(frames, np.arange(n_frames + 1)).tolist()
        for frame in range(n_frames):
            if bounds[frame] < bounds[frame + 1]:
                scan_diff[frame].update(
                    fids[bounds[frame]:bounds[frame + 1]])


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
            self.parts.append(_Arena(backend, _ChunkPlan(backend, chunk),
                                     sim.counters))

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
        #: Fanin count of the gate driving each net (0 for source
        #: nets): the bound of a branch pin.
        self.net_arity = np.zeros(circuit.n_nets, dtype=np.int64)
        self.net_arity[self.g_out[:self.n_gates]] = np.diff(self.g_foff)
        #: Whether each net is a source net (a PI or a flip-flop
        #: output), whose stem the kernel forces before the gates.
        self.is_source = np.zeros(circuit.n_nets, dtype=bool)
        self.is_source[circuit.pi_ids + circuit.ff_ids] = True

    def universe(self, sim: "FaultSimulator") -> _Universe:
        """A new fault-universe plan of ``sim`` (see :class:`_Universe`)."""
        return _Universe(self, sim)

    def arena(self, sim: "FaultSimulator", chunk: "_Chunk",
              n_blocks: int = 1) -> _Arena:
        """A plan of ``chunk`` over ``n_blocks`` blocks, built once,
        with its arena: the kernel store of a consumer whose target is
        fixed."""
        return _Arena(self, _ChunkPlan(self, chunk, n_blocks),
                      sim.counters)

    # ------------------------------------------------------------------
    # The circuit-constant arguments are cast once per backend and
    # shared by every arena; a plan's are cast once, by its arena.
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
        with their counts, and the ``inj_on`` rows) as kernel
        arguments."""
        ffi, _ = self._kernel  # type: ignore[misc]
        return _u64p(ffi, plan.mask), (
            _i32p(ffi, plan.stem_site), _u64p(ffi, plan.st_f0),
            _u64p(ffi, plan.st_f1), _u64p(ffi, plan.st_keep),
            len(plan.src_stem_ids), _i32p(ffi, plan.src_stem_ids),
            _i32p(ffi, plan.src_stem_site),
            _i32p(ffi, plan.br_start), _i32p(ffi, plan.br_count),
            _i32p(ffi, plan.br_pin), _u64p(ffi, plan.br_f0),
            _u64p(ffi, plan.br_f1), _u64p(ffi, plan.br_keep),
            plan.n_ffbr, _i32p(ffi, plan.ffbr_pos),
            _u64p(ffi, plan.ffbr_f0), _u64p(ffi, plan.ffbr_f1),
            _u64p(ffi, plan.ffbr_keep),
            ffi.NULL if plan.inj_on is None else _u64p(ffi, plan.inj_on))
