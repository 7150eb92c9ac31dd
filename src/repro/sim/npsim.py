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
(opcode/fanin tables) is handed over once per backend, so a frame
costs a few microseconds with zero per-frame Python work; Python
regains control only at pass boundaries.

A pass costs a list, not a plan.  Each simulator builds a
*fault-site table* once (:meth:`ArrayBackend.site_table`: per fault,
a stem, fanout-branch or flip-flop data-pin site and the value it
forces), checked when it is built.  A pass is then a *machine list*:
machine bit ``k + 1`` of every block is fault ``faults[k]`` of the
table (for a transition launch, forcing only in one pass frame), and
the kernel derives its forcing from the table and the list inside
the call.  The list is range-checked when a store binds it
(:meth:`_Arena.bind`), before the kernel indexes anything with it.
A store (:class:`_Arena`) holds the buffers and kernel pointers;
they grow to the widest pass bound so far and are cast only when
they grow, so a simulator's one-off passes share one store and a
consumer with state of its own (an incremental simulation, a Phase-2
run) keeps one per chunk.  Detections are decoded from the caught
and record words with numpy.  The store saves and restores the
flip-flop rows and ``caught`` (Phase-2 checkpoints stay arrays; a
rebuild records its trail with one-frame calls), weighs and decodes
machine bits and reads the good state, so the consumers in
:mod:`repro.sim.fault_sim` and :mod:`repro.core.omission` are written
once against it and its big-int twin,
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
next-state capture with flip-flop branch forcing, PO / scan
observation, the ``caught`` bookkeeping and the saturation break --
so detection sets are byte-identical either way (enforced by the
production-vs-reference equivalence suites and the sanitizer's
shadow checks).  Only the kernel forces a machine in one frame and
not the others, which the transition-fault passes of
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
    from .fault_sim import _TrialBlocks
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
    u64* caught);
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
# Fault-site tables, machine lists and the kernel pass store
# ----------------------------------------------------------------------

#: Site kinds of a fault-site table entry (``kernel.c`` reads them).
SITE_STEM, SITE_BRANCH, SITE_FF = 0, 1, 2


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


def _block_mask(np: Any, n_machines: int, n_words: int) -> Any:
    """The ``n_words`` mask words of one block: bit 0 (the good
    machine) and one bit per machine after it."""
    mask = np.zeros(n_words, dtype=np.uint64)
    full, rest = divmod(n_machines + 1, 64)
    mask[:full] = ~np.uint64(0)
    if rest:
        mask[full] = (1 << rest) - 1
    return mask


class _Arena:
    """A kernel pass store: the buffers of ``repro_run_pass`` calls
    over one fault-site table (its big-int twin, with the same
    interface, is :class:`repro.sim.fault_sim._WordArena`).

    :meth:`bind` gives the store a pass's machine list: machine bit
    ``k + 1`` of every block is fault ``faults[k]`` of the table, a
    block is the whole number of words that hold it and the good bit
    0, and with ``frames`` machine ``k`` forces only in pass frame
    ``frames[k]``.  The list is range-checked there, before the kernel
    indexes the table with it; the table itself was checked when it
    was built (:meth:`ArrayBackend.site_table`).  Every buffer -- the
    per-net state rows, next-state and branch-scratch rows, the mask,
    ``caught``, vector, record and list buffers -- grows to the widest
    pass bound so far and is cast to a kernel pointer only when it
    grows, so one store serves any number of passes of any width: a
    simulator's one-off passes share one, and a consumer with state
    of its own (an incremental simulation, a Phase-2 run) binds one
    per chunk, once.  The row attributes (``zero``, ``one``,
    ``caught``, ``rec_po``, ...) are views of the bound width.

    The flip-flop rows carry state between calls of one binding; a
    checkpoint (:meth:`save`) is the flip-flop rows and ``caught``, as
    arrays.  ``fault_of[b]`` is the fault index at machine bit ``b`` of
    a block (``-1`` for the good bit and the padding).  A store bound
    over several blocks runs one test per block: it only loads
    (:meth:`load_blocks`), runs and decodes per block
    (:meth:`faults_by_block`).  Every :meth:`run` counts one kernel
    pass in ``counters``.
    """

    def __init__(self, backend: "ArrayBackend", sites: Any,
                 counters: "SimCounters") -> None:
        np = backend.np
        self.np = np
        self.counters = counters
        self._ffi, self._lib = backend._kernel  # type: ignore[misc]
        ffi = self._ffi
        circuit = backend.circuit
        self.sites = sites
        self.ff_rows = backend.ff_rows
        self.n_pi = len(circuit.pi_ids)
        self._n_nets = circuit.n_nets
        self._n_ff = len(circuit.ff_ids)
        self._arity = backend.max_arity
        self._head = (*backend._circuit_args(), self._n_nets,
                      _i32p(ffi, sites))
        self._width = 0              # words per row the buffers hold
        self._vec_buf = np.zeros(0, dtype=np.uint8)
        self._vecs_p = ffi.NULL
        self._last_buf = np.zeros(0, dtype=np.int64)
        self._last_p = ffi.NULL
        self._obs_key: Optional[Tuple[int, ...]] = None
        self._obs_p = ffi.NULL
        #: Per machine count, the block mask and the scan-in lookup.
        self._masks: Dict[int, Tuple[Any, Any]] = {}
        self._grow_list(0)
        self.bind(())

    def _grow_rows(self, width: int) -> None:
        """Reallocate the row buffers for ``width`` words per row."""
        np, ffi = self.np, self._ffi
        self._width = width
        self._views: Dict[int, Tuple[Any, Any, Any]] = {}
        self._rec_rows = 0           # frames the record buffers hold
        self._rec_po = self._rec_scan = np.zeros(0, dtype=np.uint64)
        self._rec_p = (ffi.NULL, ffi.NULL)

        def rows(n_rows: int) -> Tuple[Any, Any]:
            buf = np.zeros(n_rows * width, dtype=np.uint64)
            return buf, _u64p(ffi, buf)

        self._zero, p_zero = rows(self._n_nets)
        self._one, p_one = rows(self._n_nets)
        self._caught, p_caught = rows(1)
        # The mask, next-state and branch-scratch rows are the
        # kernel's own; holding them keeps the pointers valid.
        self._scratch = [rows(n) for n in (1,) + (max(1, self._n_ff),) * 2
                         + (self._arity,) * 2]
        p_mask, *p_scratch = (p for _, p in self._scratch)
        self._rows_p = (p_zero, p_one, p_mask)
        self._tail = (*p_scratch, p_caught)

    def _grow_list(self, n: int) -> None:
        """Reallocate the machine-list buffers for ``n`` machines."""
        np, ffi = self.np, self._ffi
        self._list = np.zeros(n, dtype=np.int32)
        self._frame_list = np.zeros(n, dtype=np.int32)
        self._links = np.zeros(2 * self._n_nets + self._n_ff + n,
                               dtype=np.int32)
        self._fault_buf = np.full(64 * (n // 64 + 1), -1, dtype=np.int64)
        self._list_p = (_i32p(ffi, self._list), _i32p(ffi, self._frame_list),
                        _i32p(ffi, self._links))

    def bind(self, faults: Sequence[int], n_blocks: int = 1,
             frames: Optional[Any] = None) -> None:
        """Make ``faults`` the machine list of the next passes, over
        ``n_blocks`` blocks; with ``frames``, machine ``k`` forces only
        in pass frame ``frames[k]``.  The rows hold no state until a
        load.

        Raises
        ------
        ValueError
            If a fault index lies outside the site table (a negative
            one included), a frame is negative, or ``frames`` and
            ``faults`` differ in length.
        """
        np = self.np
        arr = np.asarray(faults, dtype=np.int64)
        n = len(arr)
        # A negative index reads as a huge unsigned one.
        if n and int(arr.view(np.uint64).max()) >= len(self.sites):
            raise ValueError(f"malformed machine list: a fault index "
                             f"outside the {len(self.sites)} sites")
        at = None if frames is None else np.asarray(frames, dtype=np.int64)
        if at is not None and (len(at) != n or (n and int(at.min()) < 0)):
            raise ValueError("malformed machine list: frames do not match "
                             "the machines or lie before the pass")
        block_words = n // 64 + 1
        width = block_words * n_blocks
        if width > self._width:
            self._grow_rows(width)
        if n > len(self._list):
            self._grow_list(n)
        if n_blocks > len(self._last_buf):
            self._last_buf = np.zeros(n_blocks, dtype=np.int64)
            self._last_p = self._ffi.cast("long*",
                                          self._last_buf.ctypes.data)
        self._list[:n] = arr
        self._frames_p, self._last_force = self._ffi.NULL, -1
        if at is not None:
            self._frame_list[:n] = at
            self._frames_p = self._list_p[1]
            self._last_force = int(at.max()) if n else -1
        self.n_machines, self.n_blocks = n, n_blocks
        self.block_words, self.n_words = block_words, width
        masks = self._masks.get(n)
        if masks is None:
            mask = _block_mask(np, n, block_words)
            lookup = np.zeros((2, 3, block_words), dtype=np.uint64)
            lookup[0, V.ZERO] = lookup[1, V.ONE] = mask
            masks = self._masks[n] = (mask, lookup)
        self.block_mask, self._scan_lookup = masks
        self.fault_of = self._fault_buf[:64 * block_words]
        self.fault_of[1:n + 1] = arr
        self.fault_of[n + 1:] = -1
        views = self._views.get(width)
        if views is None:
            size = self._n_nets * width
            views = self._views[width] = (
                self._zero[:size].reshape(self._n_nets, width),
                self._one[:size].reshape(self._n_nets, width),
                self._caught[:width])
        self.zero, self.one, self.caught = views
        self._weights: Any = None
        self._want: Optional[List[int]] = None

    def _vector_rows(self, n: int) -> Any:
        """A view of the vector buffer as ``n`` frames of
        ``n_blocks x n_pi`` values, grown to hold them."""
        row = self.n_blocks * self.n_pi
        if n * row > len(self._vec_buf):
            self._vec_buf = self.np.zeros(max(n * row,
                                              2 * len(self._vec_buf)),
                                          dtype=self.np.uint8)
            self._vecs_p = self._ffi.cast("unsigned char*",
                                          self._vec_buf.ctypes.data)
        return self._vec_buf[:n * row].reshape(n, row)

    def load_vectors(self, vectors: Sequence[V.Vector]) -> int:
        """Copy a PI sequence into the vector buffer (frame 0 first);
        returns its frame count."""
        n = len(vectors)
        if n:
            self._vector_rows(n)[:] = vectors
        return n

    def load_scan_in(self, state: V.Vector) -> None:
        """Pack the flip-flop rows from a scan-in vector
        (:func:`repro.sim.values.pack_scalar` semantics) and clear the
        caught words.

        Raises
        ------
        ValueError
            If a value is not 0, 1 or X.
        """
        values = self.np.asarray(state, dtype=self.np.intp)
        # A negative value reads as a huge unsigned one.
        if len(values) and int(values.view(self.np.uintp).max()) > V.X:
            raise ValueError("invalid scalar value in a scan-in state")
        self.zero[self.ff_rows] = self._scan_lookup[0, values]
        self.one[self.ff_rows] = self._scan_lookup[1, values]
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
            frame lies outside the loaded vectors.
        """
        np = self.np
        n_blocks, n = self.n_blocks, blocks.n_frames
        if blocks.n_blocks != n_blocks:
            raise ValueError(f"{blocks.n_blocks} tests for {n_blocks} "
                             f"blocks")
        states = np.frombuffer(blocks.state_bytes, dtype=np.uint8).reshape(
            n_blocks, len(self.ff_rows)).T[:, :, None]
        width = (len(self.ff_rows), self.n_words)
        mask = self.block_mask
        self.zero[self.ff_rows] = ((states == V.ZERO) * mask).reshape(width)
        self.one[self.ff_rows] = ((states == V.ONE) * mask).reshape(width)
        self.caught.fill(0)
        self._vector_rows(n)[:] = np.frombuffer(
            blocks.pi_bytes, dtype=np.uint8).reshape(
                n_blocks, n, self.n_pi).transpose(1, 0, 2).reshape(
                    n, n_blocks * self.n_pi)
        last = self._last_buf[:n_blocks]
        last[:] = blocks.last
        if int(last.max()) >= n:
            raise ValueError("a block's last frame lies outside the "
                             "loaded vectors")
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
            If the pass is longer than the vector buffer, a machine's
            frame lies past its end, or the block count does not
            divide the words into blocks that hold the machines.
        """
        ffi = self._ffi
        self.counters.np_passes += 1
        W, n_blocks, n = self.n_words, self.n_blocks, self.n_machines
        if (n_blocks < 1 or W % n_blocks or W > self._width or
                64 * (W // n_blocks) <= n or n > len(self._list) or
                n_blocks > max(1, len(self._last_buf))):
            raise ValueError(f"malformed kernel pass: {n} machines in "
                             f"{n_blocks} blocks over {W} words")
        if n_frames * n_blocks * self.n_pi > len(self._vec_buf):
            raise ValueError(f"{n_frames}-frame pass over a shorter "
                             f"vector buffer")
        if self._last_force >= n_frames:
            raise ValueError(f"malformed machine list: a machine forces "
                             f"in frame {self._last_force} of a "
                             f"{n_frames}-frame pass")
        rec = (ffi.NULL, ffi.NULL)
        if records:
            if n_frames > self._rec_rows:
                self._grow_records(n_frames)
            size = n_frames * W
            self.rec_po = self._rec_po[:size].reshape(n_frames, W)
            self.rec_scan = self._rec_scan[:size].reshape(n_frames, W)
            rec = self._rec_p
        key = None if scan_observe is None else tuple(scan_observe)
        if key != self._obs_key:
            self._obs = self.np.asarray(key or (0,), dtype=self.np.int32)
            self._obs_p = _i32p(ffi, self._obs)
            self._obs_key = key
        frames: int = self._lib.repro_run_pass(
            *self._rows_p, W, *self._head, n, self._list_p[0],
            self._frames_p, self._list_p[2], self._vecs_p, n_frames,
            n_blocks, ffi.NULL if n_blocks == 1 else self._last_p,
            int(observe_po), int(scan_out), -1 if key is None else len(key),
            self._obs_p, *rec, *self._tail)
        return frames

    def _grow_records(self, n_frames: int) -> None:
        """Reallocate the record buffers for ``n_frames`` frames of the
        buffers' row width."""
        np, ffi = self.np, self._ffi
        self._rec_rows = max(n_frames, 2 * self._rec_rows)
        self._rec_po = np.zeros(self._rec_rows * self._width,
                                dtype=np.uint64)
        self._rec_scan = np.zeros_like(self._rec_po)
        self._rec_p = (_u64p(ffi, self._rec_po), _u64p(ffi, self._rec_scan))

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
        """Whether every machine is caught."""
        want = self._want
        if want is None:
            words = self.np.tile(self.block_mask, self.n_blocks)
            words[::self.block_words] &= ~self.np.uint64(1)
            want = self._want = words.tolist()
        return all(c & w == w for c, w in zip(self.caught.tolist(), want))

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
                len(expand[fid])
                for fid in self._list[:self.n_machines].tolist()]
        self._weights = weights

    def weight(self, words: Any) -> int:
        """The faults the machine bits of ``words`` stand for."""
        np = self.np
        return int(np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8),
            bitorder="little") @ self._weights)

    def good_state(self) -> V.Vector:
        """The fault-free machine's flip-flop state."""
        good_zero = (self.zero[self.ff_rows, 0] & 1).tolist()
        good_one = (self.one[self.ff_rows, 0] & 1).tolist()
        return tuple(V.word_scalar(z, o)
                     for z, o in zip(good_zero, good_one))

    def records(self, n_frames: int, po_first: Dict[int, int],
                scan_diff: List[Set[int]]) -> None:
        """Decode the last records-mode pass: each fault's first
        PO-detecting frame into ``po_first`` and, per frame, the faults
        a scan-out there detects into ``scan_diff``."""
        np = self.np
        if not n_frames:
            return

        def bit_matrix(rec: Any) -> Any:
            # Row f, column b: machine bit b differs at frame f.
            return np.unpackbits(
                rec[:n_frames].astype("<u8", copy=False).view(np.uint8),
                axis=1, bitorder="little")

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

    def site_table(self, entries: Any) -> Any:
        """A checked fault-site table: one ``(kind, place, pin, value)``
        row per fault, as a C-contiguous ``(n, 4)`` int32 array.

        A stem (:data:`SITE_STEM`) forces net ``place``; a fanout
        branch (:data:`SITE_BRANCH`) forces pin ``pin`` of the gate
        driving net ``place``; a flip-flop data-pin branch
        (:data:`SITE_FF`) forces the next state of flip-flop position
        ``place``.  ``value`` is the forced value.  Built once per
        simulator; every kernel pass indexes it with a checked machine
        list (:meth:`_Arena.bind`).

        Raises
        ------
        ValueError
            If a kind is unknown, a net is not below ``n_nets``, a pin
            is not below the fanin count of the gate driving its net, a
            flip-flop position is not below the flip-flop count or a
            value is not 0 or 1.
        """
        np = self.np
        table = np.asarray(entries, dtype=np.int64).reshape(-1, 4)
        kind, place, pin, value = table.T
        n_nets, n_ff = self.circuit.n_nets, len(self.circuit.ff_ids)
        on_net = (kind != SITE_FF) & (place >= 0) & (place < n_nets)
        arity = self.net_arity[np.where(on_net, place, 0)]
        checks = (
            ("an unknown site kind", (kind >= SITE_STEM) & (kind <= SITE_FF)),
            ("a net outside the circuit", (kind == SITE_FF) | on_net),
            ("a branch pin past its gate's fanins",
             (kind != SITE_BRANCH) | ((pin >= 0) & (pin < arity))),
            ("a flip-flop position outside the flip-flops",
             (kind != SITE_FF) | ((place >= 0) & (place < n_ff))),
            ("a forced value other than 0 or 1", (value == 0) | (value == 1)))
        for what, ok in checks:
            if not ok.all():
                row = int(np.flatnonzero(~ok)[0])
                raise ValueError(f"malformed fault-site table: entry {row} "
                                 f"has {what}")
        return np.ascontiguousarray(table, dtype=np.int32)

    def store(self, sites: Any, counters: "SimCounters") -> _Arena:
        """A new kernel pass store over the site table ``sites`` (see
        :class:`_Arena`)."""
        return _Arena(self, sites, counters)

    # ------------------------------------------------------------------
    # The circuit-constant arguments are cast once per backend and
    # shared by every store.
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
