"""The C-kernel pass executor: fault simulation on ``uint64`` rows.

The big-int path keeps every net's packed machines in a pair of
Python integers and pays interpreter overhead per gate *and* per
frame: one arbitrary-precision bitwise op is cheap, but a 330-gate
frame costs hundreds of microseconds of bytecode dispatch, dict
probes for injection sites, and list traffic on the branch-fault
slow path.  This module re-hosts a pass on rows: per-net words
become a pair of ``n_nets x n_words`` ``uint64`` row blocks in cffi
memory (net-major -- see DESIGN.md section 13 for the layout
rationale) and the whole pass loop runs in a *circuit-independent*
C kernel, built with cffi and the system C compiler by the first
process on a source tree and loaded by every later one (the build is
kept in ``__pycache__`` beside ``kernel.c``, or under
``$REPRO_KERNEL_CACHE``).  The circuit (opcode/fanin tables) is
handed over once per backend, so a frame costs a few microseconds
with zero per-frame Python work; Python regains control only at pass
boundaries.

A pass costs a list, not a plan.  Each simulator builds a
*fault-site table* once (:meth:`ArrayBackend.site_table`: per fault,
a stem, fanout-branch or flip-flop data-pin site and the value it
forces), checked when it is built.  A pass is then a *machine list*:
machine bit ``k + 1`` of every block is fault ``faults[k]`` of the
table (for a transition launch, forcing only in one pass frame), and
the kernel derives its forcing from the table and the list inside
the call.  The list is range-checked when a store binds it
(:meth:`_Arena.bind`, by the check it shares with the big-int word
arena), before the kernel indexes anything with it.
A store (:class:`_Arena`) holds the buffers the kernel reads and
writes; they grow to the widest pass bound so far, so a simulator's
one-off passes share one store and a consumer with state of its own
(an incremental simulation, a Phase-2 run) keeps one per chunk.
Python sees a store's words as ints: ``caught`` and the record rows
are decoded with ``int.from_bytes``, and one decoding, in
:class:`repro.sim.fault_sim._Store`, serves this store and its
big-int twin, :class:`repro.sim.fault_sim._WordArena`.  The
flip-flop rows are one contiguous span of the state rows, so copying
them to and from a trail row and loading a scan-in state are single
copies.  A Phase-2 run keeps its checkpoints as a *trail* of
flip-flop rows and ``later`` words in cffi memory
(:meth:`_Arena.keep_trail`), which a records-mode pass writes and a
trial pass reads, inside the kernel.
The consumers in :mod:`repro.sim.fault_sim`,
:mod:`repro.core.omission` and :mod:`repro.delay.transition` are thus
written once against either store.

With cffi and a C compiler present, every fault-simulation pass
runs here; otherwise
:attr:`repro.sim.logicsim.CompiledCircuit.array_backend` is ``None``
and everything runs on big-int words
(:func:`kernel_unavailable_reason` says why).  The kernel's C
source, ``kernel.c``, ships beside this module.  It has one entry
point, ``repro_run_pass``, and mirrors the word arena's pass loop
operation for operation -- load, source stems, topological gate
evaluation with branch overrides and post-gate stem forcing,
next-state capture with flip-flop branch forcing, PO / scan
observation, the ``caught`` bookkeeping and the saturation break,
and forcing a machine only in its one frame when the list gives
frames, as the transition-fault passes of
:mod:`repro.delay.transition` do -- so detection sets are
byte-identical either way (enforced by the production-vs-reference
equivalence suites and the sanitizer's shadow checks).

cffi is an optional dependency: install the ``fast`` extra
(``pip install repro[fast]``).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from itertools import chain
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from . import values as V
from .fault_sim import SITE_BRANCH, SITE_FF, SITE_STEM, _Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .counters import SimCounters
    from .fault_sim import _TrialBlocks
    from .logicsim import CompiledCircuit


# ----------------------------------------------------------------------
# The circuit-independent C kernel
# ----------------------------------------------------------------------
# One C function runs a whole pass (many frames) over the array state.
# Its source, kernel.c, ships beside this module and is compiled once
# -- the circuit travels in plan arrays, not in the source -- and the
# build is published for later processes, so only the first process
# on a source tree pays the sub-second compile, however many circuits
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
    u64* caught,
    u64* trail_zero, u64* trail_one, const u64* later);
"""

#: Compiler flags of the kernel build (part of the cache key).
_CFLAGS = ("-O2", "-shared", "-fPIC")

#: Process-lifetime kernel cache: (ffi, lib) or an unavailability
#: reason string.  Loaded lazily on first backend construction.
_KERNEL: Optional[Tuple[Any, Any]] = None
_KERNEL_ERROR: Optional[str] = None
_KERNEL_TRIED = False


def _find_cc() -> Optional[List[str]]:
    """The C compiler command: ``$CC``, then ``cc``, then ``gcc``.

    ``$CC`` is split into words as make and setuptools split it
    (``ccache gcc``, ``gcc -m64``): its first word names the program,
    and the rest go before the kernel's own flags.  ``None`` when no
    program is found (or ``$CC`` does not parse).
    """
    try:
        words = shlex.split(os.environ.get("CC", ""))
    except ValueError:
        return None
    if not words:
        cc = shutil.which("cc") or shutil.which("gcc")
        return [cc] if cc else None
    program = words[0] if os.path.sep in words[0] else shutil.which(words[0])
    return [program, *words[1:]] if program else None


def _kernel_source() -> str:
    """The kernel's C source text.

    Raises
    ------
    OSError
        If ``kernel.c`` is missing or unreadable.
    """
    with open(_KERNEL_PATH) as handle:
        return handle.read()


def _kernel_cache_path(source: str) -> str:
    """Where the kernel build is kept for later processes.

    ``repro_kernel-<key>.so`` in ``$REPRO_KERNEL_CACHE`` when that is
    set, else in the ``__pycache__`` directory beside ``kernel.c``
    (where cffi's own ``verify()`` keeps its builds), so deleting the
    tree deletes the build.  The key hashes the kernel ``source``, its
    cdef, the raw ``$CC`` text and the compile flags, so a restored
    cache directory (CI persists it across jobs) can never dlopen a
    shared object built from different source or by a different
    compiler -- a change to any of them simply misses the cache and
    recompiles (and a ``$CC`` that names no compiler reports that,
    whatever the cache holds).
    """
    root = (os.environ.get("REPRO_KERNEL_CACHE")
            or os.path.join(os.path.dirname(_KERNEL_PATH), "__pycache__"))
    key = "\0".join((_KERNEL_CDEF, source,
                     os.environ.get("CC", ""), *_CFLAGS))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(root, f"repro_kernel-{digest}.so")


def _load_kernel() -> Optional[Tuple[Any, Any]]:
    """Load the pass kernel once per process, compiling it on a miss.

    Returns ``(ffi, lib)`` or ``None`` (reason in
    :func:`kernel_unavailable_reason`).  Never raises: a missing
    compiler, cffi or kernel source just disables the fast path.  The
    source is read here, not at import.  A build kept at
    :func:`_kernel_cache_path` is dlopened without a compiler; one
    that does not load (a corrupt or foreign file) is rebuilt and
    replaced.  A compile runs in a temporary build directory, removed
    once the library is loaded and published (a loaded shared object
    stays mapped after its file is unlinked).  Publishing is an atomic
    copy and rename; where it fails (a read-only tree, a full disk)
    nothing is left behind, and the next process compiles too.
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
    if os.path.exists(cached):
        ffi = FFI()
        ffi.cdef(_KERNEL_CDEF)
        try:
            _KERNEL = (ffi, ffi.dlopen(cached))
            return _KERNEL
        except OSError:
            pass  # a corrupt or foreign file: compile and replace it
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
            subprocess.run([*cc, *_CFLAGS, "-o", so_path, c_path],
                           check=True, capture_output=True, timeout=120)
            ffi = FFI()
            ffi.cdef(_KERNEL_CDEF)
            lib = ffi.dlopen(so_path)
        except subprocess.CalledProcessError as exc:
            # The compiler's last five lines (600 characters at most),
            # naming kernel.c rather than the build directory's copy.
            lines = exc.stderr.decode(errors="replace").replace(
                c_path, _KERNEL_PATH).strip().splitlines()
            tail = "\n".join(lines[-5:])[-600:]
            _KERNEL_ERROR = (f"kernel build failed: {cc[0]} exited with "
                             f"status {exc.returncode}"
                             + (f":\n{tail}" if tail else ""))
            return None
        except Exception as exc:  # pragma: no cover - toolchain-specific
            _KERNEL_ERROR = f"kernel build failed: {exc}"
            return None
        # Atomic publish: concurrent processes may race here, but every
        # writer produces an identical file.
        tmp_copy = f"{cached}.tmp-{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(cached), exist_ok=True)
            shutil.copy(so_path, tmp_copy)
            os.replace(tmp_copy, cached)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp_copy)
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

    Without ``circuit`` this reports on the host: cffi, the kernel
    source and a C compiler (or a cached kernel) are all needed.  With
    ``circuit`` it also reports a gate with more than
    :data:`MAX_FANIN` fanins, which keeps that circuit on big-int
    words.
    """
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

class _Arena(_Store):
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
    per-net state rows, the mask, next-state and branch-scratch rows,
    ``caught``, the vectors, block ends, machine and frame lists,
    links and records -- is cffi memory that grows to the widest pass
    bound so far, so one store serves any number of passes of any
    width: a simulator's one-off passes share one, and a consumer with
    state of its own (an incremental simulation, a Phase-2 run) binds
    one per chunk, once.  Bound at ``n_words`` words per row, row ``r``
    of a buffer is its words ``[r * n_words, (r + 1) * n_words)``.

    Python sees the words as ints, decoded by
    :class:`repro.sim.fault_sim._Store`: ``caught`` reads and writes
    the caught words, and a records-mode :meth:`run` leaves its rows in
    ``rec_po`` / ``rec_scan``.  The flip-flop nets are numbered in one
    run (after the PIs, by
    :meth:`repro.circuits.netlist.Netlist.compile`), so their rows are
    one span of each rail's bytes: the flip-flop rows carry state
    between calls of one binding, and a checkpoint is a trail row
    (:meth:`keep_trail`), a copy of both rails' spans.  A store
    bound over several blocks runs one test per block: it only loads
    (:meth:`load_blocks`), runs and decodes per block
    (:meth:`faults_by_block`).  Every :meth:`run` counts one kernel
    pass in ``counters``.
    """

    def __init__(self, backend: "ArrayBackend", sites: Any,
                 counters: "SimCounters") -> None:
        self.counters = counters
        self._ffi, self._lib = backend._kernel
        ffi = self._ffi
        circuit = backend.circuit
        self._n_sites = len(sites) // 4
        self.n_pi = len(circuit.pi_ids)
        self._n_nets = circuit.n_nets
        self._n_ff = len(circuit.ff_ids)
        self._ff_lo = circuit.ff_ids[0] if circuit.ff_ids else 0
        self._arity = backend.max_arity
        self._head = (*backend.circuit_args, self._n_nets, sites)
        self._width = 0              # words per row the buffers hold
        self._vec_cap = 0
        self._grow_vectors(64)
        self._last_cap = 0
        self._last = ffi.NULL
        self._obs_key: Optional[Tuple[int, ...]] = None
        self._obs = ffi.new("int[]", 1)
        self._grow_list(0)
        self.bind(())

    def _grow_rows(self, width: int) -> None:
        """Reallocate the row buffers for ``width`` words per row."""
        ffi = self._ffi
        self._width = width
        self._rec_rows = 0           # frames the record buffers hold
        self._rec = (ffi.NULL, ffi.NULL)
        self._rec_bytes: Tuple[Any, Any] = (b"", b"")

        def rows(n_rows: int) -> Any:
            return ffi.new("u64[]", n_rows * width)

        self._zero, self._one = rows(self._n_nets), rows(self._n_nets)
        self._caught = rows(1)
        self._bytes = (ffi.buffer(self._zero), ffi.buffer(self._one),
                       ffi.buffer(self._caught))
        # The mask, next-state and branch-scratch rows are the
        # kernel's own.
        n_ff = max(1, self._n_ff)
        self._scratch = [rows(n) for n in (1, n_ff, n_ff, self._arity,
                                           self._arity)]

    def _grow_list(self, n: int) -> None:
        """Reallocate the machine-list buffers for ``n`` machines."""
        ffi = self._ffi
        self._list_cap = n
        self._list = ffi.new("int[]", n)
        self._frame_list = ffi.new("int[]", n)
        self._links = ffi.new("int[]", 2 * self._n_nets + self._n_ff + n)

    def _grow_vectors(self, size: int) -> None:
        """Reallocate the vector buffer for ``size`` values, keeping
        the values it holds."""
        held = self._vec_bytes[0:self._vec_cap] if self._vec_cap else b""
        self._vec_cap = max(size, 2 * self._vec_cap)
        self._vecs = self._ffi.new("unsigned char[]", self._vec_cap)
        self._vec_bytes = self._ffi.buffer(self._vecs)
        self._vec_bytes[0:len(held)] = held

    def bind(self, faults: Sequence[int], n_blocks: int = 1,
             frames: Optional[Sequence[int]] = None) -> None:
        """Make ``faults`` the machine list of the next passes, over
        ``n_blocks`` blocks; with ``frames``, machine ``k`` forces only
        in pass frame ``frames[k]``.  The rows hold no state until a
        load.

        Raises
        ------
        ValueError
            If a fault index lies outside the site table (a negative
            one included), a frame is negative, or ``frames`` and
            ``faults`` differ in length (the check both stores share).
        """
        machines, at = self._set_machines(faults, n_blocks, frames,
                                          self._n_sites)
        n = len(machines)
        block_words = n // 64 + 1
        width = block_words * n_blocks
        if width > self._width:
            self._grow_rows(width)
        if n > self._list_cap:
            self._grow_list(n)
        if n_blocks > self._last_cap:
            self._last_cap = n_blocks
            self._last = self._ffi.new("long[]", n_blocks)
        self._list[0:n] = machines
        self._frames_p = self._ffi.NULL
        if at is not None:
            self._frame_list[0:n] = at
            self._frames_p = self._frame_list
        self.n_words = width
        size = 8 * width
        self._span = (size * self._ff_lo, size * (self._ff_lo + self._n_ff))
        self._scan_rows: Optional[Tuple[Any, Any, bytes]] = None
        self._trail: Tuple[Any, ...] = ()
        self._trail_shape = (0, width)

    def keep_trail(self, n_rows: int) -> None:
        """Give the binding a trail of ``n_rows`` checkpoints: per
        checkpoint, the flip-flop rows of both rails and one row of
        ``later`` words (see :meth:`run`)."""
        ffi, W = self._ffi, self.n_words
        size = max(1, n_rows * self._n_ff * W)
        self._trail = (ffi.new("u64[]", size), ffi.new("u64[]", size),
                       ffi.new("u64[]", max(1, n_rows * W)))
        self._later_bytes = ffi.buffer(self._trail[2])
        self._trail_shape = (n_rows, W)

    def _trail_row(self, row: int) -> Tuple[Any, Any, Any, Any, int]:
        """Trail row ``row`` and the flip-flop rows, each rail's, and
        the size of one in bytes.

        Raises
        ------
        ValueError
            If the trail holds no row ``row``.
        """
        if not 0 <= row < self._trail_shape[0]:
            raise ValueError(f"trail row {row} outside the "
                             f"{self._trail_shape[0]} rows of the trail")
        size = self._n_ff * self.n_words
        at = self._ff_lo * self.n_words
        return (self._trail[0] + row * size, self._trail[1] + row * size,
                self._zero + at, self._one + at, 8 * size)

    def save_row(self, row: int) -> None:
        """Copy the flip-flop rows into trail row ``row``."""
        zero, one, ff_zero, ff_one, size = self._trail_row(row)
        self._ffi.memmove(zero, ff_zero, size)
        self._ffi.memmove(one, ff_one, size)

    def restore_row(self, row: int) -> None:
        """Load trail row ``row`` into the flip-flop rows."""
        zero, one, ff_zero, ff_one, size = self._trail_row(row)
        self._ffi.memmove(ff_zero, zero, size)
        self._ffi.memmove(ff_one, one, size)

    def set_later(self, words: Sequence[int]) -> None:
        """Make ``words`` the trail's ``later`` rows, from row 0.

        Raises
        ------
        ValueError
            If the trail holds fewer rows.
        """
        if len(words) > self._trail_shape[0]:
            raise ValueError(f"{len(words)} later rows for a trail of "
                             f"{self._trail_shape[0]}")
        size = 8 * self.n_words
        data = b"".join([word.to_bytes(size, "little") for word in words])
        self._later_bytes[0:len(data)] = data

    def load_vectors(self, vectors: Sequence[V.Vector], at: int = 0) -> int:
        """Copy a PI sequence into the vector buffer from frame ``at``
        on (a frame holds ``n_blocks x n_pi`` values; the frames before
        ``at`` stay); returns its frame count.

        Raises
        ------
        ValueError
            If a value is not 0, 1 or X, a frame holds the wrong number
            of values, or ``at`` is negative.
        """
        n = len(vectors)
        data = V.scalar_bytes(chain.from_iterable(vectors))
        size = self._check_load(n, len(data), at)
        self._load_vector_bytes(data, at * size)
        return n

    def _load_vector_bytes(self, data: bytes, start: int = 0) -> None:
        """Copy checked vector bytes into the vector buffer from byte
        ``start`` on."""
        end = start + len(data)
        if end > self._vec_cap:
            self._grow_vectors(end)
        self._vec_bytes[start:end] = data

    def load_scan_in(self, state: V.Vector) -> None:
        """Pack the flip-flop rows from a scan-in vector
        (:func:`repro.sim.values.pack_scalar` semantics) and clear the
        caught words.

        Raises
        ------
        ValueError
            If a value is not 0, 1 or X, or the state does not hold one
            value per flip-flop.
        """
        data = V.scalar_bytes(state)
        if len(data) != self._n_ff:
            raise ValueError(f"scan-in state of {len(data)} values for "
                             f"{self._n_ff} flip-flops")
        rows = self._scan_rows
        if rows is None:
            # Per value, the row bytes of its zero and one rails.
            size = 8 * self.n_words
            mask = (((1 << (self.n_machines + 1)) - 1) *
                    self._tile()).to_bytes(size, "little")
            none = bytes(size)
            rows = self._scan_rows = ((mask, none, none), (none, mask, none),
                                      none)
        (a, b), (zero, one, caught) = self._span, self._bytes
        zero[a:b] = b"".join([rows[0][v] for v in data])
        one[a:b] = b"".join([rows[1][v] for v in data])
        caught[0:len(rows[2])] = rows[2]

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
        n_blocks, n = self.n_blocks, blocks.n_frames
        if blocks.n_blocks != n_blocks:
            raise ValueError(f"{blocks.n_blocks} tests for {n_blocks} "
                             f"blocks")
        size = 8 * self.n_words
        block = (1 << (self.n_machines + 1)) - 1
        states = blocks.state_words(self.stride)
        (a, b), (zero, one, caught) = self._span, self._bytes
        zero[a:b] = b"".join([(z * block).to_bytes(size, "little")
                              for z, _ in states])
        one[a:b] = b"".join([(o * block).to_bytes(size, "little")
                             for _, o in states])
        caught[0:size] = bytes(size)
        self._load_vector_bytes(blocks.pi_bytes)
        self._last[0:n_blocks] = blocks.last
        if max(blocks.last) >= n:
            raise ValueError("a block's last frame lies outside the "
                             "loaded vectors")
        return n

    def run(self, n_frames: int, observe_po: bool, scan_out: bool,
            scan_observe: Optional[Sequence[int]],
            records: bool = False, trail: Optional[int] = None,
            later: bool = False, first: int = 0) -> int:
        """One kernel pass over ``n_frames`` loaded vectors from frame
        ``first``; returns the frames it ran.  With ``records`` the pass
        fills ``rec_po`` / ``rec_scan`` row by row and never stops
        early.  The caller validates ``scan_observe``.

        With ``trail``, frame ``f`` of a one-block pass meets trail row
        ``trail + f`` (:meth:`keep_trail`): a records-mode pass writes
        its captured flip-flop rows there; with ``later`` too, a
        detect-mode pass compares them with the row and stops once its
        ``later`` words make the verdict sure (``repro_rejoin`` in
        ``kernel.c``).

        Raises
        ------
        ValueError
            If the pass is longer than the vector buffer, a machine's
            frame lies past its end, the block count does not divide
            the words into blocks that hold the machines, or a trail
            pass would meet rows past the trail, has more than one
            block or takes ``later`` rows without trail rows.
        """
        ffi = self._ffi
        self.counters.np_passes += 1
        W, n_blocks, n = self.n_words, self.n_blocks, self.n_machines
        if (n_blocks < 1 or W % n_blocks or W > self._width or
                64 * (W // n_blocks) <= n or n > self._list_cap or
                n_blocks > max(1, self._last_cap)):
            raise ValueError(f"malformed kernel pass: {n} machines in "
                             f"{n_blocks} blocks over {W} words")
        if first < 0 or \
                (first + n_frames) * n_blocks * self.n_pi > self._vec_cap:
            raise ValueError(f"{n_frames}-frame pass from frame {first} "
                             f"over a shorter vector buffer")
        self._check_forcing(n_frames)
        rec = (ffi.NULL, ffi.NULL)
        if records:
            if n_frames > self._rec_rows:
                self._grow_records(n_frames)
            rec = self._rec
        rows: Tuple[Any, ...] = (ffi.NULL, ffi.NULL, ffi.NULL)
        if trail is not None or later:
            rows = self._trail_pass(n_frames, trail, later)
        key = None if scan_observe is None else tuple(scan_observe)
        if key != self._obs_key:
            self._obs = ffi.new("int[]", key or (0,))
            self._obs_key = key
        mask, *scratch = self._scratch
        frames: int = self._lib.repro_run_pass(
            self._zero, self._one, mask, W, *self._head, n, self._list,
            self._frames_p, self._links,
            self._vecs + first * n_blocks * self.n_pi, n_frames, n_blocks,
            ffi.NULL if n_blocks == 1 else self._last, int(observe_po),
            int(scan_out), -1 if key is None else len(key), self._obs,
            *rec, *scratch, self._caught, *rows)
        if records:
            size = 8 * W
            po, scan = self._rec_bytes
            self.rec_po = [int.from_bytes(po[f * size:(f + 1) * size],
                                          "little")
                           for f in range(n_frames)]
            self.rec_scan = [int.from_bytes(scan[f * size:(f + 1) * size],
                                            "little")
                             for f in range(n_frames)]
        return frames

    def _trail_pass(self, n_frames: int, trail: Optional[int],
                    later: bool) -> Tuple[Any, Any, Any]:
        """The kernel's trail pointers of a pass from trail row
        ``trail``: both rails' rows and, with ``later``, the later
        words.

        Raises
        ------
        ValueError
            As :meth:`run`, for a malformed trail pass.
        """
        n_rows, width = self._trail_shape
        W = self.n_words
        if trail is None:
            raise ValueError("malformed trail pass: later rows without "
                             "trail rows")
        if self.n_blocks != 1:
            raise ValueError(f"malformed trail pass: {self.n_blocks} "
                             f"blocks")
        if W != width or not 0 <= trail <= n_rows - n_frames:
            raise ValueError(f"malformed trail pass: rows {trail} to "
                             f"{trail + n_frames - 1} of a trail of "
                             f"{n_rows}")
        size = self._n_ff * W
        zero, one, words = self._trail
        return (zero + trail * size, one + trail * size,
                words + trail * W if later else self._ffi.NULL)

    def _grow_records(self, n_frames: int) -> None:
        """Reallocate the record buffers for ``n_frames`` frames of the
        buffers' row width."""
        ffi = self._ffi
        self._rec_rows = max(n_frames, 2 * self._rec_rows)
        self._rec = (ffi.new("u64[]", self._rec_rows * self._width),
                     ffi.new("u64[]", self._rec_rows * self._width))
        self._rec_bytes = (ffi.buffer(self._rec[0]),
                           ffi.buffer(self._rec[1]))

    @property
    def caught(self) -> int:
        """The caught machine words, as an int."""
        return int.from_bytes(self._bytes[2][0:8 * self.n_words], "little")

    @caught.setter
    def caught(self, words: int) -> None:
        size = 8 * self.n_words
        self._bytes[2][0:size] = words.to_bytes(size, "little")

    def _ff_words(self) -> Tuple[List[int], List[int]]:
        (a, b), size = self._span, 8 * self.n_words
        zero, one = self._bytes[0][a:b], self._bytes[1][a:b]
        return ([int.from_bytes(zero[i:i + size], "little")
                 for i in range(0, b - a, size)],
                [int.from_bytes(one[i:i + size], "little")
                 for i in range(0, b - a, size)])


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
        self.circuit = circuit
        kernel = _load_kernel()
        assert kernel is not None  # the reason above would name it
        #: The loaded kernel's ``(ffi, lib)``.
        self._kernel = kernel
        ffi = kernel[0]
        ops = circuit.ops
        self.max_arity = max([len(f) for _, _, f in ops] or [1])
        foff = [0]
        fan: List[int] = []
        for _, _, fins in ops:
            fan.extend(fins)
            foff.append(len(fan))

        def ints(values: Sequence[int]) -> Any:
            return ffi.new("int[]", list(values) or [0])

        #: The circuit-constant kernel arguments every store passes:
        #: gate tables, then the PI / PO / flip-flop id lists with
        #: their counts.
        self.circuit_args = (
            len(ops), ints([op for op, _, _ in ops]),
            ints([out for _, out, _ in ops]), ffi.new("long[]", foff),
            ints(fan), len(circuit.pi_ids), ints(circuit.pi_ids),
            len(circuit.po_ids), ints(circuit.po_ids),
            len(circuit.ff_ids), ints(circuit.ff_ids),
            ints(circuit.ff_d_ids))
        #: Fanin count of the gate driving each net (0 for source
        #: nets): the bound of a branch pin.
        self.net_arity = [0] * circuit.n_nets
        for _, out, fins in ops:
            self.net_arity[out] = len(fins)

    def site_table(self, entries: Sequence[Sequence[int]]) -> Any:
        """A checked fault-site table: one ``(kind, place, pin, value)``
        row per fault, as a cffi ``int`` array of four entries a row.

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
        n_nets, n_ff = self.circuit.n_nets, len(self.circuit.ff_ids)
        flat: List[int] = []
        for row, (kind, place, pin, value) in enumerate(entries):
            what = None
            if not SITE_STEM <= kind <= SITE_FF:
                what = "an unknown site kind"
            elif kind != SITE_FF and not 0 <= place < n_nets:
                what = "a net outside the circuit"
            elif kind == SITE_BRANCH and not \
                    0 <= pin < self.net_arity[place]:
                what = "a branch pin past its gate's fanins"
            elif kind == SITE_FF and not 0 <= place < n_ff:
                what = "a flip-flop position outside the flip-flops"
            elif value not in (0, 1):
                what = "a forced value other than 0 or 1"
            if what is not None:
                raise ValueError(f"malformed fault-site table: entry {row} "
                                 f"has {what}")
            flat += (kind, place, pin, value)
        return self._kernel[0].new("int[]", flat)

    def store(self, sites: Any, counters: "SimCounters") -> _Arena:
        """A new kernel pass store over the site table ``sites`` (see
        :class:`_Arena`)."""
        return _Arena(self, sites, counters)
