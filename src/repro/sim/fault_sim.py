"""Bit-parallel parallel-fault sequential fault simulation.

The simulator packs faulty machines plus the fault-free machine
(always bit 0) into one pair of Python big-ints per net.  One pass
over a sequence costs ``frames x gates x words`` big-int operations
regardless of how many faults share a word, so the dominant cost is
the *number of words*, not their width: Python integers are
arbitrary-precision, and one 4096-bit AND is far cheaper than 32
separate 128-bit evaluation passes.

Packing: every active fault of a pass is packed into a single word
pair per net, falling back to balanced parts of at most
:data:`FUSED_CAP` machines for huge fault sets (beyond a few thousand
machine bits the per-digit cost of big-int arithmetic starts to win
over the per-pass interpreter overhead).  Tests and the sanitizer's
chunked shadow pass a smaller ``fused_cap`` to force multi-part
packing.

Execution: every pass of :meth:`detect`, :meth:`run_with_records`
and :meth:`detect_trials`, every :class:`IncrementalFaultSim` step and
every Phase-2 suffix trial and rebuild frame runs in a *pass store*;
the consumers are written once, against the one interface both stores
share, and they decode their machine bits once, as Python ints
(:class:`_Store`).  A pass is a *machine list* over the simulator's
fault-site rows (one ``(kind, place, pin, value)`` row per fault,
built once): both stores chunk a pass the same way (:meth:`_groups`:
balanced groups of the target, fault ``k`` of a group at machine bit
``k + 1``) and bind each list under the same checks.  One function,
:func:`store_factory`, picks the store for the stuck-at simulator and
the transition-fault grader alike.  When the circuit has an array
backend (:attr:`repro.sim.logicsim.CompiledCircuit.array_backend` --
cffi and a C compiler present) it is a C-kernel store of
:mod:`repro.sim.npsim` over ``uint64`` rows in cffi memory, over the
site table built and checked once; otherwise a word arena
(:class:`_WordArena`): the machines' words as big-ints, evaluated by
:meth:`~repro.sim.logicsim.CompiledCircuit.eval_frame` in a loop that
mirrors the kernel's.  :meth:`detect`, :meth:`run_with_records` and
:meth:`detect_trials` bind each chunk's list, in turn, to one store
the simulator keeps, while an incremental simulation and a Phase-2 run
each keep a store per chunk of their own target.  The stores are
result-identical: per-machine logic values do not depend on how words
are stored, and the production-vs-reference equivalence suites plus
the ``REPRO_SANITIZE`` shadow checks enforce it.

Fault dropping: a pass stops as soon as every target machine is
caught, and :meth:`FaultSimulator.detect` can report detections into
a shared :class:`~repro.sim.scoreboard.FaultScoreboard` so later
phases simulate smaller targets.  Both are pure accelerations:
per-machine logic values are independent of packing, so detection
sets are identical however faults are packed (enforced by the
equivalence test suite).

Instrumentation: every simulator bumps a
:class:`~repro.sim.counters.SimCounters` (frames, word evaluations,
machine bits, drops), rendered as the Engine-counters table.

This is the package's one stuck-at fault simulator.  It has one
machine layout -- a test's fault-free machine at bit 0, the faulty
machines after it -- and four entry points cover all the needs of the
compaction procedures:

* :meth:`FaultSimulator.detect` -- the faults ride in the lanes of one
  test: which target faults does a test ``(SI, T)`` (or a scan-less
  sequence) detect?  Stops once every target is caught; used heavily
  by combining and the baselines.
* :meth:`FaultSimulator.run_with_records` -- the same packing, in a
  single full pass that records, per fault, the first frame with a
  primary-output difference and, per frame, which faults would be
  caught by a scan-out at that frame.  This turns the paper's Phase-1
  Step 3 scan over all candidate scan-out times into one simulation
  plus a cheap post-pass (the result is identical to simulating every
  candidate, by construction).
* :meth:`FaultSimulator.detect_trials` -- many independent ``(SI, T)``
  trials in one pass: trial ``k`` takes block ``k`` of every chunk's
  words, a whole number of words laid out as :meth:`detect` lays out
  one test (its own good machine at bit 0, its own scan-in state and
  vectors), each block observed through its own last frame.  Phase-4
  merge trials run on it.
* :meth:`FaultSimulator.detect_candidates` -- :meth:`detect_trials`
  over trials that share one sequence: the ``|C|`` sequence passes of
  Phase-1 Step 2 become one pass per chunk.  See DESIGN.md section 9.

Single-frame scan patterns reach the same simulator through the
:class:`~repro.sim.comb_sim.CombPatternSim` adapter: a PPSFP pattern
block is one :meth:`detect_trials` call, a single pattern one
:meth:`detect` pass.

Detection semantics (see DESIGN.md section 4): a binary good/faulty
difference at a primary output in any functional frame, or -- when a
scan-out is performed -- a binary difference in the flip-flop state
captured by the final frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from . import values as V
from ..analysis import sanitizer
from .counters import SimCounters
from .faults import Fault, FaultSet
from .logicsim import CompiledCircuit, check_state, check_vectors
from .scoreboard import FaultScoreboard

#: Machine-bit cap per fused word: the size of one part of a packing
#: (the good bit included).  Beyond this the per-digit cost of big-int
#: ops outweighs the saved passes, so passes fall back to balanced
#: parts of at most this many machines, on either store.
FUSED_CAP = 4096

#: Under ``REPRO_SANITIZE`` each simulator cross-checks its first few
#: ``detect`` passes against a chunked shadow on the reference circuit
#: (fused vs chunked, production vs reference agreement) ...
_SANITIZE_SPOT_BUDGET = 3
#: ... but only for passes small enough that the doubled work stays
#: negligible.
_SANITIZE_SPOT_TARGET_CAP = 256

#: Site kinds of a fault-site row ``(kind, place, pin, value)``: a stem
#: forces net ``place``, a fanout branch pin ``pin`` of the gate driving
#: net ``place``, a flip-flop data-pin branch the next state of
#: flip-flop position ``place``; ``value`` is the forced value.
#: ``kernel.c`` reads the same values.
SITE_STEM, SITE_BRANCH, SITE_FF = 0, 1, 2


class _TrialBlocks:
    """The tests of one multi-trial pass, test ``b`` in block ``b``.

    The scan-in states are kept as block-major bytes and the PI
    sequences as frame-major bytes (frames x blocks x PIs, the layout
    the kernel reads; a sequence is padded with X past its end), both
    checked to hold only 0, 1 and X, with each test's last frame.
    :meth:`FaultSimulator.detect_trials` builds them once and every
    chunk's store loads them: a kernel store the PI bytes as they are
    and the scan-in rows from :meth:`state_words`, a word arena
    everything as selector words (:meth:`words`), memoised per block
    stride.

    Raises
    ------
    ValueError
        If a scan-in or PI value is not 0, 1 or X.
    """

    def __init__(self, states: Sequence[V.Vector],
                 sequences: Sequence[Sequence[V.Vector]],
                 n_ff: int, n_pi: int) -> None:
        self.n_blocks = len(states)
        self.n_ff, self.n_pi = n_ff, n_pi
        self.last = [len(seq) - 1 for seq in sequences]
        self.n_frames = n = max(self.last) + 1
        self.state_bytes = V.scalar_bytes(chain.from_iterable(states))
        pad = (V.X,) * n_pi
        self.pi_bytes = V.scalar_bytes(chain.from_iterable(
            seq[f] if f < len(seq) else pad
            for f in range(n) for seq in sequences))
        self._states: Dict[int, List[Tuple[int, int]]] = {}
        self._words: Dict[int, Tuple[Any, ...]] = {}

    def state_words(self, stride: int) -> List[Tuple[int, int]]:
        """Per flip-flop, the ``(zero, one)`` selector words of its
        scan-in values at a block stride of ``stride`` bits: bit
        ``b * stride`` is set where block ``b``'s value is 0 / is 1."""
        memo = self._states.get(stride)
        if memo is None:
            memo = self._states[stride] = [
                _spread(self.state_bytes[i::self.n_ff], stride // 8)
                for i in range(self.n_ff)]
        return memo

    def words(self, stride: int) -> Tuple[Any, ...]:
        """Selector words at a block stride of ``stride`` bits, where
        bit ``b * stride`` stands for block ``b``: ``(states, frames,
        runs, ends)`` with the ``(zero, one)`` selector pair of each
        flip-flop's scan-in value, of each PI's value per frame, and
        per frame the blocks still running and those ending there."""
        memo = self._words.get(stride)
        if memo is None:
            step, n_pi = stride // 8, self.n_pi
            row = self.n_blocks * n_pi
            frames = [[_spread(self.pi_bytes[f * row + p:(f + 1) * row:n_pi],
                               step)
                       for p in range(n_pi)] for f in range(self.n_frames)]
            ends = [0] * self.n_frames
            for b, last in enumerate(self.last):
                if last >= 0:
                    ends[last] |= 1 << (b * stride)
            runs = [0] * self.n_frames
            running = 0
            for f in range(self.n_frames - 1, -1, -1):
                running |= ends[f]
                runs[f] = running
            memo = self._words[stride] = (self.state_words(stride), frames,
                                          runs, ends)
        return memo


#: Byte translations picking the blocks whose value is 0 / is 1.
_PICK = tuple(bytes(int(i == v) for i in range(256))
              for v in (V.ZERO, V.ONE))


def _spread(values: bytes, step: int) -> Tuple[int, int]:
    """The ``(zero, one)`` selector words of one value per block: bit
    ``8 * step * b`` is set where block ``b``'s value is 0 / is 1."""
    words = []
    for pick in _PICK:
        buf = bytearray(len(values) * step)
        buf[::step] = values.translate(pick)
        words.append(int.from_bytes(buf, "little"))
    return words[0], words[1]


def _set_bits(word: int) -> List[int]:
    """Ascending positions of the bits set in ``word``."""
    text = bin(word)[:1:-1]          # bit b at index b
    out: List[int] = []
    b = text.find("1")
    while b >= 0:
        out.append(b)
        b = text.find("1", b + 1)
    return out


def _diff_or(zero: Sequence[int], one: Sequence[int],
             rows: Iterable[int], tile: int = 1, block: int = 0) -> int:
    """Machines whose binary value on any of ``rows`` differs from
    their good machine's (bit 0, which therefore never appears).

    With several blocks (``tile`` has bit 0 of each, ``block`` is one
    block's mask) each block compares with its own good machine: the
    multiply spreads each block's good bit over its block."""
    acc = 0
    if tile == 1:
        for r in rows:
            if one[r] & 1:
                acc |= zero[r]
            elif zero[r] & 1:
                acc |= one[r]
        return acc
    for r in rows:
        z, o = zero[r], one[r]
        acc |= ((o & tile) * block & z) | ((z & tile) * block & o)
    return acc


def _check_sites(faults: Sequence[int], n_sites: int) -> None:
    """Check that every fault index of a machine list names one of the
    ``n_sites`` sites.

    Raises
    ------
    ValueError
        If a fault index lies outside the sites (a negative one
        included).
    """
    if faults and (min(faults) < 0 or max(faults) >= n_sites):
        raise ValueError(f"malformed machine list: a fault index "
                         f"outside the {n_sites} sites")


class _Store:
    """What the two pass stores share: the decoding of their machine
    bits, on Python ints.

    A store's machines are a list, ``machines``: machine bit ``k + 1``
    of every block is fault ``machines[k]`` and bit 0 the block's good
    machine, and a block is ``stride`` bits, the whole number of
    64-bit words that hold them.  ``caught``, the words handed to
    :meth:`faults_in` and :meth:`weight` and the rows ``rec_po`` /
    ``rec_scan`` of the last records-mode pass are ints in that layout
    on either store, and :meth:`_ff_words` gives the flip-flop rows
    the same way, so every decoding below is written once.
    """

    caught: int
    n_pi: int
    rec_po: List[int]
    rec_scan: List[int]

    def _set_machines(self, faults: Sequence[int], n_blocks: int,
                      frames: Optional[Sequence[int]], n_sites: int
                      ) -> Tuple[List[int], Optional[List[int]]]:
        """Take the machine list ``faults`` over ``n_blocks`` blocks,
        machine ``k`` forcing only in pass frame ``frames[k]`` when
        ``frames`` is given; returns the machines and their frames.
        Both stores' ``bind`` check a list here, before anything is
        indexed with it.

        Raises
        ------
        ValueError
            If a fault index lies outside the ``n_sites`` sites (a
            negative one included), a frame is negative, or ``frames``
            and ``faults`` differ in length.
        """
        machines = list(faults)
        n = len(machines)
        _check_sites(machines, n_sites)
        at = None if frames is None else list(frames)
        if at is not None and (len(at) != n or (n and min(at) < 0)):
            raise ValueError("malformed machine list: frames do not match "
                             "the machines or lie before the pass")
        self.machines = machines
        self.n_machines = n
        self.n_blocks = n_blocks
        self.stride = 64 * (n // 64 + 1)
        self._last_force = max(at) if at else -1
        self._want: Optional[int] = None
        self._weights: Optional[List[int]] = None
        return machines, at

    def _check_load(self, n_frames: int, n_values: int, at: int) -> int:
        """Check a load of ``n_frames`` PI frames of ``n_values`` values
        in all from frame ``at``; returns the values a frame holds.

        Raises
        ------
        ValueError
            If a frame does not hold ``n_blocks x n_pi`` values, or
            ``at`` is negative.
        """
        size = self.n_blocks * self.n_pi
        if n_values != n_frames * size or at < 0:
            raise ValueError(f"{n_frames} frames of {n_values} values for "
                             f"{self.n_blocks} blocks of {self.n_pi} "
                             f"primary inputs from frame {at}")
        return size

    def _check_forcing(self, n_frames: int) -> None:
        """Check that no machine forces past an ``n_frames``-frame pass.

        Raises
        ------
        ValueError
            If a machine's frame lies past the pass.
        """
        if self._last_force >= n_frames:
            raise ValueError(f"malformed machine list: a machine forces "
                             f"in frame {self._last_force} of a "
                             f"{n_frames}-frame pass")

    def _tile(self) -> int:
        """Bit 0 of every block."""
        stride = self.stride
        return (((1 << (self.n_blocks * stride)) - 1) //
                ((1 << stride) - 1))

    def _ff_words(self) -> Tuple[List[int], List[int]]:
        """The zero and one words of each flip-flop's row."""
        raise NotImplementedError

    def faults_in(self, words: int) -> List[int]:
        """Fault indices at the machine bits set in ``words`` (the good
        bit stands for none)."""
        machines = self.machines
        return [machines[b - 1] for b in _set_bits(words) if b]

    def faults_by_block(self) -> List[List[int]]:
        """Per block, the fault indices of its caught machines."""
        machines, stride = self.machines, self.stride
        out: List[List[int]] = [[] for _ in range(self.n_blocks)]
        for bit in _set_bits(self.caught):
            b, k = divmod(bit, stride)
            if k:
                out[b].append(machines[k - 1])
        return out

    def saturated(self) -> bool:
        """Whether every machine is caught."""
        want = self._want
        if want is None:
            want = self._want = ((1 << (self.n_machines + 1)) - 2) * \
                self._tile()
        return (self.caught & want) == want

    def scan_diff(self, scan_observe: Optional[Sequence[int]]) -> int:
        """The machines a scan-out of the current flip-flop state
        detects."""
        zero, one = self._ff_words()
        return _diff_or(zero, one, range(len(zero))
                        if scan_observe is None else scan_observe)

    def good_state(self) -> V.Vector:
        """The fault-free machine's flip-flop state."""
        zero, one = self._ff_words()
        return tuple(V.word_scalar(z, o) for z, o in zip(zero, one))

    def bit_weights(self, expand: Optional[Dict[int, List[int]]]) -> None:
        """Weigh each machine by the requested faults it stands for: its
        class's member count under translation (``expand``), else 1."""
        self._weights = (None if expand is None else
                         [len(expand[fid]) for fid in self.machines])

    def weight(self, words: int) -> int:
        """The faults the machine bits of ``words`` stand for."""
        if self._weights is None:
            return bin(words >> 1).count("1")
        weights = self._weights
        return sum(weights[b - 1] for b in _set_bits(words) if b)

    def records(self, n_frames: int, po_first: Dict[int, int],
                scan_diff: List[Set[int]]) -> None:
        """Decode the last records-mode pass: each fault's first
        PO-detecting frame into ``po_first`` and, per frame, the faults
        a scan-out there detects into ``scan_diff``."""
        rec_po, rec_scan = self.rec_po, self.rec_scan
        seen = 0
        for frame in range(n_frames):
            fresh = rec_po[frame] & ~seen
            if fresh:
                for fid in self.faults_in(fresh):
                    po_first[fid] = frame
                seen |= fresh
            if rec_scan[frame]:
                scan_diff[frame].update(self.faults_in(rec_scan[frame]))


#: One frame's forcing in a word arena: the stem masks and branch
#: overrides :meth:`~repro.sim.logicsim.CompiledCircuit.eval_frame`
#: takes, then the source-stem and flip-flop-branch blends, each
#: ``(row, m0, m1, keep)``.
_Forcing = Tuple[Dict[int, Tuple[int, int]],
                 Dict[int, List[Tuple[int, int, int]]],
                 List[Tuple[int, int, int, int]],
                 List[Tuple[int, int, int, int]]]

#: The forcing of a frame in which no machine forces.
_NO_FORCING: _Forcing = ({}, {}, [], [])


class _WordArena(_Store):
    """A pass store on big-int words: the twin of the kernel's
    :class:`repro.sim.npsim._Arena`, with the same interface.

    It is built over the same fault-site rows (``(kind, place, pin,
    value)`` per fault, see :data:`SITE_STEM`), and :meth:`bind` takes
    the same machine lists under the same checks, forcing machine
    ``k`` only in pass frame ``frames[k]`` when frames are given.  It
    holds the per-net word pairs (the flip-flop entries carry state
    between calls), the ``caught`` word and the record words of the
    last records-mode pass.  :meth:`run` mirrors ``repro_run_pass``
    step for step in both of its modes, so
    :meth:`FaultSimulator.detect`, :meth:`FaultSimulator.run_with_records`,
    :class:`IncrementalFaultSim`, Phase 2's checkpointed run,
    :meth:`FaultSimulator.detect_trials` and the transition-fault
    passes of :mod:`repro.delay.transition` are each written once,
    against either store.  A checkpoint is a trail row
    (:meth:`keep_trail`): the flip-flop zero and one words, as
    big-ints.

    Bound over ``n_blocks`` blocks, the machines repeat once per block
    at a stride of whole 64-bit words (``stride`` bits), as on the
    kernel: ``tile`` has bit 0 of every block, and a machine's forcing
    masks are its bit times ``tile``.  Such a store loads one test per
    block (:meth:`load_blocks`), runs, and decodes per block
    (:meth:`faults_by_block`).
    """

    def __init__(self, circuit: CompiledCircuit,
                 sites: Sequence[Tuple[int, int, int, int]]) -> None:
        self.circuit = circuit
        self._sites = sites
        self.n_pi = len(circuit.pi_ids)
        self._sources = set(circuit.pi_ids) | set(circuit.ff_ids)
        self.caught = 0
        self.zero = [0] * circuit.n_nets
        self.one = [0] * circuit.n_nets
        self.vecs: Sequence[V.Vector] = ()
        self.rec_po = []
        self.rec_scan = []
        self.bind(())

    def bind(self, faults: Sequence[int], n_blocks: int = 1,
             frames: Optional[Sequence[int]] = None) -> None:
        """Make ``faults`` the machine list of the next passes, over
        ``n_blocks`` blocks: machine bit ``k + 1`` of every block is
        fault ``faults[k]``.  With ``frames``, machine ``k`` forces only
        in pass frame ``frames[k]``, else in every frame.  Drops any
        earlier block load.

        Raises
        ------
        ValueError
            If a fault index lies outside the site rows (a negative one
            included), a frame is negative, or ``frames`` and
            ``faults`` differ in length.
        """
        machines, at = self._set_machines(faults, n_blocks, frames,
                                          len(self._sites))
        self.tile = tile = self._tile()
        self._block = (1 << (self.n_machines + 1)) - 1
        self.mask = self._block * tile
        # Per-frame (PI words, running, ending) of a block load.
        self._blocks: Optional[Tuple[Any, Any, Any]] = None
        picks: Dict[Optional[int], List[Tuple[int, int]]] = {}
        for k, fid in enumerate(machines):
            picks.setdefault(None if at is None else at[k], []).append(
                (tile << (k + 1), fid))
        self._per_frame = at is not None
        self._forcing = {f: self._force(pick) for f, pick in picks.items()}

    def _force(self, picks: Sequence[Tuple[int, int]]) -> _Forcing:
        """The forcing of the machine bits ``bits`` by fault ``fid``,
        for each ``(bits, fid)`` of ``picks``."""
        mask, sites = self.mask, self._sites
        stems: Dict[int, Tuple[int, int]] = {}
        branch: Dict[int, List[Tuple[int, int, int]]] = {}
        ffbr: List[Tuple[int, int, int, int]] = []
        for bits, fid in picks:
            kind, place, pin, value = sites[fid]
            m0, m1 = (0, bits) if value else (bits, 0)
            if kind == SITE_STEM:
                old0, old1 = stems.get(place, (0, 0))
                stems[place] = (old0 | m0, old1 | m1)
            elif kind == SITE_BRANCH:
                branch.setdefault(place, []).append((pin, m0, m1))
            else:
                ffbr.append((place, m0, m1, mask & ~bits))
        src = [(nid, m0, m1, mask & ~(m0 | m1))
               for nid, (m0, m1) in stems.items() if nid in self._sources]
        return stems, branch, src, ffbr

    def load_vectors(self, vectors: Sequence[V.Vector], at: int = 0) -> int:
        """Take a PI sequence from frame ``at`` on (the frames before
        ``at`` stay); returns its frame count.

        Raises
        ------
        ValueError
            If a value is not 0, 1 or X (checked here, so a pass that
            stops before a frame cannot let that frame's values by), a
            frame holds the wrong number of values, or ``at`` is
            negative.
        """
        self._check_load(len(vectors), len(V.scalar_bytes(
            chain.from_iterable(vectors))), at)
        self.vecs = [*self.vecs[:at], *vectors] if at else vectors
        self._blocks = None
        return len(vectors)

    def load_scan_in(self, state: V.Vector) -> None:
        """Pack the flip-flop words from a scan-in vector and clear the
        caught word."""
        zero, one, mask = self.zero, self.one, self.mask
        for nid, val in zip(self.circuit.ff_ids, state):
            zero[nid], one[nid] = V.pack_scalar(val, mask)
        self.caught = 0

    def load_blocks(self, blocks: _TrialBlocks) -> int:
        """Load one test per block: block ``b`` gets test ``b``'s
        scan-in state and PI sequence (X past its end) and observes
        through its last frame.  Clears the caught word; returns the
        longest sequence's frame count."""
        if blocks.n_blocks != self.n_blocks:
            raise ValueError(f"{blocks.n_blocks} tests for "
                             f"{self.n_blocks} blocks")
        states, frames, runs, ends = blocks.words(self.stride)
        block = self._block
        for nid, (z, o) in zip(self.circuit.ff_ids, states):
            self.zero[nid], self.one[nid] = z * block, o * block
        self.caught = 0
        self._blocks = ([[(z * block, o * block) for z, o in frame]
                         for frame in frames],
                        [r * block for r in runs],
                        [e * block for e in ends])
        return blocks.n_frames

    def run(self, n_frames: int, observe_po: bool, scan_out: bool,
            scan_observe: Optional[Sequence[int]],
            records: bool = False, trail: Optional[int] = None,
            later: bool = False, first: int = 0) -> int:
        """One pass over ``n_frames`` loaded vectors from frame
        ``first``; returns the frames it ran.

        Detect mode adds the PO diffs (and, with ``scan_out``, the last
        frame's scan-out diff) to ``caught`` and stops once every
        machine is caught, without advancing the flip-flops past that
        frame; after a block load each block observes through its own
        last frame.  With ``records`` the pass fills ``rec_po`` /
        ``rec_scan`` frame by frame and never stops early.  Pass frame
        ``f`` takes the forcing of the machines bound to it (of every
        machine, for a list bound without frames).

        With ``trail``, frame ``f`` meets trail row ``trail + f``
        (:meth:`keep_trail`), as on the kernel: a records-mode pass
        writes its captured flip-flop words there; with ``later`` too,
        a detect-mode pass takes every machine whose captured words
        and good machine's equal the row's to catch from there on
        exactly the row's ``later`` words, and stops once that makes
        its verdict sure: unsaturated, with ``caught`` as it was, when
        such a machine is uncaught and outside them; saturated when
        every machine is caught or such a machine inside them.

        Raises
        ------
        ValueError
            If a machine's frame lies past the pass.
        """
        self._check_forcing(n_frames)
        circuit, blocks = self.circuit, self._blocks
        zero, one, mask, tile = self.zero, self.one, self.mask, self.tile
        forcing, per_frame, block = self._forcing, self._per_frame, \
            self._block
        pi_ids, po_ids, ff_ids, ffd_ids = (circuit.pi_ids, circuit.po_ids,
                                           circuit.ff_ids, circuit.ff_d_ids)
        obs = range(len(ff_ids)) if scan_observe is None else scan_observe
        want = mask & ~tile
        caught = self.caught
        decide = trail if later else None   # frame 0's row, to decide by
        if records:
            self.rec_po = [0] * n_frames
            self.rec_scan = [0] * n_frames
        for f in range(n_frames):
            if blocks is None:
                for nid, val in zip(pi_ids, self.vecs[first + f]):
                    zero[nid], one[nid] = V.pack_scalar(val, mask)
            else:
                for nid, (z, o) in zip(pi_ids, blocks[0][f]):
                    zero[nid], one[nid] = z, o
            stems, branch, src, ffbr = forcing.get(
                f if per_frame else None, _NO_FORCING)
            for nid, m0, m1, keep in src:
                zero[nid] = (zero[nid] & keep) | m0
                one[nid] = (one[nid] & keep) | m1
            circuit.eval_frame(zero, one, mask, stems, branch)
            ns_zero = [zero[nid] for nid in ffd_ids]
            ns_one = [one[nid] for nid in ffd_ids]
            for pos, m0, m1, keep in ffbr:
                ns_zero[pos] = (ns_zero[pos] & keep) | m0
                ns_one[pos] = (ns_one[pos] & keep) | m1
            if records:
                self.rec_po[f] = _diff_or(zero, one, po_ids)
                self.rec_scan[f] = _diff_or(ns_zero, ns_one, obs)
                if trail is not None:
                    self._trail[trail + f] = (ns_zero, ns_one)
            else:
                if blocks is None:
                    if observe_po:
                        caught |= _diff_or(zero, one, po_ids)
                    if scan_out and f == n_frames - 1:
                        caught |= _diff_or(ns_zero, ns_one, obs)
                else:
                    running, ending = blocks[1][f], blocks[2][f]
                    if observe_po and running:
                        caught |= running & _diff_or(zero, one, po_ids,
                                                     tile, block)
                    if scan_out and ending:
                        caught |= ending & _diff_or(ns_zero, ns_one, obs,
                                                    tile, block)
                if decide is not None:
                    t_zero, t_one = self._trail[decide + f]
                    eq = mask
                    for nz, no, tz, to in zip(ns_zero, ns_one, t_zero,
                                              t_one):
                        eq &= ~((nz ^ tz) | (no ^ to))
                    if eq & 1:
                        eq &= want
                        words = self._later[decide + f]
                        if eq & ~caught & ~words:
                            self.caught = caught
                            return f + 1
                        if (caught | eq & words) & want == want:
                            self.caught = caught | want
                            return f + 1
                if (caught & want) == want:
                    self.caught = caught
                    return f + 1
            for nid, z, o in zip(ff_ids, ns_zero, ns_one):
                zero[nid], one[nid] = z, o
        self.caught = caught
        return n_frames

    def _ff_words(self) -> Tuple[List[int], List[int]]:
        ff_ids = self.circuit.ff_ids
        return ([self.zero[nid] for nid in ff_ids],
                [self.one[nid] for nid in ff_ids])

    def keep_trail(self, n_rows: int) -> None:
        """Give the store a trail of ``n_rows`` checkpoints: per
        checkpoint, the flip-flop zero and one words and one ``later``
        word (see :meth:`run`)."""
        n_ff = len(self.circuit.ff_ids)
        self._trail: List[Tuple[List[int], List[int]]] = \
            [([0] * n_ff, [0] * n_ff)] * n_rows
        self._later = [0] * n_rows

    def save_row(self, row: int) -> None:
        """Copy the flip-flop words into trail row ``row``."""
        self._trail[row] = self._ff_words()

    def restore_row(self, row: int) -> None:
        """Load trail row ``row`` into the flip-flop words."""
        zero, one = self.zero, self.one
        for nid, z, o in zip(self.circuit.ff_ids, *self._trail[row]):
            zero[nid], one[nid] = z, o

    def set_later(self, words: Sequence[int]) -> None:
        """Make ``words`` the trail's ``later`` words, from row 0."""
        self._later[:len(words)] = words


def store_factory(circuit: CompiledCircuit,
                  sites: Sequence[Tuple[int, int, int, int]],
                  counters: SimCounters) -> Callable[[], Any]:
    """The maker of a circuit's pass stores over the fault-site rows
    ``sites``, each new store bound to no machines: kernel stores over
    one site table, built and checked here, when the circuit has an
    array backend (their passes counted in ``counters``), else word
    arenas.

    Raises
    ------
    ValueError
        If a site row is malformed (see
        :meth:`repro.sim.npsim.ArrayBackend.site_table`).
    """
    backend: Any = circuit.array_backend
    if backend is None:
        return lambda: _WordArena(circuit, sites)
    table = backend.site_table(sites)
    return lambda: backend.store(table, counters)


@dataclass
class SimRecords:
    """Per-frame detection records from :meth:`FaultSimulator.run_with_records`.

    Attributes
    ----------
    n_frames:
        Number of simulated frames.
    po_first:
        For each detected-at-PO fault index, the first frame with a
        binary primary-output difference.
    scan_diff:
        ``scan_diff[frame]`` is the set of fault indices whose captured
        flip-flop state differs from the fault-free state after that
        frame (i.e. a scan-out at ``frame`` detects them).
    """

    n_frames: int
    po_first: Dict[int, int]
    scan_diff: List[Set[int]]

    def detected_with_scanout_at(self, frame: int) -> Set[int]:
        """Faults detected by the test truncated to ``frame`` + scan-out."""
        detected = {f for f, first in self.po_first.items() if first <= frame}
        detected |= self.scan_diff[frame]
        return detected

    def earliest_safe_scanout(self, required: Set[int]) -> Tuple[int, Set[int]]:
        """Smallest frame ``i`` whose truncated test detects ``required``.

        Mirrors the paper's Step 3: scan candidates ``i = 0, 1, ...`` and
        keep the first one that loses no fault of ``required``; at least
        ``n_frames - 1`` always qualifies when ``required`` equals the
        full-sequence detection set.

        Returns ``(i, detected_at_i)``.

        Raises
        ------
        ValueError
            If the records cover no frames (there is no candidate
            scan-out time unit at all), or if not even the full
            sequence detects ``required``.
        """
        if self.n_frames == 0:
            raise ValueError(
                "cannot select a scan-out time unit: the recorded test "
                "has no frames")
        pending = set(required)
        po_by_frame: List[Set[int]] = [set() for _ in range(self.n_frames)]
        for fid, first in self.po_first.items():
            if fid in pending:
                po_by_frame[first].add(fid)
        po_so_far: Set[int] = set()
        missing: Set[int] = pending
        for i in range(self.n_frames):
            po_so_far |= po_by_frame[i]
            missing = pending - po_so_far - self.scan_diff[i]
            if not missing:
                return i, self.detected_with_scanout_at(i)
        raise ValueError(
            f"{len(missing)} required faults not detected by the full test")


class FaultSimulator:
    """Parallel-fault simulator bound to one circuit and one fault set.

    Each pass fuses its faults into one wide word, or into balanced
    chunks of at most ``fused_cap`` machines (default
    :data:`FUSED_CAP`; see the module docstring).

    ``scan_positions`` turns the simulator into a *partial-scan* model:
    scan-in vectors cover (and scan-outs observe) only the flip-flops
    at those positions; the rest power up unknown and are never
    directly observed.  ``None`` means full scan.

    ``counters`` is the :class:`~repro.sim.counters.SimCounters` the
    inner loops bump; pass a shared instance to aggregate across
    simulators (one is created when omitted).
    """

    def __init__(self, circuit: CompiledCircuit, faults: FaultSet,
                 scan_positions: Optional[Sequence[int]] = None,
                 counters: Optional[SimCounters] = None,
                 fused_cap: int = FUSED_CAP) -> None:
        if fused_cap < 2:
            raise ValueError("fused_cap must allow at least one faulty "
                             "machine")
        self.circuit = circuit
        self.faults = faults
        self.fused_cap = fused_cap
        self.counters = counters if counters is not None else SimCounters()
        if scan_positions is None:
            self.scan_positions: Optional[List[int]] = None
            self.n_state_vars = len(circuit.ff_ids)
        else:
            self.scan_positions = sorted(scan_positions)
            if self.scan_positions and (
                    self.scan_positions[0] < 0 or
                    self.scan_positions[-1] >= len(circuit.ff_ids)):
                raise ValueError("scan position out of range")
            if len(set(self.scan_positions)) < len(self.scan_positions):
                raise ValueError("a flip-flop is scanned twice")
            self.n_state_vars = len(self.scan_positions)
        #: Whether the sanitizer is armed, sampled once, here.
        self._sanitize = sanitizer.enabled()
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET
        self._sanitize_trial_spots_left = _SANITIZE_SPOT_BUDGET
        self._sanitize_omission_spots_left = _SANITIZE_SPOT_BUDGET
        self._sanitize_shadow = False
        #: Optional fault-ordering hint for multi-chunk packing (set
        #: via :meth:`set_adi_order`); ``None`` keeps the default
        #: sorted-by-index grouping.
        self._adi_order: Optional[Dict[int, int]] = None
        #: Representative indices of proven-untestable classes (set
        #: via :meth:`set_untestable`); excluded from every pass.
        self._untestable: frozenset = frozenset()
        #: The maker of the simulator's pass stores
        #: (:func:`store_factory`, on first use) and the store the
        #: one-off passes share.
        self._make_store: Optional[Callable[[], Any]] = None
        self._store: Optional[Any] = None
        #: The fault-site row of each fault: a stem, a fanout branch
        #: (a gate's input pin) or a flip-flop data pin, and the value
        #: the fault forces there.
        net = circuit.netlist
        ids = net.net_ids
        ff_pos = {name: i for i, name in enumerate(net.flip_flops)}
        self._sites: List[Tuple[int, int, int, int]] = []
        for fault in faults:
            value = 1 if fault.stuck else 0
            if fault.pin is None:
                row = (SITE_STEM, ids[fault.net], 0, value)
            elif net.gates[fault.pin[0]].gtype == "DFF":
                row = (SITE_FF, ff_pos[fault.pin[0]], 0, value)
            else:
                row = (SITE_BRANCH, ids[fault.pin[0]], fault.pin[1], value)
            self._sites.append(row)

    # ------------------------------------------------------------------
    def set_adi_order(self, scores: Optional[Dict[int, int]]) -> None:
        """Install (or clear) an Accidental-Detection-Index packing
        order.

        When set, multi-chunk packings group faults by *descending*
        ADI instead of by index, so the frequently-accidentally-
        detected (easy) faults share words and saturate those words
        early, while the hard low-ADI faults concentrate in the last
        words.  This is a pure acceleration: per-machine logic values
        are independent of packing, so detection sets are unchanged
        (the equivalence suite enforces it); only word/frame counters
        move.  Pass ``None`` to restore the default order -- callers
        that share a simulator across runs must clear it when done.
        """
        self._adi_order = scores

    # ------------------------------------------------------------------
    def set_untestable(self, indices: Optional[Sequence[int]]) -> None:
        """Exclude proven-untestable faults from every future pass.

        ``indices`` are fault indices whose untestability the static
        analyzer (:mod:`repro.analysis.faultspace`) *proved*.  A
        proven-untestable fault appears in no detection set, ever, so
        dropping its machines from every word changes no reported
        result -- only the machine-bit counters.  The untestability
        closure covers whole equivalence classes, so the exclusion is
        tracked per class representative.  Pass ``None`` (or an empty
        sequence) to clear.
        """
        if not indices:
            self._untestable = frozenset()
            return
        self._untestable = self.faults.untestable_reps(set(indices))
        self.counters.untestable_dropped += len(set(indices))

    def _prepare_target(
        self, target: Sequence[int],
    ) -> Tuple[Sequence[int], Optional[Dict[int, List[int]]]]:
        """Representative translation of a pass target.

        Returns ``(sim_target, expand)`` per
        :meth:`~repro.sim.faults.FaultSet.collapse_target`: the class
        representatives actually simulated and the map re-inflating
        their detections to the requested members (``None`` when no
        translation happened).
        """
        return self.faults.collapse_target(target, self._untestable)

    @staticmethod
    def _expand_detected(detected: Set[int],
                         expand: Dict[int, List[int]]) -> Set[int]:
        """Re-inflate a representative-level detection set to the
        requested class members (byte-identical: members of one class
        share every detection set exactly)."""
        out: Set[int] = set()
        for rep in detected:
            out.update(expand[rep])
        return out

    # ------------------------------------------------------------------
    def resolve_width(self, n_targets: int) -> int:
        """The word width a pass over ``n_targets`` faults will use.

        Everything fuses into one word up to ``fused_cap`` machines;
        beyond that, balanced chunks (all within one machine of each
        other) no wider than the cap -- e.g. 9000 faults over a 4096
        cap become three ~3000-machine words rather than two full ones
        and a 808-machine remainder.
        """
        if n_targets <= 0:
            return 2
        cap = self.fused_cap
        if n_targets + 1 <= cap:
            return n_targets + 1
        n_chunks = -(-n_targets // (cap - 1))     # ceil division
        return -(-n_targets // n_chunks) + 1

    def _balanced_groups(self, indices: Sequence[int],
                         per: int) -> List[List[int]]:
        """``indices`` split over ``ceil(n / per)`` sorted groups whose
        sizes are within one of each other (see :meth:`resolve_width`).

        With an ADI order installed (:meth:`set_adi_order`) and more
        than one group, the faults are grouped by descending ADI, so
        the easy (high-ADI) faults share words that saturate and stop
        early and the hard ones gather in the trailing words.  A single
        group is order-invariant, so the reorder only fires (and only
        counts) when it can matter.
        """
        ordered = sorted(indices)
        n_groups = -(-len(ordered) // per)
        adi = self._adi_order
        if adi is not None and n_groups > 1:
            ordered.sort(key=lambda fid: (-adi.get(fid, 0), fid))
            self.counters.adi_orderings += 1
        groups: List[List[int]] = []
        start = 0
        for k in range(n_groups):
            size = len(ordered) // n_groups + \
                (1 if k < len(ordered) % n_groups else 0)
            groups.append(sorted(ordered[start:start + size]))
            start += size
        return groups

    def _groups(self, indices: Sequence[int],
                per: Optional[int] = None) -> List[List[int]]:
        """The machine groups of a pass over ``indices``: balanced
        groups of at most ``per`` faults (default: :meth:`resolve_width`
        machines), fault ``k`` of a group at machine bit ``k + 1`` (bit
        0 is the good machine).  Both stores chunk a pass this way."""
        if per is None:
            per = self.resolve_width(len(indices)) - 1
        return self._balanced_groups(indices, per)

    # ------------------------------------------------------------------
    # The pass stores: kernel stores and big-int word arenas
    # ------------------------------------------------------------------

    def _new_store(self) -> Any:
        """A new pass store over this simulator's fault sites, bound to
        no machines (see :func:`store_factory`)."""
        if self._make_store is None:
            self._make_store = store_factory(self.circuit, self._sites,
                                             self.counters)
        return self._make_store()

    def _pass_stores(self, sim_target: Sequence[int], context: str,
                     per: Optional[int] = None,
                     n_blocks: int = 1) -> Iterator[Any]:
        """The store of one pass over ``sim_target``, yielded once per
        chunk of :meth:`_groups` (over ``n_blocks`` blocks): the one
        store every such pass of this simulator shares, bound to the
        chunk's machines, so a chunk must be done with before the next
        is taken."""
        if self._store is None:
            self._store = self._new_store()
        store = self._store
        for group in self._groups(sim_target, per):
            store.bind(group, n_blocks)
            if self._sanitize:
                sanitizer.check_machines(group, self.faults,
                                         self._untestable, context)
            yield store

    def _run_stores(self, groups: Sequence[List[int]]) -> List[Any]:
        """One store per machine group of a fixed target, bound once and
        kept for a whole run (an incremental simulation, a Phase-2
        omission)."""
        stores = []
        for group in groups:
            store = self._new_store()
            store.bind(group)
            if self._sanitize:
                sanitizer.check_machines(group, self.faults,
                                         self._untestable,
                                         "FaultSimulator run")
            stores.append(store)
        return stores

    def _scan_observe(self, scan_observe: Optional[Sequence[int]]
                      ) -> Optional[Sequence[int]]:
        """The flip-flop positions a call's scan-out reads: the scan
        chain's by default.

        Raises
        ------
        ValueError
            If a position is not a flip-flop position (a negative one
            included: no store may index from the end).
        """
        if scan_observe is None:
            return self.scan_positions
        n_ff = len(self.circuit.ff_ids)
        if not all(0 <= pos < n_ff for pos in scan_observe):
            raise ValueError(f"scan-out position outside the {n_ff} "
                             f"flip-flops")
        return scan_observe

    # ------------------------------------------------------------------
    def embed_state(self, state: Optional[V.Vector]) -> V.Vector:
        """Expand a scan-width state vector to full flip-flop width.

        Under full scan this is the identity (modulo the all-X default
        for ``None``); under partial scan the scanned values land at
        their positions and every other flip-flop is X.
        """
        n_ff = len(self.circuit.ff_ids)
        if state is None:
            return V.all_x(n_ff)
        if self.scan_positions is None:
            check_state(self.circuit, state)
            return tuple(state)
        if len(state) != len(self.scan_positions):
            raise ValueError(
                f"state width {len(state)} != "
                f"{len(self.scan_positions)} scanned flip-flops")
        full = [V.X] * n_ff
        for pos, val in zip(self.scan_positions, state):
            full[pos] = val
        return tuple(full)

    def detect(
        self,
        vectors: Sequence[V.Vector],
        init_state: Optional[V.Vector] = None,
        target: Optional[Sequence[int]] = None,
        scan_out: bool = True,
        observe_po: bool = True,
        early_exit: bool = True,
        scan_observe: Optional[Sequence[int]] = None,
        retire_to: Optional[FaultScoreboard] = None,
    ) -> Set[int]:
        """Fault indices (within ``target``) detected by the test.

        Parameters
        ----------
        vectors:
            The primary-input sequence ``T`` (binary or 3-valued).
        init_state:
            The scan-in vector ``SI``; ``None`` simulates without scan
            from the all-X state (Phase-1 Step 1).
        target:
            Fault indices to simulate; defaults to the whole fault set.
        scan_out:
            When true, the flip-flop state captured by the last frame is
            observed (the trailing scan-out operation).
        observe_po:
            When false, primary outputs are ignored (useful in tests).
        early_exit:
            Accepted for compatibility; it has no effect.  Every pass
            stops as soon as all of its target faults are caught,
            which cannot change the returned set.
        scan_observe:
            Flip-flop positions readable by the scan-out; ``None``
            means the scan chain's (every flip-flop under full scan,
            only the scanned ones under partial scan).  A position
            outside the flip-flops raises :class:`ValueError`.
        retire_to:
            Optional shared scoreboard; every detected fault is
            retired into it (the caller asserts this test is part of
            the committed test set).
        """
        if target is None:
            target = range(len(self.faults))
        check_vectors(self.circuit, vectors)
        init_state = self.embed_state(init_state)
        scan_observe = self._scan_observe(scan_observe)
        sim_target, expand = self._prepare_target(target)
        if retire_to is not None and self._sanitize:
            sanitizer.check_fresh_targets(retire_to, target,
                                          "FaultSimulator.detect")
        counters = self.counters
        counters.detect_passes += 1
        detected: Set[int] = set()
        longest = 0
        for store in self._pass_stores(sim_target, "FaultSimulator.detect"):
            n_frames = store.load_vectors(vectors)
            store.load_scan_in(init_state)
            frames = store.run(n_frames, observe_po, scan_out,
                               scan_observe)
            counters.note_words(frames, store.n_machines)
            detected.update(store.faults_in(store.caught))
            longest = max(longest, frames)
        counters.frames += longest
        if (self._sanitize and not self._sanitize_shadow and
                self._sanitize_spots_left > 0 and vectors):
            # Shadow at representative level: reps are fixed points of
            # the translation, so the shadow's own re-translation is
            # the identity and the two rep-level sets must agree.
            self._sanitize_agreement(vectors, init_state,
                                     sorted(sim_target), scan_out,
                                     observe_po, scan_observe, detected)
        if expand is not None:
            detected = self._expand_detected(detected, expand)
        if retire_to is not None:
            retire_to.retire(detected)
        return detected

    def _sanitize_agreement(
        self, vectors: Sequence[V.Vector], full_state: V.Vector,
        target_list: List[int], scan_out: bool, observe_po: bool,
        scan_observe: Optional[Sequence[int]], detected: Set[int],
    ) -> None:
        """Spot-check one finished ``detect`` pass against a shadow
        simulator on the reference circuit (the interpreter, no array
        backend) that splits the targets over at least two chunks,
        on big-int words.  The check is thus
        production vs reference as well as fused vs chunked.
        Budgeted per simulator and capped in target size; see the
        sanitizer module.
        """
        if not 0 < len(target_list) <= _SANITIZE_SPOT_TARGET_CAP:
            return
        self._sanitize_spots_left -= 1
        shadow_cap = max(2, len(target_list) // 2 + 1)
        chunked = self._shadow(shadow_cap).detect(
            vectors, init_state=full_state, target=target_list,
            scan_out=scan_out, observe_po=observe_po,
            scan_observe=scan_observe)
        sanitizer.check_agreement(
            set(detected), chunked,
            f"FaultSimulator.detect ({len(target_list)} targets, "
            f"fused vs reference fused_cap={shadow_cap})")

    def _shadow(self, fused_cap: int = FUSED_CAP) -> "FaultSimulator":
        """A simulator of the same faults on the reference circuit (the
        interpreter, no array backend) that runs no spot checks of its
        own: the sanitizer's shadow."""
        shadow = FaultSimulator(
            CompiledCircuit(self.circuit.netlist, _reference=True),
            self.faults, counters=SimCounters(), fused_cap=fused_cap)
        shadow._sanitize_shadow = True
        return shadow

    # ------------------------------------------------------------------
    def run_with_records(
        self,
        vectors: Sequence[V.Vector],
        init_state: Optional[V.Vector] = None,
        target: Optional[Sequence[int]] = None,
        scan_observe: Optional[Sequence[int]] = None,
    ) -> SimRecords:
        """Full-sequence pass recording PO-first-detect and scan-out diffs.

        One simulation of ``(init_state, vectors)`` that yields enough
        information to evaluate *every* truncated test
        ``(init_state, vectors[:i+1])`` exactly (paper Phase-1 Step 3).
        """
        if target is None:
            target = range(len(self.faults))
        check_vectors(self.circuit, vectors)
        init_state = self.embed_state(init_state)
        scan_observe = self._scan_observe(scan_observe)
        sim_target, expand = self._prepare_target(target)
        counters = self.counters
        counters.record_passes += 1
        n_frames = len(vectors)
        counters.frames += n_frames
        po_first: Dict[int, int] = {}
        scan_diff: List[Set[int]] = [set() for _ in range(n_frames)]
        for store in self._pass_stores(sim_target,
                                       "FaultSimulator.run_with_records"):
            store.load_vectors(vectors)
            store.load_scan_in(init_state)
            store.run(n_frames, True, True, scan_observe, records=True)
            counters.note_words(n_frames, store.n_machines)
            store.records(n_frames, po_first, scan_diff)
        if expand is not None:
            # Members share the representative's per-frame behavior
            # exactly, so each record entry re-inflates verbatim.
            po_first = {m: first for rep, first in po_first.items()
                        for m in expand[rep]}
            scan_diff = [self._expand_detected(s, expand)
                         for s in scan_diff]
        return SimRecords(n_frames, po_first, scan_diff)

    # ------------------------------------------------------------------
    # Multi-trial simulation: one test per block
    # ------------------------------------------------------------------

    def detect_candidates(
        self,
        vectors: Sequence[V.Vector],
        init_states: Sequence[V.Vector],
        target: Optional[Sequence[int]] = None,
        scan_out: bool = True,
        observe_po: bool = True,
        scan_observe: Optional[Sequence[int]] = None,
    ) -> List[Set[int]]:
        """Per-candidate detection sets of ``(SI_k, vectors)``, all at
        once -- the pass behind Phase-1 scan-in selection.

        The candidates are :meth:`detect_trials` trials that all share
        one sequence: instead of one full-sequence :meth:`detect` pass
        per candidate scan-in state (``|C|`` passes), each candidate
        takes one block of every chunk's words, so one pass per chunk
        serves them all (see DESIGN.md section 9).

        Returns one detected-fault-index set per candidate, exactly
        equal to ``[detect(vectors, s, target) for s in init_states]``
        (the equivalence suite enforces this bit for bit).
        """
        self.counters.candidate_passes += 1
        return self.detect_trials(
            [(state, vectors) for state in init_states], target=target,
            scan_out=scan_out, observe_po=observe_po,
            scan_observe=scan_observe)

    def detect_trials(
        self,
        trials: Sequence[Tuple[Optional[V.Vector], Sequence[V.Vector]]],
        target: Optional[Sequence[int]] = None,
        scan_out: bool = True,
        observe_po: bool = True,
        scan_observe: Optional[Sequence[int]] = None,
    ) -> List[Set[int]]:
        """Per-trial detection sets of *independent* tests, all at once.

        Each trial is a ``(scan_in, vectors)`` pair -- its own scan-in
        state and its own PI sequence.  Trial ``k`` takes block ``k``
        of every chunk's words: the layout :meth:`detect` gives one
        test (the trial's fault-free machine at bit 0, the chunk's
        faulty machines after it), once per trial.  A block takes X
        inputs past its own last frame, observes the primary outputs
        through that frame and its scan-out exactly there.  A chunk
        holds at most ``fused_cap // len(trials)`` faults (at least
        one), in balanced groups.

        Returns one detected-fault-index set per trial, exactly equal
        to ``[detect(list(v), s, target=target, scan_out=scan_out,
        observe_po=observe_po, scan_observe=scan_observe) for (s, v)
        in trials]`` (the equivalence suite enforces this bit for
        bit).  This is the pass behind Phase-1 candidate scans
        (:meth:`detect_candidates`), PPSFP pattern blocks
        (:meth:`repro.sim.comb_sim.CombPatternSim.detect_block`),
        Phase-4 merge-trial prefetching and the batched
        transfer-sequence checks.
        """
        trial_list = list(trials)
        n_trials = len(trial_list)
        results: List[Set[int]] = [set() for _ in range(n_trials)]
        if n_trials == 0:
            return results
        states: List[V.Vector] = []
        sequences: List[Sequence[V.Vector]] = []
        for state, vectors in trial_list:
            check_vectors(self.circuit, vectors)
            states.append(self.embed_state(state))
            sequences.append(vectors)
        scan_observe = self._scan_observe(scan_observe)
        if target is None:
            target = range(len(self.faults))
        sim_target, expand = self._prepare_target(target)
        counters = self.counters
        counters.trial_passes += 1
        counters.trial_lanes += n_trials
        if not any(sequences) or not sim_target:
            # No store binds the target, so check it as a bind would.
            _check_sites(sim_target, len(self._sites))
            return results
        blocks = _TrialBlocks(states, sequences, len(self.circuit.ff_ids),
                              len(self.circuit.pi_ids))
        longest = 0
        for store in self._pass_stores(
                sim_target, "FaultSimulator.detect_trials",
                max(1, self.fused_cap // n_trials), n_trials):
            frames = store.run(store.load_blocks(blocks), observe_po,
                               scan_out, scan_observe)
            counters.note_words(frames, store.n_machines * n_trials)
            longest = max(longest, frames)
            for hits, fids in zip(results, store.faults_by_block()):
                hits.update(fids)
        counters.frames += longest
        if (self._sanitize and not self._sanitize_shadow and
                self._sanitize_trial_spots_left > 0):
            self._sanitize_trials(states, sequences, sorted(sim_target),
                                  scan_out, observe_po, scan_observe,
                                  results)
        if expand is not None:
            results = [self._expand_detected(hits, expand)
                       for hits in results]
        return results

    def _sanitize_trials(
        self, states: Sequence[V.Vector],
        sequences: Sequence[Sequence[V.Vector]], target_list: List[int],
        scan_out: bool, observe_po: bool,
        scan_observe: Optional[Sequence[int]],
        results: Sequence[Set[int]],
    ) -> None:
        """Spot-check one finished :meth:`detect_trials` call: each
        trial re-runs as one :meth:`detect` on the reference circuit
        (the interpreter, no array backend), which must detect the same
        representatives.  Budgeted per simulator and capped in target
        size, as :meth:`_sanitize_agreement` is."""
        if not 0 < len(target_list) <= _SANITIZE_SPOT_TARGET_CAP:
            return
        self._sanitize_trial_spots_left -= 1
        shadow = self._shadow()
        for k, (state, vectors) in enumerate(zip(states, sequences)):
            sanitizer.check_agreement(
                results[k],
                shadow.detect(vectors, init_state=state, target=target_list,
                              scan_out=scan_out, observe_po=observe_po,
                              scan_observe=scan_observe),
                f"FaultSimulator.detect_trials (trial {k} of "
                f"{len(states)}, {len(target_list)} targets, vs one "
                f"reference detect)")

    # ------------------------------------------------------------------
    def incremental(self, init_state: Optional[V.Vector] = None,
                    target: Optional[Sequence[int]] = None
                    ) -> "IncrementalFaultSim":
        """An :class:`IncrementalFaultSim` positioned at frame 0."""
        return IncrementalFaultSim(self, init_state, target)

    # ------------------------------------------------------------------
    def detect_faults(self, vectors, init_state=None,
                      target_faults: Optional[Sequence[Fault]] = None,
                      **kwargs) -> Set[Fault]:
        """Like :meth:`detect` but takes and returns :class:`Fault` objects."""
        target = (None if target_faults is None
                  else self.faults.indices(target_faults))
        detected = self.detect(vectors, init_state, target, **kwargs)
        return {self.faults[i] for i in detected}


def _check_step(circuit: CompiledCircuit, vector: V.Vector) -> None:
    """Check one vector of an incremental step: its width and, also
    when no store will load it, its values."""
    check_vectors(circuit, [vector])
    V.scalar_bytes(vector)


@dataclass
class StepPreview:
    """What one candidate vector would achieve (no state change)."""

    new_po_detections: int
    scan_diff_faults: int


class IncrementalFaultSim:
    """Frame-at-a-time fault simulation with lookahead.

    Used by the sequential sequence generator: carries the good and
    faulty machine state across frames so a candidate next vector can
    be evaluated (:meth:`preview`) or committed (:meth:`apply`) in one
    combinational evaluation per chunk.  Its target is fixed, so its
    chunks are packed once, on creation, each into a store of its own
    (a kernel store or a word arena, see :func:`store_factory`) that
    keeps the chunk's state across steps.  Every step is a one-frame
    records-mode pass, which leaves ``caught`` as it was; the store's
    ``caught`` word holds the machines already PO-caught.  A preview
    keeps the flip-flop state in trail row 0 and restores it after
    its step.

    Detection here is PO-only (the no-scan setting of the paper's
    ``T0`` generation); a preview also reports how many undetected
    faults a scan-out after the candidate vector would catch.
    """

    def __init__(self, parent: FaultSimulator,
                 init_state: Optional[V.Vector] = None,
                 target: Optional[Sequence[int]] = None) -> None:
        self.parent = parent
        init_state = parent.embed_state(init_state)
        if target is None:
            target = range(len(parent.faults))
        sim_target, expand = parent._prepare_target(target)
        self._expand = expand
        #: The simulated fault indices, one group per store.
        self.groups: List[List[int]] = parent._groups(sim_target)
        self._stores = parent._run_stores(self.groups)
        for store in self._stores:
            store.keep_trail(1)
            store.load_scan_in(init_state)
            store.bit_weights(expand)
        self.detected: Set[int] = set()
        self.n_frames = 0

    def _step(self, store: Any, vector: V.Vector) -> Tuple[Any, Any]:
        """Run one frame in ``store``; returns its ``(po_diff,
        scan_diff)`` machine words.  The flip-flops advance."""
        self.parent.counters.note_words(1, store.n_machines)
        store.load_vectors((vector,))
        store.run(1, True, True, None, records=True)
        return store.rec_po[0], store.rec_scan[0]

    def preview(self, vector: V.Vector) -> StepPreview:
        """Evaluate a candidate next vector without committing it.

        Raises
        ------
        ValueError
            If the vector does not have one value per primary input or
            a value is not 0, 1 or X, whatever the run's target.
        """
        _check_step(self.parent.circuit, vector)
        new_po = 0
        sdiff_total = 0
        for store in self._stores:
            store.save_row(0)
            po_diff, scan_diff = self._step(store, vector)
            new_po += store.weight(po_diff & ~store.caught)
            sdiff_total += store.weight(scan_diff & ~store.caught)
            store.restore_row(0)
        return StepPreview(new_po, sdiff_total)

    def apply(self, vector: V.Vector) -> Set[int]:
        """Commit a vector; returns the newly PO-detected fault indices.

        Raises
        ------
        ValueError
            As :meth:`preview`.
        """
        _check_step(self.parent.circuit, vector)
        newly: Set[int] = set()
        for store in self._stores:
            po_diff, _ = self._step(store, vector)
            fresh = po_diff & ~store.caught
            for fid in store.faults_in(fresh):
                if self._expand is None:
                    newly.add(fid)
                else:
                    newly.update(self._expand[fid])
            store.caught |= fresh
        self.detected |= newly
        self.n_frames += 1
        self.parent.counters.frames += 1
        return newly

    def good_state(self) -> V.Vector:
        """The fault-free machine's current flip-flop state."""
        if not self._stores:
            return V.all_x(len(self.parent.circuit.ff_ids))
        state: V.Vector = self._stores[0].good_state()
        return state
