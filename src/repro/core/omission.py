"""Phase 2: vector omission (ref [8] style static sequence compaction).

The contract from the paper: starting from ``tau_SO = (SI, T_SO)``
detecting ``F_SO``, omit as many vectors from ``T_SO`` as possible
without losing the detection of any fault in ``F_SO``.  (Omission may
*add* detections -- [8] notes the same -- the caller re-simulates at
the end to collect them.)

The search here differs from [8]'s restoration ordering but honours
the identical contract: a *block-first* greedy sweep from the tail.
At each position we first try to drop a whole block of vectors
(halving block sizes down to 1); every tentative drop is accepted only
if the shortened test still detects all required faults.

Removing vectors at position ``p`` leaves frames ``0..p-1`` untouched,
so the sweep keeps per-frame checkpoints (flip-flop state and
cumulative PO-detection masks per fault word) and re-simulates only
the suffix of each tentative test -- an order-of-magnitude saving over
re-simulating from frame 0 for long sequences.

Word packing follows the simulator's policy: the whole required set
rides in one fused word, so each tentative omission costs a single
suffix pass.  The required set is packed once per run, each chunk
into a pass store of its own (:meth:`FaultSimulator._run_stores`: a
C-kernel store bound to the chunk's machines when the circuit has an
array backend, else a big-int word arena), and the checkpoints of the
current sequence are kept in each store as a *trail*: per
checkpoint, the flip-flop rows and ``later``, the machines the
current sequence still catches after it.  An accepted omission
rewrites the trail past its start with one records-mode pass.  Since
the stores hold exactly the required faults, a trial keeps ``F_SO``
if and only if every store catches all of its machines: a trial is
decided by the stores' saturation, and only the baseline and the
final test are decoded into fault sets.

A trial need not run its whole suffix.  The suffix is the current
sequence's tail, so after each trial frame the current sequence is
at a known checkpoint; once the trial's good machine and a faulty
machine ``m`` are both in the trail's state there, ``m`` catches from
then on exactly what ``later`` says.  So the pass stops, rejected, as
soon as such a machine is uncaught and outside ``later``, and
accepts once every machine is caught or sure to be: the full-suffix
verdict, after a fraction of its frames (DESIGN.md section 13).
Every tentative omission bumps
:attr:`~repro.sim.counters.SimCounters.omission_trials` and the
suffix passes are accounted as words/frames on the simulator's
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set

from ..analysis import sanitizer
from ..sim import values as V
from ..sim.fault_sim import FaultSimulator
from .scan_test import ScanTest


@dataclass
class OmissionResult:
    """Outcome of a vector-omission run.

    Attributes
    ----------
    test:
        The shortened test ``tau_C = (SI, T_C)``.
    detected:
        Faults (within the required set) the shortened test detects --
        always a superset of the ``required`` argument.
    trials:
        Number of tentative omissions simulated.
    omitted:
        Number of vectors removed.
    """

    test: ScanTest
    detected: Set[int]
    trials: int
    omitted: int


class _CheckpointedRun:
    """Phase 2's checkpoints of the current sequence, for suffix-only
    re-simulation.

    Checkpoint ``c`` is the state after the sequence's first ``c``
    frames (checkpoint 0 is the scan-in state).  Per store, the store's
    trail (``keep_trail``) holds each checkpoint's flip-flop rows and
    its ``later`` words: the machines the current sequence still
    catches after it, by a PO diff of vectors ``c..L-1`` or the
    scan-out at checkpoint ``L``.  Alongside, ``po[ci][f]`` holds store
    ``ci``'s PO diff words of frame ``f`` and ``caught[ci][c]`` the
    machines PO-caught before checkpoint ``c``.  The trail is sized
    once, for ``n_checkpoints`` checkpoints: omission only shortens
    the sequence.  Each store's vectors hold the current sequence, so
    a trial runs its suffix from an offset into them, with no load.
    """

    def __init__(self, sim: FaultSimulator, scan_in: V.Vector,
                 groups: List[List[int]], n_checkpoints: int) -> None:
        self.sim = sim
        self.stores = sim._run_stores(groups)
        self.length = 0
        self.po: List[List[int]] = [[] for _ in self.stores]
        self.caught: List[List[int]] = [[0] for _ in self.stores]
        state = sim.embed_state(scan_in)
        for store in self.stores:
            store.keep_trail(n_checkpoints)
            store.load_scan_in(state)
            store.save_row(0)

    def _restore(self, ci: int, store: Any, start_frame: int) -> None:
        """Load checkpoint ``start_frame`` into store ``ci``."""
        store.restore_row(start_frame)
        store.caught = self.caught[ci][start_frame]

    def detected_by(self, start_frame: int,
                    suffix: Sequence[V.Vector]) -> Set[int]:
        """Faults detected by checkpoint-prefix + ``suffix`` test."""
        sim = self.sim
        detected: Set[int] = set()
        for ci, store in enumerate(self.stores):
            self._restore(ci, store, start_frame)
            if not suffix:
                store.caught |= store.scan_diff(sim.scan_positions)
            elif not store.saturated():
                # Loaded past the current sequence, which stays.
                store.load_vectors(suffix, at=self.length)
                self._run(ci, store, self.length, len(suffix))
            detected.update(store.faults_in(store.caught))
        return detected

    def keeps_all(self, start_frame: int, position: int) -> bool:
        """Whether the current sequence without its vectors
        ``start_frame..position`` catches every packed machine: the
        verdict of a trial over exactly the required faults, with no
        decoding.

        The trial's suffix is the current sequence's tail, so trial
        frame ``j`` reaches the current sequence's checkpoint
        ``position + 2 + j``; each pass meets the trail there and stops
        as soon as its verdict is sure (see the stores' ``run``).  The
        first store that fails decides the trial."""
        sim = self.sim
        n_frames = self.length - position - 1
        for ci, store in enumerate(self.stores):
            self._restore(ci, store, start_frame)
            if not n_frames:
                # Scan-out right at the checkpoint.
                store.caught |= store.scan_diff(sim.scan_positions)
            elif not store.saturated():
                # A chunk the untouched prefix already PO-detects
                # entirely needs no simulation.
                frames = self._run(ci, store, position + 1, n_frames,
                                   trail=position + 2)
                if (sim._sanitize and frames < n_frames and
                        sim._sanitize_omission_spots_left > 0):
                    self._sanitize_decision(ci, store, start_frame,
                                            position + 1, n_frames)
            if not store.saturated():
                return False
        return True

    def _run(self, ci: int, store: Any, first: int, n_frames: int,
             trail: Optional[int] = None) -> int:
        """Run store ``ci``'s loaded vectors ``first..first+n_frames-1``
        from its restored checkpoint: PO observation every frame,
        scan-out after the last, until the store's verdict cannot
        change; with ``trail``, against the trail from that row.
        Returns the frames it ran."""
        sim = self.sim
        frames: int = store.run(n_frames, True, True, sim.scan_positions,
                                trail=trail, later=trail is not None,
                                first=first)
        sim.counters.note_words(frames, store.n_machines)
        if ci == 0:
            sim.counters.frames += frames
        return frames

    def _sanitize_decision(self, ci: int, store: Any, start_frame: int,
                           first: int, n_frames: int) -> None:
        """Re-run a trial the trail decided before its last frame to
        the end without the trail: the verdicts must agree, and the
        store keeps the re-run's.  Budgeted per simulator, as the other
        spot checks are."""
        sim = self.sim
        sim._sanitize_omission_spots_left -= 1
        early = store.saturated()
        self._restore(ci, store, start_frame)
        store.run(n_frames, True, True, sim.scan_positions, first=first)
        if store.saturated() != early:
            sanitizer.report_violation(
                "omission-early-decision",
                f"Phase-2 trial from checkpoint {start_frame} with "
                f"{n_frames} vectors left: the trail "
                f"{'kept' if early else 'lost'} every required fault of "
                f"store {ci}, the whole suffix did not")

    def rebuild(self, start_frame: int,
                suffix: Sequence[V.Vector]) -> None:
        """Adopt prefix+suffix as the new current sequence: per store,
        load ``suffix`` after the prefix's vectors, restore checkpoint
        ``start_frame``, write the trail rows past it with one
        records-mode pass (records never stop early, so the flip-flops
        always advance), extend the cumulative caught words from its PO
        diffs, and recompute every ``later`` row backward over the kept
        PO rows."""
        sim = self.sim
        self.length = start_frame + len(suffix)
        for ci, store in enumerate(self.stores):
            po, caught = self.po[ci], self.caught[ci]
            del po[start_frame:], caught[start_frame + 1:]
            self._restore(ci, store, start_frame)
            if suffix:
                n_frames = store.load_vectors(suffix, at=start_frame)
                store.run(n_frames, True, True, sim.scan_positions,
                          records=True, trail=start_frame + 1,
                          first=start_frame)
                po += store.rec_po
                acc = caught[-1]
                for word in store.rec_po:
                    acc |= word
                    caught.append(acc)
                end = store.rec_scan[-1]
            else:
                end = store.scan_diff(sim.scan_positions)
            later = [end] * (len(po) + 1)
            for f in range(len(po) - 1, -1, -1):
                later[f] = later[f + 1] | po[f]
            store.set_later(later)
            sim.counters.note_words(len(suffix), store.n_machines)
            if ci == 0:
                sim.counters.frames += len(suffix)


def omit_vectors(
    sim: FaultSimulator,
    test: ScanTest,
    required: Set[int],
    initial_block: int = 16,
    passes: int = 2,
    retire_to=None,
) -> OmissionResult:
    """Shorten ``test`` while preserving detection of ``required``.

    Parameters
    ----------
    sim:
        Fault simulator for the circuit.
    test:
        The test to compact.
    required:
        Fault indices whose detection must be preserved (``F_SO``).
    initial_block:
        Largest omission block tried (halved on failure down to 1).
    passes:
        Number of full sweeps; a second sweep often finds vectors that
        became redundant after earlier removals.
    retire_to:
        Optional :class:`~repro.sim.scoreboard.FaultScoreboard`; the
        shortened test's detections are retired into it (the caller
        asserts the result is committed to the final test set).

    Raises
    ------
    ValueError
        If ``initial_block`` or ``passes`` is below 1, or the input
        test does not detect all required faults.
    """
    if initial_block < 1:
        raise ValueError(f"initial_block must be at least 1, not "
                         f"{initial_block}")
    if passes < 1:
        raise ValueError(f"passes must be at least 1, not {passes}")
    vectors: List[V.Vector] = [tuple(v) for v in test.vectors]
    run = _CheckpointedRun(sim, test.scan_in, sim._groups(sorted(required)),
                           len(vectors) + 1)
    run.rebuild(0, vectors)
    baseline = run.detected_by(len(vectors), [])
    if not required <= baseline:
        missing = len(required - baseline)
        raise ValueError(f"input test misses {missing} required faults")

    trials = 0
    removed_total = 0
    for _ in range(passes):
        removed_this_pass = 0
        position = len(vectors) - 1
        while position >= 0 and len(vectors) > 1:
            block_cap = min(initial_block, position + 1,
                            len(vectors) - 1)
            accepted = False
            block = block_cap
            while block >= 1:
                start = position - block + 1
                trials += 1
                sim.counters.omission_trials += 1
                if run.keeps_all(start, position):
                    suffix = vectors[position + 1:]
                    vectors = vectors[:start] + suffix
                    run.rebuild(start, suffix)
                    removed_this_pass += block
                    position = start - 1
                    accepted = True
                    break
                block //= 2
            if not accepted:
                position -= 1
        removed_total += removed_this_pass
        if removed_this_pass == 0:
            break

    final_detected = run.detected_by(len(vectors), [])
    if retire_to is not None:
        retire_to.retire(final_detected)
    result_test = ScanTest(test.scan_in, tuple(vectors))
    return OmissionResult(result_test, final_detected, trials,
                          removed_total)
