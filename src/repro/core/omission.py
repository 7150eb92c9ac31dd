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
array backend, else a big-int word arena), and every checkpoint is
kept in its store's own format.  An accepted omission rebuilds the
trail with one-frame passes.  Since the stores hold exactly the
required faults, a trial keeps ``F_SO`` if and only if every store
catches all of its machines: a trial is decided by the stores'
saturation, and only the baseline and the final test are decoded
into fault sets.
Every tentative omission bumps
:attr:`~repro.sim.counters.SimCounters.omission_trials` and the
suffix passes are accounted as words/frames on the simulator's
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Set

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
    """Per-chunk frame checkpoints for suffix-only re-simulation.

    ``states[f]`` holds, per chunk, its store's checkpoint *after*
    frame ``f`` (index 0 is the scan-in state, before any frame): the
    flip-flop state and the cumulative PO-detection mask up to and
    including frame ``f``.
    """

    def __init__(self, sim: FaultSimulator, scan_in: V.Vector,
                 groups: List[List[int]]) -> None:
        self.sim = sim
        self.stores = sim._run_stores(groups)
        state = sim.embed_state(scan_in)
        init = []
        for store in self.stores:
            store.load_scan_in(state)
            init.append(store.save())
        self.states: List[List[Any]] = [init]

    def detected_by(self, start_frame: int,
                    suffix: Sequence[V.Vector]) -> Set[int]:
        """Faults detected by checkpoint-prefix + ``suffix`` test."""
        self._simulate(start_frame, suffix)
        detected: Set[int] = set()
        for store in self.stores:
            detected.update(store.faults_in(store.caught))
        return detected

    def keeps_all(self, start_frame: int,
                  suffix: Sequence[V.Vector]) -> bool:
        """Whether checkpoint-prefix + ``suffix`` catches every packed
        machine: the verdict of a trial over exactly the required
        faults, with no decoding."""
        self._simulate(start_frame, suffix)
        return all(store.saturated() for store in self.stores)

    def _simulate(self, start_frame: int,
                  suffix: Sequence[V.Vector]) -> None:
        """Leave in each store's ``caught`` what checkpoint-prefix +
        ``suffix`` catches."""
        sim = self.sim
        for ci, store in enumerate(self.stores):
            store.restore(self.states[start_frame][ci])
            if not suffix:
                # Scan-out right at the checkpoint.
                store.observe_scan(sim.scan_positions)
            elif not store.saturated():
                # A chunk the untouched prefix already PO-detects
                # entirely needs no simulation.  Otherwise: PO
                # observation every frame, scan-out after the last,
                # until this chunk's verdict cannot change.
                n_frames = store.load_vectors(suffix)
                frames = store.run(n_frames, True, True, sim.scan_positions)
                sim.counters.note_words(frames, store.n_machines)
                if ci == 0:
                    sim.counters.frames += frames

    def rebuild(self, start_frame: int,
                suffix: Sequence[V.Vector]) -> None:
        """Adopt prefix+suffix as the new current sequence, extending
        checkpoints past ``start_frame`` frame by frame: one one-frame
        records-mode pass per vector, as an incremental step (it never
        stops early, so the flip-flops always advance), its PO diff
        added to the cumulative ``caught``."""
        sim = self.sim
        del self.states[start_frame + 1:]
        trails = []
        for ci, store in enumerate(self.stores):
            store.restore(self.states[start_frame][ci])
            trail = []
            for vector in suffix:
                store.load_vectors((vector,))
                store.run(1, True, True, None, records=True)
                store.caught |= store.rec_po[0]
                trail.append(store.save())
            sim.counters.note_words(len(suffix), store.n_machines)
            if ci == 0:
                sim.counters.frames += len(suffix)
            trails.append(trail)
        for f in range(len(suffix)):
            self.states.append([trail[f] for trail in trails])


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
        If the input test does not detect all required faults.
    """
    vectors: List[V.Vector] = [tuple(v) for v in test.vectors]
    run = _CheckpointedRun(sim, test.scan_in, sim._groups(sorted(required)))
    run.rebuild(0, vectors)
    baseline = run.detected_by(len(vectors), [])
    if not required <= baseline:
        missing = len(required - baseline)
        raise ValueError(f"input test misses {missing} required faults")

    trials = 0
    removed_total = 0
    for _ in range(max(1, passes)):
        removed_this_pass = 0
        position = len(vectors) - 1
        while position >= 0 and len(vectors) > 1:
            block_cap = min(initial_block, position + 1,
                            len(vectors) - 1)
            accepted = False
            block = block_cap
            while block >= 1:
                start = position - block + 1
                suffix = vectors[position + 1:]
                trials += 1
                sim.counters.omission_trials += 1
                if run.keeps_all(start, suffix):
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
