"""Simulation-based sequential test-sequence generation.

A stand-in for STRATEGATE [10] / PROPTEST [12]: both are
simulation-based sequential ATPGs that produce one long input sequence
with high stuck-at coverage starting from the unknown (all-X) state.
The greedy generator here extends the sequence one vector at a time:

* a pool of candidate vectors is drawn each step (uniform random,
  bit-flips of the previous vector, and a hold of the previous vector
  -- sequential circuits often need repeated vectors to march through
  state space);
* each candidate is *previewed* with the incremental parallel-fault
  simulator (one combinational evaluation per fault chunk);
* the candidate detecting the most new faults wins, with the number of
  fault effects latched into flip-flops as tie-break (latched effects
  are future detections);
* generation stops at the length budget, when all target faults are
  detected, or after ``patience`` consecutive stagnant steps.

What Phase 1 of the compaction procedure needs from ``T0`` is exactly
what this provides: a long sequence detecting a large share of the
faults -- see DESIGN.md section 5 for the substitution argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..sim import values as V
from ..sim.fault_sim import FaultSimulator
from ..sim.faults import FaultSet
from ..sim.logicsim import CompiledCircuit


@dataclass
class SeqGenResult:
    """A generated sequence and its no-scan detection record."""

    sequence: List[V.Vector]
    detected: Set[int]           # PO-detected, no scan, from all-X state
    steps_evaluated: int

    @property
    def length(self) -> int:
        return len(self.sequence)


def generate_sequence(
    circuit: CompiledCircuit,
    faults: FaultSet,
    max_length: int = 500,
    seed: int = 0,
    candidates_per_step: int = 8,
    patience: int = 100,
    burst_after: int = 12,
    burst_length: int = 5,
    hints: Optional[Sequence[V.Vector]] = None,
    target: Optional[Sequence[int]] = None,
    targeted: bool = False,
    unroll_depth: int = 4,
    target_attempts: int = 48,
    x_fill: str = "random",
) -> SeqGenResult:
    """Generate a test sequence ``T0`` for the no-scan circuit.

    Parameters
    ----------
    circuit, faults:
        The circuit and target fault set.
    max_length:
        Hard budget on the sequence length.
    seed:
        RNG seed (deterministic output).
    candidates_per_step:
        Size of the candidate-vector pool per step.
    patience:
        Stop after this many consecutive steps with no new detection.
    burst_after:
        After this many stagnant steps, commit a short burst of random
        vectors without previewing -- an escape from greedy plateaus
        (one-step lookahead cannot see multi-cycle detections).
    burst_length:
        Length of each exploration burst.
    hints:
        Extra candidate vectors mixed into every pool (e.g. the
        primary-input parts of a combinational test set, which are
        strong fault activators).
    target:
        Fault indices to pursue; defaults to all.
    targeted:
        After the greedy phase, run the deterministic time-frame
        expansion engine (:mod:`repro.atpg.tfx`) on still-undetected
        faults, appending each successful subsequence.  This is the
        directed phase that lifts the generator above plain random
        sequences.
    unroll_depth:
        Time-frame window for the targeted phase.
    target_attempts:
        Maximum number of faults the targeted phase tries.
    x_fill:
        How the targeted phase fills PODEM don't-cares (see
        :func:`repro.sim.values.fill_x`); the greedy phase draws only
        fully-specified vectors and is unaffected.

    Raises
    ------
    ValueError
        If ``max_length`` is not positive.
    """
    if max_length < 1:
        raise ValueError("max_length must be positive")
    rng = random.Random(seed)
    n_pi = len(circuit.pi_ids)
    sim = FaultSimulator(circuit, faults)
    inc = sim.incremental(init_state=None, target=target)
    hints = list(hints or [])
    sequence: List[V.Vector] = []
    previous: Optional[V.Vector] = None
    stagnant = 0
    steps_evaluated = 0
    n_target = sum(len(group) for group in inc.groups)

    while len(sequence) < max_length and len(inc.detected) < n_target:
        if stagnant and stagnant % burst_after == 0:
            # Exploration burst: walk a few random steps blind.
            burst_hit = False
            for _ in range(min(burst_length,
                               max_length - len(sequence))):
                vector = V.random_binary_vector(n_pi, rng)
                if inc.apply(vector):
                    burst_hit = True
                sequence.append(vector)
                previous = vector
            if burst_hit:
                stagnant = 0
                continue
            stagnant += 1
            if stagnant >= patience:
                break
            continue
        pool = _candidate_pool(previous, n_pi, candidates_per_step, rng,
                               hints)
        best_vector = None
        best_key = None
        for vector in pool:
            preview = inc.preview(vector)
            steps_evaluated += 1
            key = (preview.new_po_detections, preview.scan_diff_faults,
                   rng.random())
            if best_key is None or key > best_key:
                best_key = key
                best_vector = vector
        newly = inc.apply(best_vector)
        sequence.append(best_vector)
        previous = best_vector
        if newly:
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= patience:
                break
    if targeted and len(sequence) < max_length:
        steps_evaluated += _targeted_phase(
            circuit, faults, inc, sequence, max_length, unroll_depth,
            target_attempts, seed, x_fill)
    if not sequence:
        # Degenerate target set: still return a usable length-1 sequence.
        sequence.append(V.random_binary_vector(n_pi, rng))
    return SeqGenResult(sequence, set(inc.detected), steps_evaluated)


def _targeted_phase(circuit, faults, inc, sequence, max_length,
                    unroll_depth, target_attempts, seed,
                    x_fill="random") -> int:
    """Append tfx subsequences for still-undetected faults in place."""
    from .tfx import TargetedExtender  # deferred: optional heavy setup

    state = inc.good_state()
    if not V.is_binary(state):
        return 0  # not initialized: nothing deterministic to do
    extender = TargetedExtender(circuit.netlist, depth=unroll_depth,
                                seed=seed, x_fill=x_fill)
    all_target = {fid for group in inc.groups for fid in group}
    attempts = 0
    for fid in sorted(all_target - inc.detected):
        if attempts >= target_attempts or len(sequence) >= max_length:
            break
        attempts += 1
        extension = extender.try_fault(faults[fid], inc.good_state())
        if extension is None:
            continue
        budget = max_length - len(sequence)
        for vector in extension.vectors[:budget]:
            inc.apply(vector)
            sequence.append(vector)
    return attempts


def _candidate_pool(previous: Optional[V.Vector], n_pi: int, count: int,
                    rng: random.Random,
                    hints: Sequence[V.Vector]) -> List[V.Vector]:
    """Candidate next vectors: hold, single-bit flip, hints, random."""
    pool: List[V.Vector] = []
    if previous is not None:
        pool.append(previous)  # hold
        flip = rng.randrange(n_pi)
        flipped = list(previous)
        flipped[flip] = 1 - flipped[flip]
        pool.append(tuple(flipped))
    if hints:
        pool.append(hints[rng.randrange(len(hints))])
        pool.append(hints[rng.randrange(len(hints))])
    while len(pool) < count:
        pool.append(V.random_binary_vector(n_pi, rng))
    return pool
