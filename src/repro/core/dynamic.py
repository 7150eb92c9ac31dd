"""Dynamic compaction baseline (the [1]-[3] family).

The procedures of Pradhan/Saxena [1] and Lee/Saluja [2,3] reduce test
application time for a *given* set of combinational tests by deciding,
during application, whether the next test's state can be produced by
functional clocking (one cycle per vector) instead of a scan operation
(``N_SV`` cycles).  Their decisions are made online, test by test,
without the global reordering freedom that static compaction enjoys --
which is why they trail [4] in the paper's Table 3.

This implementation keeps that structure:

1. pick the hardest still-uncovered fault; scan in the state of a
   combinational test that detects it and apply that test's input
   vector;
2. look for another *unused* combinational test whose still-needed
   faults are actually detected when its input vector is applied from
   the circuit's current state (a state-transfer opportunity); if one
   exists, apply it with the functional clock and continue, otherwise
   scan out;
3. repeat until all coverable faults are covered.

Extensions draw only on the given test set ``C`` (no free-form vector
search) and each extension must pay for itself immediately -- the
defining limitations of the dynamic approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..atpg.comb_set import CombTest
from ..sim import values as V
from ..sim.comb_sim import CombPatternSim
from ..sim.fault_sim import FaultSimulator
from .scan_test import ScanTest, ScanTestSet


@dataclass
class DynamicResult:
    """Result of the dynamic-compaction baseline."""

    test_set: ScanTestSet
    detected: Set[int]
    uncovered: Set[int]


def dynamic_compact(
    sim: FaultSimulator,
    comb_sim: CombPatternSim,
    comb_tests: Sequence[CombTest],
    target: Optional[Set[int]] = None,
    seed: int = 0,
    max_extension: Optional[int] = None,
) -> DynamicResult:
    """Build a test set with the dynamic (online) procedure.

    Parameters
    ----------
    sim, comb_sim:
        Sequential and pattern-parallel fault simulators.
    comb_tests:
        Complete combinational test set ``C``.
    target:
        Fault indices to cover; defaults to all faults.
    seed:
        Reserved for interface symmetry with the other baselines (the
        procedure itself is deterministic).
    max_extension:
        Cap on one test's functional-sequence length; defaults to
        ``N_SV`` (past that, a fresh scan-in costs no more).

    Raises
    ------
    ValueError
        If ``comb_tests`` is empty.
    """
    if not comb_tests:
        raise ValueError("combinational test set is empty")
    circuit = sim.circuit
    n_sv = sim.n_state_vars
    if target is None:
        target = set(range(len(sim.faults)))
    if max_extension is None:
        max_extension = max(n_sv, 2)

    order = sorted(target)
    detects: List[Set[int]] = [
        comb_sim.detect_single(t.as_pattern(), order) for t in comb_tests]
    coverable: Set[int] = set().union(*detects) if detects else set()
    uncovered = target - coverable
    remaining = set(coverable)
    n_of: Dict[int, int] = {}
    for det in detects:
        for fid in det:
            n_of[fid] = n_of.get(fid, 0) + 1

    unused = set(range(len(comb_tests)))
    tests: List[ScanTest] = []
    detected: Set[int] = set()

    while remaining:
        seed_fault = min(remaining, key=lambda f: (n_of[f], f))
        from_unused = [i for i in sorted(unused)
                       if seed_fault in detects[i]]
        if from_unused:
            seed_index = from_unused[0]
        else:
            seed_index = next(i for i, det in enumerate(detects)
                              if seed_fault in det)
        unused.discard(seed_index)
        start = comb_tests[seed_index]
        scan_in = tuple(start.state)
        vectors: List[V.Vector] = [tuple(start.pi)]
        pending = set(remaining)

        while len(vectors) < max_extension:
            # Only count gains this trial would keep when scanned out
            # right here -- the online procedure commits as it goes.
            so_far = sim.detect(vectors, scan_in, target=sorted(pending))
            extension = _find_transfer(sim, scan_in, vectors, detects,
                                       comb_tests, unused,
                                       pending - so_far)
            if extension is None:
                break
            index, _ = extension
            unused.discard(index)
            vectors.append(tuple(comb_tests[index].pi))

        # Final accounting: what the finished test actually detects
        # (extensions can move the scan-out past an earlier capture, so
        # interim credits are never trusted).
        final = sim.detect(vectors, scan_in, target=sorted(remaining))
        if not final and len(vectors) > 1:
            # Guarantee progress: fall back to the bare seed test,
            # which detects its seed fault by construction.
            vectors = [tuple(start.pi)]
            final = sim.detect(vectors, scan_in,
                               target=sorted(remaining))
        if not final:
            # The seed fault is combinationally detected by this test;
            # reaching here means it was already covered elsewhere.
            remaining.discard(seed_fault)
            continue
        remaining -= final
        detected |= final
        tests.append(ScanTest(scan_in, tuple(vectors)))

    test_set = ScanTestSet(n_sv, tests)
    return DynamicResult(test_set, detected, uncovered)


def _find_transfer(
    sim: FaultSimulator,
    scan_in: V.Vector,
    vectors: List[V.Vector],
    detects: List[Set[int]],
    comb_tests: Sequence[CombTest],
    unused: Set[int],
    remaining: Set[int],
):
    """First unused test whose needed faults survive a functional
    application from the current state.

    Returns ``(test_index, gained_faults)`` or ``None``.  "Needed"
    means faults of that test still uncovered; *all* of them must be
    detected by the extended sequence (with a scan-out right after the
    candidate) for the transfer to be taken -- the online procedures
    commit a test entirely or not at all.
    """
    for index in sorted(unused):
        needed = detects[index] & remaining
        if not needed:
            unused.discard(index)
            continue
        trial = vectors + [tuple(comb_tests[index].pi)]
        gained = sim.detect(trial, scan_in, target=sorted(needed))
        if needed <= gained:
            return index, gained
    return None
