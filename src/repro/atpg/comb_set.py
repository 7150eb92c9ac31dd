"""Generation and compaction of the combinational test set ``C``.

The paper draws scan-in states and top-off tests from a *compact
combinational test set* ([9] for ISCAS-89; random-pattern selection for
ITC-99).  This module provides both flavours:

* :func:`generate` -- random-pattern phase (pattern-parallel fault
  simulation, keep only useful patterns) followed by a PODEM top-off for
  the random-resistant faults, then static compaction (reverse-order +
  greedy elimination).
* :func:`random_selected` -- pure random-pattern selection, the ITC-99
  recipe.

The result records per-fault classification (detected / redundant /
aborted), which downstream phases use to report *detectable* coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sim import values as V
from ..sim.comb_sim import CombPatternSim, Pattern
from ..sim.fault_sim import FaultSimulator
from ..sim.faults import FaultSet
from ..sim.logicsim import CompiledCircuit
from .podem import ABORTED, Podem, REDUNDANT, TESTABLE


@dataclass
class CombTest:
    """One combinational test, split the way the paper uses it.

    ``state`` is the flip-flop part (the candidate scan-in vector
    ``c_js``); ``pi`` is the primary-input part (``c_ji``).  Both fully
    specified (X-filled at generation time).
    """

    state: V.Vector
    pi: V.Vector

    def as_pattern(self) -> Pattern:
        return (self.state, self.pi)


@dataclass
class CombSetResult:
    """A combinational test set plus its fault accounting.

    Attributes
    ----------
    tests:
        The compacted test set ``C``.
    detected:
        Fault indices detected by ``C``.
    redundant:
        Faults proven combinationally untestable by PODEM.
    aborted:
        Faults abandoned at the backtrack limit (counted as potentially
        detectable but uncovered).
    adi:
        Accidental Detection Index per fault (Pomeranz & Reddy,
        arXiv:0710.4637): how many random-phase patterns detected the
        fault while it was still undetected -- detections that happen
        *by chance*, not by targeting.  Faults absent from the map
        were never accidentally detected (random-resistant).  Purely
        advisory ordering data; it does not affect the test set.
    """

    tests: List[CombTest]
    detected: Set[int]
    redundant: Set[int] = field(default_factory=set)
    aborted: Set[int] = field(default_factory=set)
    adi: Dict[int, int] = field(default_factory=dict)

    @property
    def detectable(self) -> Set[int]:
        """Faults not proven redundant (the denominator for coverage)."""
        return self.detected | self.aborted

    def __len__(self) -> int:
        return len(self.tests)


def _random_pattern(n_ff: int, n_pi: int, rng: random.Random) -> Pattern:
    return (V.random_binary_vector(n_ff, rng),
            V.random_binary_vector(n_pi, rng))


def random_selected(
    circuit: CompiledCircuit,
    faults: FaultSet,
    seed: int = 0,
    max_patterns: int = 4096,
    block: int = 64,
    stale_blocks: int = 8,
    scan_positions=None,
) -> CombSetResult:
    """Select useful patterns out of a large random stream (ITC-99 style).

    Blocks of random patterns are fault simulated; a pattern is kept
    only if it detects at least one still-undetected fault.  Generation
    stops after ``max_patterns`` candidates or ``stale_blocks``
    consecutive blocks with no new detection.
    """
    rng = random.Random(seed)
    sim = CombPatternSim(
        FaultSimulator(circuit, faults, scan_positions=scan_positions))
    n_ff = (len(circuit.ff_ids) if scan_positions is None
            else len(scan_positions))
    n_pi = len(circuit.pi_ids)
    undetected: Set[int] = set(range(len(faults)))
    tests: List[CombTest] = []
    detected: Set[int] = set()
    adi: Dict[int, int] = {}
    stale = 0
    seen = 0
    while undetected and seen < max_patterns and stale < stale_blocks:
        patterns = [_random_pattern(n_ff, n_pi, rng) for _ in range(block)]
        seen += block
        hits = sim.detect_block(patterns, sorted(undetected))
        new_by_pattern: Dict[int, Set[int]] = {}
        for fid, pmask in hits.items():
            # Every random-pattern detection of a still-undetected
            # fault is accidental -- that popcount is the fault's ADI
            # contribution from this block.
            adi[fid] = adi.get(fid, 0) + bin(pmask).count("1")
            first = (pmask & -pmask).bit_length() - 1
            new_by_pattern.setdefault(first, set()).add(fid)
        if not hits:
            stale += 1
            continue
        stale = 0
        # Greedy within the block: keep patterns in first-detection order.
        for p in sorted(new_by_pattern):
            fresh = new_by_pattern[p] & undetected
            if not fresh:
                continue
            state, pi = patterns[p]
            tests.append(CombTest(state, pi))
            # Credit this pattern with everything it detects.
            full = sim.detect_single(patterns[p], sorted(undetected))
            detected |= full
            undetected -= full
    return CombSetResult(tests, detected, adi=adi)


def generate(
    circuit: CompiledCircuit,
    faults: FaultSet,
    seed: int = 0,
    random_patterns: int = 512,
    block: int = 64,
    backtrack_limit: int = 256,
    compaction_passes: int = 2,
    scan_positions=None,
    x_fill: str = "random",
) -> CombSetResult:
    """Full generation of a compact complete test set (the [9] stand-in).

    Random-pattern phase, PODEM top-off (classifying leftover faults as
    redundant or aborted), then :func:`compact_tests` passes.  With
    ``scan_positions`` the set targets a partial-scan chain: state
    parts cover only scanned flip-flops, and "redundant" means
    untestable by any single-frame partial-scan test.

    ``x_fill`` selects how PODEM's don't-cares are filled (see
    :func:`repro.sim.values.fill_x`); the detection guarantee holds
    under any strategy because X-fill only ever adds detections.  The
    default ``"random"`` keeps the historical output byte-identical.
    """
    rng = random.Random(seed)
    result = random_selected(circuit, faults, seed=seed,
                             max_patterns=random_patterns, block=block,
                             scan_positions=scan_positions)
    sim = CombPatternSim(
        FaultSimulator(circuit, faults, scan_positions=scan_positions))
    podem = Podem(circuit, faults, backtrack_limit=backtrack_limit,
                  scan_positions=scan_positions)
    undetected = set(range(len(faults))) - result.detected
    for fid in sorted(undetected):
        if fid in result.detected:
            continue
        outcome = podem.generate(fid)
        if outcome.status == TESTABLE:
            state, pi = outcome.pattern
            if scan_positions is not None:
                state = tuple(state[p] for p in sorted(scan_positions))
            test = CombTest(V.fill_x(state, rng, strategy=x_fill),
                            V.fill_x(pi, rng, strategy=x_fill))
            full = sim.detect_single(
                test.as_pattern(),
                sorted(set(range(len(faults))) - result.detected))
            if fid not in full:
                # X-fill can only add detections, never remove the
                # PODEM-guaranteed one; reaching here means a bug.
                raise AssertionError(
                    f"PODEM pattern lost its target fault {faults[fid]}")
            result.tests.append(test)
            result.detected |= full
        elif outcome.status == REDUNDANT:
            result.redundant.add(fid)
        else:
            assert outcome.status == ABORTED
            result.aborted.add(fid)
    for _ in range(compaction_passes):
        before = len(result.tests)
        result.tests = compact_tests(circuit, faults, result.tests,
                                     result.detected,
                                     scan_positions=scan_positions)
        if len(result.tests) == before:
            break
    return result


def compact_tests(
    circuit: CompiledCircuit,
    faults: FaultSet,
    tests: Sequence[CombTest],
    must_detect: Set[int],
    scan_positions=None,
) -> List[CombTest]:
    """Reverse-order static compaction of a combinational test set.

    Simulates the tests in reverse order with fault dropping and keeps
    only tests that detect at least one not-yet-credited fault; the kept
    set still detects all of ``must_detect``.
    """
    sim = CombPatternSim(
        FaultSimulator(circuit, faults, scan_positions=scan_positions))
    remaining = set(must_detect)
    kept: List[CombTest] = []
    for test in reversed(list(tests)):
        if not remaining:
            break
        hits = sim.detect_single(test.as_pattern(), sorted(remaining))
        if hits:
            kept.append(test)
            remaining -= hits
    if remaining:
        # Reverse-order pass lost coverage (ordering artefact): fall
        # back to the original set, which is known to be complete.
        return list(tests)
    kept.reverse()
    return kept
