"""Phase 3: complete fault coverage with single-vector scan tests.

Faults left undetected by ``tau_seq`` are covered by tests drawn from
the combinational test set ``C``: each ``c_j`` becomes the scan test
``tau_j = (c_js, (c_ji))``.  Selection follows the paper exactly:

* simulate every ``tau_j`` against ``F - F_seq`` to get ``F_j``;
* for each undetected fault ``f``, record ``n(f)`` (how many tests
  detect it) and ``last(f)`` (the index of the last test detecting it);
* repeatedly pick the fault with minimum ``n(f)``, add
  ``tau_last(f)``, and drop everything that test detects.

Faults with ``n(f) = 1`` force their unique test into the set, so they
are naturally selected first by the minimum rule.  Faults detected by
no ``tau_j`` are returned as ``uncovered`` (combinationally redundant
or aborted faults -- the paper's tables likewise stop at the
detectable set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..atpg.comb_set import CombTest
from ..sim.comb_sim import CombPatternSim
from ..sim.counters import SimCounters
from . import combine
from .scan_test import ScanTest, single_vector_test


@dataclass
class TopOffResult:
    """Phase-3 outcome.

    Attributes
    ----------
    tests:
        The added single-vector scan tests, in selection order.
    chosen_indices:
        Indices into ``C`` of the selected tests.
    covered:
        Previously-undetected faults now covered.
    uncovered:
        Faults no candidate test detects (left undetected).
    """

    tests: List[ScanTest]
    chosen_indices: List[int]
    covered: Set[int]
    uncovered: Set[int]


def top_off(
    comb_sim: CombPatternSim,
    comb_tests: Sequence[CombTest],
    undetected: Set[int],
    retire_to=None,
    power_key: Optional[Callable[[int], float]] = None,
    adi: Optional[Dict[int, int]] = None,
    counters: Optional[SimCounters] = None,
    scoap: Optional[Dict[int, int]] = None,
) -> TopOffResult:
    """Select single-vector tests covering ``undetected`` faults.

    Phase 3 is inherently a dropped-fault consumer: the caller passes
    only the faults the committed tests leave uncovered (the
    scoreboard's ``active`` set), so every candidate simulation here
    already runs on the smallest possible fault list.  With
    ``retire_to`` set, the newly covered faults are retired into that
    :class:`~repro.sim.scoreboard.FaultScoreboard` on return.

    ``power_key`` (index of a candidate test ``j`` -> its power cost,
    e.g. the peak shift WTM of ``tau_j``) inserts power as a tie-break
    after the paper's ``min n(f)`` rule: among equally-hard faults,
    the one whose ``last(f)`` test is cheapest wins, so the low-power
    test enters the set first and may cover its rivals' faults.
    ``None`` (the default) keeps the paper's selection byte-identical.

    Candidate tests are simulated in PPSFP pattern blocks of up to
    :data:`repro.core.combine.TRIAL_BATCH` patterns per good+faulty
    pass.  Per-pattern detection is independent, so
    ``detects``/``n(f)``/``last(f)`` -- and hence the selection -- are
    those of simulating one pattern at a time.

    ``adi`` (fault index -> Accidental Detection Index, see
    :meth:`~repro.sim.scoreboard.FaultScoreboard.record_adi`) inserts
    a tie-break *between* ``min n(f)`` and the power key: among
    equally-covered faults the least-accidentally-detected (most
    random-resistant) one is targeted first, on the ADI rationale that
    such faults have the fewest alternative detections and should
    claim their test before easier rivals.  ``None`` keeps the
    paper's rule untouched.

    ``scoap`` (fault index -> SCOAP difficulty, see
    :meth:`~repro.analysis.scoap.ScoapMeasures.difficulty`) inserts
    the *static* hardness tie-break directly after ``min n(f)`` and
    ahead of ADI: among equally-covered faults the statically-hardest
    is targeted first.  ``None`` keeps the paper's rule untouched.
    """
    remaining = set(undetected)
    if not remaining:
        return TopOffResult([], [], set(), set())

    detects: List[Set[int]] = []
    n_of: Dict[int, int] = {}
    last_of: Dict[int, int] = {}
    order = sorted(remaining)
    step = combine.TRIAL_BATCH
    for base in range(0, len(comb_tests), step):
        block = comb_tests[base:base + step]
        masks = comb_sim.detect_block([t.as_pattern() for t in block],
                                      order)
        block_hits: List[Set[int]] = [set() for _ in block]
        for fid, pmask in masks.items():
            while pmask:
                low = pmask & -pmask
                block_hits[low.bit_length() - 1].add(fid)
                pmask ^= low
        for off, hits in enumerate(block_hits):
            detects.append(hits)
            for fid in hits:
                n_of[fid] = n_of.get(fid, 0) + 1
                last_of[fid] = base + off

    uncovered = remaining - set(n_of)
    remaining -= uncovered
    if adi is not None and remaining and counters is not None:
        counters.adi_orderings += 1
    if scoap is not None and remaining and counters is not None:
        counters.scoap_orderings += 1
    chosen: List[int] = []
    tests: List[ScanTest] = []
    covered: Set[int] = set()
    adi_of: Callable[[int], int] = (lambda f: 0) if adi is None else \
        (lambda f: adi.get(f, 0))  # type: ignore[union-attr]
    # Negated so min() prefers the statically-hardest fault; all-zero
    # without a map, keeping scoap=None byte-identical.
    scoap_of: Callable[[int], int] = (lambda f: 0) if scoap is None \
        else (lambda f: -scoap.get(f, 0))  # type: ignore[union-attr]
    while remaining:
        # The fault hardest to cover (fewest detecting tests) first;
        # ties broken deterministically by fault index (with optional
        # SCOAP, ADI and power tie-breaks in between).
        if power_key is None:
            fault = min(remaining,
                        key=lambda f: (n_of[f], scoap_of(f), adi_of(f),
                                       f))
        else:
            fault = min(remaining,
                        key=lambda f: (n_of[f], scoap_of(f), adi_of(f),
                                       power_key(last_of[f]), f))
        j = last_of[fault]
        chosen.append(j)
        test = comb_tests[j]
        tests.append(single_vector_test(test.state, test.pi))
        newly = detects[j] & remaining
        covered |= newly
        remaining -= newly
    if retire_to is not None:
        retire_to.retire(covered)
    return TopOffResult(tests, chosen, covered, uncovered)
