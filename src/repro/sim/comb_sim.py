"""Combinational patterns on the fault simulator (PPSFP).

For full-scan work every length-1 scan test is a *combinational* test on
the pseudo-combinational circuit whose inputs are the primary inputs
plus the flip-flop outputs (pseudo primary inputs) and whose outputs are
the primary outputs plus the flip-flop data nets (pseudo primary
outputs, observed by the scan-out).

:class:`CombPatternSim` adapts that pattern format to the one fault
simulator, :class:`~repro.sim.fault_sim.FaultSimulator`.  A block of
patterns is simulated pattern-parallel: one
:meth:`~repro.sim.fault_sim.FaultSimulator.detect_trials` call with one
single-frame trial per pattern, each fault injected across all pattern
lanes at once.  A single pattern is one
:meth:`~repro.sim.fault_sim.FaultSimulator.detect` pass with the faults
in the lanes.  It is the workhorse of combinational test-set generation
(:mod:`repro.atpg.comb_set`), Phase 3 top-off and the dynamic baseline.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from . import values as V
from .counters import SimCounters
from .fault_sim import FaultSimulator

#: A combinational pattern: (flip-flop state vector, primary input vector).
Pattern = Tuple[V.Vector, V.Vector]


class CombPatternSim:
    """Pattern-format adapter over one :class:`FaultSimulator`.

    Everything but the pattern format comes from ``sim``: the fault
    set, the partial-scan positions (pattern state vectors then cover
    only the scanned flip-flops, and only their captured values are
    observed), the proven-untestable exclusion, the width checks and
    the :class:`~repro.sim.counters.SimCounters`.  Each call adds the
    number of representative faults it simulates to ``comb_passes``.
    """

    def __init__(self, sim: FaultSimulator) -> None:
        self.sim = sim

    @property
    def counters(self) -> SimCounters:
        return self.sim.counters

    def _counted(self, target: Optional[Sequence[int]]) -> Sequence[int]:
        """``target`` (default: every fault), its simulated
        representatives added to ``comb_passes``."""
        if target is None:
            target = range(len(self.sim.faults))
        sim_target, _ = self.sim._prepare_target(target)
        self.sim.counters.comb_passes += len(sim_target)
        return target

    def detect_block(
        self,
        patterns: Sequence[Pattern],
        target: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Which patterns detect which target faults.

        Returns ``{fault_index: pattern_bitmask}`` for every target
        fault detected by at least one pattern in the block (bit ``p``
        set means pattern ``p`` detects it).
        """
        per_pattern = self.sim.detect_trials(
            [(state, [pi]) for state, pi in patterns],
            self._counted(target))
        masks: Dict[int, int] = {}
        for p, hits in enumerate(per_pattern):
            for fid in hits:
                masks[fid] = masks.get(fid, 0) | 1 << p
        return masks

    def detect_single(self, pattern: Pattern,
                      target: Optional[Sequence[int]] = None) -> Set[int]:
        """Faults detected by one combinational pattern."""
        state, pi = pattern
        return self.sim.detect([pi], state, self._counted(target))
