"""Cross-phase fault dropping: the shared detection scoreboard.

Parallel-fault simulators get their second big lever (after machine
packing) from *fault dropping*: once a fault is known detected by the
test set under construction, later simulations need not carry its
machine bit at all, so every subsequent injection word is smaller and
every pass cheaper (HOPE and the PPSFP line of work both lean on
this).

:class:`FaultScoreboard` is that shared ledger for the compaction
pipeline.  The contract is strict so dropping can never change a
result:

* a fault may be retired only when it is **committed-detected** -- a
  test that is part of the final artifact (the post-omission
  ``tau_seq``, a Phase-3 top-off test, a Phase-4 combined set)
  provably detects it;
* consumers may shrink a simulation target only where the dropped
  faults' detection status is *already known* to the caller and the
  dropped faults cannot influence the answer (e.g. re-deriving the
  full detection set of the very test that retired them).

Phases that need exact per-candidate detection *counts* (Phase-1
scan-in selection, Phase-4 essential-fault bookkeeping) must keep
simulating the full target; they use the scoreboard only to retire
what they commit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from ..analysis import sanitizer
from .counters import SimCounters


class FaultScoreboard:
    """Ledger of faults committed-detected by the evolving test set.

    ``enabled=False`` turns the scoreboard into a no-op ledger:
    :meth:`retire` records nothing, so every consumer keeps simulating
    its full target.  This is the ablation/baseline switch -- it
    reproduces the engine's behavior without cross-phase dropping
    while keeping every call site unchanged.
    """

    def __init__(self, n_faults: int,
                 counters: Optional[SimCounters] = None,
                 enabled: bool = True) -> None:
        if n_faults < 0:
            raise ValueError("n_faults must be non-negative")
        self.n_faults = n_faults
        self.counters = counters
        self.enabled = enabled
        #: Whether the sanitizer is armed, sampled once, here.
        self._sanitize = sanitizer.enabled()
        self._retired: Set[int] = set()
        #: Accidental Detection Index per fault (Pomeranz & Reddy,
        #: arXiv:0710.4637): how many random-phase patterns detected
        #: the fault *by chance* while it was still undetected.  A low
        #: count marks a random-resistant (hard) fault.  Empty until
        #: :meth:`record_adi`; purely advisory -- consumers may only
        #: use it to *order* work, never to change results.
        self.adi: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def retire(self, fault_ids: Iterable[int]) -> int:
        """Mark ``fault_ids`` committed-detected.

        Returns the number of *newly* retired faults (re-retiring is a
        no-op) and accounts them as dropped in the counters: every
        retired fault is one machine bit absent from all future packed
        words.  A disabled scoreboard retires nothing.
        """
        if not self.enabled:
            return 0
        before = set(self._retired) if self._sanitize else None
        fresh = set(fault_ids) - self._retired
        for fid in fresh:
            if not 0 <= fid < self.n_faults:
                raise ValueError(f"fault index {fid} out of range")
        self._retired |= fresh
        if before is not None:
            sanitizer.check_monotone(before, self._retired,
                                     "FaultScoreboard.retire")
        if self.counters is not None and fresh:
            self.counters.faults_dropped += len(fresh)
        return len(fresh)

    # ------------------------------------------------------------------
    def record_adi(self, scores: Mapping[int, int]) -> None:
        """Persist per-fault accidental-detection counts.

        ``scores`` maps fault index to the number of random-phase
        patterns that detected it by chance (see :attr:`adi`).  Faults
        absent from the mapping keep an implicit ADI of zero --
        exactly the random-resistant faults the ordering heuristics
        want first.  Repeated calls accumulate.
        """
        for fid, count in scores.items():
            if not 0 <= fid < self.n_faults:
                raise ValueError(f"fault index {fid} out of range")
            if count < 0:
                raise ValueError(f"negative ADI count for fault {fid}")
            self.adi[fid] = self.adi.get(fid, 0) + count

    def adi_of(self, fault_id: int) -> int:
        """The recorded ADI of ``fault_id`` (0 when never recorded)."""
        return self.adi.get(fault_id, 0)

    # ------------------------------------------------------------------
    def is_retired(self, fault_id: int) -> bool:
        return fault_id in self._retired

    @property
    def n_retired(self) -> int:
        return len(self._retired)

    def retired_within(self, target: Iterable[int]) -> Set[int]:
        """The subset of ``target`` already committed-detected."""
        return set(target) & self._retired

    def active(self, target: Iterable[int]) -> List[int]:
        """``target`` minus the retired faults, sorted -- the shrunken
        simulation target later phases rebuild their words from."""
        return sorted(set(target) - self._retired)
