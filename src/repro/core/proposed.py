"""The paper's proposed compaction procedure (Sections 3.1-3.5).

:func:`run` orchestrates the full pipeline:

1. iterate Phase 1 (scan-in + scan-out selection) and Phase 2 (vector
   omission) starting from ``T0``, re-feeding ``T_C`` as the next
   iteration's sequence, until the selected scan-in state repeats
   (Section 3.3's selected/unselected rule) or the iteration cap hits;
2. Phase 3: top off the remaining detectable faults with single-vector
   tests chosen by the ``min n(f)`` / ``last(f)`` rule;
3. Phase 4 (optional): static compaction of the final set with the
   combining procedure of [4].

The result records per-phase statistics matching the paper's Tables
1-3: faults detected by ``T0`` alone, by ``tau_seq``, and by the final
set; the lengths of ``T0`` and ``T_seq``; the number of added tests;
and the clock-cycle counts before and after Phase 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..analysis import sanitizer
from ..atpg.comb_set import CombTest
from ..sim import values as V
from ..sim.comb_sim import CombPatternSim
from ..sim.fault_sim import FaultSimulator
from ..sim.scoreboard import FaultScoreboard
from .combine import CombineStats, static_compact
from .omission import omit_vectors
from .phase1 import detect_no_scan, run_phase1
from .scan_test import ScanTest, ScanTestSet
from .topoff import top_off


class PhaseObserver:
    """Phase-boundary hooks for supervision and salvage.

    :func:`run` calls :meth:`enter` when a pipeline phase begins and
    :meth:`completed` when a phase boundary commits, passing a state
    dict holding everything needed to resume *from* that boundary (the
    same dict shape :meth:`run`'s ``resume`` parameter accepts, minus
    the ``phase`` key).  The harness uses this to stream heartbeats
    and persist salvage; the default implementation does nothing, so
    library callers pay nothing.

    Hooks run on the worker's hot path between phases -- they must not
    mutate the state they are handed.
    """

    def enter(self, phase: str) -> None:  # pragma: no cover - trivial
        """``phase`` is one of ``"phase1"`` .. ``"phase4"``."""

    def completed(self, phase: str,
                  state: Dict[str, Any]) -> None:  # pragma: no cover
        """A phase boundary committed; ``state`` is resumable."""


@dataclass
class IterationLog:
    """One Phase 1+2 iteration, for reporting and debugging."""

    scan_in_index: int
    u_so: int
    length_before: int
    length_after: int
    detected_before: int
    detected_after: int


@dataclass
class ProposedResult:
    """Full outcome of the proposed procedure.

    Attributes mirror the paper's tables; see the class body comments.
    """

    tau_seq: ScanTest                 # the long-sequence test
    test_set: ScanTestSet             # end of Phase 3 ("init" in Table 3)
    compacted_set: Optional[ScanTestSet]  # end of Phase 4 ("comp")
    t0_length: int                    # L(T0)           (Table 2)
    t0_detected: Set[int]             # detected by T0  (Table 1 "T0")
    seq_detected: Set[int]            # by tau_seq      (Table 1 "scan")
    final_detected: Set[int]          # by the test set (Table 1 "final")
    added_tests: int                  # Phase-3 additions (Table 2)
    uncovered: Set[int]               # undetectable leftovers
    iterations: List[IterationLog] = field(default_factory=list)
    combine_stats: Optional[CombineStats] = None

    @property
    def seq_length(self) -> int:
        """``L(T_seq)`` (Table 2 ``scan`` column)."""
        return self.tau_seq.length

    def initial_cycles(self) -> int:
        """Clock cycles at the end of Phase 3 (Table 3 ``init``)."""
        return self.test_set.clock_cycles()

    def compacted_cycles(self) -> int:
        """Clock cycles after Phase 4 (Table 3 ``comp``)."""
        final = self.compacted_set or self.test_set
        return final.clock_cycles()


def run(
    sim: FaultSimulator,
    comb_sim: CombPatternSim,
    t0: Sequence[V.Vector],
    comb_tests: Sequence[CombTest],
    target: Optional[Set[int]] = None,
    max_iterations: Optional[int] = None,
    omission_passes: int = 2,
    run_phase4: bool = True,
    scan_out_rule: str = "earliest",
    scoreboard: Optional[FaultScoreboard] = None,
    merge_filter: Optional[Callable[[ScanTest], bool]] = None,
    topoff_power_key: Optional[Callable[[int], float]] = None,
    observer: Optional[PhaseObserver] = None,
    resume: Optional[Dict[str, Any]] = None,
    adi: bool = False,
    adi_scores: Optional[Dict[int, int]] = None,
    scoap_scores: Optional[Dict[int, int]] = None,
) -> ProposedResult:
    """Run the proposed procedure end to end.

    Parameters
    ----------
    sim, comb_sim:
        Sequential and pattern-parallel fault simulators over the same
        circuit and fault set.
    t0:
        The initial test sequence (from a sequential test generator, or
        random -- the paper evaluates both).
    comb_tests:
        The combinational test set ``C``.
    target:
        Target fault indices; defaults to the whole fault set.
    max_iterations:
        Cap on Phase 1+2 iterations; defaults to ``len(comb_tests)``
        (the paper's bound: at most ``K`` iterations).
    omission_passes:
        Sweeps per Phase-2 run.
    run_phase4:
        Apply [4]'s static compaction at the end (paper Phase 4).
    scan_out_rule:
        Step-3 variant: "earliest" (the paper's ``i0``) or
        "max_coverage" (the rejected ``i1`` -- kept for the ablation
        study).
    scoreboard:
        The cross-phase fault-dropping ledger; one is created when
        omitted.  Must be *fresh* for this run -- its ledger is
        interpreted as "detected by this run's committed tests".
        Faults are retired as each artifact commits
        (``tau_seq`` after the Phase 1+2 loop, every Phase-3 top-off
        test, the Phase-4 compacted set), so each later full-set
        simulation rebuilds a smaller injection word.  Dropping is
        applied only where the result is provably unchanged; see
        :mod:`repro.sim.scoreboard`.
    merge_filter:
        Optional predicate over candidate Phase-4 merges, forwarded to
        :func:`repro.core.combine.static_compact` (e.g. a peak-WTM
        budget from :func:`repro.power.constrain.wtm_budget_filter`).
    topoff_power_key:
        Optional Phase-3 power tie-break, forwarded to
        :func:`repro.core.topoff.top_off` (e.g. from
        :func:`repro.power.constrain.topoff_power_key`).  Both hooks
        default to ``None``, keeping the pipeline byte-identical to
        the paper reproduction.
    observer:
        Optional :class:`PhaseObserver` receiving phase-entry and
        phase-boundary callbacks (heartbeats and salvage).
    resume:
        Optional phase-boundary state dict as previously handed to
        ``observer.completed`` (plus a ``"phase"`` key: the furthest
        completed phase, 2 or 3).  Every completed phase is skipped
        and its committed artifacts restored -- including the
        scoreboard ledger via
        :meth:`~repro.sim.scoreboard.FaultScoreboard.restore` -- so
        the remaining phases produce byte-identical results without
        re-simulating.  With ``resume``, ``t0`` may be empty (its
        length is taken from the saved state).
    adi:
        Enable Accidental-Detection-Index guidance (Pomeranz & Reddy,
        arXiv:0710.4637): ``adi_scores`` are recorded on the
        scoreboard and used to (a) order fused-word fault packing,
        (b) tie-break the Phase-1 scan-in argmax toward candidates
        detecting more random-resistant faults, and (c) order Phase-3
        top-off targets.  Off (the default) keeps every result
        byte-identical to the paper reproduction; on, only orderings
        within the paper's freedom change.
    adi_scores:
        Fault index -> accidental-detection count, typically
        ``CombSetResult.adi`` from the random phase of combinational
        test generation.  Ignored unless ``adi`` is set.
    scoap_scores:
        Optional fault index -> SCOAP difficulty map (from
        :meth:`~repro.analysis.faultspace.FaultSpaceReport.
        difficulty_map`).  When given, the static difficulty becomes
        the pre-ADI tie-break in the Phase-1 scan-in argmax and the
        Phase-3 top-off order, and -- when ADI is off -- orders
        fused-word packing by *ascending* difficulty so the easy
        faults share words that saturate early.  ``None`` (the
        default) keeps every result byte-identical to the paper
        reproduction; set, only orderings within the paper's freedom
        change.

    Raises
    ------
    ValueError
        If ``t0`` (absent a resume state) or ``comb_tests`` is empty.
    """
    resume_phase = int(resume["phase"]) if resume else 0
    if not t0 and resume_phase < 2:
        raise ValueError("initial sequence T0 is empty")
    if not comb_tests:
        raise ValueError("combinational test set is empty")
    if target is None:
        target = set(range(len(sim.faults)))
    if max_iterations is None:
        max_iterations = len(comb_tests)
    if scoreboard is None:
        scoreboard = FaultScoreboard(len(sim.faults),
                                     counters=sim.counters)

    if adi and adi_scores:
        scoreboard.record_adi(adi_scores)
    adi_map: Optional[Dict[int, int]] = dict(scoreboard.adi) if adi else None
    timers = sim.counters
    t0_length = len(t0)

    # ADI packing order is simulator state; reset it on every exit so a
    # simulator shared across runs (bench arms, harness retries) never
    # leaks one run's ordering into the next.  Without ADI, SCOAP
    # difficulty orders the packing instead (negated: the packer groups
    # by descending score, and low difficulty = accidentally-easy =
    # saturates early, mirroring high ADI).
    pack_order = adi_map
    if pack_order is None and scoap_scores:
        pack_order = {f: -d for f, d in scoap_scores.items()}
    sim.set_adi_order(pack_order)
    try:

        if resume_phase >= 2:
            assert resume is not None
            tau = resume["tau"]
            tau_detected = set(resume["tau_detected"])
            t0_detected = set(resume["t0_detected"])
            t0_length = resume["t0_length"]
            logs = list(resume["iterations"])
            scoreboard.restore(resume["retired"])
        else:
            if observer is not None:
                observer.enter("phase1")
            selected = [False] * len(comb_tests)
            current: List[V.Vector] = [tuple(v) for v in t0]
            with timers.phase_timer("phase1"):
                t0_detected = detect_no_scan(sim, current, sorted(target))
            f0 = set(t0_detected)
            tau = None
            tau_detected = set()
            logs = []

            entered_phase2 = False
            for _ in range(max(1, max_iterations)):
                with timers.phase_timer("phase1"):
                    phase1 = run_phase1(sim, current, comb_tests, selected,
                                        target=target, f0=f0,
                                        scan_out_rule=scan_out_rule,
                                        adi=adi_map,
                                        scoap=scoap_scores)
                candidate = ScanTest(phase1.scan_in, phase1.vectors)
                if observer is not None and not entered_phase2:
                    entered_phase2 = True
                    observer.enter("phase2")
                with timers.phase_timer("phase2"):
                    omission = omit_vectors(sim, candidate, phase1.f_so,
                                            passes=omission_passes)
                logs.append(IterationLog(
                    scan_in_index=phase1.chosen_index,
                    u_so=phase1.u_so,
                    length_before=len(current),
                    length_after=omission.test.length,
                    detected_before=len(phase1.f_so),
                    detected_after=len(omission.detected),
                ))
                tau = omission.test
                tau_detected = omission.detected
                if phase1.chose_selected:
                    break
                selected[phase1.chosen_index] = True
                current = list(tau.vectors)
                # Next iteration's Step 1 runs on the new sequence.
                with timers.phase_timer("phase1"):
                    f0 = detect_no_scan(sim, current, sorted(target))

            assert tau is not None
            # tau_seq is committed now: retire its known detections (from
            # the omission pass over F_SO) so the full-target pass below
            # carries only the still-unknown faults in its injection word.
            scoreboard.retire(tau_detected & target)
            if observer is not None:
                observer.completed("phase2", {
                    "tau": tau,
                    "tau_detected": set(tau_detected),
                    "t0_detected": set(t0_detected),
                    "t0_length": t0_length,
                    "iterations": list(logs),
                    "retired": scoreboard.retired_snapshot(),
                })

        assert tau is not None
        if resume_phase >= 3:
            assert resume is not None
            test_set = resume["test_set"]
            seq_detected = set(resume["seq_detected"])
            final_detected = set(resume["final_detected"])
            added_tests = resume["added_tests"]
            uncovered = set(resume["uncovered"])
        else:
            if observer is not None:
                observer.enter("phase3")
            with timers.phase_timer("phase3"):
                # Full detection set of tau_seq over the target faults.
                seq_detected = scoreboard.retired_within(target)
                seq_detected |= sim.detect(list(tau.vectors), tau.scan_in,
                                           target=scoreboard.active(target),
                                           retire_to=scoreboard)

                undetected = target - seq_detected
                topoff = top_off(comb_sim, comb_tests, undetected,
                                 retire_to=scoreboard,
                                 power_key=topoff_power_key,
                                 adi=adi_map,
                                 counters=sim.counters,
                                 scoap=scoap_scores)
            n_sv = sim.n_state_vars
            test_set = ScanTestSet(n_sv, [tau] + list(topoff.tests))
            final_detected = seq_detected | topoff.covered
            added_tests = len(topoff.tests)
            uncovered = topoff.uncovered
            if observer is not None:
                observer.completed("phase3", {
                    "tau": tau,
                    "tau_detected": set(tau_detected),
                    "t0_detected": set(t0_detected),
                    "t0_length": t0_length,
                    "iterations": list(logs),
                    "retired": scoreboard.retired_snapshot(),
                    "test_set": test_set,
                    "seq_detected": set(seq_detected),
                    "final_detected": set(final_detected),
                    "added_tests": added_tests,
                    "uncovered": set(uncovered),
                })

        compacted = None
        combine_stats = None
        if run_phase4:
            if observer is not None:
                observer.enter("phase4")
            # Phase 4 needs exact per-test detection sets; the only sound
            # cross-phase saving is seeding tau_seq's set, which Phase 1+2
            # already computed over the full target.
            with timers.phase_timer("phase4"):
                outcome = static_compact(sim, test_set, target=target,
                                         known_detections={tau: seq_detected},
                                         retire_to=scoreboard,
                                         merge_filter=merge_filter)
            compacted = outcome.test_set
            combine_stats = outcome.stats

        if sanitizer.enabled():
            # Soundness of cross-phase dropping: everything the scoreboard
            # retired over this run must be in the final detected set.
            sanitizer.check_retired_subset(scoreboard.retired_within(target),
                                           final_detected, "proposed.run")

        return ProposedResult(
            tau_seq=tau,
            test_set=test_set,
            compacted_set=compacted,
            t0_length=t0_length,
            t0_detected=t0_detected,
            seq_detected=seq_detected,
            final_detected=final_detected,
            added_tests=added_tests,
            uncovered=uncovered,
            iterations=logs,
            combine_stats=combine_stats,
        )
    finally:
        sim.set_adi_order(None)
