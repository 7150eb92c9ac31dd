"""High-level convenience API.

These wrappers bundle the common setup (compile the circuit, collapse
the fault list, build the simulators, generate the combinational set)
so a downstream user can go from a netlist to a compacted scan test set
in one call.  Power users compose the pieces from :mod:`repro.core`,
:mod:`repro.sim` and :mod:`repro.atpg` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from .analysis.diagnostics import Diagnostic
from .analysis.faultspace import FaultSpaceReport
from .atpg import comb_set as comb_set_mod
from .atpg import random_gen, seqgen
from .atpg.comb_set import CombSetResult, CombTest
from .circuits.netlist import Netlist
from .core.combine import CombineResult, static_compact
from .core.dynamic import DynamicResult, dynamic_compact
from .core.proposed import (PhaseObserver, ProposedResult,
                            run as run_proposed)
from .core.scan_test import ScanTestSet, single_vector_test
from .delay.clocking import ClockSpec, DelayReport
from .delay.clocking import measure_delay as _measure_delay_sets
from .delay.transition import TransitionSim
from .sim import values as V
from .sim.comb_sim import CombPatternSim
from .sim.counters import SimCounters
from .sim.fault_sim import FaultSimulator
from .sim.faults import FaultSet
from .sim.logicsim import CompiledCircuit


@dataclass
class Workbench:
    """Compiled circuit + fault set + simulators, built once."""

    netlist: Netlist
    circuit: CompiledCircuit
    faults: FaultSet
    sim: FaultSimulator
    comb_sim: CombPatternSim
    #: Structural lint findings for the netlist (populated when the
    #: workbench is built with ``lint=True``); see :mod:`repro.analysis`.
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: The static fault-space report (populated unless the workbench
    #: was built with ``static_analysis=False``); see
    #: :mod:`repro.analysis.faultspace`.
    faultspace: Optional[FaultSpaceReport] = None

    @property
    def counters(self) -> SimCounters:
        """The simulators' shared instrumentation counters."""
        return self.sim.counters

    @property
    def n_untestable(self) -> int:
        """Proven-untestable faults in this workbench's target set."""
        if self.faultspace is None:
            return 0
        return len(self.faultspace.untestable_indices(self.faults))

    def scoap_difficulty(self) -> Dict[int, int]:
        """Fault index -> SCOAP difficulty over the target set.

        Empty when the workbench was built without static analysis
        (callers treat the empty map as "no ordering hint").
        """
        if self.faultspace is None:
            return {}
        return self.faultspace.difficulty_map(self.faults)

    @classmethod
    def for_netlist(cls, netlist: Netlist, lint: bool = False,
                    static_analysis: bool = True) -> "Workbench":
        """Build the standard toolchain for one circuit.

        Fault-simulation passes run on the C kernel when numpy, cffi
        and a C compiler are present, and on big-int words otherwise;
        results are the same either way (see
        :attr:`repro.sim.logicsim.CompiledCircuit.array_backend`).

        Parameters
        ----------
        netlist:
            The circuit.
        lint:
            Run the structural netlist lint first and carry its
            findings in :attr:`diagnostics`.  Only the cheap
            structural rules run (no X-initializability analysis);
            use :func:`repro.analysis.lint_netlist` directly for the
            full pass.
        static_analysis:
            Run the static fault-space pass
            (:func:`repro.analysis.faultspace.analyze_faultspace`),
            carry the report in :attr:`faultspace`, and exclude the
            proven-untestable faults from both simulators.  Provably
            result-identical -- a proven-untestable fault appears in
            no detection set, so only the machine-bit counters move.
            ``False`` skips the pass (the benchmark baseline arm).
        """
        diagnostics: List[Diagnostic] = []
        if lint:
            from .analysis.rules import lint_netlist
            diagnostics = list(lint_netlist(netlist, xinit=False).diagnostics)
        circuit = CompiledCircuit(netlist)
        faults = FaultSet.collapsed(netlist)
        counters = SimCounters()
        sim = FaultSimulator(circuit, faults, counters=counters)
        comb_sim = CombPatternSim(circuit, faults, counters=counters)
        faultspace: Optional[FaultSpaceReport] = None
        if static_analysis:
            from .analysis.faultspace import analyze_faultspace
            faultspace = analyze_faultspace(netlist)
            untestable = faultspace.untestable_indices(faults)
            if untestable:
                sim.set_untestable(sorted(untestable))
                comb_sim.set_untestable(sorted(untestable))
        return cls(
            netlist=netlist,
            circuit=circuit,
            faults=faults,
            sim=sim,
            comb_sim=comb_sim,
            diagnostics=diagnostics,
            faultspace=faultspace,
        )


def generate_comb_set(netlist: Netlist, seed: int = 0,
                      workbench: Optional[Workbench] = None,
                      **kwargs) -> CombSetResult:
    """Generate the combinational test set ``C`` for a circuit.

    Keyword arguments are forwarded to
    :func:`repro.atpg.comb_set.generate`.
    """
    wb = workbench or Workbench.for_netlist(netlist)
    return comb_set_mod.generate(wb.circuit, wb.faults, seed=seed, **kwargs)


def compact_tests(
    netlist: Netlist,
    seed: int = 0,
    t0_source: str = "seqgen",
    t0_length: int = 500,
    t0: Optional[Sequence[V.Vector]] = None,
    comb_tests: Optional[Sequence[CombTest]] = None,
    run_phase4: bool = True,
    workbench: Optional[Workbench] = None,
    x_fill: str = "random",
    power_budget: Optional[float] = None,
    observer: Optional[PhaseObserver] = None,
    resume: Optional[Dict[str, Any]] = None,
    adi: bool = False,
    adi_scores: Optional[Dict[int, int]] = None,
    scoap: bool = False,
) -> ProposedResult:
    """Run the paper's proposed procedure on a circuit.

    Parameters
    ----------
    netlist:
        The full-scan circuit.
    seed:
        Master seed for all randomized stages.
    t0_source:
        ``"seqgen"`` (sequential-ATPG-like generator, the [10]/[12]
        arm) or ``"random"`` (the Table-5 arm).  Ignored when ``t0``
        is given.
    t0_length:
        Length budget for the initial sequence.
    t0:
        An explicit initial sequence (overrides ``t0_source``).
    comb_tests:
        An explicit combinational test set; generated when omitted.
    run_phase4:
        Apply the [4] static compaction at the end.
    x_fill:
        Don't-care fill strategy for the ATPG stages (see
        :func:`repro.sim.values.fill_x`); ``"random"`` (the default)
        keeps every output byte-identical to the plain reproduction.
        Ignored for the parts the caller supplies explicitly
        (``t0=``, ``comb_tests=``).
    power_budget:
        Optional peak shift-WTM cap.  When set, Phase 4 refuses
        merges over the budget and Phase 3 breaks ties toward
        lower-power tests (see :mod:`repro.power.constrain`); fault
        coverage is never sacrificed.
    observer, resume:
        Phase-boundary hooks and salvaged resume state, forwarded to
        :func:`repro.core.proposed.run`.  When ``resume`` names a
        completed Phase 2 (or later), ``T0`` generation is skipped
        entirely -- the salvaged state already embodies it.
    adi:
        Enable Accidental-Detection-Index guidance: the random phase
        of combinational test generation doubles as the ADI census
        (arXiv:0710.4637) and its scores order Phase-1/3 choices and
        fused-word packing.  Off (the default) keeps every output
        byte-identical.  When this call generates the combinational
        set itself the census comes for free; with an explicit
        ``comb_tests=`` pass the matching ``adi_scores`` (e.g.
        ``CombSetResult.adi``) alongside, else ADI degrades to the
        all-zero map (orderings fall back to their plain tie-breaks).
    adi_scores:
        Explicit fault index -> accidental-detection count map; only
        consulted when ``adi`` is set and overrides the census of a
        locally generated set.
    scoap:
        Enable SCOAP testability guidance: the workbench's static
        fault-space report supplies a per-fault difficulty map
        (:meth:`Workbench.scoap_difficulty`) that breaks Phase-1 and
        Phase-3 ordering ties toward statically-hard faults and, when
        ADI is off, orders fused-word packing.  Off (the default)
        keeps every output byte-identical.  Requires a workbench with
        static analysis (the default); degrades to a no-op without
        one.

    Raises
    ------
    ValueError
        On an unknown ``t0_source`` or X-fill strategy.
    """
    wb = workbench or Workbench.for_netlist(netlist)
    resume_phase = int(resume["phase"]) if resume else 0
    if comb_tests is None:
        comb_result = generate_comb_set(netlist, seed=seed,
                                        workbench=wb,
                                        x_fill=x_fill)
        comb_tests = comb_result.tests
        if adi and adi_scores is None:
            adi_scores = comb_result.adi
    if t0 is None:
        if resume_phase >= 2:
            t0 = ()
        elif t0_source == "seqgen":
            hints = [t.pi for t in comb_tests]
            t0 = seqgen.generate_sequence(
                wb.circuit, wb.faults, max_length=t0_length, seed=seed,
                hints=hints, targeted=True, x_fill=x_fill).sequence
        elif t0_source == "random":
            t0 = random_gen.random_sequence(wb.circuit, t0_length,
                                            seed=seed)
        else:
            raise ValueError(
                f"unknown t0_source {t0_source!r}; "
                f"use 'seqgen', 'random' or pass t0=")
    merge_filter = None
    power_key = None
    if power_budget is not None:
        from .power import constrain
        from .power.activity import ActivityEngine
        engine = ActivityEngine(wb.circuit, wb.counters)
        merge_filter = constrain.wtm_budget_filter(engine, power_budget)
        power_key = constrain.topoff_power_key(engine, comb_tests)
    scoap_scores = (wb.scoap_difficulty() or None) if scoap else None
    return run_proposed(wb.sim, wb.comb_sim, t0, comb_tests,
                        run_phase4=run_phase4,
                        merge_filter=merge_filter,
                        topoff_power_key=power_key,
                        observer=observer, resume=resume,
                        adi=adi, adi_scores=adi_scores,
                        scoap_scores=scoap_scores)


def baseline_static(
    netlist: Netlist,
    seed: int = 0,
    comb_tests: Optional[Sequence[CombTest]] = None,
    workbench: Optional[Workbench] = None,
    x_fill: str = "random",
    power_budget: Optional[float] = None,
) -> CombineResult:
    """The [4] baseline: combine a single-vector-per-test initial set.

    The initial set is the scan equivalent of the combinational test
    set (each test is ``(c_js, (c_ji))``), exactly the starting point
    [4] used.  The returned
    :attr:`~repro.core.combine.CombineStats.initial_cycles` /
    ``final_cycles`` are the paper's Table-3 ``[4] init`` / ``comp``.

    ``x_fill`` / ``power_budget`` mirror :func:`compact_tests`: the
    fill strategy shapes the generated combinational set (ignored
    when ``comb_tests`` is given) and the budget caps the peak shift
    WTM of every merged test.
    """
    wb = workbench or Workbench.for_netlist(netlist)
    if comb_tests is None:
        comb_tests = generate_comb_set(netlist, seed=seed,
                                       workbench=wb,
                                       x_fill=x_fill).tests
    initial = ScanTestSet(
        len(wb.circuit.ff_ids),
        [single_vector_test(t.state, t.pi) for t in comb_tests])
    merge_filter = None
    if power_budget is not None:
        from .power import constrain
        from .power.activity import ActivityEngine
        engine = ActivityEngine(wb.circuit, wb.counters)
        merge_filter = constrain.wtm_budget_filter(engine, power_budget)
    return static_compact(wb.sim, initial, merge_filter=merge_filter)


def measure_delay(
    netlist: Netlist,
    sets: Dict[str, ScanTestSet],
    spec: Optional[ClockSpec] = None,
    workbench: Optional[Workbench] = None,
) -> DelayReport:
    """Measure the at-speed quality of one or more final test sets.

    For every labeled :class:`~repro.core.scan_test.ScanTestSet` this
    runs the transition-fault simulator
    (:class:`repro.delay.transition.TransitionSim`) over the full
    launch-on-capture TDF list and prices the set under the test-clock
    model of :mod:`repro.delay.clocking`.  The labels become the keys
    of :attr:`~repro.delay.clocking.DelayReport.sets`, so the natural
    call compares the proposed procedure's output against a baseline::

        report = measure_delay(netlist, {
            "seqgen": proposed.compacted_set,
            "baseline4": combined.test_set,
        })

    Parameters
    ----------
    netlist:
        The full-scan circuit.
    sets:
        Label -> final test set to grade.  All sets are simulated with
        one shared simulator, so per-set numbers are comparable.
    spec:
        Test-clock scheme parameters; defaults to the paper-default
        :class:`~repro.delay.clocking.ClockSpec`.
    workbench:
        Reuse an existing toolchain (its counters absorb the
        ``tdf_*`` instrumentation); built fresh when omitted.
    """
    wb = workbench or Workbench.for_netlist(netlist)
    tsim = TransitionSim(wb.circuit, counters=wb.counters)
    return _measure_delay_sets(tsim, sets, spec=spec)


def baseline_dynamic(
    netlist: Netlist,
    seed: int = 0,
    comb_tests: Optional[Sequence[CombTest]] = None,
    workbench: Optional[Workbench] = None,
) -> DynamicResult:
    """The [2,3]-style dynamic compaction baseline."""
    wb = workbench or Workbench.for_netlist(netlist)
    if comb_tests is None:
        comb_tests = generate_comb_set(netlist, seed=seed,
                                       workbench=wb).tests
    return dynamic_compact(wb.sim, wb.comb_sim, comb_tests, seed=seed)
