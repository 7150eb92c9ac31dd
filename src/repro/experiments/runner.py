"""Per-circuit experiment runner.

One :class:`CircuitRun` gathers everything the paper's five tables need
for one circuit: the combinational test set, both arms of the proposed
procedure (sequential-generator ``T0`` and random ``T0``), the [4]
static baseline, the [2,3]-style dynamic baseline, and (optionally)
transition-fault coverage of the final test sets.

Runs are deterministic for a given profile + seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import api
from ..atpg import comb_set as comb_set_mod
from ..atpg import random_gen, seqgen
from ..circuits.suite import CircuitProfile, suite
from ..core.combine import CombineResult
from ..core.dynamic import DynamicResult
from ..core.proposed import ProposedResult
from ..core.scan_test import ScanTestSet
from ..delay.clocking import DelayReport, measure_delay
from ..delay.transition import TransitionSim
from ..power.activity import ActivityEngine, PowerReport


@dataclass
class ArmResult:
    """One arm (T0 source) of the proposed procedure."""

    t0_source: str
    t0_length: int
    result: ProposedResult
    seconds: float


@dataclass
class CircuitRun:
    """All measurements for one suite circuit."""

    profile: CircuitProfile
    n_ffs: int
    n_gates: int
    n_faults: int
    n_detectable: int
    comb_tests: int
    arms: Dict[str, ArmResult]
    baseline4: Optional[CombineResult]
    dynamic: Optional[DynamicResult]
    #: Transition-fault coverage (%) per final test set, kept as a
    #: flat dict for the at-speed coverage table and for legacy
    #: checkpoints; :attr:`delay` carries the full report.
    transition: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    #: Engine instrumentation (``SimCounters.as_dict()`` of the
    #: sequential simulator, summed over everything this run did).
    counters: Dict[str, Any] = field(default_factory=dict)
    #: Structural lint findings for the circuit, as
    #: ``Diagnostic.to_dict()`` dicts (JSON-able; see
    #: :mod:`repro.analysis.diagnostics`).  Empty for clean circuits
    #: and for runs restored from pre-analyzer checkpoints.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    #: Power measurements of the final test sets (``None`` for runs
    #: restored from pre-power checkpoints); see
    #: :class:`repro.power.activity.PowerReport`.
    power: Optional[PowerReport] = None
    #: At-speed quality of the final test sets: TDF coverage plus the
    #: test-clock cycle budget (``None`` unless the run was produced
    #: with ``delay=True``); see
    #: :class:`repro.delay.clocking.DelayReport`.
    delay: Optional[DelayReport] = None
    #: The knobs this run was produced under (the result-shaping
    #: :data:`repro.experiments.harness.RESULT_KNOBS` plus ``delay``).
    #: The harness compares these against a resumed job's spec so a
    #: checkpoint written under different knobs is recomputed, not
    #: reused.  Empty for runs restored from pre-knob checkpoints;
    #: older checkpoints may also carry since-removed simulation
    #: knobs, which are ignored.
    knobs: Dict[str, Any] = field(default_factory=dict)
    #: Faults the static fault-space analyzer *proved* untestable
    #: (constant lines, unobservable cones, const-blocked paths; see
    #: :mod:`repro.analysis.faultspace`).  These are excluded from
    #: simulation and can never count against coverage.  Zero for runs
    #: restored from pre-analyzer checkpoints.
    n_untestable: int = 0

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def lint_rules(self) -> List[str]:
        """Unique rule ids among :attr:`diagnostics`, in pass order."""
        seen: List[str] = []
        for d in self.diagnostics:
            rule = str(d.get("rule", ""))
            if rule and rule not in seen:
                seen.append(rule)
        return seen


def run_circuit(
    profile: CircuitProfile,
    seed: int = 1,
    arms: Sequence[str] = ("seqgen", "random"),
    with_baselines: bool = True,
    delay: bool = False,
    x_fill: str = "random",
    power_budget: Optional[float] = None,
    adi: bool = False,
    scoap: bool = False,
    hooks: Optional[Any] = None,
) -> CircuitRun:
    """Run every experiment on one circuit.

    Parameters
    ----------
    profile:
        Suite profile (carries the circuit builder and budgets).
    seed:
        Master seed.
    arms:
        Which ``T0`` sources to run ("seqgen" and/or "random").
    with_baselines:
        Also run the [4] and [2,3] baselines.
    delay:
        Also measure at-speed quality of the final test sets:
        transition-fault coverage (wide-word route when available)
        plus the test-clock cycle budget, recorded as
        :attr:`CircuitRun.delay` (and, flattened, in
        :attr:`CircuitRun.transition`).
    x_fill, power_budget:
        Don't-care fill strategy and optional peak shift-WTM budget,
        forwarded to :func:`repro.api.compact_tests` /
        :func:`repro.api.baseline_static`.  The power of every final
        test set is measured regardless (it is cheap) and recorded in
        :attr:`CircuitRun.power`.
    adi:
        The Accidental-Detection-Index ordering switch, forwarded to
        :func:`repro.api.compact_tests` with the comb-set ADI census.
        Off (the default) keeps the run byte-identical to prior
        versions.
    scoap:
        SCOAP testability-ordering switch, forwarded to
        :func:`repro.api.compact_tests`: the static difficulty map
        breaks Phase-1/Phase-3 ordering ties toward hard faults.  Off
        (the default) keeps the run byte-identical.
    hooks:
        Optional :class:`repro.experiments.supervision.WorkerHooks`:
        heartbeat updates and phase-scoped chaos.
    """
    started = time.time()
    netlist = profile.build()
    wb = api.Workbench.for_netlist(netlist, lint=True)
    comb = comb_set_mod.generate(wb.circuit, wb.faults, seed=seed,
                                 x_fill=x_fill)
    if hooks is not None:
        hooks.bind_counters(wb.counters, len(wb.faults))

    arm_results: Dict[str, ArmResult] = {}
    for source in arms:
        t0_started = time.time()
        if source == "seqgen":
            length = profile.seq_budget
        elif source == "random":
            length = profile.t0_length
        else:
            raise ValueError(f"unknown arm {source!r}")
        observer = None
        if hooks is not None:
            observer = hooks.arm_observer(source)
        result = api.compact_tests(
            netlist, seed=seed, t0_source=source, t0_length=length,
            comb_tests=comb.tests, workbench=wb,
            x_fill=x_fill, power_budget=power_budget,
            observer=observer, adi=adi,
            adi_scores=comb.adi if adi else None,
            scoap=scoap)
        arm_results[source] = ArmResult(
            t0_source=source, t0_length=length, result=result,
            seconds=time.time() - t0_started)
        if hooks is not None:
            hooks.arm_completed(source)

    baseline4 = None
    dynamic = None
    if with_baselines:
        baseline4 = api.baseline_static(netlist, seed=seed,
                                        comb_tests=comb.tests,
                                        workbench=wb,
                                        power_budget=power_budget)
        dynamic = api.baseline_dynamic(netlist, seed=seed,
                                       comb_tests=comb.tests,
                                       workbench=wb)

    power_engine = ActivityEngine(wb.circuit, wb.counters)
    power = PowerReport(x_fill=x_fill, budget=power_budget)
    for source, arm in arm_results.items():
        final = arm.result.compacted_set or arm.result.test_set
        power.sets[source] = power_engine.set_power(final).summary()
    if baseline4 is not None:
        power.sets["baseline4"] = power_engine.set_power(
            baseline4.test_set).summary()

    transition: Dict[str, float] = {}
    delay_report: Optional[DelayReport] = None
    if delay:
        tsim = TransitionSim(wb.circuit, counters=wb.counters)
        sets: Dict[str, ScanTestSet] = {}
        if baseline4 is not None:
            sets["baseline4"] = baseline4.test_set
        for source, arm in arm_results.items():
            sets[source] = arm.result.compacted_set or \
                arm.result.test_set
        delay_report = measure_delay(tsim, sets)
        for label, summary in delay_report.sets.items():
            transition[label] = summary.coverage

    return CircuitRun(
        profile=profile,
        n_ffs=netlist.num_ffs,
        n_gates=netlist.num_gates,
        n_faults=len(wb.faults),
        n_detectable=len(comb.detectable),
        comb_tests=len(comb.tests),
        arms=arm_results,
        baseline4=baseline4,
        dynamic=dynamic,
        transition=transition,
        seconds=time.time() - started,
        counters=wb.counters.as_dict(),
        diagnostics=[d.to_dict() for d in wb.diagnostics],
        power=power,
        delay=delay_report,
        knobs={
            "x_fill": x_fill,
            "power_budget": power_budget,
            "adi": adi,
            "scoap": scoap,
            "delay": delay,
        },
        n_untestable=wb.n_untestable,
    )


def run_circuit_by_name(
    name: str,
    seed: int = 1,
    arms: Sequence[str] = ("seqgen", "random"),
    with_baselines: bool = True,
    delay: bool = False,
    x_fill: str = "random",
    power_budget: Optional[float] = None,
    adi: bool = False,
    scoap: bool = False,
    hooks: Optional[Any] = None,
) -> CircuitRun:
    """:func:`run_circuit` on a suite circuit looked up by name.

    This is the entry point the resilient harness's worker subprocess
    uses: a name travels across the ``spawn`` boundary where a profile
    (whose builder is a closure) cannot.

    Raises
    ------
    KeyError
        If ``name`` is not a suite circuit.
    """
    from ..circuits.suite import profile as lookup
    return run_circuit(lookup(name), seed=seed, arms=arms,
                       with_baselines=with_baselines,
                       delay=delay, x_fill=x_fill,
                       power_budget=power_budget, adi=adi, scoap=scoap,
                       hooks=hooks)


def resolve_profiles(
    profiles: Optional[Sequence[CircuitProfile]] = None,
    quick: bool = True,
) -> List[CircuitProfile]:
    """The explicit profile list, or the quick/full suite default."""
    if profiles is None:
        return suite(quick=quick)
    return list(profiles)


def run_suite(
    profiles: Optional[Sequence[CircuitProfile]] = None,
    quick: bool = True,
    seed: int = 1,
    arms: Sequence[str] = ("seqgen", "random"),
    with_baselines: bool = True,
    delay: bool = False,
    x_fill: str = "random",
    power_budget: Optional[float] = None,
    adi: bool = False,
    scoap: bool = False,
    verbose: bool = False,
) -> List[CircuitRun]:
    """Run the whole suite serially, in process.

    This is the simple path: one crash or hang voids the whole run.
    Long campaigns should prefer
    :func:`repro.experiments.harness.run_suite_resilient`, which adds
    worker isolation, timeouts, retries and checkpoint-resume.

    See :func:`run_circuit` for the knobs.
    """
    profiles = resolve_profiles(profiles, quick=quick)
    runs = []
    for profile in profiles:
        run = run_circuit(profile, seed=seed, arms=arms,
                          with_baselines=with_baselines,
                          delay=delay, x_fill=x_fill,
                          power_budget=power_budget, adi=adi,
                          scoap=scoap)
        if verbose:  # pragma: no cover - console feedback only
            print(f"  {profile.name}: {run.seconds:.1f}s")
        runs.append(run)
    return runs
