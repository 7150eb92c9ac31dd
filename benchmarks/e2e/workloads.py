"""The benchmark's four workloads: inputs, the timed pass, its checks.

Every pass calls the program's public API with no engine, width, route
or trial-batch argument, so it measures the configuration users get by
default.  A pass is a list of operations (one per job or stage call);
each workload says how many it plans so that failures count against
the number attempted.

The work of a pass does not depend on the benchmark's seed.  The cost
of the paper pipeline swings about 2x between algorithm seeds on one
circuit (Phase 2 took 1.5-2.9 s over seeds 1-10 on b01), and its
quality metrics move by up to 8%, far wider than a usable regression
bound.  So every job runs at a fixed algorithm seed and the graded
tests come from a fixed pool; the benchmark's seed only sets the order
in which ``bench1k-grade`` grades its tests.  Quality metrics are then
the same on every seed, and a pass's time tracks the code, not the
draw.  (Job order is not drawn: on ``small-circuits`` it moved peak
memory by 3.6%.)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple, Union

from repro import api
from repro.atpg import seqgen
from repro.circuits import suite, synth
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.delay.transition import TransitionSim
from repro.experiments import runner
from repro.power.activity import ActivityEngine
from repro.sim import values as V
from repro.sim.logicsim import CompiledCircuit

#: Synthetic circuits as ``synth.generate`` arguments; a suite name
#: stands for that suite circuit.
Circuit = Union[str, Tuple[Any, ...]]
ATPG_CIRCUIT: Circuit = ("bench500", 12, 10, 14, 150, 7)
GRADE_CIRCUIT: Circuit = ("bench1k", 12, 10, 28, 330, 7)
#: Algorithm seed of every job: the program's default.
JOB_SEED = 1
#: ``small-circuits`` runs each circuit at algorithm seeds 1..SMALL_JOBS.
SMALL_JOBS = 8
#: Graded tests, drawn with ``GRADE_POOL_SEED``; their lengths are
#: 1..64 repeated.
GRADE_TESTS = 192
SMOKE_GRADE_TESTS = 50
GRADE_POOL_SEED = 1

QUALITY = ("test_cycles", "tdf_detected")


class Ops:
    """Calls one operation and counts it once it returns."""

    def __init__(self) -> None:
        self.done = 0

    def __call__(self, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        self.done += 1
        return result


@dataclass
class Outcome:
    """What one pass produced.

    ``record`` is the JSON form of every final set and detection; its
    digest must repeat exactly.  ``check`` re-derives the results
    independently and returns the problems it found.
    """

    quality: Dict[str, int]
    record: Any
    counters: Dict[str, float]
    check: Callable[[], List[str]]

    def digest(self) -> str:
        text = json.dumps(self.record, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Ops], Outcome]
    n_ops: Callable[[Dict[str, Any]], int]


# ----------------------------------------------------------------------
# Helpers shared by the workloads and their checks
# ----------------------------------------------------------------------


def _build(circuit: Circuit) -> Any:
    if isinstance(circuit, str):
        return suite.profile(circuit).build()
    return synth.generate(*circuit)


def _set_json(test_set: ScanTestSet) -> List[Any]:
    return [[list(t.scan_in), [list(v) for v in t.vectors]]
            for t in test_set]


def _paper_cycles(test_set: ScanTestSet) -> int:
    """``N_cyc = (k+1)·N_SV + ΣL(T_i)``, computed here from scratch."""
    k = len(test_set.tests)
    if not k:
        return 0
    return (k + 1) * test_set.n_state_vars + sum(
        len(t.vectors) for t in test_set.tests)


def _add_counters(total: Dict[str, float], counters: Any) -> None:
    for key, value in dict(counters).items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


def _resimulate(wb: Any, test_set: ScanTestSet) -> Set[int]:
    """Stuck-at faults detected, one test at a time, no early exit."""
    found: Set[int] = set()
    for test in test_set:
        found |= wb.sim.detect(list(test.vectors), test.scan_in,
                               early_exit=False)
    return found


def _regrade(circuit: Any, test_set: ScanTestSet) -> Set[int]:
    """Transition faults detected, one test at a time, fresh simulator."""
    tsim = TransitionSim(circuit)
    found: Set[int] = set()
    for test in test_set:
        found |= tsim.detect_test(test)
    return found


def _check_set(label: str, wb: Any, test_set: ScanTestSet,
               reported: Set[int], summary: Any = None) -> List[str]:
    """Re-simulate a final set; compare detections and clock cycles."""
    problems = []
    found = _resimulate(wb, test_set)
    if found != set(reported):
        problems.append(
            f"{label}: per-test re-simulation detects {len(found)} "
            f"faults, the run reported {len(reported)} "
            f"({len(found ^ set(reported))} differ)")
    cycles = _paper_cycles(test_set)
    if cycles != test_set.clock_cycles():
        problems.append(f"{label}: N_cyc {test_set.clock_cycles()} != "
                        f"paper formula {cycles}")
    if summary is not None:
        if summary.total_cycles != cycles:
            problems.append(f"{label}: delay report N_cyc "
                            f"{summary.total_cycles} != {cycles}")
        regraded = len(_regrade(wb.circuit, test_set))
        if regraded != summary.detected:
            problems.append(f"{label}: per-test TDF re-grade detects "
                            f"{regraded}, the report says "
                            f"{summary.detected}")
    return problems


# ----------------------------------------------------------------------
# Pipeline workloads: run_circuit jobs
# ----------------------------------------------------------------------


def _final(result: Any) -> ScanTestSet:
    return result.compacted_set or result.test_set


def _run_json(run: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"arms": {}}
    for source, arm in run.arms.items():
        out["arms"][source] = {
            "set": _set_json(_final(arm.result)),
            "detected": sorted(arm.result.final_detected)}
    for label in ("baseline4", "dynamic"):
        base = getattr(run, label)
        out[label] = {"set": _set_json(base.test_set),
                      "detected": sorted(base.detected)}
    out["delay"] = run.delay.as_dict()
    out["power"] = run.power.as_dict()
    return out


def _check_runs(jobs: Sequence[Tuple[str, int]],
                runs: Sequence[Any]) -> List[str]:
    problems: List[str] = []
    for (name, seed), run in zip(jobs, runs):
        wb = api.Workbench.for_netlist(suite.profile(name).build())
        where = f"{name}@{seed}"
        for source, arm in run.arms.items():
            final = _final(arm.result)
            problems += _check_set(f"{where} {source}", wb, final,
                                   arm.result.final_detected,
                                   run.delay.sets[source])
            if len(arm.result.final_detected) != run.n_detectable:
                problems.append(
                    f"{where} {source}: detects "
                    f"{len(arm.result.final_detected)} faults, "
                    f"{run.n_detectable} are detectable")
        problems += _check_set(f"{where} baseline4", wb,
                               run.baseline4.test_set,
                               run.baseline4.detected,
                               run.delay.sets["baseline4"])
        problems += _check_set(f"{where} dynamic", wb,
                               run.dynamic.test_set, run.dynamic.detected)
    return problems


def _run_jobs(inputs: Dict[str, Any], ops: Ops) -> Outcome:
    jobs = inputs["jobs"]
    runs = [ops(runner.run_circuit, suite.profile(name), seed=seed,
                delay=True)
            for name, seed in jobs]
    quality = dict.fromkeys(QUALITY, 0)
    counters: Dict[str, float] = {}
    for run in runs:
        for source, arm in run.arms.items():
            final = _final(arm.result)
            quality["test_cycles"] += final.clock_cycles()
            quality["tdf_detected"] += run.delay.sets[source].detected
        _add_counters(counters, run.counters)
    record = [[name, seed, _run_json(run)]
              for (name, seed), run in zip(jobs, runs)]
    return Outcome(quality, record, counters,
                   lambda: _check_runs(jobs, runs))


def _small_inputs(seed: int, smoke: bool) -> Dict[str, Any]:
    if smoke:
        return {"jobs": [("s27", JOB_SEED)]}
    return {"jobs": [(name, job_seed) for name in ("s27", "b02")
                     for job_seed in range(1, SMALL_JOBS + 1)]}


def _b01_inputs(seed: int, smoke: bool) -> Dict[str, Any]:
    return {"jobs": [("s27" if smoke else "b01", JOB_SEED)]}


# ----------------------------------------------------------------------
# bench500-atpg: test generation and the two baselines
# ----------------------------------------------------------------------


def _atpg_inputs(seed: int, smoke: bool) -> Dict[str, Any]:
    return {"circuit": "s27" if smoke else ATPG_CIRCUIT, "seed": JOB_SEED}


def _atpg(inputs: Dict[str, Any], ops: Ops) -> Outcome:
    seed = inputs["seed"]
    net = ops(_build, inputs["circuit"])
    wb = ops(api.Workbench.for_netlist, net)
    comb = ops(api.generate_comb_set, net, seed=seed, workbench=wb)
    seq = ops(seqgen.generate_sequence, wb.circuit, wb.faults,
              max_length=200, seed=seed, targeted=True,
              hints=[t.pi for t in comb.tests])
    static = ops(api.baseline_static, net, seed=seed,
                 comb_tests=comb.tests, workbench=wb)
    dynamic = ops(api.baseline_dynamic, net, seed=seed,
                  comb_tests=comb.tests, workbench=wb)
    sets = {"baseline4": static.test_set, "dynamic": dynamic.test_set}
    delay = ops(api.measure_delay, net, sets, workbench=wb)

    quality = {
        "test_cycles": sum(s.clock_cycles() for s in sets.values()),
        "tdf_detected": sum(s.detected for s in delay.sets.values()),
    }
    record = {
        "comb": [[list(t.state), list(t.pi)] for t in comb.tests],
        "comb_detected": sorted(comb.detected),
        "seqgen": [list(v) for v in seq.sequence],
        "seqgen_detected": sorted(seq.detected),
        "baseline4": {"set": _set_json(static.test_set),
                      "detected": sorted(static.detected)},
        "dynamic": {"set": _set_json(dynamic.test_set),
                    "detected": sorted(dynamic.detected)},
        "delay": delay.as_dict(),
    }

    def check() -> List[str]:
        fresh = api.Workbench.for_netlist(_build(inputs["circuit"]))
        problems = _check_set("baseline4", fresh, static.test_set,
                              static.detected, delay.sets["baseline4"])
        problems += _check_set("dynamic", fresh, dynamic.test_set,
                               dynamic.detected, delay.sets["dynamic"])
        if set(static.detected) != comb.detectable:
            problems.append(
                f"baseline4 detects {len(static.detected)} faults, the "
                f"combinational set {len(comb.detectable)}")
        covered = set(dynamic.detected) | set(dynamic.uncovered)
        if not comb.detectable <= covered:
            problems.append("dynamic: detectable faults neither detected "
                            "nor reported uncovered")
        no_scan = fresh.sim.detect(list(seq.sequence), None,
                                   scan_out=False, early_exit=False)
        if no_scan != set(seq.detected):
            problems.append(f"seqgen: re-simulation detects "
                            f"{len(no_scan)}, generator reported "
                            f"{len(seq.detected)}")
        return problems

    return Outcome(quality, record, dict(wb.counters.as_dict()), check)


# ----------------------------------------------------------------------
# bench1k-grade: transition-fault grading and power of random tests
# ----------------------------------------------------------------------


def _grade_inputs(seed: int, smoke: bool) -> Dict[str, Any]:
    circuit = "s27" if smoke else GRADE_CIRCUIT
    n_tests = SMOKE_GRADE_TESTS if smoke else GRADE_TESTS
    net = _build(circuit)
    rng = random.Random(GRADE_POOL_SEED)
    lengths = [1 + i % 64 for i in range(n_tests)]
    rng.shuffle(lengths)
    tests = [ScanTest(V.random_binary_vector(net.num_ffs, rng),
                      tuple(V.random_binary_vector(net.num_inputs, rng)
                            for _ in range(length)))
             for length in lengths]
    random.Random(seed).shuffle(tests)
    return {"netlist": net, "tests": ScanTestSet(net.num_ffs, tests)}


def _grade(inputs: Dict[str, Any], ops: Ops) -> Outcome:
    net, tests = inputs["netlist"], inputs["tests"]
    wb = ops(api.Workbench.for_netlist, net)
    delay = ops(api.measure_delay, net, {"grade": tests}, workbench=wb)
    engine = ActivityEngine(wb.circuit, wb.counters)
    power = ops(engine.set_power, tests).summary()
    summary = delay.sets["grade"]
    quality = {"test_cycles": tests.clock_cycles(),
               "tdf_detected": summary.detected}
    record = {"tests": hashlib.sha256(json.dumps(
                  _set_json(tests)).encode()).hexdigest(),
              "delay": delay.as_dict(), "power": power.as_dict()}

    def check() -> List[str]:
        circuit = CompiledCircuit(net)
        problems = []
        regraded = len(_regrade(circuit, tests))
        if regraded != summary.detected:
            problems.append(f"grade: per-test TDF re-grade detects "
                            f"{regraded}, the report says "
                            f"{summary.detected}")
        if summary.total_cycles != _paper_cycles(tests):
            problems.append("grade: delay report N_cyc differs from the "
                            "paper formula")
        if summary.at_speed_cycles != sum(t.length - 1 for t in tests):
            problems.append("grade: at-speed pair count differs")
        again = ActivityEngine(circuit).set_power(tests).summary()
        if again.as_dict() != power.as_dict():
            problems.append("grade: power re-measurement differs")
        return problems

    return Outcome(quality, record, dict(wb.counters.as_dict()), check)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("small-circuits", _small_inputs, _run_jobs,
             lambda inputs: len(inputs["jobs"])),
    Workload("b01-full", _b01_inputs, _run_jobs,
             lambda inputs: len(inputs["jobs"])),
    Workload("bench500-atpg", _atpg_inputs, _atpg, lambda inputs: 7),
    Workload("bench1k-grade", _grade_inputs, _grade, lambda inputs: 3),
)}
