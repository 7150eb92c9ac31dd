"""Emit quality benchmarks: ``BENCH_adi.json`` / ``BENCH_power.json`` /
``BENCH_collapse.json``.

Every mode runs on the default simulation path -- the C kernel when
cffi and a C compiler are present, big-int words otherwise;
the two give the same results.  Host-time numbers for that path come
from the end-to-end benchmark in ``benchmarks/e2e``.

``--adi`` compares the Accidental-Detection-Index-guided run
(``adi=True``, census from the random phase of combinational test
generation) against the flag-off default.  ``BENCH_adi.json`` records
both arms' detect passes and final clock cycles; the quality gate
(``--gate`` with any value) requires identical final fault coverage,
fewer total detect passes, and cycles no worse than the baseline.

``--collapse`` compares the static fault-space analyzer's collapsed
simulation against the plain uncollapsed flow: both arms run the full
proposed procedure on the *same* uncollapsed fault universe, but the
collapsed arm carries the structural-equivalence partition (one
representative simulated per class, detections re-inflated to every
member) and excludes the proven-untestable faults.  The emitted
``BENCH_collapse.json`` records the universe/class counts and both
arms' per-fault simulation work (``comb_passes``, ``machines``) and
asserts byte-identical results -- detection sets, test vectors and
clock cycles; ``--gate`` (any value) additionally requires the
collapsed arm to simulate strictly fewer per-fault passes and machine
bits.

``--power`` sweeps every X-fill strategy (:data:`repro.sim.values.
FILL_STRATEGIES`) over the quick suite: one proposed-procedure run per
(circuit, strategy), measuring the final test set's peak/average shift
WTM and capture toggles with :class:`repro.power.activity.
ActivityEngine`.  The emitted ``BENCH_power.json`` records an
``identical_detection`` flag (the explicit ``random`` strategy must be
byte-identical -- detection sets, cycles and test vectors -- to a run
with default parameters) and, under ``--gate``, asserts per circuit
that ``adjacent`` fill's peak shift WTM never exceeds ``RATIO`` times
``random`` fill's.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py --adi --gate 1.0
    PYTHONPATH=src python benchmarks/emit_bench.py --collapse --quick \
        --gate 1.0
    PYTHONPATH=src python benchmarks/emit_bench.py --power --gate 1.0

``--quick`` runs the CI-sized circuit instead of the full one (the
``--power`` sweep always runs the quick suite).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.atpg import comb_set as comb_set_mod
from repro.atpg import random_gen
from repro.circuits import synth
from repro.core.proposed import run as run_proposed
from repro.experiments.reporting import atomic_write_text
from repro.power.activity import ActivityEngine
from repro.sim.comb_sim import CombPatternSim
from repro.sim.counters import SimCounters
from repro.sim import npsim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit




def _cffi_version() -> Optional[str]:
    """The installed cffi version, or ``None`` when absent."""
    try:
        import cffi
    except ImportError:
        return None
    return str(cffi.__version__)



#: The full-size benchmark circuit: >= 1000 collapsed faults.
FULL_PROFILE = dict(name="bench1k", n_pi=12, n_po=10, n_ff=28,
                    n_gates=330, seed=7, t0_length=100)
#: CI-sized circuit: the same pipeline in a few seconds.
QUICK_PROFILE = dict(name="benchq", n_pi=8, n_po=6, n_ff=12,
                     n_gates=90, seed=7, t0_length=40)



def _run_adi_arm(netlist, comb_tests, t0, adi: bool = False,
                 adi_scores=None) -> Dict[str, Any]:
    """One full proposed-procedure pass, with or without ADI."""
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.collapsed(netlist)
    counters = SimCounters()
    sim = FaultSimulator(circuit, faults, counters=counters)
    comb_sim = CombPatternSim(sim)
    started = time.perf_counter()
    result = run_proposed(sim, comb_sim, t0, comb_tests,
                          adi=adi, adi_scores=adi_scores)
    seconds = time.perf_counter() - started
    final = result.compacted_set or result.test_set
    return {
        "adi": adi,
        "seconds": round(seconds, 3),
        "counters": counters.as_dict(),
        "result": {
            "seq_detected": len(result.seq_detected),
            "final_detected": len(result.final_detected),
            "tests": len(final),
            "cycles": final.clock_cycles(),
            "tau_seq_length": result.tau_seq.length,
        },
        "_sets": (result.seq_detected, result.final_detected,
                  tuple(final.tests), final.clock_cycles()),
    }


def _profile_circuit(quick: bool, seed: int):
    """The profile circuit plus its comb set and ``T0`` stimuli."""
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.collapsed(netlist)
    comb = comb_set_mod.generate(circuit, faults, seed=seed)
    t0 = random_gen.random_sequence(circuit, profile["t0_length"],
                                    seed=seed)
    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(faults)} collapsed faults, "
          f"{len(comb.tests)} comb tests, |T0|={len(t0)}")
    return profile, netlist, faults, comb, t0


def _circuit_block(profile, netlist, faults, comb, t0) -> Dict[str, Any]:
    return {
        "name": profile["name"],
        "pi": netlist.num_inputs,
        "po": netlist.num_outputs,
        "ff": netlist.num_ffs,
        "gates": netlist.num_gates,
        "faults": len(faults),
        "comb_tests": len(comb.tests),
        "t0_length": len(t0),
    }


def _run_collapse_arm(netlist, comb_tests, t0,
                      collapse: bool) -> Dict[str, Any]:
    """One full proposed-procedure pass over the uncollapsed universe.

    ``collapse=False`` simulates every fault individually (the
    baseline); ``collapse=True`` simulates one representative per
    structural-equivalence class, re-inflates detections, and drops
    the statically-proven-untestable faults.  Both arms expose the
    same fault indexing, so the result fingerprints compare directly.
    """
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.uncollapsed(netlist, collapse=collapse)
    counters = SimCounters()
    sim = FaultSimulator(circuit, faults, counters=counters)
    comb_sim = CombPatternSim(sim)
    n_untestable = 0
    dropped_reps = 0
    if collapse:
        from repro.analysis.faultspace import analyze_faultspace
        report = analyze_faultspace(netlist)
        untestable = report.untestable_indices(faults)
        n_untestable = len(untestable)
        if untestable:
            dropped_reps = len(faults.untestable_reps(untestable))
            sim.set_untestable(sorted(untestable))
    started = time.perf_counter()
    result = run_proposed(sim, comb_sim, t0, comb_tests)
    seconds = time.perf_counter() - started
    final = result.compacted_set or result.test_set
    return {
        "collapse": collapse,
        "faults_simulated": (faults.n_classes - dropped_reps
                             if collapse else len(faults)),
        "n_classes": faults.n_classes,
        "n_untestable": n_untestable,
        "seconds": round(seconds, 3),
        "counters": counters.as_dict(),
        "result": {
            "seq_detected": len(result.seq_detected),
            "final_detected": len(result.final_detected),
            "tests": len(final),
            "cycles": final.clock_cycles(),
            "tau_seq_length": result.tau_seq.length,
        },
        "_sets": (frozenset(result.seq_detected),
                  frozenset(result.final_detected),
                  tuple(final.tests), final.clock_cycles()),
    }


def build_collapse_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--collapse`` payload: collapsed vs uncollapsed simulation.

    Both arms run on the full uncollapsed stuck-at universe with the
    same stimuli; the analyzer-backed arm must reproduce the baseline
    byte-identically while doing strictly less per-fault work.
    """
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    circuit = CompiledCircuit(netlist)
    universe = FaultSet.uncollapsed(netlist, collapse=False)
    comb = comb_set_mod.generate(circuit, universe, seed=seed)
    t0 = random_gen.random_sequence(circuit, profile["t0_length"],
                                    seed=seed)
    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(universe)} uncollapsed faults, "
          f"{len(comb.tests)} comb tests, |T0|={len(t0)}")

    print("uncollapsed: every fault simulated individually ...",
          flush=True)
    plain = _run_collapse_arm(netlist, comb.tests, t0, collapse=False)
    print(f"  {plain['seconds']}s, "
          f"{plain['counters']['comb_passes']} comb passes")
    print("collapsed: representatives only + untestable dropped ...",
          flush=True)
    collapsed = _run_collapse_arm(netlist, comb.tests, t0,
                                  collapse=True)
    print(f"  {collapsed['seconds']}s, "
          f"{collapsed['counters']['comb_passes']} comb passes, "
          f"{collapsed['n_classes']} classes, "
          f"{collapsed['n_untestable']} untestable")

    identical = plain.pop("_sets") == collapsed.pop("_sets")
    if not identical:
        print("ERROR: collapsed simulation disagrees with the "
              "uncollapsed baseline", file=sys.stderr)
    return {
        "bench": "collapse: representative-only simulation + "
                 "untestability proofs vs the uncollapsed flow",
        "circuit": {
            "name": profile["name"],
            "pi": netlist.num_inputs,
            "po": netlist.num_outputs,
            "ff": netlist.num_ffs,
            "gates": netlist.num_gates,
            "faults": len(universe),
            "comb_tests": len(comb.tests),
            "t0_length": len(t0),
        },
        "config": {
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "fault_space": {
            "n_universe": len(universe),
            "n_classes": collapsed["n_classes"],
            "collapse_ratio": round(
                collapsed["n_classes"] / max(len(universe), 1), 3),
            "n_untestable": collapsed["n_untestable"],
        },
        "uncollapsed": plain,
        "collapsed": collapsed,
        "comb_passes": {
            "uncollapsed": plain["counters"]["comb_passes"],
            "collapsed": collapsed["counters"]["comb_passes"],
        },
        "machines": {
            "uncollapsed": plain["counters"]["machines"],
            "collapsed": collapsed["counters"]["machines"],
        },
        "identical_results": identical,
    }


def build_adi_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--adi`` payload: ADI-guided ordering vs the plain run.

    The baseline arm is the flag-off default; the ADI arm feeds the
    random-phase accidental-detection census into Phase-1/3 ordering
    and fused-word packing.  The quality gates: identical final fault
    coverage (hard requirement), fewer total detect passes, and final
    clock cycles no worse than the baseline.
    """
    profile, netlist, faults, comb, t0 = _profile_circuit(quick, seed)

    print("baseline: adi=off ...", flush=True)
    baseline = _run_adi_arm(netlist, comb.tests, t0)
    print(f"  {baseline['seconds']}s, "
          f"{baseline['counters']['detect_passes']} detect passes, "
          f"{baseline['result']['cycles']} cycles")
    print("adi: census-guided ordering ...", flush=True)
    adi_arm = _run_adi_arm(netlist, comb.tests, t0, adi=True,
                           adi_scores=comb.adi)
    print(f"  {adi_arm['seconds']}s, "
          f"{adi_arm['counters']['detect_passes']} detect passes, "
          f"{adi_arm['result']['cycles']} cycles, "
          f"{adi_arm['counters']['adi_orderings']} orderings")

    base_sets = baseline.pop("_sets")
    adi_sets = adi_arm.pop("_sets")
    identical_coverage = base_sets[1] == adi_sets[1]
    if not identical_coverage:
        print("ERROR: ADI ordering changed the final fault coverage",
              file=sys.stderr)
    fewer_passes = (adi_arm["counters"]["detect_passes"]
                    < baseline["counters"]["detect_passes"])
    cycles_le = (adi_arm["result"]["cycles"]
                 <= baseline["result"]["cycles"])
    return {
        "bench": "adi: accidental-detection-index ordering vs the "
                 "plain proposed procedure",
        "circuit": _circuit_block(profile, netlist, faults, comb, t0),
        "config": {
            "quick": quick,
            "seed": seed,
            "adi_census_size": len(comb.adi),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cffi": _cffi_version(),
            "np_kernel": npsim.kernel_unavailable_reason() is None,
        },
        "baseline": baseline,
        "adi": adi_arm,
        "detect_passes": {
            "baseline": baseline["counters"]["detect_passes"],
            "adi": adi_arm["counters"]["detect_passes"],
        },
        "cycles": {"baseline": baseline["result"]["cycles"],
                   "adi": adi_arm["result"]["cycles"]},
        "identical_coverage": identical_coverage,
        "fewer_detect_passes": fewer_passes,
        "cycles_le_baseline": cycles_le,
    }


def _power_run(profile, strategy: Optional[str], seed: int):
    """One proposed-procedure run (random ``T0`` arm) on a suite
    circuit; ``strategy=None`` means *default parameters* -- the
    baseline the explicit ``random`` run must reproduce exactly."""
    from repro import api
    netlist = profile.build()
    wb = api.Workbench.for_netlist(netlist)
    kwargs = {} if strategy is None else {"x_fill": strategy}
    result = api.compact_tests(netlist, seed=seed, t0_source="random",
                               t0_length=min(profile.t0_length, 300),
                               workbench=wb, **kwargs)
    final = result.compacted_set or result.test_set
    engine = ActivityEngine(wb.circuit, wb.counters)
    summary = engine.set_power(final).summary()
    fingerprint = (frozenset(result.final_detected),
                   final.clock_cycles(), tuple(final.tests))
    return summary, fingerprint, len(result.final_detected)


def build_power_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--power`` payload: X-fill strategies over the quick suite.

    ``quick`` is accepted for CLI symmetry but the sweep always runs
    the quick suite -- it is already CI-sized.
    """
    from repro.circuits import suite as suite_mod
    from repro.sim.values import FILL_STRATEGIES

    profiles = suite_mod.quick_suite()
    circuits: Dict[str, Dict[str, Any]] = {}
    identical_detection = True
    for profile in profiles:
        print(f"{profile.name}: default-parameter baseline ...",
              flush=True)
        _, default_fp, _ = _power_run(profile, None, seed)
        per_strategy: Dict[str, Any] = {}
        for strategy in FILL_STRATEGIES:
            print(f"{profile.name}: x-fill {strategy} ...", flush=True)
            summary, fp, detected = _power_run(profile, strategy, seed)
            if strategy == "random" and fp != default_fp:
                identical_detection = False
                print(f"ERROR: {profile.name}: explicit random fill "
                      f"differs from the default-parameter run",
                      file=sys.stderr)
            entry = summary.as_dict()
            entry["detected"] = detected
            per_strategy[strategy] = entry
        circuits[profile.name] = per_strategy
    return {
        "bench": "power: X-fill strategies' shift WTM / capture "
                 "toggles on the quick suite",
        "config": {
            "quick": quick,
            "seed": seed,
            "strategies": list(FILL_STRATEGIES),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "circuits": circuits,
        "identical_detection": identical_detection,
    }


def _power_gate(payload: Dict[str, Any], ratio: float) -> bool:
    """Per circuit: adjacent peak shift WTM <= ratio x random's."""
    ok = True
    for name, per_strategy in sorted(payload["circuits"].items()):
        random_peak = per_strategy["random"]["peak_shift_wtm"]
        adjacent_peak = per_strategy["adjacent"]["peak_shift_wtm"]
        if adjacent_peak > ratio * random_peak:
            print(f"POWER GATE FAILED: {name}: adjacent peak WTM "
                  f"{adjacent_peak} > {ratio:g} x random "
                  f"{random_peak}", file=sys.stderr)
            ok = False
        else:
            print(f"power gate ok: {name}: adjacent {adjacent_peak} "
                  f"<= {ratio:g} x random {random_peak}")
    return ok


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--power", action="store_true",
                      help="sweep the X-fill strategies' power on the "
                           "quick suite (quality gate)")
    mode.add_argument("--adi", action="store_true",
                      help="compare ADI-guided ordering against the "
                           "plain proposed procedure (quality gate)")
    mode.add_argument("--collapse", action="store_true",
                      help="compare representative-only simulation "
                           "(+ untestability proofs) against the "
                           "uncollapsed flow (quality gate)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized circuit instead of the full one")
    parser.add_argument("--gate", type=float, metavar="RATIO",
                        help="fail (exit 1) when the mode's quality "
                             "gate does not hold")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--out", default=None)
    args = parser.parse_args(argv)

    if args.collapse:
        out = args.out or "BENCH_collapse.json"
        payload = build_collapse_payload(quick=args.quick,
                                         seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        fs = payload["fault_space"]
        print(f"wrote {out}: {fs['n_universe']} faults -> "
              f"{fs['n_classes']} classes "
              f"({fs['n_untestable']} untestable), comb passes "
              f"{payload['comb_passes']['uncollapsed']} -> "
              f"{payload['comb_passes']['collapsed']} "
              f"(identical results: {payload['identical_results']})")
        if not payload["identical_results"]:
            return 1
        if args.gate is not None:
            ok = True
            if (payload["comb_passes"]["collapsed"]
                    >= payload["comb_passes"]["uncollapsed"]):
                print("COLLAPSE GATE FAILED: no reduction in per-fault "
                      "comb passes", file=sys.stderr)
                ok = False
            if (payload["machines"]["collapsed"]
                    >= payload["machines"]["uncollapsed"]):
                print("COLLAPSE GATE FAILED: no reduction in simulated "
                      "machine bits", file=sys.stderr)
                ok = False
            if not ok:
                return 1
            print("collapse gate ok: fewer comb passes and machine "
                  "bits, identical results")
        return 0

    if args.adi:
        out = args.out or "BENCH_adi.json"
        payload = build_adi_payload(quick=args.quick, seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}: detect passes "
              f"{payload['detect_passes']['baseline']} -> "
              f"{payload['detect_passes']['adi']}, cycles "
              f"{payload['cycles']['baseline']} -> "
              f"{payload['cycles']['adi']} (identical coverage: "
              f"{payload['identical_coverage']})")
        if not payload["identical_coverage"]:
            return 1
        if args.gate is not None:
            ok = True
            if not payload["fewer_detect_passes"]:
                print("ADI GATE FAILED: no reduction in detect passes",
                      file=sys.stderr)
                ok = False
            if not payload["cycles_le_baseline"]:
                print("ADI GATE FAILED: final cycles exceed the "
                      "baseline", file=sys.stderr)
                ok = False
            if not ok:
                return 1
            print("adi gate ok: fewer detect passes, cycles <= "
                  "baseline, identical coverage")
        return 0

    # --power
    out = args.out or "BENCH_power.json"
    payload = build_power_payload(quick=args.quick, seed=args.seed)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}: {len(payload['circuits'])} circuit(s), "
          f"{len(payload['config']['strategies'])} strategies "
          f"(identical detection: "
          f"{payload['identical_detection']})")
    if not payload["identical_detection"]:
        return 1
    if args.gate is not None and not _power_gate(payload, args.gate):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
