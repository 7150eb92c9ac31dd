"""Command-line interface.

Subcommands::

    repro-compact list                         # suite circuits
    repro-compact circuit s298 [--seed N]      # one circuit, all methods
    repro-compact tables [--full] [--delay] [--json OUT]
    repro-compact power s298 [--seed N]        # X-fill power sweep
    repro-compact lint [targets ...]           # static netlist analysis
    repro-compact analyze [targets ...]        # static fault-space pass
    repro-compact doctor DIR [--strict]        # verify/repair a run dir
    repro-compact bench-info                   # where the benchmarks are

``lint`` runs the static analyzer (:mod:`repro.analysis`) over suite
circuits, ``.bench`` files and/or generated synthetic circuits
(``--synth PI,PO,FF,GATES --seed N [--sweep N]``), printing one report
per circuit (``--json`` for machine-readable output).  Exit code 1 when
any circuit has error-severity findings (``--strict`` promotes
warnings), 0 when clean; ``--allow circuit:rule`` waives a finding and
``--expect RULE`` inverts the contract (succeed only if every target
reports RULE -- the CI regression hook for known-bad circuits).

``analyze`` runs the static *fault-space* analyzer
(:mod:`repro.analysis.faultspace`) over the same target grammar as
``lint``: per circuit it prints the equivalence-class partition,
dominance-edge count, SCOAP difficulty profile and proven-untestable
faults (``--json`` for the full machine-readable report including
per-fault proofs).  ``--strict`` re-verifies every report's internal
invariants (partition, closure, proof consistency) and exits 1 on any
violation -- the CI posture.

``--sanitize`` (on ``circuit`` and ``tables``) arms the engine-
invariant sanitizer by exporting ``REPRO_SANITIZE=1``, which worker
subprocesses inherit; see :mod:`repro.analysis.sanitizer`.

``tables`` regenerates the paper's Tables 1-5 (quick suite by default;
``--full`` runs every reproduced circuit and takes correspondingly
longer).

``circuit`` and ``tables`` also take ``--x-fill`` (don't-care fill
strategy for the ATPG stages; the default ``random`` reproduces the
paper runs byte-identically), ``--power-budget`` (peak shift-WTM
cap enforced during Phase-4 combining; see :mod:`repro.power`), and
``--delay`` (measure at-speed quality of the final test sets:
transition-fault coverage through :mod:`repro.delay` plus the
test-clock cycle budget, rendered as the Delay table).
``power`` runs every X-fill strategy on one circuit in process and
prints the comparative power table.

``circuit`` and ``tables`` run through the resilient harness
(:mod:`repro.experiments.harness`): each circuit job runs in an
isolated worker subprocess, ``--timeout`` bounds a job's wall clock,
``--stall-timeout`` kills a worker whose heartbeat goes quiet,
``--retries`` re-runs failures with backoff, ``--jobs`` runs workers in
parallel, and ``--run-dir``/``--resume`` checkpoint completed circuits
so an interrupted campaign picks up where it left off; a retried job
recomputes from scratch.  When jobs ultimately fail, the tables still
render for the surviving circuits (failed rows are annotated), a
job-summary table is printed, and the exit code is 1.

``doctor`` verifies a ``--run-dir``: every CRC-enveloped line of
``runs.jsonl``/``journal.jsonl`` is checked, and corrupt lines are
moved to ``quarantine/`` and the files repaired in place.  ``--strict``
exits non-zero when anything was quarantined (the CI posture);
``--json`` prints the report machine-readably.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .circuits import suite as suite_mod
from .experiments import (HarnessConfig, all_tables, dump_json,
                          engine_counters_table, paper_comparison,
                          render_all, run_suite_resilient)
from .sim.values import FILL_STRATEGIES


def _resolve_profiles(names: List[str]):
    """Suite profiles for ``names``, or None (after a message) when a
    name is unknown -- callers turn that into exit code 2."""
    profiles = []
    for name in names:
        try:
            profiles.append(suite_mod.profile(name))
        except KeyError:
            valid = ", ".join(p.name for p in suite_mod.paper_suite())
            print(f"error: unknown circuit {name!r}\n"
                  f"valid circuits: {valid}", file=sys.stderr)
            return None
    return profiles


def _harness_config(args: argparse.Namespace) -> HarnessConfig:
    return HarnessConfig(timeout=args.timeout,
                         stall_timeout=args.stall_timeout,
                         retries=args.retries,
                         jobs=args.jobs, run_dir=args.run_dir,
                         resume=args.resume)


def _finish_outcome(outcome) -> int:
    """Print the job summary when something failed; pick the exit code."""
    if outcome.ok:
        return 0
    print()
    print(outcome.failure_summary().render())
    n = len(outcome.failed_records)
    print(f"\n{n} job(s) ultimately failed", file=sys.stderr)
    return 1


def _cmd_list(_args: argparse.Namespace) -> int:
    print("suite circuits (quick set marked *):")
    quick = {p.name for p in suite_mod.quick_suite()}
    for profile in suite_mod.paper_suite():
        net = profile.build()
        marker = "*" if profile.name in quick else " "
        print(f" {marker} {profile.name:8s} pi={net.num_inputs:3d} "
              f"po={net.num_outputs:3d} ff={net.num_ffs:4d} "
              f"gates={net.num_gates:4d}")
    return 0


def _cmd_circuit(args: argparse.Namespace) -> int:
    profiles = _resolve_profiles([args.name])
    if profiles is None:
        return 2
    outcome = run_suite_resilient(profiles, seed=args.seed,
                                  delay=args.delay,
                                  x_fill=args.x_fill,
                                  power_budget=args.power_budget,
                                  adi=args.adi, scoap=args.scoap,
                                  config=_harness_config(args))
    print(render_all(all_tables(outcome.runs,
                                with_delay=args.delay,
                                failures=outcome.failures)))
    print()
    print(paper_comparison(outcome.runs,
                           failures=outcome.failures).render())
    print()
    print(engine_counters_table(outcome.runs).render())
    return _finish_outcome(outcome)


def _cmd_tables(args: argparse.Namespace) -> int:
    profiles = None
    if args.circuits:
        profiles = _resolve_profiles(args.circuits)
        if profiles is None:
            return 2
    outcome = run_suite_resilient(profiles, quick=not args.full,
                                  seed=args.seed,
                                  delay=args.delay,
                                  x_fill=args.x_fill,
                                  power_budget=args.power_budget,
                                  adi=args.adi, scoap=args.scoap,
                                  config=_harness_config(args),
                                  verbose=True)
    tables = all_tables(outcome.runs, with_delay=args.delay,
                        failures=outcome.failures)
    tables.append(paper_comparison(outcome.runs,
                                   failures=outcome.failures))
    tables.append(engine_counters_table(outcome.runs))
    print(render_all(tables))
    if args.json:
        dump_json(tables, args.json)
        print(f"\n(wrote {args.json})")
    return _finish_outcome(outcome)


def _cmd_power(args: argparse.Namespace) -> int:
    """Compare the X-fill strategies' power on one circuit.

    Runs the proposed procedure (random ``T0`` arm) once per fill
    strategy, in process, and prints one comparison row each: set
    size, clock cycles, faults detected, peak/average shift WTM, peak
    capture toggles, and whether the detection set matches the
    ``random``-fill run (the paper-reproducing default).
    """
    from . import api
    from .experiments import Table
    from .power.activity import ActivityEngine
    profiles = _resolve_profiles([args.name])
    if profiles is None:
        return 2
    profile = profiles[0]
    title = f"X-fill power sweep: {args.name} (seed {args.seed}"
    if args.power_budget is not None:
        title += f", budget <= {args.power_budget:g}"
    title += ")"
    table = Table(title,
                  ["x-fill", "tests", "cycles", "detected", "peak WTM",
                   "avg WTM", "peak capt", "det=random"])
    random_detected = None
    for strategy in FILL_STRATEGIES:
        netlist = profile.build()
        wb = api.Workbench.for_netlist(netlist)
        result = api.compact_tests(
            netlist, seed=args.seed, t0_source="random",
            t0_length=min(profile.t0_length, 300), workbench=wb,
            x_fill=strategy, power_budget=args.power_budget)
        final = result.compacted_set or result.test_set
        summary = ActivityEngine(wb.circuit,
                                 wb.counters).set_power(final).summary()
        if strategy == "random":
            random_detected = result.final_detected
        same = (None if random_detected is None
                else "yes" if result.final_detected == random_detected
                else "no")
        table.add_row(strategy, len(final), final.clock_cycles(),
                      len(result.final_detected),
                      summary.peak_shift_wtm, summary.avg_shift_wtm,
                      summary.peak_capture, same)
    print(table.render())
    return 0


def _cmd_partial(args: argparse.Namespace) -> int:
    from .core.partial import PartialScanPlan, compact_partial
    profiles = _resolve_profiles([args.name])
    if profiles is None:
        return 2
    profile = profiles[0]
    netlist = profile.build()
    plans = [("full", PartialScanPlan.full(netlist)),
             ("cut", PartialScanPlan.by_cycle_cutting(netlist))]
    if args.extra:
        plans.append((f"cut+{args.extra}",
                      PartialScanPlan.by_cycle_cutting(
                          netlist, extra=args.extra)))
    print(f"{args.name}: {netlist.num_ffs} flip-flops")
    for label, plan in plans:
        result = compact_partial(plan, seed=args.seed,
                                 t0_length=min(profile.t0_length, 300))
        final = result.compacted_set or result.test_set
        print(f"  {label:>8}: chain={plan.n_scanned:3d} "
              f"tests={len(final):3d} cycles={final.clock_cycles():6d} "
              f"detected={len(result.final_detected)}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from . import api
    from .core import tester, testio
    profiles = _resolve_profiles([args.name])
    if profiles is None:
        return 2
    profile = profiles[0]
    netlist = profile.build()
    wb = api.Workbench.for_netlist(netlist)
    result = api.compact_tests(
        netlist, seed=args.seed,
        t0_source="random" if args.random else "seqgen",
        t0_length=min(profile.t0_length, 300), workbench=wb)
    final = result.compacted_set or result.test_set
    program = tester.schedule(final, wb.circuit)
    replay = tester.execute(program, wb.circuit)
    if not replay.passed:  # pragma: no cover - internal consistency
        print("internal error: program fails its own replay")
        return 1
    testio.dump(program, args.output)
    print(f"wrote {args.output}: {len(final)} tests, "
          f"{len(program)} cycles "
          f"({program.n_shift_cycles} shift / "
          f"{program.n_functional_cycles} functional), replay OK")
    return 0


def _parse_synth(text: str) -> Tuple[int, int, int, int]:
    """``--synth`` value: four comma-separated sizes PI,PO,FF,GATES."""
    parts = text.split(",")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        values = ()
    if len(values) != 4:
        raise argparse.ArgumentTypeError(
            f"--synth needs PI,PO,FF,GATES (four integers), got {text!r}")
    return values  # type: ignore[return-value]


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_bench_path, lint_netlist
    from .circuits import synth as synth_mod

    xinit = not args.no_xinit
    reports = []
    for target in args.targets:
        path = Path(target)
        if target.endswith(".bench") or path.exists():
            if not path.exists():
                print(f"error: no such file {target!r}", file=sys.stderr)
                return 2
            reports.append(lint_bench_path(path))
            continue
        try:
            prof = suite_mod.profile(target)
        except KeyError:
            valid = ", ".join(p.name for p in suite_mod.paper_suite())
            print(f"error: {target!r} is neither a file nor a suite "
                  f"circuit\nvalid circuits: {valid}", file=sys.stderr)
            return 2
        report = lint_netlist(prof.build(), xinit=xinit)
        report.circuit = target  # suite name, not the netlist name
        reports.append(report)
    if args.synth:
        n_pi, n_po, n_ff, n_gates = args.synth
        for i in range(max(1, args.sweep)):
            seed = args.seed + i
            net = synth_mod.generate(f"synth-{seed}", n_pi, n_po, n_ff,
                                     n_gates, seed=seed)
            reports.append(lint_netlist(net, xinit=xinit))
    if not args.targets and not args.synth:
        for prof in suite_mod.paper_suite():
            report = lint_netlist(prof.build(), xinit=xinit)
            report.circuit = prof.name
            reports.append(report)

    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
            print()

    allow = set()
    for item in args.allow or []:
        circuit, _, rule = item.partition(":")
        if not rule:
            print(f"error: --allow wants CIRCUIT:RULE, got {item!r}",
                  file=sys.stderr)
            return 2
        allow.add((circuit, rule))

    if args.expect:
        missing = [r.circuit for r in reports
                   if args.expect not in r.rule_ids]
        if missing:
            print(f"expected rule {args.expect!r} missing on: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 1
        if not args.json:
            print(f"{len(reports)} circuit(s) report {args.expect!r} "
                  f"as expected")
        return 0

    severities = ("error", "warning") if args.strict else ("error",)
    failing = []
    for report in reports:
        bad = sorted({d.rule for d in report.diagnostics
                      if d.severity in severities
                      and (report.circuit, d.rule) not in allow})
        if bad:
            failing.append((report.circuit, bad))
    if failing:
        for name, rules in failing:
            print(f"{name}: {', '.join(rules)}", file=sys.stderr)
        print(f"{len(failing)} of {len(reports)} circuit(s) have lint "
              f"findings", file=sys.stderr)
        return 1
    if not args.json:
        print(f"{len(reports)} circuit(s) linted: clean")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static fault-space analysis over lint's target grammar.

    Collects ``(name, netlist)`` pairs from suite names, ``.bench``
    files and ``--synth`` sweeps (default: the whole paper suite),
    runs :func:`repro.analysis.faultspace.analyze_faultspace` on each
    and prints the per-circuit report table.  ``--strict`` re-checks
    every report's internal invariants and fails on any violation.
    """
    from .analysis.faultspace import analyze_faultspace
    from .circuits import bench as bench_mod
    from .circuits import synth as synth_mod

    netlists = []
    for target in args.targets:
        path = Path(target)
        if target.endswith(".bench") or path.exists():
            if not path.exists():
                print(f"error: no such file {target!r}", file=sys.stderr)
                return 2
            try:
                netlists.append((path.stem, bench_mod.load(path)))
            except Exception as exc:
                print(f"error: cannot parse {target!r}: {exc}",
                      file=sys.stderr)
                return 2
            continue
        try:
            prof = suite_mod.profile(target)
        except KeyError:
            valid = ", ".join(p.name for p in suite_mod.paper_suite())
            print(f"error: {target!r} is neither a file nor a suite "
                  f"circuit\nvalid circuits: {valid}", file=sys.stderr)
            return 2
        netlists.append((target, prof.build()))
    if args.synth:
        n_pi, n_po, n_ff, n_gates = args.synth
        for i in range(max(1, args.sweep)):
            seed = args.seed + i
            name = f"synth-{seed}"
            netlists.append((name, synth_mod.generate(
                name, n_pi, n_po, n_ff, n_gates, seed=seed)))
    if not args.targets and not args.synth:
        for prof in suite_mod.paper_suite():
            netlists.append((prof.name, prof.build()))

    reports = [analyze_faultspace(net, name=name)
               for name, net in netlists]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
            print()

    if args.strict:
        broken = []
        for report in reports:
            problems = report.verify()
            for problem in problems:
                print(f"{report.circuit}: {problem}", file=sys.stderr)
            if problems:
                broken.append(report.circuit)
        if broken:
            print(f"{len(broken)} of {len(reports)} report(s) violate "
                  f"fault-space invariants", file=sys.stderr)
            return 1
    if not args.json:
        total_u = sum(r.n_untestable for r in reports)
        print(f"{len(reports)} circuit(s) analyzed: "
              f"{total_u} fault(s) proven untestable")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from .experiments.store import doctor
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"error: no such run dir {args.run_dir!r}", file=sys.stderr)
        return 2
    report = doctor(run_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.strict and not report.clean:
        print(f"{report.n_quarantined} corrupt record(s) quarantined",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench_info(_args: argparse.Namespace) -> int:
    print("End-to-end timings live under benchmarks/e2e -- run them "
          "with:\n"
          "  python3 benchmarks/e2e/run.py --workload all\n"
          "The paper's table shapes and quality gates are tests:\n"
          "  pytest tests/experiments/test_paper_shape.py "
          "tests/core/test_adi.py \\\n"
          "    tests/sim/test_collapse_equivalence.py "
          "tests/power/test_xfill_gate.py\n"
          "`repro-compact tables` prints the tables.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-compact",
        description="Scan test compaction that enhances at-speed "
                    "testing (DAC 2001 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    guidance_opts = argparse.ArgumentParser(add_help=False)
    egroup = guidance_opts.add_argument_group("ordering guidance")
    egroup.add_argument("--adi", action="store_true",
                        help="order work by the Accidental Detection "
                             "Index (arXiv:0710.4637): fused-word "
                             "packing, Phase-1 tie-breaks and Phase-3 "
                             "target order follow the random-phase "
                             "accidental-detection census (default: "
                             "off, the byte-exact paper reproduction)")
    egroup.add_argument("--scoap", action="store_true",
                        help="break Phase-1/Phase-3 ordering ties by "
                             "SCOAP testability: statically-hard "
                             "faults (high controllability + "
                             "observability cost) are targeted first "
                             "(default: off, the byte-exact paper "
                             "reproduction)")
    egroup.add_argument("--sanitize", action="store_true",
                        help="arm the engine-invariant sanitizer "
                             "(exports REPRO_SANITIZE=1; worker "
                             "subprocesses inherit it)")

    power_opts = argparse.ArgumentParser(add_help=False)
    pgroup = power_opts.add_argument_group("power")
    pgroup.add_argument("--x-fill", choices=FILL_STRATEGIES,
                        default="random", dest="x_fill",
                        help="don't-care fill strategy for ATPG "
                             "patterns (default: random, which "
                             "reproduces the paper runs exactly)")
    pgroup.add_argument("--power-budget", type=float, default=None,
                        dest="power_budget", metavar="WTM",
                        help="peak shift-WTM cap enforced during "
                             "Phase-4 combining (default: none)")

    resilience = argparse.ArgumentParser(add_help=False)
    group = resilience.add_argument_group("resilience")
    group.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock limit (default: none)")
    group.add_argument("--stall-timeout", type=float, default=None,
                       dest="stall_timeout", metavar="SECONDS",
                       help="kill a worker whose heartbeat goes quiet "
                            "for this long (default: none)")
    group.add_argument("--retries", type=int, default=0,
                       help="extra attempts per failed job (default: 0)")
    group.add_argument("--jobs", type=int, default=1,
                       help="worker subprocesses in parallel (default: 1)")
    group.add_argument("--run-dir", metavar="DIR",
                       help="checkpoint completed circuits to DIR")
    group.add_argument("--resume", action="store_true",
                       help="reuse completed runs found in --run-dir")

    p_list = sub.add_parser("list", help="list suite circuits")
    p_list.set_defaults(func=_cmd_list)

    p_circuit = sub.add_parser("circuit", parents=[resilience,
                                                   guidance_opts,
                                                   power_opts],
                               help="run one suite circuit")
    p_circuit.add_argument("name")
    p_circuit.add_argument("--seed", type=int, default=1)
    p_circuit.add_argument("--delay", action="store_true",
                           help="also measure at-speed quality: "
                                "transition-fault coverage plus the "
                                "test-clock cycle budget")
    p_circuit.set_defaults(func=_cmd_circuit)

    p_tables = sub.add_parser("tables", parents=[resilience,
                                                 guidance_opts,
                                                 power_opts],
                              help="regenerate the paper's tables")
    p_tables.add_argument("--full", action="store_true",
                          help="run the full suite (slow)")
    p_tables.add_argument("--seed", type=int, default=1)
    p_tables.add_argument("--delay", action="store_true",
                          help="also measure at-speed quality of the "
                               "final test sets")
    p_tables.add_argument("--json", help="also dump tables as JSON")
    p_tables.add_argument("--circuits", nargs="*",
                          help="explicit circuit names")
    p_tables.set_defaults(func=_cmd_tables)

    p_power = sub.add_parser(
        "power", help="compare X-fill strategies' power on one circuit")
    p_power.add_argument("name")
    p_power.add_argument("--seed", type=int, default=1)
    p_power.add_argument("--power-budget", type=float, default=None,
                         dest="power_budget", metavar="WTM",
                         help="peak shift-WTM cap enforced during "
                              "Phase-4 combining (default: none)")
    p_power.set_defaults(func=_cmd_power)

    p_partial = sub.add_parser(
        "partial", help="full-vs-partial scan trade-off on a circuit")
    p_partial.add_argument("name")
    p_partial.add_argument("--seed", type=int, default=1)
    p_partial.add_argument("--extra", type=int, default=0,
                           help="extra scanned flip-flops beyond "
                                "cycle cutting")
    p_partial.set_defaults(func=_cmd_partial)

    p_export = sub.add_parser(
        "export", help="compact a circuit and export the cycle-"
                       "accurate tester program")
    p_export.add_argument("name")
    p_export.add_argument("-o", "--output", default="program.rtp")
    p_export.add_argument("--seed", type=int, default=1)
    p_export.add_argument("--random", action="store_true",
                          help="use a random T0 (Table-5 arm)")
    p_export.set_defaults(func=_cmd_export)

    p_lint = sub.add_parser(
        "lint", help="static netlist lint + X-initializability analysis")
    p_lint.add_argument("targets", nargs="*",
                        help="suite circuit names and/or .bench files "
                             "(default: the whole paper suite)")
    p_lint.add_argument("--synth", type=_parse_synth,
                        metavar="PI,PO,FF,GATES",
                        help="also lint a generated synthetic circuit")
    p_lint.add_argument("--seed", type=int, default=0,
                        help="seed for --synth (default: 0)")
    p_lint.add_argument("--sweep", type=int, default=1, metavar="N",
                        help="lint N consecutive --synth seeds")
    p_lint.add_argument("--no-xinit", action="store_true",
                        help="structural rules only (skip the "
                             "X-initializability analysis)")
    p_lint.add_argument("--json", action="store_true",
                        help="print the reports as JSON")
    p_lint.add_argument("--strict", action="store_true",
                        help="warnings also fail the lint")
    p_lint.add_argument("--expect", metavar="RULE",
                        help="succeed iff every linted circuit reports "
                             "RULE (CI hook for known-bad circuits)")
    p_lint.add_argument("--allow", action="append",
                        metavar="CIRCUIT:RULE",
                        help="waive RULE on CIRCUIT for the exit code")
    p_lint.set_defaults(func=_cmd_lint)

    p_analyze = sub.add_parser(
        "analyze", help="static fault-space analysis: equivalence "
                        "classes, dominance, SCOAP, untestability "
                        "proofs")
    p_analyze.add_argument("targets", nargs="*",
                           help="suite circuit names and/or .bench "
                                "files (default: the whole paper "
                                "suite)")
    p_analyze.add_argument("--synth", type=_parse_synth,
                           metavar="PI,PO,FF,GATES",
                           help="also analyze a generated synthetic "
                                "circuit")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="seed for --synth (default: 0)")
    p_analyze.add_argument("--sweep", type=int, default=1, metavar="N",
                           help="analyze N consecutive --synth seeds")
    p_analyze.add_argument("--json", action="store_true",
                           help="print the full reports (including "
                                "per-fault proofs) as JSON")
    p_analyze.add_argument("--strict", action="store_true",
                           help="re-verify every report's internal "
                                "invariants; exit 1 on violations")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_doctor = sub.add_parser(
        "doctor", help="verify and repair a --run-dir (quarantine "
                       "corrupt records)")
    p_doctor.add_argument("run_dir", metavar="DIR",
                          help="the campaign's --run-dir")
    p_doctor.add_argument("--strict", action="store_true",
                          help="exit non-zero when anything was "
                               "quarantined")
    p_doctor.add_argument("--json", action="store_true",
                          help="print the report as JSON")
    p_doctor.set_defaults(func=_cmd_doctor)

    p_bench = sub.add_parser("bench-info", help="benchmark pointers")
    p_bench.set_defaults(func=_cmd_bench_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "run_dir",
                                                      None):
        parser.error("--resume requires --run-dir")
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
