"""Regeneration of the paper's Tables 1-5 plus the extension tables.

Each ``table*`` function turns a list of :class:`CircuitRun` into a
:class:`~repro.experiments.reporting.Table` with the same columns the
paper prints.  Where the paper reports a total (Table 3), so do we.
Paper-published values, where the profile carries them, are available
through :func:`paper_comparison` for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..core.metrics import at_speed_stats
from .reporting import Table
from .runner import CircuitRun

#: ``{circuit: reason}`` -- circuits whose job ultimately failed.
Failures = Optional[Mapping[str, str]]


def _arm(run: CircuitRun, source: str):
    arm = run.arms.get(source)
    return arm.result if arm else None


def _add_failure_rows(table: Table, failures: Failures) -> None:
    """Annotate circuits that produced no run instead of dropping them.

    A failed job still gets a row: its name, ``FAILED(reason)`` in the
    first data column, and dashes for the rest -- so a partially
    degraded campaign renders every requested circuit.  Jobs the
    pre-flight analyzer refused to run carry a ``lint: <rule,...>``
    reason and render as ``SKIPPED(lint: <rule,...>)``: skipping a
    structurally broken circuit is deliberate, not a failure.
    """
    for name, reason in sorted((failures or {}).items()):
        label = (f"SKIPPED({reason})" if reason.startswith("lint:")
                 else f"FAILED({reason})")
        table.add_row(name, label,
                      *[None] * (len(table.headers) - 2))


def table1(runs: Sequence[CircuitRun], source: str = "seqgen",
           failures: Failures = None) -> Table:
    """Table 1: faults detected by T0, by tau_seq, and by the final set.

    The ``untst`` column (not in the paper) counts the faults the
    static analyzer *proved* untestable -- they are excluded from
    simulation and bound the achievable ``final`` count at
    ``flts - untst``.  Runs restored from pre-analyzer checkpoints
    show ``0``.
    """
    table = Table(f"Table 1: Detected faults (T0 source: {source})",
                  ["circuit", "ff", "comb tsts", "flts", "untst",
                   "T0", "scan", "final"])
    for run in runs:
        res = _arm(run, source)
        if res is None:
            continue
        table.add_row(
            run.name,
            run.n_ffs,
            run.comb_tests,
            run.n_faults,
            run.n_untestable,
            len(res.t0_detected),
            len(res.seq_detected),
            len(res.final_detected),
        )
    _add_failure_rows(table, failures)
    return table


def table2(runs: Sequence[CircuitRun], source: str = "seqgen",
           failures: Failures = None) -> Table:
    """Table 2: sequence lengths and Phase-3 additions."""
    table = Table(f"Table 2: Test lengths (T0 source: {source})",
                  ["circuit", "T0 len", "scan len", "added c.tst"])
    for run in runs:
        res = _arm(run, source)
        if res is None:
            continue
        table.add_row(run.name, res.t0_length, res.seq_length,
                      res.added_tests)
    _add_failure_rows(table, failures)
    return table


def table3(runs: Sequence[CircuitRun],
           failures: Failures = None) -> Table:
    """Table 3: clock cycles for every method.

    Columns mirror the paper: the [2,3] dynamic baseline, the [4]
    baseline before/after compaction, and the proposed procedure
    before/after Phase 4 for both ``T0`` sources.
    """
    table = Table(
        "Table 3: Numbers of clock cycles",
        ["circuit", "[2,3]", "[4] init", "[4] comp",
         "prop init", "prop comp", "rand init", "rand comp"])
    totals = [0] * 7
    have = [False] * 7
    for run in runs:
        cells: List[Optional[int]] = []
        dyn = run.dynamic.test_set.clock_cycles() if run.dynamic else None
        cells.append(dyn)
        if run.baseline4:
            cells.append(run.baseline4.stats.initial_cycles)
            cells.append(run.baseline4.stats.final_cycles)
        else:
            cells.extend([None, None])
        for source in ("seqgen", "random"):
            res = _arm(run, source)
            if res is None:
                cells.extend([None, None])
            else:
                cells.append(res.initial_cycles())
                cells.append(res.compacted_cycles())
        table.add_row(run.name, *cells)
        for i, cell in enumerate(cells):
            if cell is not None:
                totals[i] += cell
                have[i] = True
    _add_failure_rows(table, failures)
    table.add_row("total",
                  *[totals[i] if have[i] else None for i in range(7)])
    return table


def table4(runs: Sequence[CircuitRun],
           failures: Failures = None) -> Table:
    """Table 4: at-speed primary-input sequence lengths (ave / range)."""
    table = Table(
        "Table 4: At-speed test lengths",
        ["circuit", "[4] ave", "[4] range",
         "prop ave", "prop range", "rand ave", "rand range"])
    for run in runs:
        cells: List[Optional[object]] = []
        if run.baseline4:
            stats = at_speed_stats(run.baseline4.test_set)
            cells.extend([stats.average, stats.range_str])
        else:
            cells.extend([None, None])
        for source in ("seqgen", "random"):
            res = _arm(run, source)
            if res is None:
                cells.extend([None, None])
            else:
                final = res.compacted_set or res.test_set
                stats = at_speed_stats(final)
                cells.extend([stats.average, stats.range_str])
        table.add_row(run.name, *cells)
    _add_failure_rows(table, failures)
    return table


def table5(runs: Sequence[CircuitRun],
           failures: Failures = None) -> Table:
    """Table 5: the random-T0 arm in detail."""
    table = Table(
        "Table 5: Results for random sequences",
        ["circuit", "T0", "scan", "final",
         "T0 len", "scan len", "added c.tst"])
    for run in runs:
        res = _arm(run, "random")
        if res is None:
            continue
        table.add_row(
            run.name,
            len(res.t0_detected),
            len(res.seq_detected),
            len(res.final_detected),
            res.t0_length,
            res.seq_length,
            res.added_tests,
        )
    _add_failure_rows(table, failures)
    return table


def table_atspeed_coverage(runs: Sequence[CircuitRun],
                           failures: Failures = None) -> Table:
    """Extension E6: transition-fault coverage of the final test sets.

    Quantifies the paper's at-speed claim: the long-sequence test sets
    detect far more delay defects than the [4]-style sets.
    """
    table = Table(
        "Extension: transition-fault coverage (%) of final test sets",
        ["circuit", "[4]", "proposed", "rand"])
    for run in runs:
        table.add_row(
            run.name,
            run.transition.get("baseline4"),
            run.transition.get("seqgen"),
            run.transition.get("random"),
        )
    _add_failure_rows(table, failures)
    return table


def table_delay(runs: Sequence[CircuitRun],
                failures: Failures = None) -> Table:
    """Delay extension: at-speed quality vs clock cost per test set.

    The paper-style comparison: the proposed long-sequence sets (both
    ``T0`` arms) against the [4]-style single-vector baseline, scored
    on transition-fault coverage *and* the test-clock budget that
    bought it -- paper-model cycles (``cycles``), at-speed
    launch/capture pairs (``at-speed``, always 0 for single-vector
    sets), their ratio (``as-frac``), and the Beck-model tester
    cycles with slow shifts and resync overhead priced in
    (``tester``).  The ``clk`` column tags the clock scheme and shift
    divisor the report was produced under; ``tdf`` is the simulation
    route.  Runs without a delay report (legacy checkpoints, runs
    without ``--delay``) contribute no rows.
    """
    table = Table(
        "Delay: TDF coverage / test-clock cost of final test sets",
        ["circuit", "clk", "tdf", "set", "tests", "TDF cov",
         "at-speed", "cycles", "as-frac", "tester"])
    for run in runs:
        report = run.delay
        if report is None:
            continue
        tag = f"{report.spec.scheme}/{report.spec.shift_divisor}"
        for name in ("seqgen", "random", "baseline4"):
            summary = report.sets.get(name)
            if summary is None:
                continue
            table.add_row(run.name, tag, report.engine, name,
                          summary.tests, summary.coverage,
                          summary.at_speed_cycles,
                          summary.total_cycles,
                          summary.at_speed_fraction,
                          summary.tester_cycles)
    _add_failure_rows(table, failures)
    return table


def table_power(runs: Sequence[CircuitRun],
                failures: Failures = None) -> Table:
    """Power extension: shift WTM and capture toggles per test set.

    Compares the proposed sets (both ``T0`` arms) against the
    [4]-style baseline set under the run's X-fill strategy: peak and
    average shift WTM (``max(WTM_in, WTM_out)`` per test, see
    DESIGN.md section 11) and the peak capture-cycle toggle count.
    The ``x-fill`` column tags the strategy (and budget, when one was
    set) the run was produced with.
    """
    table = Table(
        "Power: shift WTM / capture toggles of final test sets",
        ["circuit", "x-fill", "set", "tests", "peak WTM",
         "avg WTM", "peak capt", "avg capt"])
    for run in runs:
        report = run.power
        if report is None:
            continue
        tag = report.x_fill
        if report.budget is not None:
            tag = f"{tag} (<= {report.budget:g})"
        for name in ("seqgen", "random", "baseline4"):
            summary = report.sets.get(name)
            if summary is None:
                continue
            table.add_row(run.name, tag, name, summary.tests,
                          summary.peak_shift_wtm,
                          summary.avg_shift_wtm,
                          summary.peak_capture,
                          summary.avg_capture)
    _add_failure_rows(table, failures)
    return table


def all_tables(runs: Sequence[CircuitRun],
               with_delay: bool = False,
               failures: Failures = None) -> List[Table]:
    """Every paper table (plus the extensions when data is present).

    ``with_delay`` forces the at-speed coverage table even when no
    surviving run carries transition data (so a failed ``--delay``
    campaign still renders the table frame); the Delay cost table
    appears whenever any run carries a full
    :class:`~repro.delay.clocking.DelayReport`.  ``failures``
    annotates circuits whose job produced no run.  The tables render
    with the surviving subset either way.
    """
    tables = [table1(runs, failures=failures),
              table2(runs, failures=failures),
              table3(runs, failures=failures),
              table4(runs, failures=failures),
              table5(runs, failures=failures)]
    if with_delay or any(run.transition for run in runs):
        tables.append(table_atspeed_coverage(runs, failures=failures))
    if with_delay or any(run.delay is not None for run in runs):
        tables.append(table_delay(runs, failures=failures))
    if any(run.power is not None for run in runs):
        tables.append(table_power(runs, failures=failures))
    return tables


def paper_comparison(runs: Sequence[CircuitRun],
                     failures: Failures = None) -> Table:
    """Paper-published vs measured key figures, where known.

    Used to fill EXPERIMENTS.md; absolute values are expected to
    differ (synthetic stand-in circuits) while orderings should hold.
    """
    table = Table(
        "Paper vs measured (key figures)",
        ["circuit", "metric", "paper", "measured"])
    for run in runs:
        paper = run.profile.paper
        res = _arm(run, "seqgen")
        b4 = run.baseline4
        rows = []
        if "faults" in paper:
            rows.append(("faults", paper["faults"], run.n_faults))
        if res is not None:
            if "t0_detected" in paper:
                rows.append(("T0 detected", paper["t0_detected"],
                             len(res.t0_detected)))
            if "scan_detected" in paper:
                rows.append(("tau_seq detected", paper["scan_detected"],
                             len(res.seq_detected)))
            if "added" in paper:
                rows.append(("added tests", paper["added"],
                             res.added_tests))
            if "cycles_prop_init" in paper:
                rows.append(("prop init cycles",
                             paper["cycles_prop_init"],
                             res.initial_cycles()))
            if "cycles_prop_comp" in paper:
                rows.append(("prop comp cycles",
                             paper["cycles_prop_comp"],
                             res.compacted_cycles()))
        if b4 is not None:
            if "cycles_4_init" in paper:
                rows.append(("[4] init cycles", paper["cycles_4_init"],
                             b4.stats.initial_cycles))
            if "cycles_4_comp" in paper:
                rows.append(("[4] comp cycles", paper["cycles_4_comp"],
                             b4.stats.final_cycles))
        for metric, expected, measured in rows:
            table.add_row(run.name, metric, expected, measured)
    _add_failure_rows(table, failures)
    return table
