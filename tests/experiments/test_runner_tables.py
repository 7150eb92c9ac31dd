"""Tests for the experiment runner and the paper-table builders.

Everything here runs on s27 only (sub-second) -- the quick-suite runs
and the paper's table shapes live in ``test_paper_shape.py``.
"""

import pytest

from repro.circuits import suite
from repro.experiments import runner, tables


@pytest.fixture(scope="module")
def s27_run():
    return runner.run_circuit(suite.profile("s27"), seed=1,
                              delay=True)


class TestRunner:
    def test_both_arms_present(self, s27_run):
        assert set(s27_run.arms) == {"seqgen", "random"}

    def test_baselines_present(self, s27_run):
        assert s27_run.baseline4 is not None
        assert s27_run.dynamic is not None

    def test_transition_data(self, s27_run):
        assert "baseline4" in s27_run.transition
        assert "seqgen" in s27_run.transition

    def test_delay_report_present(self, s27_run):
        report = s27_run.delay
        assert report is not None
        assert {"baseline4", "seqgen", "random"} <= set(report.sets)
        for summary in report.sets.values():
            assert summary.at_speed_cycles <= summary.total_cycles
            assert summary.total_cycles <= summary.tester_cycles

    def test_delay_coverage_matches_transition(self, s27_run):
        # The flat transition dict is derived from the delay report.
        for label, cov in s27_run.transition.items():
            assert s27_run.delay.sets[label].coverage == cov

    def test_counts_sane(self, s27_run):
        assert s27_run.n_faults == 32
        assert s27_run.n_detectable == 32
        assert s27_run.n_ffs == 3

    def test_bad_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arm"):
            runner.run_circuit(suite.profile("s27"), arms=["nope"])

    def test_run_suite_subset(self):
        runs = runner.run_suite([suite.profile("s27")],
                                with_baselines=False,
                                arms=["random"])
        assert len(runs) == 1
        assert runs[0].baseline4 is None


class TestTables:
    def test_table1_shape(self, s27_run):
        t = tables.table1([s27_run])
        assert t.headers[0] == "circuit"
        assert len(t.rows) == 1
        circuit, ff, ctests, flts, untst, t0, scan, final = t.rows[0]
        assert circuit == "s27"
        assert untst >= 0
        assert t0 <= scan <= final <= flts - untst

    def test_table2_shape(self, s27_run):
        t = tables.table2([s27_run])
        _, t0_len, scan_len, added = t.rows[0]
        assert scan_len <= t0_len
        assert added >= 0

    def test_table3_totals(self, s27_run):
        t = tables.table3([s27_run])
        assert t.rows[-1][0] == "total"
        # One circuit: total equals the single row.
        assert t.rows[-1][1:] == t.rows[0][1:]

    def test_table3_orderings(self, s27_run):
        t = tables.table3([s27_run])
        (_, dyn, b4i, b4c, pi, pc, ri, rc) = t.rows[0]
        assert b4c <= b4i          # compaction helps the baseline
        assert pc <= pi            # phase 4 never hurts
        assert rc <= ri

    def test_table4_shape(self, s27_run):
        t = tables.table4([s27_run])
        _, ave4, rng4, avep, rngp, aver, rngr = t.rows[0]
        assert "-" in rng4
        assert avep >= ave4  # long-sequence sets have longer averages

    def test_table5_matches_random_arm(self, s27_run):
        t = tables.table5([s27_run])
        res = s27_run.arms["random"].result
        assert t.rows[0][1] == len(res.t0_detected)
        assert t.rows[0][4] == res.t0_length

    def test_transition_table(self, s27_run):
        t = tables.table_atspeed_coverage([s27_run])
        _, b4, prop, rand = t.rows[0]
        assert prop > b4  # the paper's at-speed claim, quantified

    def test_delay_table(self, s27_run):
        t = tables.table_delay([s27_run])
        rows = {row[3]: row for row in t.rows}
        assert set(rows) == {"seqgen", "random", "baseline4"}
        # The paper's at-speed claim priced in clock cycles: the
        # long-sequence sets buy far more launch/capture pairs.
        assert rows["seqgen"][6] > rows["baseline4"][6]
        for row in t.rows:
            assert 0.0 <= row[8] <= 1.0  # at-speed fraction

    def test_all_tables(self, s27_run):
        ts = tables.all_tables([s27_run])
        # 5 paper tables + at-speed coverage + delay cost (run carries
        # both transition data and a full delay report).
        assert len(ts) >= 7

    def test_paper_comparison_table(self, s27_run):
        t = tables.paper_comparison([s27_run])
        # s27 carries only an ff entry, so few rows; must not crash.
        assert t.headers == ["circuit", "metric", "paper", "measured"]
