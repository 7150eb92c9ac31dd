"""The paper's result shapes on the quick suite (s27, b02, b01, b06,
s298), and its design choices and the partial-scan extension on b06.

The tables come from one ``run_suite(quick_suite(), seed=1,
delay=True)``; the bounds are the shapes of the paper's Section 4, not
its exact numbers (EXPERIMENTS.md records the side-by-side).
``repro-compact tables`` prints the same tables.
"""

import pytest

from repro import api
from repro.atpg import comb_set as comb_set_mod, seqgen
from repro.circuits import suite
from repro.core.combine import static_compact
from repro.core.partial import PartialScanPlan, compact_partial
from repro.core.proposed import run as run_proposed
from repro.core.scan_test import ScanTestSet, single_vector_test
from repro.experiments import run_suite, tables


@pytest.fixture(scope="module")
def suite_runs():
    return run_suite(suite.quick_suite(), seed=1, delay=True)


class TestPaperTables:
    def test_table1(self, suite_runs):
        """Table 1: ``det(T0) <= det(tau_seq) <= det(final)``, with
        ``tau_seq`` detecting a large share of the faults."""
        for row in tables.table1(suite_runs).rows:
            circuit, ff, ctests, flts, untst, t0, scan, final = row
            assert t0 <= scan <= final <= flts, circuit
            # tau_seq detects "a large percentage of the target faults".
            assert scan >= 0.5 * flts, circuit

    def test_table2(self, suite_runs):
        """Table 2: ``L(T_seq) <= L(T0)`` (Phases 1-2 only truncate and
        omit vectors), and Phase 3 adds few tests."""
        by_name = {run.name: run for run in suite_runs}
        for row in tables.table2(suite_runs).rows:
            circuit, t0_len, scan_len, added = row
            assert scan_len <= t0_len, circuit
            assert scan_len >= 1, circuit
            assert added <= by_name[circuit].comb_tests, circuit

    def test_table3(self, suite_runs):
        """Table 3, the headline: compaction helps every method, the
        proposed sets take fewer cycles than [4]'s in total, and the
        dynamic [2,3] baseline trails static compaction."""
        table = tables.table3(suite_runs)
        for row in table.rows[:-1]:
            circuit, dyn, b4i, b4c, pi, pc, ri, rc = row
            assert b4c <= b4i, circuit
            assert pc <= pi, circuit
            assert rc <= ri, circuit
        _, dyn_t, b4i_t, b4c_t, pi_t, pc_t, ri_t, rc_t = table.rows[-1]
        # Paper Section 4: "both the initial and the final test sets of
        # the method proposed here require overall a lower number of
        # clock cycles than those of [4]".
        assert pi_t < b4i_t
        assert pc_t < b4c_t
        assert dyn_t >= b4c_t

    def test_table4(self, suite_runs):
        """Table 4: the proposed at-speed sequences are much longer
        than [4]'s, and the random-T0 arm's sit above [4]'s too."""
        rows = tables.table4(suite_runs).rows
        prop_wins = 0
        rand_wins = 0
        for row in rows:
            circuit, ave4, rng4, avep, rngp, aver, rngr = row
            assert avep >= ave4, circuit
            if avep >= 2 * ave4:
                prop_wins += 1
            if aver >= ave4:
                rand_wins += 1
        # The shape, not exact factors: proposed is >=2x on most
        # circuits.
        assert prop_wins >= len(rows) // 2
        assert rand_wins >= len(rows) // 2

    def test_table5(self, suite_runs):
        """Table 5: the selected scan prefix is far shorter than the
        random ``T0``, and the scan test and the final set detect at
        least what ``T0`` does."""
        rows = tables.table5(suite_runs).rows
        shrunk = 0
        for row in rows:
            circuit, t0, scan, final, t0_len, scan_len, added = row
            assert t0 <= scan <= final, circuit
            assert scan_len <= t0_len, circuit
            if scan_len <= t0_len // 2:
                shrunk += 1
        assert shrunk >= len(rows) // 2

    def test_transition_coverage(self, suite_runs):
        """Extension E6: the proposed sets' transition-fault coverage
        dominates [4]'s on every circuit, strictly somewhere."""
        rows = tables.table_atspeed_coverage(suite_runs).rows
        for circuit, b4, prop, rand in rows:
            assert prop >= b4, circuit
        assert any(row[2] > row[1] for row in rows)


@pytest.fixture(scope="module")
def b06():
    """b06's workbench, comb set and seqgen ``T0``."""
    profile = suite.profile("b06")
    wb = api.Workbench.for_netlist(profile.build())
    comb = comb_set_mod.generate(wb.circuit, wb.faults, seed=1)
    t0 = seqgen.generate_sequence(
        wb.circuit, wb.faults, max_length=profile.seq_budget, seed=1,
        hints=[t.pi for t in comb.tests]).sequence
    return wb, comb, t0


class TestAblations:
    def test_scan_out_rule(self, b06):
        """A1, Section 3.1: the max-coverage scan-out time (``i1``)
        gives sequences no shorter than the earliest safe one
        (``i0``), for a marginal gain in detections."""
        wb, comb, t0 = b06
        i0 = run_proposed(wb.sim, wb.comb_sim, t0, comb.tests,
                          run_phase4=False, scan_out_rule="earliest")
        i1 = run_proposed(wb.sim, wb.comb_sim, t0, comb.tests,
                          run_phase4=False, scan_out_rule="max_coverage")
        assert i1.seq_length >= i0.seq_length
        assert len(i1.seq_detected) - len(i0.seq_detected) <= \
            0.05 * len(wb.faults) + 5

    def test_iterations(self, b06):
        """A2, Section 3.3: iterating Phases 1+2 only refines
        ``tau_seq`` (shorter, or more detections)."""
        wb, comb, t0 = b06
        once = run_proposed(wb.sim, wb.comb_sim, t0, comb.tests,
                            run_phase4=False, max_iterations=1)
        full = run_proposed(wb.sim, wb.comb_sim, t0, comb.tests,
                            run_phase4=False)
        assert full.seq_length <= once.seq_length or \
            len(full.seq_detected) >= len(once.seq_detected)

    def test_transfer_sequences(self, b06):
        """A3, the [7] improvement: [4] with transfer sequences takes
        no more cycles than plain [4]."""
        wb, comb, _ = b06
        initial = ScanTestSet(
            len(wb.circuit.ff_ids),
            [single_vector_test(t.state, t.pi) for t in comb.tests])
        plain = static_compact(wb.sim, initial)
        with_t = static_compact(wb.sim, initial, max_transfer=3,
                                transfer_pool=[t.pi for t in comb.tests])
        assert with_t.stats.final_cycles <= plain.stats.final_cycles

    def test_partial_scan_tradeoff(self, b06):
        """E7, the paper's partial-scan extension: a cycle-cutting
        chain is no longer than full scan and detects no more; a
        shorter chain takes fewer cycles than full scan's plus one
        full chain length."""
        netlist = b06[0].circuit.netlist
        rows = []
        for plan in (PartialScanPlan.full(netlist),
                     PartialScanPlan.by_cycle_cutting(netlist)):
            result = compact_partial(plan, seed=1, t0_length=120)
            final = result.compacted_set or result.test_set
            rows.append((plan.n_scanned, final.clock_cycles(),
                         len(result.final_detected)))
        (full_chain, full_cycles, full_det), \
            (cut_chain, cut_cycles, cut_det) = rows
        assert cut_chain <= full_chain
        assert cut_det <= full_det
        if cut_chain < full_chain:
            # Cheaper scans must show up in the cost when chains shrink.
            assert cut_cycles < full_cycles + full_chain
