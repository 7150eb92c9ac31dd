"""Tests for the bit-parallel switching-activity engine."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.power import activity
from repro.power.activity import (ActivityEngine, PowerReport, SetPower,
                                  SetPowerSummary, scan_in_wtm,
                                  scan_out_wtm)
from repro.core.scan_test import ScanTest, single_vector_test
from repro.circuits import synth
from repro.sim import values as V
from repro.sim.counters import SimCounters
from repro.sim.logicsim import simulate_sequence
from tests.reference import (mixed_scan_tests, production_circuits,
                             reference_circuit)

scan_vectors = st.lists(st.sampled_from([V.ZERO, V.ONE, V.X]),
                        min_size=1, max_size=40).map(tuple)


class TestShiftWtm:
    """Hand-computed WTM values under the repo's chain convention."""

    def test_no_transitions(self):
        assert scan_in_wtm(V.vec("0000")) == 0
        assert scan_out_wtm(V.vec("1111")) == 0

    def test_single_vector_chain(self):
        assert scan_in_wtm(V.vec("1")) == 0
        assert scan_out_wtm(V.vec("0")) == 0

    def test_alternating(self):
        # 0110: transitions at k=0 (w 1) and k=2 (w 3) -> WTM_in 4;
        # scan-out weights are mirrored: (4-1-0) + (4-1-2) = 4.
        assert scan_in_wtm(V.vec("0110")) == 4
        assert scan_out_wtm(V.vec("0110")) == 4

    def test_asymmetric_weights(self):
        # 10000: one transition at k=0 -> in-weight 1, out-weight 4.
        assert scan_in_wtm(V.vec("10000")) == 1
        assert scan_out_wtm(V.vec("10000")) == 4

    def test_x_adjacent_pairs_score_zero(self):
        assert scan_in_wtm(V.vec("1x0")) == 0
        assert scan_out_wtm(V.vec("1x0")) == 0
        # The fully-specified pair still counts.
        assert scan_in_wtm(V.vec("10x")) == 1

    @given(scan_vectors)
    def test_matches_scalar_shadow(self, vec):
        assert scan_in_wtm(vec) == activity._scalar_wtm_in(vec)
        assert scan_out_wtm(vec) == activity._scalar_wtm_out(vec)

    @given(scan_vectors)
    def test_reversal_swaps_in_and_out(self, vec):
        """The weight profiles are mirror images of each other."""
        assert scan_in_wtm(vec) == scan_out_wtm(tuple(reversed(vec)))


class TestEngine:
    def _tests(self, wb, comb, n=4):
        return [single_vector_test(t.state, t.pi)
                for t in comb.tests[:n]]

    def test_capture_matches_scalar_shadow(self, s27_bench, s27_comb):
        wb = s27_bench
        state = s27_comb.tests[0].state
        vectors = tuple(t.pi for t in s27_comb.tests[:4])
        test = ScanTest(state, vectors)
        engine = ActivityEngine(wb.circuit)
        power = engine.test_power(test)
        toggles = activity._scalar_capture_toggles(wb.circuit, test)
        assert power.frames == len(vectors)
        assert power.total_capture == sum(toggles)
        assert power.peak_capture == max(toggles)

    def test_single_vector_scores_zero_capture(self, s27_bench,
                                               s27_comb):
        engine = ActivityEngine(s27_bench.circuit)
        power = engine.test_power(self._tests(s27_bench, s27_comb)[0])
        assert power.frames == 1
        assert power.total_capture == 0
        assert power.peak_capture == 0

    def test_scan_out_measured_on_final_state(self, s27_bench,
                                              s27_comb):
        from repro.sim.logicsim import simulate_sequence
        wb = s27_bench
        test = self._tests(wb, s27_comb)[0]
        response = simulate_sequence(wb.circuit, list(test.vectors),
                                     test.scan_in)
        power = ActivityEngine(wb.circuit).test_power(test)
        assert power.scan_out_wtm == scan_out_wtm(response.final_state)

    def test_results_cached_per_test(self, s27_bench, s27_comb):
        counters = SimCounters()
        engine = ActivityEngine(s27_bench.circuit, counters)
        test = self._tests(s27_bench, s27_comb)[0]
        engine.test_power(test)
        words = counters.power_words
        assert engine.test_power(test) is engine.test_power(test)
        assert counters.power_words == words  # no re-simulation

    def test_counters_bumped(self, s27_bench, s27_comb):
        counters = SimCounters()
        engine = ActivityEngine(s27_bench.circuit, counters)
        tests = self._tests(s27_bench, s27_comb)
        engine.set_power(tests)
        assert counters.power_passes == 1
        assert counters.power_words == sum(len(t.vectors)
                                           for t in tests)
        assert counters.power_s >= 0.0

    def test_sanitized_run_agrees(self, s27_bench, s27_comb,
                                  monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        plain = ActivityEngine(s27_bench.circuit)
        armed = ActivityEngine(s27_bench.circuit)
        for test in self._tests(s27_bench, s27_comb):
            assert armed.test_power(test) == plain.test_power(test)


def _reference_power(net, test):
    """A test's power from the scalar shadows on the reference
    circuit, test by test."""
    circuit = reference_circuit(net)
    toggles = activity._scalar_capture_toggles(circuit, test)
    final = simulate_sequence(circuit, list(test.vectors),
                              test.scan_in).final_state
    return activity.TestPower(
        scan_in_wtm=activity._scalar_wtm_in(test.scan_in),
        scan_out_wtm=activity._scalar_wtm_out(final),
        peak_capture=max(toggles) if toggles else 0,
        total_capture=sum(toggles), frames=test.length)


class TestLanePass:
    """The lane-batched good-machine pass behind ``set_power`` and its
    bit-sliced toggle counter against the scalar references."""

    @pytest.mark.parametrize("n_tests", [6, 70])
    def test_set_power_matches_scalar_reference(self, n_tests):
        net = synth.generate("pwlane", 4, 3, 5, 30, seed=4)
        tests = mixed_scan_tests(net, n_tests, n_tests)
        want = [_reference_power(net, t) for t in tests]
        for circuit in production_circuits(net):
            counters = SimCounters()
            engine = ActivityEngine(circuit, counters)
            assert engine.set_power(tests).tests == want
            # Duplicates are measured once; later calls hit the cache.
            assert counters.power_words == sum(t.length
                                               for t in set(tests))
            assert [engine.test_power(t) for t in tests] == want
            assert counters.power_words == sum(t.length
                                               for t in set(tests))
            fresh = ActivityEngine(circuit)
            assert [fresh.test_power(t) for t in tests] == want

    def test_mis_sized_tests_rejected(self):
        """Short and long scan-ins and short PI vectors raise instead
        of being measured."""
        net = synth.generate("tdfeq", 4, 3, 4, 25, seed=0)
        rng = random.Random(1)
        vectors = tuple(V.random_binary_vector(4, rng) for _ in range(6))
        good = ScanTest(V.random_binary_vector(4, rng), vectors)
        bad = [(ScanTest(good.scan_in[:3], vectors), "state width"),
               (ScanTest(good.scan_in + (V.ONE,) * 3, vectors),
                "state width"),
               (ScanTest(good.scan_in, tuple(v[:2] for v in vectors)),
                "vector width")]
        for circuit in production_circuits(net):
            for test, match in bad:
                with pytest.raises(ValueError, match=match):
                    ActivityEngine(circuit).test_power(test)
                with pytest.raises(ValueError, match=match):
                    ActivityEngine(circuit).set_power([good, test])


class TestSummaries:
    def _power(self, si, so, peak, total, frames):
        return activity.TestPower(scan_in_wtm=si, scan_out_wtm=so,
                                  peak_capture=peak,
                                  total_capture=total, frames=frames)

    def test_peak_shift_is_max_of_in_and_out(self):
        assert self._power(3, 7, 0, 0, 1).peak_shift_wtm == 7
        assert self._power(9, 2, 0, 0, 1).peak_shift_wtm == 9

    def test_set_summary_peaks_and_averages(self):
        power = SetPower(tests=[self._power(4, 2, 5, 8, 3),
                                self._power(1, 6, 9, 9, 2)])
        summary = power.summary()
        assert summary.tests == 2
        assert summary.peak_shift_wtm == 6
        assert summary.avg_shift_wtm == pytest.approx(5.0)
        assert summary.peak_capture == 9
        assert summary.avg_capture == pytest.approx(7.0)

    def test_empty_set_summary(self):
        summary = SetPower(tests=[]).summary()
        assert summary.tests == 0
        assert summary.peak_shift_wtm == 0
        assert summary.avg_shift_wtm == 0.0

    def test_summary_dict_roundtrip(self):
        summary = SetPower(tests=[self._power(4, 2, 5, 8, 3)]).summary()
        again = SetPowerSummary.from_dict(summary.as_dict())
        assert again == summary

    def test_report_dict_roundtrip(self):
        report = PowerReport(x_fill="adjacent", budget=12.5)
        report.sets["seqgen"] = SetPower(
            tests=[self._power(4, 2, 5, 8, 3)]).summary()
        again = PowerReport.from_dict(report.as_dict())
        assert again.x_fill == "adjacent"
        assert again.budget == 12.5
        assert again.sets == report.sets

    def test_report_from_legacy_dict(self):
        report = PowerReport.from_dict({})
        assert report.x_fill == "random"
        assert report.budget is None
        assert report.sets == {}
