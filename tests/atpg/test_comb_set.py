"""Tests for combinational test-set generation and compaction."""

import pytest

from repro.atpg import comb_set


class TestGenerate:
    def test_complete_accounting(self, s27_bench, s27_comb):
        wb, result = s27_bench, s27_comb
        universe = set(range(len(wb.faults)))
        assert result.detected | result.redundant | result.aborted == \
            universe
        assert not result.detected & result.redundant
        assert not result.detected & result.aborted

    def test_s27_fully_testable(self, s27_comb):
        assert not s27_comb.redundant
        assert not s27_comb.aborted

    def test_set_actually_detects_claimed(self, s27_bench, s27_comb):
        wb, result = s27_bench, s27_comb
        csim = wb.comb_sim
        covered = set()
        for test in result.tests:
            covered |= csim.detect_single(test.as_pattern(),
                                          sorted(result.detected))
        assert covered == result.detected

    def test_deterministic(self, s27_bench):
        wb = s27_bench
        a = comb_set.generate(wb.circuit, wb.faults, seed=42)
        b = comb_set.generate(wb.circuit, wb.faults, seed=42)
        assert [(t.state, t.pi) for t in a.tests] == \
            [(t.state, t.pi) for t in b.tests]

    def test_tests_fully_specified(self, s27_comb):
        from repro.sim import values as V
        for test in s27_comb.tests:
            assert V.is_binary(test.state)
            assert V.is_binary(test.pi)

    def test_detectable_property(self, mid_comb):
        assert mid_comb.detectable == mid_comb.detected | mid_comb.aborted


class TestRandomSelected:
    def test_every_kept_pattern_useful(self, s27_bench):
        wb = s27_bench
        result = comb_set.random_selected(wb.circuit, wb.faults, seed=3)
        csim = wb.comb_sim
        # Simulating in order with fault dropping, every test must
        # contribute at least one first detection.
        remaining = set(result.detected)
        for test in result.tests:
            hits = csim.detect_single(test.as_pattern(),
                                      sorted(remaining))
            assert hits, "useless pattern kept"
            remaining -= hits
        assert not remaining

    def test_stale_stop(self, s27_bench):
        wb = s27_bench
        result = comb_set.random_selected(wb.circuit, wb.faults, seed=3,
                                          max_patterns=64, block=16)
        assert len(result.tests) <= 64


class TestCompaction:
    def test_preserves_coverage(self, s27_bench, s27_comb):
        wb, result = s27_bench, s27_comb
        compacted = comb_set.compact_tests(
            wb.circuit, wb.faults, result.tests, result.detected)
        csim = wb.comb_sim
        covered = set()
        for test in compacted:
            covered |= csim.detect_single(test.as_pattern(),
                                          sorted(result.detected))
        assert covered >= result.detected
        assert len(compacted) <= len(result.tests)

    def test_empty_requirements(self, s27_bench, s27_comb):
        wb = s27_bench
        compacted = comb_set.compact_tests(
            wb.circuit, wb.faults, s27_comb.tests, set())
        assert compacted == []
