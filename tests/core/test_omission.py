"""Tests for Phase 2: vector omission."""

import random

import pytest

from repro.atpg import random_gen
from repro.core.omission import omit_vectors
from repro.core.scan_test import ScanTest
from repro.sim import values as V


def is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def make_case(wb, length, seed):
    t0 = random_gen.random_sequence(wb.circuit, length, seed=seed)
    scan_in = random_gen.random_state(wb.circuit, seed=seed + 1)
    test = ScanTest(tuple(scan_in), tuple(t0))
    required = wb.sim.detect(t0, scan_in, early_exit=False)
    return test, required


class TestContract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_detection_preserved(self, s27_bench, seed):
        wb = s27_bench
        test, required = make_case(wb, 40, seed)
        result = omit_vectors(wb.sim, test, required)
        # Independent full re-simulation of the shortened test.
        check = wb.sim.detect(list(result.test.vectors),
                              result.test.scan_in, early_exit=False)
        assert required <= check
        assert required <= result.detected

    def test_result_is_subsequence(self, s27_bench):
        wb = s27_bench
        test, required = make_case(wb, 30, 3)
        result = omit_vectors(wb.sim, test, required)
        assert is_subsequence(result.test.vectors, test.vectors)
        assert result.test.scan_in == test.scan_in

    def test_never_longer(self, s27_bench):
        wb = s27_bench
        test, required = make_case(wb, 35, 4)
        result = omit_vectors(wb.sim, test, required)
        assert result.test.length <= test.length
        assert result.omitted == test.length - result.test.length

    def test_random_tail_is_trimmed(self, s27_bench):
        """A test padded with vectors after everything is detected
        should lose (most of) the padding."""
        wb = s27_bench
        test, required = make_case(wb, 20, 5)
        padded = ScanTest(test.scan_in, test.vectors + test.vectors)
        padded_required = wb.sim.detect(list(padded.vectors),
                                        padded.scan_in,
                                        early_exit=False)
        result = omit_vectors(wb.sim, padded, padded_required)
        assert result.test.length < padded.length

    def test_input_must_detect_required(self, s27_bench):
        wb = s27_bench
        test, _ = make_case(wb, 10, 6)
        everything = set(range(len(wb.faults)))
        with pytest.raises(ValueError, match="misses"):
            omit_vectors(wb.sim, test, everything)

    def test_single_vector_kept(self, s27_bench):
        wb = s27_bench
        test = ScanTest(V.vec("000"), (V.vec("1111"),))
        required = wb.sim.detect([V.vec("1111")], V.vec("000"),
                                 early_exit=False)
        result = omit_vectors(wb.sim, test, required)
        assert result.test.length == 1

    def test_detected_matches_resimulation(self, s27_bench):
        wb = s27_bench
        test, required = make_case(wb, 25, 7)
        result = omit_vectors(wb.sim, test, required)
        direct = wb.sim.detect(list(result.test.vectors),
                               result.test.scan_in,
                               target=sorted(required),
                               early_exit=False)
        assert result.detected == direct


class TestKnobs:
    def test_single_pass(self, s27_bench):
        wb = s27_bench
        test, required = make_case(wb, 30, 8)
        one = omit_vectors(wb.sim, test, required, passes=1)
        two = omit_vectors(wb.sim, test, required, passes=2)
        assert two.test.length <= one.test.length

    def test_block_size_one(self, s27_bench):
        wb = s27_bench
        test, required = make_case(wb, 20, 9)
        result = omit_vectors(wb.sim, test, required, initial_block=1)
        check = wb.sim.detect(list(result.test.vectors),
                              result.test.scan_in, early_exit=False)
        assert required <= check

    @pytest.mark.parametrize("block", [0, -3])
    def test_block_below_one_raises(self, s27_bench, block):
        """A block size below 1 would try no omission at all."""
        wb = s27_bench
        vectors = random_gen.random_sequence(wb.circuit, 30, seed=1)
        scan_in = random_gen.random_state(wb.circuit, seed=2)
        test = ScanTest(tuple(scan_in), tuple(vectors))
        required = wb.sim.detect(vectors, scan_in)
        with pytest.raises(ValueError, match="initial_block"):
            omit_vectors(wb.sim, test, required, initial_block=block)
        assert omit_vectors(wb.sim, test, required,
                            initial_block=1).omitted > 0

    @pytest.mark.parametrize("passes", [0, -2])
    def test_passes_below_one_raises(self, s27_bench, passes):
        """``passes`` counts the sweeps, so fewer than one sweep is an
        error, not one sweep in disguise."""
        wb = s27_bench
        vectors = random_gen.random_sequence(wb.circuit, 30, seed=1)
        scan_in = random_gen.random_state(wb.circuit, seed=2)
        test = ScanTest(tuple(scan_in), tuple(vectors))
        required = wb.sim.detect(vectors, scan_in)
        with pytest.raises(ValueError, match="passes"):
            omit_vectors(wb.sim, test, required, passes=passes)
        assert omit_vectors(wb.sim, test, required, passes=1).omitted > 0

    def test_synthetic_circuit(self, mid_bench):
        wb = mid_bench
        test, required = make_case(wb, 50, 10)
        result = omit_vectors(wb.sim, test, required)
        check = wb.sim.detect(list(result.test.vectors),
                              result.test.scan_in, early_exit=False)
        assert required <= check
