"""Lane-batched trial simulation vs one trial at a time.

The trial engine (:meth:`FaultSimulator.detect_trials`), the Phase-4
prefetch cache (:func:`static_compact`), the Phase-3 candidate blocks
(:func:`top_off`) and the ADI packing order are pure accelerations:
none of them may change a single detection, selection, or statistic
on the equivalence-guaranteed paths.  These properties drive random
circuits and ragged X-laden trial batches through both production
configurations (see :mod:`tests.reference`) and require exact
agreement with the reference simulated one trial at a time.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.comb_set import CombTest
from repro.circuits import synth
from repro.core import combine
from repro.core.combine import static_compact
from repro.core.phase1 import select_scan_in
from repro.core.scan_test import ScanTestSet, single_vector_test
from repro.core.topoff import top_off
from repro.sim import values as V
from repro.sim.comb_sim import CombPatternSim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from tests.reference import production_circuits, reference_circuit

_N_PI = 4

_CACHE = {}


def circuits_for(seed):
    """``(production circuits, reference circuit, fault set)`` on one
    random netlist, cached across examples."""
    if seed not in _CACHE:
        net = synth.generate("trial", _N_PI, 3, 5, 30, seed=seed)
        _CACHE[seed] = (production_circuits(net), reference_circuit(net),
                        FaultSet.collapsed(net))
    return _CACHE[seed]


def _vector(rng, binary=False):
    if binary:
        return V.random_binary_vector(_N_PI, rng)
    return tuple(rng.choice((V.ZERO, V.ONE, V.X)) for _ in range(_N_PI))


def _trial(rng, n_ff, max_frames=5):
    """One (scan_in, vectors) trial; X-laden, possibly empty."""
    scan_in = (V.random_binary_vector(n_ff, rng)
               if rng.random() < 0.8 else None)
    vectors = [_vector(rng, binary=rng.random() < 0.5)
               for _ in range(rng.randrange(0, max_frames + 1))]
    return scan_in, vectors


class TestDetectTrials:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9), data=st.data())
    def test_matches_scalar_detect(self, seed, data):
        """detect_trials == one reference detect per lane."""
        production, reference, fs = circuits_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n_ff = len(reference.ff_ids)
        n_lanes = data.draw(st.integers(1, 10))
        trials = [_trial(rng, n_ff) for _ in range(n_lanes)]
        scan_out = data.draw(st.booleans())
        target = None
        if data.draw(st.booleans()):
            target = sorted(rng.sample(range(len(fs)),
                                       rng.randrange(0, len(fs))))
        ref = FaultSimulator(reference, fs)
        scalar = [ref.detect(list(v), s, target=target,
                             scan_out=scan_out, early_exit=False)
                  for s, v in trials]
        for circuit in production:
            sim = FaultSimulator(circuit, fs)
            assert sim.detect_trials(trials, target=target,
                                     scan_out=scan_out) == scalar

    @pytest.mark.parametrize("n_lanes", [1, 63, 64, 65])
    def test_lane_count_boundaries(self, n_lanes):
        """Exactness at the word-packing boundaries."""
        production, reference, fs = circuits_for(0)
        rng = random.Random(n_lanes)
        n_ff = len(reference.ff_ids)
        trials = [_trial(rng, n_ff, max_frames=3)
                  for _ in range(n_lanes)]
        ref = FaultSimulator(reference, fs)
        scalar = [ref.detect(list(v), s, early_exit=False)
                  for s, v in trials]
        for circuit in [reference] + production:
            sim = FaultSimulator(circuit, fs)
            assert sim.detect_trials(trials) == scalar

    def test_counters_and_partial_observe(self):
        production, reference, fs = circuits_for(1)
        rng = random.Random(7)
        n_ff = len(reference.ff_ids)
        observe = sorted(rng.sample(range(n_ff), max(1, n_ff // 2)))
        trials = [_trial(rng, n_ff) for _ in range(6)]
        ref = FaultSimulator(reference, fs)
        scalar = [ref.detect(list(v), s, scan_observe=observe,
                             early_exit=False)
                  for s, v in trials]
        for circuit in production:
            sim = FaultSimulator(circuit, fs)
            batched = sim.detect_trials(trials, scan_observe=observe)
            assert batched == scalar
            assert sim.counters.trial_passes == 1
            assert sim.counters.trial_lanes == 6


class TestBatchedCombine:
    def _initial_set(self, reference, seed, n_tests=10):
        rng = random.Random(seed)
        n_ff = len(reference.ff_ids)
        tests = [single_vector_test(V.random_binary_vector(n_ff, rng),
                                    V.random_binary_vector(_N_PI, rng))
                 for _ in range(n_tests)]
        return ScanTestSet(n_ff, tests)

    @pytest.mark.parametrize("trial_batch", [2, 63, 64, 65])
    def test_prefetch_identical(self, trial_batch, monkeypatch):
        """static_compact: batched == one merge trial at a time on the
        reference, down to every stat."""
        production, reference, fs = circuits_for(2)
        initial = self._initial_set(reference, seed=11)
        monkeypatch.setattr(combine, "TRIAL_BATCH", 1)
        scalar = static_compact(FaultSimulator(reference, fs), initial)
        monkeypatch.setattr(combine, "TRIAL_BATCH", trial_batch)
        for circuit in production:
            batched = static_compact(FaultSimulator(circuit, fs),
                                     initial)
            assert batched.test_set.tests == scalar.test_set.tests
            assert batched.detected == scalar.detected
            assert vars(batched.stats) == vars(scalar.stats)

    def test_prefetch_with_length_cap_and_filter(self, monkeypatch):
        """Skip rules (length cap, merge filter) mirror exactly."""
        production, reference, fs = circuits_for(3)
        initial = self._initial_set(reference, seed=5, n_tests=8)
        reject = {initial.tests[0].combined_with(initial.tests[1])}

        def flt(test):
            return test not in reject

        for kwargs in ({"max_sequence_length": 3},
                       {"merge_filter": flt}):
            monkeypatch.setattr(combine, "TRIAL_BATCH", 1)
            scalar = static_compact(FaultSimulator(reference, fs),
                                    initial, **kwargs)
            monkeypatch.undo()
            for circuit in production:
                batched = static_compact(FaultSimulator(circuit, fs),
                                         initial, **kwargs)
                assert batched.test_set.tests == scalar.test_set.tests
                assert vars(batched.stats) == vars(scalar.stats)


class TestBatchedTopOff:
    def _comb_tests(self, reference, seed, n=12):
        rng = random.Random(seed)
        n_ff = len(reference.ff_ids)
        return [CombTest(V.random_binary_vector(n_ff, rng),
                         V.random_binary_vector(_N_PI, rng))
                for _ in range(n)]

    @pytest.mark.parametrize("trial_batch", [2, 63, 64, 65])
    def test_blocks_identical(self, trial_batch, monkeypatch):
        """top_off: PPSFP candidate blocks == one pattern at a time on
        the reference."""
        production, reference, fs = circuits_for(4)
        comb_tests = self._comb_tests(reference, seed=1)
        undetected = set(range(len(fs)))
        monkeypatch.setattr(combine, "TRIAL_BATCH", 1)
        scalar = top_off(CombPatternSim(FaultSimulator(reference, fs)),
                         comb_tests, undetected)
        monkeypatch.setattr(combine, "TRIAL_BATCH", trial_batch)
        for circuit in production:
            batched = top_off(CombPatternSim(FaultSimulator(circuit, fs)),
                              comb_tests, undetected)
            assert batched.tests == scalar.tests
            assert batched.chosen_indices == scalar.chosen_indices
            assert batched.covered == scalar.covered
            assert batched.uncovered == scalar.uncovered

    def test_all_zero_adi_is_identity(self):
        """An empty ADI map ranks every fault equally: the paper's
        min-n(f) selection is unchanged."""
        production, reference, fs = circuits_for(4)
        comb_tests = self._comb_tests(reference, seed=2)
        undetected = set(range(len(fs)))
        sim = CombPatternSim(FaultSimulator(production[0], fs))
        plain = top_off(sim, comb_tests, undetected)
        scored = top_off(sim, comb_tests, undetected, adi={})
        assert scored.chosen_indices == plain.chosen_indices

    def test_adi_covers_the_same_faults(self):
        """ADI may reorder selection, never lose coverage."""
        production, reference, fs = circuits_for(4)
        comb_tests = self._comb_tests(reference, seed=3)
        undetected = set(range(len(fs)))
        sim = CombPatternSim(FaultSimulator(production[0], fs))
        plain = top_off(sim, comb_tests, undetected)
        rng = random.Random(0)
        adi = {f: rng.randrange(0, 5) for f in range(len(fs))}
        scored = top_off(sim, comb_tests, undetected, adi=adi)
        assert scored.covered == plain.covered
        assert scored.uncovered == plain.uncovered


class TestAdiOrdering:
    def test_packing_order_never_changes_detections(self):
        """set_adi_order only regroups machine bits."""
        production, reference, fs = circuits_for(5)
        rng = random.Random(3)
        vectors = [_vector(rng) for _ in range(8)]
        init = V.random_binary_vector(len(reference.ff_ids), rng)
        plain = FaultSimulator(reference, fs).detect(vectors, init,
                                                     early_exit=False)
        adi = {f: rng.randrange(0, 9) for f in range(len(fs))}
        for circuit in production:
            # Force multiple chunks so the ordering actually applies.
            ordered_sim = FaultSimulator(circuit, fs,
                                         fused_cap=max(4, len(fs) // 3))
            ordered_sim.set_adi_order(adi)
            got = ordered_sim.detect(vectors, init, early_exit=False)
            assert got == plain
            assert ordered_sim.counters.adi_orderings > 0

    def test_phase1_zero_adi_is_identity(self):
        production, reference, fs = circuits_for(6)
        rng = random.Random(1)
        n_ff = len(reference.ff_ids)
        comb_tests = [CombTest(V.random_binary_vector(n_ff, rng),
                               V.random_binary_vector(_N_PI, rng))
                      for _ in range(6)]
        t0 = [_vector(rng, binary=True) for _ in range(6)]
        selected = [False] * len(comb_tests)
        sim = FaultSimulator(production[0], fs)
        plain = select_scan_in(sim, t0, comb_tests, set(), selected)
        scored = select_scan_in(sim, t0, comb_tests, set(), selected,
                                adi={})
        assert scored == plain
