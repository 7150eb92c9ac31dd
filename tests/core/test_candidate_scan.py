"""Candidate-parallel Phase-1 scan-in selection vs the scalar oracle.

The lane-transposed candidate scan
(:meth:`repro.sim.fault_sim.FaultSimulator.detect_candidates` driving
:func:`repro.core.phase1.select_scan_in`) is a pure packing strategy:
it must reproduce the paper's per-candidate loop bit for bit -- the
same ``(chosen_index, f_si)`` including the unselected-preferred
tie-break, on any circuit, fused cap and X-laden candidate set, in
both production configurations (see :mod:`tests.reference`).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.comb_set import CombTest
from repro.circuits import synth
from repro.core import phase1
from repro.sim import fault_sim as fault_sim_mod
from repro.sim import values as V
from repro.sim.fault_sim import FUSED_CAP, FaultSimulator
from repro.sim.faults import FaultSet
from tests.reference import production_circuits, reference_circuit

_N_PI = 4
_N_FF = 5

_CACHE = {}


def circuit_for(seed):
    """Small random sequential circuit, cached across examples:
    ``(production circuits, reference circuit, fault set)``."""
    if seed not in _CACHE:
        net = synth.generate("cscan", _N_PI, 3, _N_FF, 30, seed=seed)
        _CACHE[seed] = (production_circuits(net), reference_circuit(net),
                        FaultSet.collapsed(net))
    return _CACHE[seed]


circuit_seeds = st.integers(0, 9)
fused_caps = st.sampled_from([2, 5, FUSED_CAP])


def _scalar_oracle(sim, t0, tests, f0, selected):
    """The paper's Step 2 verbatim: one detect pass per test, the
    largest detected set wins, ties prefer unselected tests, then the
    first index."""
    remaining = sorted(set(range(len(sim.faults))) - f0)
    best, best_key, best_det = -1, None, set()
    for j, test in enumerate(tests):
        det = sim.detect(t0, test.state, target=remaining,
                         early_exit=False)
        key = (len(det), not selected[j])
        if best_key is None or key > best_key:
            best, best_key, best_det = j, key, det
    return best, best_det | f0


def _state(rng, data):
    """A candidate state, sometimes X-laden."""
    if data.draw(st.booleans()):
        return V.random_binary_vector(_N_FF, rng)
    return tuple(rng.choice((V.ZERO, V.ONE, V.X)) for _ in range(_N_FF))


def _comb_tests(rng, data, n):
    """Candidate tests with forced duplicate states mixed in."""
    tests = []
    for _ in range(n):
        if tests and data.draw(st.booleans()):
            # Duplicate an earlier state part: the dedup + tie-break
            # replay paths must handle equal candidates.
            state = tests[rng.randrange(len(tests))].state
        else:
            state = _state(rng, data)
        tests.append(CombTest(state=state,
                              pi=V.random_binary_vector(_N_PI, rng)))
    return tests


class TestScalarVsLanes:
    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_selection_identical(self, seed, cap, data):
        """(chosen_index, f_si) match the scalar oracle on the
        reference, in every production configuration and fused cap."""
        production, reference, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        t0 = [V.random_binary_vector(_N_PI, rng)
              for _ in range(data.draw(st.integers(1, 8)))]
        tests = _comb_tests(rng, data, data.draw(st.integers(1, 7)))
        selected = [data.draw(st.booleans()) for _ in tests]
        sim_ref = FaultSimulator(reference, fs)
        f0 = phase1.detect_no_scan(sim_ref, t0)
        want = _scalar_oracle(sim_ref, t0, tests, f0, selected)
        for circuit in production:
            sim = FaultSimulator(circuit, fs, fused_cap=cap)
            got = phase1.select_scan_in(sim, t0, tests, f0, selected)
            assert got == want

    @settings(max_examples=15, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_forced_total_tie(self, seed, data):
        """With target a subset of f0, every candidate counts zero:
        the winner is the first unselected test, else index 0."""
        production, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(3)]
        tests = _comb_tests(rng, data, 5)
        selected = [data.draw(st.booleans()) for _ in tests]
        f0 = set(range(len(fs)))          # nothing left to detect
        target = set(range(len(fs)))
        expected = selected.index(False) if False in selected else 0
        for circuit in production:
            sim = FaultSimulator(circuit, fs)
            got = phase1.select_scan_in(sim, t0, tests, f0, selected,
                                        target=target)
            assert got == (expected, f0)

    def test_detect_candidates_matches_detect_loop(self):
        """The simulator primitive itself: per-lane sets == per-state
        reference detect passes, including empty-candidate and
        empty-target."""
        production, reference, fs = circuit_for(0)
        rng = random.Random(7)
        vectors = [V.random_binary_vector(_N_PI, rng) for _ in range(6)]
        states = [V.random_binary_vector(_N_FF, rng) for _ in range(4)]
        ref = FaultSimulator(reference, fs)
        want = [ref.detect(vectors, s, early_exit=False) for s in states]
        for circuit in production:
            sim = FaultSimulator(circuit, fs)
            assert sim.detect_candidates(vectors, states) == want
            assert sim.detect_candidates(vectors, []) == []
            empty = sim.detect_candidates(vectors, states, target=[])
            assert empty == [set()] * len(states)

    def test_lane_repack_preserves_per_lane_sets(self, monkeypatch):
        """Aggressive in-pass group retirement never changes a lane's
        detection set (mirrors the scalar repack property)."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_GROUPS", 1)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("lrepack", 5, 4, 6, 60, seed=3)
        fs = FaultSet.collapsed(net)
        rng = random.Random(11)
        vectors = [V.random_binary_vector(5, rng) for _ in range(20)]
        states = [V.random_binary_vector(6, rng) for _ in range(5)]
        ref = FaultSimulator(reference_circuit(net), fs)
        want = [ref.detect(vectors, s, early_exit=False) for s in states]
        for circuit in production_circuits(net):
            sim = FaultSimulator(circuit, fs)
            assert sim.detect_candidates(vectors, states) == want
            if circuit.array_backend is None:
                # Only the big-int lane loop retires groups mid-pass.
                assert sim.counters.repacks > 0
                assert sim.counters.faults_dropped > 0

    def test_unknown_mode_rejected(self):
        """There is no candidate-scan mode option: the lanes route
        always runs."""
        _, reference, fs = circuit_for(0)
        sim = FaultSimulator(reference, fs)
        tests = [CombTest(state=(V.ZERO,) * _N_FF, pi=(V.ZERO,) * _N_PI)]
        with pytest.raises(TypeError, match="mode"):
            phase1.select_scan_in(sim, [(V.ZERO,) * _N_PI], tests,
                                  set(), [False], mode="vectorized")


class TestDedup:
    def test_duplicate_states_simulated_once(self, monkeypatch):
        """Regression: tests sharing a state part cost one lane, and
        the winner maps back to the first unselected duplicate."""
        _, reference, fs = circuit_for(1)
        rng = random.Random(5)
        sim = FaultSimulator(reference, fs)
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(5)]
        state = V.random_binary_vector(_N_FF, rng)
        # Indices 0 and 2 share a state; 0 is selected, 2 is not.
        tests = [CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng)),
                 CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng)),
                 CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng))]
        selected = [True, True, False]
        f0 = phase1.detect_no_scan(sim, t0)
        lanes = []
        real = sim.detect_candidates

        def spy(vectors, init_states, **kwargs):
            lanes.append(len(init_states))
            return real(vectors, init_states, **kwargs)

        monkeypatch.setattr(sim, "detect_candidates", spy)
        index, _ = phase1.select_scan_in(sim, t0, tests, f0, selected)
        # One unique state -> one candidate lane in one call.
        assert lanes == [1]
        # All counts tie; the first unselected test must win.
        assert index == 2

    def test_dedup_preserves_first_index_tie_break(self):
        """All duplicates unselected: the first index wins, exactly as
        the undeduplicated loop would pick."""
        production, reference, fs = circuit_for(2)
        rng = random.Random(9)
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(4)]
        state = V.random_binary_vector(_N_FF, rng)
        tests = [CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng))
                 for _ in range(3)]
        f0 = phase1.detect_no_scan(FaultSimulator(reference, fs), t0)
        for circuit in [reference] + production:
            index, _ = phase1.select_scan_in(FaultSimulator(circuit, fs),
                                             t0, tests, f0, [False] * 3)
            assert index == 0


class TestFusedCapAtConstruction:
    def test_cap_bounds_lane_groups(self, monkeypatch):
        """The lane packer honours the per-simulator cap."""
        _, cc, fs = circuit_for(3)
        sim = FaultSimulator(cc, fs, fused_cap=16)
        assert sim._lane_groups_per_word(4) == 4
        chunks = sim._build_lane_chunks(range(10), n_lanes=4)
        assert len(chunks) == 3  # ceil(10 / 4) balanced words
        assert max(c.n_groups for c in chunks) - \
            min(c.n_groups for c in chunks) <= 1
        assert sum(c.n_groups for c in chunks) == 10
