"""Tests for the PODEM combinational ATPG engine."""

import itertools
import random

import pytest

from repro.atpg.podem import ABORTED, Podem, REDUNDANT, TESTABLE
from repro.circuits import synth
from repro.circuits.netlist import Netlist
from repro.sim import values as V
from repro.sim.comb_sim import CombPatternSim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit


def exhaustive_detectable(circuit, faults):
    """Ground truth by trying every input/state combination."""
    csim = CombPatternSim(FaultSimulator(circuit, faults))
    n_ff = len(circuit.ff_ids)
    n_pi = len(circuit.pi_ids)
    assert n_ff + n_pi <= 10, "too large for exhaustive check"
    patterns = [(bits[:n_ff], bits[n_ff:])
                for bits in itertools.product((0, 1), repeat=n_ff + n_pi)]
    detectable = set()
    for start in range(0, len(patterns), 128):
        hits = csim.detect_block(patterns[start:start + 128])
        detectable |= set(hits)
    return detectable


class TestS27:
    def test_all_faults_testable_and_verified(self, s27_bench):
        wb = s27_bench
        podem = Podem(wb.circuit, wb.faults)
        csim = wb.comb_sim
        rng = random.Random(0)
        for i in range(len(wb.faults)):
            result = podem.generate(i)
            assert result.status == TESTABLE, str(wb.faults[i])
            state, pi = result.pattern
            filled = (V.fill_x(state, rng), V.fill_x(pi, rng))
            assert i in csim.detect_single(filled, [i]), str(wb.faults[i])


class TestSoundnessAndCompleteness:
    @pytest.mark.parametrize("seed", [5, 13, 21])
    def test_matches_exhaustive_truth(self, seed):
        net = synth.generate("px", 4, 3, 4, 28, seed=seed)
        circuit = CompiledCircuit(net)
        faults = FaultSet.collapsed(net)
        truth = exhaustive_detectable(circuit, faults)
        podem = Podem(circuit, faults, backtrack_limit=5000)
        for i in range(len(faults)):
            result = podem.generate(i)
            if result.status == TESTABLE:
                assert i in truth, f"false TESTABLE for {faults[i]}"
            elif result.status == REDUNDANT:
                assert i not in truth, f"false REDUNDANT for {faults[i]}"
            # ABORTED makes no claim.


class TestMechanics:
    def test_aborts_respect_limit(self, small_bench):
        wb = small_bench
        podem = Podem(wb.circuit, wb.faults, backtrack_limit=0)
        statuses = {podem.generate(i).status
                    for i in range(len(wb.faults))}
        assert statuses <= {TESTABLE, REDUNDANT, ABORTED}

    def test_redundant_on_constant_feed(self):
        net = Netlist()
        net.add_input("a")
        net.add_dff("q", "o")
        net.add_const("c1", 1)
        net.add_gate("o", "OR", ["a", "c1"])  # o is constant 1
        net.add_output("o")
        net.compile()
        circuit = CompiledCircuit(net)
        faults = FaultSet(FaultSet.uncollapsed(net).faults)
        podem = Podem(circuit, faults)
        idx = faults.index[
            [f for f in faults if f.net == "o" and f.stuck == 1][0]]
        assert podem.generate(idx).status == REDUNDANT

    def test_controllability_finite_for_reachable(self, s27_bench):
        wb = s27_bench
        podem = Podem(wb.circuit, wb.faults)
        for nid in range(wb.circuit.n_nets):
            assert podem._cc0[nid] < 10 ** 9
            assert podem._cc1[nid] < 10 ** 9

    def test_pattern_may_contain_x(self, s27_bench):
        """PODEM leaves unassigned inputs at X (useful for merging)."""
        wb = s27_bench
        podem = Podem(wb.circuit, wb.faults)
        saw_x = False
        for i in range(len(wb.faults)):
            result = podem.generate(i)
            if result.status == TESTABLE:
                state, pi = result.pattern
                if V.X in state + pi:
                    saw_x = True
                    break
        assert saw_x
