"""The Accidental-Detection-Index ordering saves detect passes.

ADI (Pomeranz & Reddy, arXiv:0710.4637) orders Phase 1 and Phase 3 by
how often the random phase of comb-set generation detected each fault
and packs the frequently detected faults into shared words.  On
bench1k (12 PI, 10 PO, 28 FF, 330 gates, over 1,000 collapsed faults)
it must keep the final coverage, take fewer detect passes and no more
clock cycles than the plain run.  The 90-gate benchq shows no pass
reduction, so the gate runs on bench1k.
"""

import pytest

from repro.atpg import comb_set as comb_set_mod, random_gen
from repro.circuits import synth
from repro.core.proposed import run as run_proposed
from repro.sim.comb_sim import CombPatternSim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit


@pytest.fixture(scope="module")
def bench1k():
    """bench1k, its collapsed faults, its comb set (with the ADI
    census) and a random ``T0`` of 100 vectors, shared by both arms."""
    net = synth.generate("bench1k", 12, 10, 28, 330, seed=7)
    circuit = CompiledCircuit(net)
    faults = FaultSet.collapsed(net)
    comb = comb_set_mod.generate(circuit, faults, seed=1)
    t0 = random_gen.random_sequence(circuit, 100, seed=1)
    return circuit, faults, comb, t0


def _proposed_run(circuit, faults, comb, t0, adi):
    """The proposed procedure with or without ADI ordering; returns
    its counters, final detections and final clock cycles."""
    sim = FaultSimulator(circuit, faults)
    result = run_proposed(sim, CombPatternSim(sim), t0, comb.tests,
                          adi=adi, adi_scores=comb.adi if adi else None)
    final = result.compacted_set or result.test_set
    return sim.counters, result.final_detected, final.clock_cycles()


def test_adi_saves_detect_passes(bench1k):
    plain, plain_detected, plain_cycles = _proposed_run(*bench1k,
                                                        adi=False)
    adi, adi_detected, adi_cycles = _proposed_run(*bench1k, adi=True)
    assert adi_detected == plain_detected
    assert adi.detect_passes < plain.detect_passes
    assert adi_cycles <= plain_cycles
