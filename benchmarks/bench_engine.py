"""Performance benchmarks for the simulation and ATPG engines.

These track the throughput of the substrate the tables are built on,
on the default simulation path (useful when optimizing the inner
loops):

* one bit-parallel fault-simulation pass over a sequence;
* one PPSFP block over 64 combinational patterns;
* one PODEM run per fault, averaged;
* one full Phase-2 vector-omission run.

End-to-end timings with identical-result checks live in
``benchmarks/e2e``; the micro-benchmarks here are for interactive
tuning.
"""

import random

import pytest

from repro import api
from repro.atpg import random_gen
from repro.atpg.podem import Podem
from repro.circuits import synth
from repro.core.omission import omit_vectors
from repro.core.scan_test import ScanTest
from repro.sim import values as V


@pytest.fixture(scope="module")
def wb():
    return api.Workbench.for_netlist(
        synth.generate("engine", 5, 6, 12, 100, seed=4))


def test_fault_sim_sequence_pass(benchmark, wb):
    vectors = random_gen.random_sequence(wb.circuit, 100, seed=1)
    init = random_gen.random_state(wb.circuit, seed=2)
    detected = benchmark(wb.sim.detect, vectors, init,
                         early_exit=False)
    assert detected


def test_ppsfp_block(benchmark, wb):
    rng = random.Random(3)
    patterns = [(V.random_binary_vector(12, rng),
                 V.random_binary_vector(5, rng)) for _ in range(64)]
    hits = benchmark(wb.comb_sim.detect_block, patterns)
    assert hits


def test_podem_all_faults(benchmark, wb):
    podem = Podem(wb.circuit, wb.faults)

    def run_all():
        return [podem.generate(i).status
                for i in range(0, len(wb.faults), 4)]

    statuses = benchmark(run_all)
    assert statuses


def test_vector_omission(benchmark, wb):
    vectors = random_gen.random_sequence(wb.circuit, 60, seed=5)
    init = random_gen.random_state(wb.circuit, seed=6)
    test = ScanTest(tuple(init), tuple(vectors))
    required = wb.sim.detect(vectors, init, early_exit=False)

    result = benchmark.pedantic(
        omit_vectors, args=(wb.sim, test, required),
        rounds=1, iterations=1)
    assert result.test.length <= test.length
