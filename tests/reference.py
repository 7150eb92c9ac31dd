"""Production vs reference: the circuits every equivalence test compares.

Production is one code path in two configurations.  With cffi and a
C compiler, every fault-simulation pass chunk runs on the C kernel;
without them -- or for a circuit the kernel cannot hold -- everything
runs on big-int words through the interpreting ``eval_frame``.  The
reference is a circuit with no array backend
(``CompiledCircuit(netlist, _reference=True)``), so it runs every
pass on big-int words.

:func:`production_circuits` returns one circuit per configuration this
host can run: the kernel configuration when the kernel loads, and
always the big-int one (the kernel made unavailable, exactly as on a
host without cffi).  The equivalence tests run each of them against
:func:`reference_circuit` on the same stimuli.
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple
from unittest import mock

from repro.circuits.netlist import Netlist
from repro.core.scan_test import ScanTest
from repro.sim import npsim
from repro.sim import values as V
from repro.sim.fault_sim import FaultSimulator
from repro.sim.logicsim import CompiledCircuit

#: True when this host runs pass chunks on the C kernel.
KERNEL = npsim.kernel_unavailable_reason() is None


def reference_circuit(netlist: Netlist) -> CompiledCircuit:
    """The interpreter with no array backend."""
    return CompiledCircuit(netlist, _reference=True)


def production_circuit(netlist: Netlist, kernel: bool) -> CompiledCircuit:
    """A production circuit in the kernel or the big-int configuration.

    The array backend is resolved on first use, so the big-int
    configuration resolves it while the kernel reports itself
    unavailable; the circuit then stays on big-int words.
    """
    if not kernel:
        with mock.patch.object(npsim, "kernel_unavailable_reason",
                               lambda circuit=None: "kernel disabled"):
            circuit = CompiledCircuit(netlist)
            assert circuit.array_backend is None
        return circuit
    circuit = CompiledCircuit(netlist)
    assert circuit.array_backend is not None
    return circuit


def production_circuits(netlist: Netlist) -> List[CompiledCircuit]:
    """One production circuit per configuration this host runs."""
    return [production_circuit(netlist, kernel)
            for kernel in ((True, False) if KERNEL else (False,))]


def mixed_scan_tests(netlist: Netlist, seed: int,
                     n_tests: int) -> List[ScanTest]:
    """Scan tests of unequal lengths (1 to 6 vectors), every third one
    with X-laden vectors and scan-in, and the first three repeated at
    the end: the stimuli of the lane-pass equivalence tests."""
    rng = random.Random(seed)
    tests = []
    for k in range(n_tests):
        values = (V.ZERO, V.ONE, V.X) if k % 3 == 0 else (V.ZERO, V.ONE)
        tests.append(ScanTest(
            tuple(rng.choice(values) for _ in range(netlist.num_ffs)),
            tuple(tuple(rng.choice(values)
                        for _ in range(netlist.num_inputs))
                  for _ in range(rng.randint(1, 6)))))
    return tests + tests[:3]


def serial_omit_vectors(sim: FaultSimulator, test: ScanTest,
                        required: Set[int], initial_block: int = 16,
                        passes: int = 2
                        ) -> Tuple[ScanTest, Set[int], int, int]:
    """Phase 2's oracle: the block-first sweep from the tail of
    :func:`repro.core.omission.omit_vectors`, with every tentative test
    re-simulated from its scan-in by one reference ``detect`` (no
    checkpoints, no trail).  A drop is accepted only if the shortened
    test still detects ``required``.  Returns the shortened test, the
    required faults it detects, the trials and the vectors omitted."""
    reference = FaultSimulator(reference_circuit(sim.circuit.netlist),
                               sim.faults, scan_positions=sim.scan_positions)
    target = sorted(required)

    def detected(vectors: List[V.Vector]) -> Set[int]:
        return reference.detect(vectors, test.scan_in, target=target)

    vectors = list(test.vectors)
    trials = omitted = 0
    for _ in range(passes):
        dropped = 0
        position = len(vectors) - 1
        while position >= 0 and len(vectors) > 1:
            block = min(initial_block, position + 1, len(vectors) - 1)
            while block >= 1:
                start = position - block + 1
                shorter = vectors[:start] + vectors[position + 1:]
                trials += 1
                if required <= detected(shorter):
                    vectors = shorter
                    dropped += block
                    break
                block //= 2
            position = start - 1 if block else position - 1
        omitted += dropped
        if not dropped:
            break
    return (ScanTest(test.scan_in, tuple(vectors)), detected(vectors),
            trials, omitted)
