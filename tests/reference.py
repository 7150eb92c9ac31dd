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
from typing import List
from unittest import mock

from repro.circuits.netlist import Netlist
from repro.core.scan_test import ScanTest
from repro.sim import npsim
from repro.sim import values as V
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
