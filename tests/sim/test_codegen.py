"""Equivalence tests: the code-generated evaluator vs the interpreter.

Production circuits evaluate frames with the code-generated evaluator;
the reference circuit interprets the op list.  The two must produce
bit-identical results for every evaluation mode the simulators use --
plain good-machine runs, stem injection, branch injection,
multi-machine words.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import library, synth
from repro.sim import values as V
from repro.sim.codegen import generate_source
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit, simulate_sequence
from tests.reference import (production_circuit, production_circuits,
                             reference_circuit)


def random_injections(circuit, rng, mask):
    """Random stems/branch dicts shaped like real fault chunks."""
    stems = {}
    branch = {}
    for _ in range(rng.randint(0, 4)):
        nid = rng.randrange(circuit.n_nets)
        m0 = rng.getrandbits(8) & mask
        m1 = rng.getrandbits(8) & mask & ~m0
        stems[nid] = (m0, m1)
    gate_outs = [out for _, out, fins in circuit.ops if fins]
    for _ in range(rng.randint(0, 3)):
        out = rng.choice(gate_outs)
        op, _, fins = next(o for o in circuit.ops if o[1] == out)
        pin = rng.randrange(len(fins))
        m0 = rng.getrandbits(8) & mask
        m1 = rng.getrandbits(8) & mask & ~m0
        branch.setdefault(out, []).append((pin, m0, m1))
    return stems, branch


def load_words(circuit, rng, mask):
    zero = [0] * circuit.n_nets
    one = [0] * circuit.n_nets
    for nid in list(circuit.pi_ids) + list(circuit.ff_ids):
        z = rng.getrandbits(9) & mask
        o = rng.getrandbits(9) & mask & ~z
        zero[nid], one[nid] = z, o
    return zero, one


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_random_frames_identical(self, seed):
        rng = random.Random(seed)
        net = synth.generate("cg", 4, 3, 4, 30, seed=seed % 40)
        generic = reference_circuit(net)
        fast = CompiledCircuit(net)
        mask = (1 << rng.randint(1, 9)) - 1
        stems, branch = random_injections(generic, rng, mask)
        z1, o1 = load_words(generic, rng, mask)
        z2, o2 = list(z1), list(o1)
        generic.eval_frame(z1, o1, mask, stems, branch)
        fast.eval_frame(z2, o2, mask, stems, branch)
        assert z1 == z2
        assert o1 == o2

    def test_fault_sim_results_identical(self, s27):
        rng = random.Random(7)
        vectors = [V.random_binary_vector(4, rng) for _ in range(25)]
        init = V.vec("010")
        fs = FaultSet.collapsed(s27)
        want = FaultSimulator(reference_circuit(s27), fs).detect(
            vectors, init, early_exit=False)
        for cc in production_circuits(s27):
            sim = FaultSimulator(cc, fs)
            assert sim.detect(vectors, init, early_exit=False) == want

    def test_good_machine_identical(self):
        net = library.counter(4)
        rng = random.Random(1)
        vectors = [(rng.randint(0, 1),) for _ in range(20)]
        a = simulate_sequence(reference_circuit(net), vectors,
                              (V.ZERO,) * 4)
        b = simulate_sequence(CompiledCircuit(net), vectors,
                              (V.ZERO,) * 4)
        assert a.po_frames == b.po_frames
        assert a.state_frames == b.state_frames


class TestMechanics:
    def test_source_is_valid_python(self, s27):
        cc = reference_circuit(s27)
        source = generate_source(cc)
        compile(source, "<test>", "exec")
        assert "def eval_frame" in source

    def test_unknown_engine_rejected(self, s27):
        """There is no engine option: production is one path."""
        with pytest.raises(TypeError, match="engine"):
            CompiledCircuit(s27, engine="turbo")

    def test_default_is_codegen(self, s27):
        cc = CompiledCircuit(s27)
        # Instance attribute shadows the class method.
        assert "eval_frame" in cc.__dict__
        # Only the reference keeps the interpreter.
        assert "eval_frame" not in reference_circuit(s27).__dict__

    def test_speedup_exists(self):
        """The whole point: the fast engine should not be slower."""
        import time
        net = synth.generate("perf", 5, 5, 10, 120, seed=9)
        rng = random.Random(2)
        vectors = [V.random_binary_vector(5, rng) for _ in range(120)]
        fs = FaultSet.collapsed(net)
        init = V.random_binary_vector(10, rng)
        # Both evaluators on big-int words: time the evaluator, not
        # the C kernel.
        sims = {"generic": FaultSimulator(reference_circuit(net), fs),
                "codegen": FaultSimulator(production_circuit(net, False),
                                          fs)}
        timings = {engine: float("inf") for engine in sims}
        # The minimum of interleaved runs: one sample per evaluator
        # is at the mercy of whatever else the host is doing.
        for _ in range(5):
            for engine, sim in sims.items():
                start = time.perf_counter()
                sim.detect(vectors, init, early_exit=False)
                timings[engine] = min(timings[engine],
                                      time.perf_counter() - start)
        # Allow noise, but codegen must not be significantly slower.
        assert timings["codegen"] <= timings["generic"] * 1.15


class TestCodeCache:
    """The source-text code cache."""

    def test_repeated_builds_hit_cache(self):
        """Rebuilding a CompiledCircuit over the same netlist reuses
        the compiled code object instead of recompiling."""
        import repro.sim.codegen as codegen
        net = synth.generate("cachehit", 4, 3, 4, 30, seed=12)
        CompiledCircuit(net)
        source = generate_source(reference_circuit(net))
        cached = codegen._CODE_CACHE.get(source)
        assert cached is not None
        CompiledCircuit(net.copy())
        assert codegen._CODE_CACHE[source] is cached
