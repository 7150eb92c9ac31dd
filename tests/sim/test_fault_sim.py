"""Tests for the bit-parallel sequential fault simulator.

The centrepiece is an *independent oracle*: a fault is injected
structurally (the faulty line is rewired to a constant in a mutated
netlist) and the mutated circuit is simulated with the plain
good-machine simulator.  The parallel-fault simulator must agree with
this oracle on every fault, every circuit, every sequence.
"""

import random

import pytest

from repro.circuits import library, synth
from repro.circuits.netlist import Netlist
from repro.sim import values as V
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import Fault, FaultSet
from repro.sim.logicsim import CompiledCircuit, simulate_sequence
from tests.reference import (KERNEL, production_circuit, production_circuits,
                             reference_circuit)

FAULT_NET = "__fault__"


def mutate(netlist: Netlist, fault: Fault) -> Netlist:
    """A copy of ``netlist`` with ``fault`` hard-wired."""
    mut = netlist.copy(netlist.name + "_mut")
    mut.add_const(FAULT_NET, fault.stuck)
    if fault.pin is None:
        for gate in mut.gates.values():
            if gate.name == FAULT_NET:
                continue
            gate.fanins = [FAULT_NET if f == fault.net else f
                           for f in gate.fanins]
        mut.outputs = [FAULT_NET if o == fault.net else o
                       for o in mut.outputs]
    else:
        gate_name, pin = fault.pin
        mut.gates[gate_name].fanins[pin] = FAULT_NET
    return mut.compile()


def oracle_detects(netlist, fault, vectors, init_state, scan_out=True,
                   observe_po=True):
    """Reference detection: simulate good and mutated circuits."""
    good = simulate_sequence(CompiledCircuit(netlist), vectors, init_state)
    bad = simulate_sequence(CompiledCircuit(mutate(netlist, fault)),
                            vectors, init_state)
    if observe_po:
        for g_frame, b_frame in zip(good.po_frames, bad.po_frames):
            for g, b in zip(g_frame, b_frame):
                if g != b and g != V.X and b != V.X:
                    return True
    if scan_out:
        for g, b in zip(good.final_state, bad.final_state):
            if g != b and g != V.X and b != V.X:
                return True
    return False


def check_against_oracle(netlist, vectors, init_state, scan_out=True):
    faults = FaultSet.collapsed(netlist)
    sim = FaultSimulator(CompiledCircuit(netlist), faults)
    detected = sim.detect(vectors, init_state, scan_out=scan_out,
                          early_exit=False)
    for i, fault in enumerate(faults):
        expected = oracle_detects(netlist, fault, vectors, init_state,
                                  scan_out=scan_out)
        got = i in detected
        assert got == expected, (
            f"{fault}: simulator={got}, oracle={expected}")


class TestAgainstOracle:
    def test_s27_with_scan(self, s27):
        rng = random.Random(3)
        vectors = [V.random_binary_vector(4, rng) for _ in range(20)]
        check_against_oracle(s27, vectors, V.vec("010"))

    def test_s27_without_scan_from_x(self, s27):
        rng = random.Random(4)
        vectors = [V.random_binary_vector(4, rng) for _ in range(25)]
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        detected = sim.detect(vectors, None, scan_out=False,
                              early_exit=False)
        for i, fault in enumerate(faults):
            expected = oracle_detects(s27, fault, vectors, None,
                                      scan_out=False)
            assert (i in detected) == expected, str(fault)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_circuits(self, seed):
        net = synth.generate("o", 3, 2, 3, 22, seed=seed)
        rng = random.Random(seed + 100)
        vectors = [V.random_binary_vector(3, rng) for _ in range(15)]
        init = V.random_binary_vector(3, rng)
        check_against_oracle(net, vectors, init)

    def test_single_frame(self, s27):
        check_against_oracle(s27, [V.vec("1010")], V.vec("001"))

    def test_counter_circuit(self):
        net = library.counter(3)
        vectors = [(V.ONE,)] * 6 + [(V.ZERO,)] * 2
        check_against_oracle(net, vectors, (V.ZERO,) * 3)


class TestConsistency:
    def test_width_does_not_change_results(self, s27):
        rng = random.Random(5)
        vectors = [V.random_binary_vector(4, rng) for _ in range(12)]
        faults = FaultSet.collapsed(s27)
        cc = CompiledCircuit(s27)
        wide = FaultSimulator(cc, faults)
        narrow = FaultSimulator(cc, faults, fused_cap=4)
        init = V.vec("110")
        assert wide.detect(vectors, init, early_exit=False) == \
            narrow.detect(vectors, init, early_exit=False)

    def test_fault_sim_results_identical(self, s27):
        """Both production configurations detect what the reference
        detects."""
        rng = random.Random(7)
        vectors = [V.random_binary_vector(4, rng) for _ in range(25)]
        init = V.vec("010")
        fs = FaultSet.collapsed(s27)
        want = FaultSimulator(reference_circuit(s27), fs).detect(
            vectors, init, early_exit=False)
        for cc in production_circuits(s27):
            sim = FaultSimulator(cc, fs)
            assert sim.detect(vectors, init, early_exit=False) == want

    def test_early_exit_matches_full(self, s27):
        rng = random.Random(6)
        vectors = [V.random_binary_vector(4, rng) for _ in range(30)]
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        init = V.vec("000")
        fast = sim.detect(vectors, init, early_exit=True)
        full = sim.detect(vectors, init, early_exit=False)
        # Early exit may stop before the final scan-out only when all
        # target faults are already found, so the sets must match.
        assert fast == full

    def test_target_subset(self, s27):
        rng = random.Random(7)
        vectors = [V.random_binary_vector(4, rng) for _ in range(10)]
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        init = V.vec("011")
        all_detected = sim.detect(vectors, init, early_exit=False)
        subset = sorted(all_detected)[:5]
        assert sim.detect(vectors, init, target=subset,
                          early_exit=False) == set(subset)

    def test_detect_faults_wrapper(self, s27):
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        got = sim.detect_faults([V.vec("1111")], V.vec("000"))
        assert all(isinstance(f, Fault) for f in got)

    def test_invalid_width(self, s27):
        faults = FaultSet.collapsed(s27)
        with pytest.raises(ValueError):
            FaultSimulator(CompiledCircuit(s27), faults, fused_cap=1)

    def test_out_of_range_scan_position_raises(self, s27):
        """A scan-out position outside the flip-flops -- past the last
        one, or negative -- raises ValueError in every configuration
        (the kernel would read outside its next-state rows, and a
        big-int pass would silently observe another flip-flop)."""
        faults = FaultSet.collapsed(s27)
        for circuit in production_circuits(s27):
            sim = FaultSimulator(circuit, faults)
            for observe in ([0, 3], [-1]):
                with pytest.raises(ValueError, match="scan-out position"):
                    sim.detect([V.vec("1111")], V.vec("000"),
                               scan_observe=observe)
                with pytest.raises(ValueError, match="scan-out position"):
                    sim.run_with_records([V.vec("1111")], V.vec("000"),
                                         scan_observe=observe)
                with pytest.raises(ValueError, match="scan-out position"):
                    sim.detect_trials([(V.vec("000"), [V.vec("1111")])],
                                      scan_observe=observe)

    def test_invalid_scan_in_value_raises(self, s27):
        """A scan-in value other than 0, 1 or X raises ValueError in
        every configuration, as ``pack_scalar`` does on big-int words
        (a kernel store must not read it as some other value)."""
        faults = FaultSet.collapsed(s27)
        for circuit in production_circuits(s27):
            sim = FaultSimulator(circuit, faults)
            for state in ((0, 1, 3), (0, -2, 1)):
                with pytest.raises(ValueError, match="invalid scalar"):
                    sim.detect([V.vec("1111")], state)

    def test_duplicate_scan_position_raises(self, s27):
        """A flip-flop listed twice in a partial-scan chain raises
        ValueError, as an out-of-range one does: scanned twice, its
        first scan-in value would be silently lost (``embed_state``
        would keep only the last), and so would the comb-set
        generator's."""
        from repro.atpg import comb_set

        faults = FaultSet.collapsed(s27)
        for circuit in production_circuits(s27):
            with pytest.raises(ValueError, match="scanned twice"):
                FaultSimulator(circuit, faults, scan_positions=[0, 0])
            with pytest.raises(ValueError, match="scanned twice"):
                comb_set.generate(circuit, faults, seed=1,
                                  scan_positions=[2, 1, 2])
            sim = FaultSimulator(circuit, faults, scan_positions=[2, 0])
            assert sim.n_state_vars == 2
            assert sim.embed_state((0, 1)) == (0, V.X, 1)


class TestRecords:
    def test_matches_truncated_sims(self, s27):
        rng = random.Random(8)
        vectors = [V.random_binary_vector(4, rng) for _ in range(18)]
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        init = V.vec("101")
        records = sim.run_with_records(vectors, init)
        for i in range(len(vectors)):
            direct = sim.detect(vectors[:i + 1], init, early_exit=False)
            assert records.detected_with_scanout_at(i) == direct, i

    def test_earliest_safe_scanout_is_minimal(self, s27):
        rng = random.Random(9)
        vectors = [V.random_binary_vector(4, rng) for _ in range(24)]
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        init = V.vec("000")
        records = sim.run_with_records(vectors, init)
        required = records.detected_with_scanout_at(len(vectors) - 1)
        u, detected = records.earliest_safe_scanout(required)
        assert required <= detected
        # Minimality: every earlier scan-out loses something.
        for i in range(u):
            assert not required <= records.detected_with_scanout_at(i)

    def test_unreachable_requirement_raises(self, s27):
        faults = FaultSet.collapsed(s27)
        sim = FaultSimulator(CompiledCircuit(s27), faults)
        records = sim.run_with_records([V.vec("0000")], V.vec("000"))
        with pytest.raises(ValueError, match="not detected"):
            records.earliest_safe_scanout(set(range(len(faults))))


def _incremental_nets():
    """s27 and a synthetic circuit with several dozen faults."""
    return [library.s27(), synth.generate("incq", 5, 3, 6, 60, seed=3)]


def _incremental_configs(net):
    """``(label, faults, reference faults, simulator options, scan-in)``
    per configuration: full scan from a scan-in state and from all-X,
    several chunks, partial scan and collapsed targets."""
    rng = random.Random(net.num_ffs)
    n_ff = net.num_ffs
    collapsed = FaultSet.collapsed(net)
    positions = list(range(0, n_ff, 2))
    return [
        ("full", collapsed, collapsed, {},
         V.random_binary_vector(n_ff, rng)),
        ("no-scan", collapsed, collapsed, {}, None),
        ("chunks", collapsed, collapsed, {"fused_cap": 5},
         V.random_binary_vector(n_ff, rng)),
        ("partial", collapsed, collapsed, {"scan_positions": positions},
         V.random_binary_vector(len(positions), rng)),
        ("classes", FaultSet.uncollapsed(net, collapse=True),
         FaultSet.uncollapsed(net, collapse=False), {"fused_cap": 17},
         V.random_binary_vector(n_ff, rng)),
    ]


def _step_vectors(net, seed, n):
    """Candidate vectors, a few of them X-laden."""
    rng = random.Random(seed)
    return [V.random_binary_vector(net.num_inputs, rng) if k % 4
            else tuple(rng.choice((V.ZERO, V.ONE, V.X))
                       for _ in range(net.num_inputs))
            for k in range(n)]


def _transcript(sim, init, steps):
    """Preview every candidate of each step, then apply the first;
    record what the public API reports."""
    inc = sim.incremental(init_state=init)
    out = [inc.good_state()]
    for pool in steps:
        out.append([(p.new_po_detections, p.scan_diff_faults)
                    for p in map(inc.preview, pool)])
        out.append(sorted(inc.apply(pool[0])))
        out.append(inc.good_state())
    out.append((sorted(inc.detected), inc.n_frames))
    return out


def _incremental_cases():
    """Every (production sim, reference sim, scan-in, label)."""
    for net in _incremental_nets():
        reference = reference_circuit(net)
        for label, faults, ref_faults, opts, init in \
                _incremental_configs(net):
            want = FaultSimulator(reference, ref_faults, **opts)
            for circuit in production_circuits(net):
                yield (FaultSimulator(circuit, faults, **opts), want,
                       init, f"{net.name}/{label}")


class TestIncremental:
    """:class:`IncrementalFaultSim` in both production configurations
    against the reference, through the public API only."""

    def test_apply_matches_batch(self):
        """``detected`` equals a batch no-scan-out detect, and the
        reference's."""
        for sim, ref, init, label in _incremental_cases():
            net = sim.circuit.netlist
            vectors = _step_vectors(net, 10, 15)
            inc = sim.incremental(init_state=init)
            for v in vectors:
                inc.apply(v)
            batch = sim.detect(vectors, init, scan_out=False,
                               early_exit=False)
            assert inc.detected == batch, label
            inc_ref = ref.incremental(init_state=init)
            for v in vectors:
                inc_ref.apply(v)
            assert inc.detected == inc_ref.detected, label

    def test_preview_does_not_mutate(self):
        """Previews leave the state alone: two previews agree, and an
        apply after a preview equals an apply alone."""
        for sim, _, init, label in _incremental_cases():
            net = sim.circuit.netlist
            vectors = _step_vectors(net, 12, 8)
            plain = sim.incremental(init_state=init)
            probed = sim.incremental(init_state=init)
            for k, v in enumerate(vectors):
                other = vectors[(k + 3) % len(vectors)]
                state = probed.good_state()
                first = probed.preview(other)
                assert probed.preview(other) == first, label
                assert probed.good_state() == state, label
                assert probed.n_frames == k, label
                assert probed.apply(v) == plain.apply(v), label
                assert probed.good_state() == plain.good_state(), label
            assert probed.detected == plain.detected, label

    def test_preview_counts_match_apply(self):
        for sim, _, init, label in _incremental_cases():
            net = sim.circuit.netlist
            inc = sim.incremental(init_state=init)
            for v in _step_vectors(net, 11, 10):
                preview = inc.preview(v)
                newly = inc.apply(v)
                assert preview.new_po_detections == len(newly), label

    def test_transcript_matches_reference(self):
        """Previews, detections and good states agree with the
        reference step for step."""
        for sim, ref, init, label in _incremental_cases():
            net = sim.circuit.netlist
            vectors = _step_vectors(net, 13, 36)
            steps = [vectors[k:k + 3] for k in range(0, 36, 3)]
            assert _transcript(sim, init, steps) == \
                _transcript(ref, init, steps), label

    def test_good_state_matches_good_machine(self):
        for sim, _, init, label in _incremental_cases():
            net = sim.circuit.netlist
            vectors = _step_vectors(net, 14, 9)
            inc = sim.incremental(init_state=init)
            full = sim.embed_state(init)
            for k, v in enumerate(vectors):
                inc.apply(v)
                want = simulate_sequence(reference_circuit(net),
                                         vectors[:k + 1], full)
                assert inc.good_state() == want.final_state, label

    def test_mis_sized_vector_rejected(self):
        for sim, _, init, _ in _incremental_cases():
            inc = sim.incremental(init_state=init)
            short = (V.ZERO,) * (len(sim.circuit.pi_ids) - 1)
            with pytest.raises(ValueError, match="vector width"):
                inc.preview(short)
            with pytest.raises(ValueError, match="vector width"):
                inc.apply(short + (V.ONE, V.ONE))


#: An s27 input vector holding a value that is not 0, 1 or X.
_BAD_VECTOR = (V.ZERO, V.ONE, 3, V.ZERO)

_both_configs = pytest.mark.parametrize("kernel", [True, False],
                                        ids=["kernel", "bigint"])


def _s27_sim(kernel):
    """A simulator of s27's collapsed faults in one configuration."""
    if kernel and not KERNEL:
        pytest.skip("the C kernel is unavailable")
    net = library.s27()
    return FaultSimulator(production_circuit(net, kernel),
                          FaultSet.collapsed(net))


class TestScalarValuesChecked:
    """A value other than 0, 1 and X raises ValueError at every entry
    point, in both configurations: it is checked when it is loaded,
    never read as X, and never passed over by a pass that stops
    early."""

    STATE = (V.ZERO, V.ONE, V.ZERO)
    FIRST = (V.ZERO, V.ONE, V.ZERO, V.ZERO)

    @_both_configs
    def test_detect(self, kernel):
        """Also in a frame after the pass has caught every target."""
        sim = _s27_sim(kernel)
        caught = sorted(sim.detect([self.FIRST], self.STATE,
                                   scan_out=False))
        assert caught
        with pytest.raises(ValueError, match="invalid scalar value 3"):
            sim.detect([self.FIRST, _BAD_VECTOR], self.STATE, target=caught)
        with pytest.raises(ValueError, match="invalid scalar value 3"):
            sim.detect([_BAD_VECTOR], self.STATE)

    @_both_configs
    def test_detect_trials(self, kernel):
        """In a PI sequence and in a scan-in state."""
        sim = _s27_sim(kernel)
        with pytest.raises(ValueError, match="invalid scalar value 3"):
            sim.detect_trials([(self.STATE, [_BAD_VECTOR])])
        with pytest.raises(ValueError, match="invalid scalar value 3"):
            sim.detect_trials([(self.STATE, [self.FIRST]),
                               ((V.ZERO, 3, V.ONE), [self.FIRST])])

    @_both_configs
    def test_incremental_steps(self, kernel):
        """Also in a run left with no machine to step."""
        sim = _s27_sim(kernel)
        for target in (None, []):
            inc = sim.incremental(self.STATE, target=target)
            with pytest.raises(ValueError, match="invalid scalar value 3"):
                inc.preview(_BAD_VECTOR)
            with pytest.raises(ValueError, match="invalid scalar value 3"):
                inc.apply(_BAD_VECTOR)
            assert inc.n_frames == 0


class TestTargetsOutsideTheFaults:
    """A target index that names no fault raises ValueError at every
    entry point, in both configurations and on both fault-set kinds:
    ``-1`` does not wrap to the last fault, and one past the end does
    not escape as an IndexError.  An identity set's machine list is
    checked when a store binds it, a set with classes already when its
    target is collapsed."""

    STATE = (V.ZERO, V.ONE, V.ZERO)
    VECTORS = [(V.ZERO, V.ONE, V.ZERO, V.ZERO), (V.ONE, V.ONE, V.ZERO, V.X)]

    @staticmethod
    def _sims(kernel):
        if kernel and not KERNEL:
            pytest.skip("the C kernel is unavailable")
        net = library.s27()
        circuit = production_circuit(net, kernel)
        return [FaultSimulator(circuit, faults)
                for faults in (FaultSet.collapsed(net),
                               FaultSet.uncollapsed(net))]

    @_both_configs
    def test_every_entry_point_rejects(self, kernel):
        sims = self._sims(kernel)
        assert [len(sim.faults) for sim in sims] == [32, 52]
        for sim in sims:
            assert sim.faults.has_classes == (len(sim.faults) == 52)
            for bad in (-1, len(sim.faults)):
                calls = [
                    lambda: sim.detect(self.VECTORS, self.STATE,
                                       target=[bad]),
                    lambda: sim.run_with_records(self.VECTORS, self.STATE,
                                                 target=[0, bad]),
                    lambda: sim.detect_trials(
                        [(self.STATE, self.VECTORS)], target=[bad]),
                    lambda: sim.incremental(self.STATE, target=[bad])]
                for call in calls:
                    with pytest.raises(ValueError, match="outside"):
                        call()
            # A target inside the fault set still runs.
            last = len(sim.faults) - 1
            assert sim.detect(self.VECTORS, self.STATE, target=[0, last]) \
                <= {0, last}
