"""The combinational-pattern adapter against per-pattern reference passes.

:class:`CombPatternSim` simulates a block of ``(state, pi)`` patterns as
one :meth:`FaultSimulator.detect_trials` call and a single pattern as
one :meth:`FaultSimulator.detect` pass.  In both production
configurations (see :mod:`tests.reference`) every per-fault pattern
mask must equal what the reference detects one pattern at a time,
whatever the block size, scan chain, X content or fault kind.
"""

import random

import pytest

from repro.analysis.faultspace import analyze_faultspace
from repro.circuits import synth
from repro.circuits.netlist import Netlist
from repro.sim import values as V
from repro.sim.comb_sim import CombPatternSim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from tests.reference import production_circuits, reference_circuit


def random_patterns(n_ff, n_pi, count, seed, x_rate=0.0):
    """``count`` patterns; each value is X with probability ``x_rate``."""
    rng = random.Random(seed)

    def vector(n):
        return tuple(V.X if rng.random() < x_rate
                     else rng.choice((V.ZERO, V.ONE)) for _ in range(n))

    return [(vector(n_ff), vector(n_pi)) for _ in range(count)]


def reference_masks(netlist, faults, patterns, target=None,
                    scan_positions=None):
    """``{fault: pattern mask}``, one reference detect pass per pattern."""
    ref = FaultSimulator(reference_circuit(netlist), faults,
                         scan_positions=scan_positions)
    masks = {}
    for p, (state, pi) in enumerate(patterns):
        for fid in ref.detect([pi], state, target, early_exit=False):
            masks[fid] = masks.get(fid, 0) | 1 << p
    return masks


def adapters(netlist, faults, scan_positions=None):
    """One adapter per production configuration."""
    return [CombPatternSim(FaultSimulator(circuit, faults,
                                          scan_positions=scan_positions))
            for circuit in production_circuits(netlist)]


def _adapter_netlist():
    """A small sequential circuit with flip-flop data-pin faults (data
    nets that also feed a gate or a PO) and proven-untestable faults
    (a path blocked by a constant)."""
    net = Netlist("adapter")
    for name in ("a", "b", "c"):
        net.add_input(name)
    net.add_gate("k", "CONST0", [])
    net.add_gate("n1", "NAND", ["a", "q0"])
    net.add_gate("n2", "NOR", ["b", "q1"])
    net.add_gate("n3", "XOR", ["n1", "n2"])
    net.add_gate("n4", "OR", ["n3", "c"])
    net.add_gate("x", "NOT", ["c"])
    net.add_gate("blk", "AND", ["x", "k"])
    net.add_gate("n5", "OR", ["n4", "blk"])
    net.add_dff("q0", "n3")
    net.add_dff("q1", "n5")
    net.add_dff("q2", "n1")
    net.add_output("n3")
    net.add_output("n2")
    return net.compile()


@pytest.fixture(scope="module")
def adapter_net():
    net = _adapter_netlist()
    faults = FaultSet.uncollapsed(net, collapse=True)
    untestable = analyze_faultspace(net).untestable_indices(faults)
    return net, faults, untestable


def _dff_pin_faults(netlist, faults):
    return [i for i, f in enumerate(faults)
            if f.pin is not None and netlist.gates[f.pin[0]].gtype == "DFF"]


class TestAgainstSequentialSim:
    """A length-1 scan test and a combinational pattern are the same
    thing; the adapter must agree with the reference fault for fault."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_pattern_equivalence(self, s27_bench, seed):
        wb = s27_bench
        (state, pi), = random_patterns(3, 4, 1, seed)
        want = FaultSimulator(reference_circuit(wb.netlist), wb.faults)\
            .detect([pi], state, early_exit=False)
        for csim in adapters(wb.netlist, wb.faults):
            assert csim.detect_single((state, pi)) == want

    def test_block_equals_singles(self, s27_bench):
        wb = s27_bench
        patterns = random_patterns(3, 4, 10, seed=7)
        for csim in adapters(wb.netlist, wb.faults):
            block = csim.detect_block(patterns)
            for p, pattern in enumerate(patterns):
                singles = csim.detect_single(pattern)
                from_block = {fid for fid, mask in block.items()
                              if mask & (1 << p)}
                assert from_block == singles

    def test_synthetic_circuit(self, small_bench):
        wb = small_bench
        n_ff = len(wb.circuit.ff_ids)
        n_pi = len(wb.circuit.pi_ids)
        patterns = random_patterns(n_ff, n_pi, 5, seed=3)
        want = reference_masks(wb.netlist, wb.faults, patterns)
        for csim in adapters(wb.netlist, wb.faults):
            assert csim.detect_block(patterns) == want
            for p, pattern in enumerate(patterns):
                assert csim.detect_single(pattern) == {
                    fid for fid, mask in want.items() if mask >> p & 1}


class TestBlocks:
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
    def test_block_sizes(self, size):
        """Blocks of any size, past one 64-bit word and past the
        128-pattern cap of the old dedicated PPSFP loop."""
        net = synth.generate("blocks", 5, 3, 6, 50, seed=2)
        faults = FaultSet.collapsed(net)
        patterns = random_patterns(6, 5, size, seed=size)
        want = reference_masks(net, faults, patterns)
        assert want
        for csim in adapters(net, faults):
            assert csim.detect_block(patterns) == want

    @pytest.mark.parametrize("positions", [[0], [0, 2], [1, 2]])
    def test_partial_scan(self, adapter_net, positions):
        """Pattern states cover the scanned flip-flops only; only
        their captures are observed."""
        net, faults, _ = adapter_net
        patterns = random_patterns(len(positions), 3, 20, seed=5)
        want = reference_masks(net, faults, patterns,
                               scan_positions=positions)
        for csim in adapters(net, faults, scan_positions=positions):
            assert csim.detect_block(patterns) == want
            for p, pattern in enumerate(patterns):
                assert csim.detect_single(pattern) == {
                    fid for fid, mask in want.items() if mask >> p & 1}

    @pytest.mark.parametrize("x_rate", [0.2, 0.6])
    def test_x_laden_patterns(self, adapter_net, x_rate):
        net, faults, _ = adapter_net
        patterns = random_patterns(3, 3, 40, seed=11, x_rate=x_rate)
        want = reference_masks(net, faults, patterns)
        for csim in adapters(net, faults):
            assert csim.detect_block(patterns) == want

    def test_dff_data_pin_faults(self, adapter_net):
        """A data-pin fault changes only the captured bit of its
        flip-flop: detected by the scan-out alone."""
        net, faults, _ = adapter_net
        pins = _dff_pin_faults(net, faults)
        assert pins
        patterns = random_patterns(3, 3, 16, seed=4)
        want = reference_masks(net, faults, patterns, target=pins)
        assert want
        for csim in adapters(net, faults):
            assert csim.detect_block(patterns, pins) == want

    def test_untestable_exclusion(self, adapter_net):
        """The simulator's untestable exclusion reaches the adapter and
        changes no mask, only the simulated-fault count."""
        net, faults, untestable = adapter_net
        assert untestable
        patterns = random_patterns(3, 3, 24, seed=8)
        want = reference_masks(net, faults, patterns)
        for circuit in production_circuits(net):
            sim = FaultSimulator(circuit, faults)
            sim.set_untestable(sorted(untestable))
            csim = CombPatternSim(sim)
            assert csim.detect_block(patterns) == want
            reps, _ = faults.collapse_target(
                range(len(faults)), faults.untestable_reps(untestable))
            assert sim.counters.comb_passes == len(reps)

    @pytest.mark.parametrize("method", ["detect_block", "detect_single"])
    def test_comb_passes_counts_representatives(self, adapter_net, method):
        """Each call adds the number of representative faults it
        simulates: the work equivalence collapsing shrinks."""
        net, faults, _ = adapter_net
        assert faults.has_classes
        target = list(range(0, len(faults), 2))
        reps, _ = faults.collapse_target(target)
        patterns = random_patterns(3, 3, 3, seed=1)
        for csim in adapters(net, faults):
            if method == "detect_block":
                csim.detect_block(patterns, target)
            else:
                csim.detect_single(patterns[0], target)
            assert csim.counters.comb_passes == len(reps) < len(target)


class TestInterface:
    def test_target_restriction(self, s27_bench):
        wb = s27_bench
        pattern = random_patterns(3, 4, 1, 5)[0]
        for csim in adapters(wb.netlist, wb.faults):
            full = csim.detect_single(pattern)
            if full:
                some = sorted(full)[:2]
                assert csim.detect_single(pattern, some) == set(some)
                assert set(csim.detect_block([pattern], some)) == set(some)

    def test_x_values_in_pattern_are_pessimistic(self, s27_bench):
        wb = s27_bench
        all_x = ((V.X,) * 3, (V.X,) * 4)
        for csim in adapters(wb.netlist, wb.faults):
            assert csim.detect_single(all_x) == set()
            assert csim.detect_block([all_x]) == {}

    @pytest.mark.parametrize("method", ["detect_block", "detect_single"])
    @pytest.mark.parametrize("make", [
        lambda state, pi: (pi, state),        # swapped parts
        lambda state, pi: (state[:1], pi[:1]),  # short vectors
        lambda state, pi: (state, pi + pi),   # long PI vector
    ])
    def test_mis_sized_patterns_rejected(self, s27_bench, method, make):
        """A pattern whose parts do not match the circuit's flip-flop
        and primary-input widths is an error, never truncated."""
        wb = s27_bench
        state, pi = random_patterns(3, 4, 1, 2)[0]
        bad = make(state, pi)
        for csim in adapters(wb.netlist, wb.faults):
            with pytest.raises(ValueError, match="width"):
                if method == "detect_block":
                    csim.detect_block([(state, pi), bad])
                else:
                    csim.detect_single(bad)
