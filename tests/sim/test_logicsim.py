"""Tests for the 3-valued levelized logic simulator."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import synth
from repro.circuits.netlist import Netlist
from repro.sim import values as V
from repro.sim.logicsim import (CompiledCircuit, lane_vector,
                                simulate_comb, simulate_lanes,
                                simulate_sequence)
from tests.reference import reference_circuit


def single_gate(gtype, arity):
    net = Netlist(f"{gtype}{arity}")
    for i in range(arity):
        net.add_input(f"i{i}")
    net.add_dff("q", "o")  # a dummy FF so the circuit is sequential
    net.add_gate("o", gtype, [f"i{i}" for i in range(arity)])
    net.add_output("o")
    return CompiledCircuit(net.compile())


def eval_gate(gtype, inputs):
    cc = single_gate(gtype, len(inputs))
    po, _ = simulate_comb(cc, tuple(inputs), (V.X,))
    return po[0]


def ref_gate(gtype, inputs):
    """Reference 3-valued gate semantics via exhaustive X expansion."""
    xs = [i for i, v in enumerate(inputs) if v == V.X]
    results = set()
    for combo in itertools.product([0, 1], repeat=len(xs)):
        vals = list(inputs)
        for idx, bit in zip(xs, combo):
            vals[idx] = bit
        results.add(_binary_gate(gtype, vals))
    return results.pop() if len(results) == 1 else V.X


def _binary_gate(gtype, vals):
    if gtype == "AND":
        return int(all(vals))
    if gtype == "NAND":
        return int(not all(vals))
    if gtype == "OR":
        return int(any(vals))
    if gtype == "NOR":
        return int(not any(vals))
    if gtype == "XOR":
        return sum(vals) % 2
    if gtype == "XNOR":
        return 1 - sum(vals) % 2
    if gtype == "NOT":
        return 1 - vals[0]
    if gtype == "BUF":
        return vals[0]
    raise AssertionError(gtype)


class TestGateSemantics:
    @pytest.mark.parametrize("gtype", ["AND", "NAND", "OR", "NOR",
                                       "XOR", "XNOR"])
    def test_exhaustive_ternary_2in(self, gtype):
        for a in (V.ZERO, V.ONE, V.X):
            for b in (V.ZERO, V.ONE, V.X):
                assert eval_gate(gtype, [a, b]) == \
                    ref_gate(gtype, [a, b]), (gtype, a, b)

    @pytest.mark.parametrize("gtype", ["AND", "NAND", "OR", "NOR",
                                       "XOR", "XNOR"])
    def test_exhaustive_ternary_3in(self, gtype):
        for combo in itertools.product((V.ZERO, V.ONE, V.X), repeat=3):
            assert eval_gate(gtype, list(combo)) == \
                ref_gate(gtype, list(combo)), (gtype, combo)

    @pytest.mark.parametrize("gtype", ["NOT", "BUF"])
    def test_unary(self, gtype):
        for a in (V.ZERO, V.ONE, V.X):
            assert eval_gate(gtype, [a]) == ref_gate(gtype, [a])

    def test_consts(self):
        net = Netlist()
        net.add_input("a")
        net.add_dff("q", "c0")
        net.add_const("c0", 0)
        net.add_const("c1", 1)
        net.add_gate("o", "OR", ["c0", "c1"])
        net.add_output("o")
        cc = CompiledCircuit(net.compile())
        po, _ = simulate_comb(cc, (V.X,), (V.X,))
        assert po[0] == V.ONE


class TestCompile:
    def test_unknown_engine_rejected(self, s27):
        """There is no engine option: production is one path."""
        with pytest.raises(TypeError, match="engine"):
            CompiledCircuit(s27, engine="turbo")

    def test_one_evaluator(self, s27):
        """Production and reference circuits evaluate frames with the
        same interpreting method; they differ only in the array
        backend."""
        for circuit in (CompiledCircuit(s27), reference_circuit(s27)):
            assert "eval_frame" not in circuit.__dict__
            assert type(circuit).eval_frame is CompiledCircuit.eval_frame


def _one_test_frames(cc, state, vectors):
    """Every net's scalar value per frame of one test, frame by frame
    with one-bit words."""
    zero = [0] * cc.n_nets
    one = [0] * cc.n_nets
    for nid, val in zip(cc.ff_ids, state or V.all_x(len(cc.ff_ids))):
        zero[nid], one[nid] = V.pack_scalar(val, 1)
    frames = []
    for vector in vectors:
        for nid, val in zip(cc.pi_ids, vector):
            zero[nid], one[nid] = V.pack_scalar(val, 1)
        cc.eval_frame(zero, one, 1)
        frames.append(tuple(V.word_scalar(zero[n], one[n])
                            for n in range(cc.n_nets)))
        captured = [(zero[d], one[d]) for d in cc.ff_d_ids]
        for nid, (z, o) in zip(cc.ff_ids, captured):
            zero[nid], one[nid] = z, o
    return frames


class TestLanes:
    """:func:`simulate_lanes` against one-test runs."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           n_tests=st.sampled_from([1, 2, 63, 64, 65, 130]))
    def test_lanes_match_one_test_runs(self, seed, n_tests):
        """Unequal lengths, X-laden vectors and states, an all-X state
        and more than 64 lanes: every lane reads its own test's run."""
        rng = random.Random(seed)
        net = synth.generate("lanes", 3, 2, 4, 25, seed=seed % 20)
        cc = CompiledCircuit(net)
        values = (V.ZERO, V.ONE, V.X)
        tests = []
        for _ in range(n_tests):
            state = (None if rng.random() < 0.1 else
                     tuple(rng.choice(values) for _ in range(4)))
            vectors = [tuple(rng.choice(values) for _ in range(3))
                       for _ in range(rng.randint(1, 6))]
            tests.append((state, vectors))
        frames = simulate_lanes(cc, tests)
        assert len(frames) == max(len(v) for _, v in tests)
        nets = range(cc.n_nets)
        for lane, (state, vectors) in enumerate(tests):
            want = _one_test_frames(cc, state, vectors)
            got = [lane_vector(frames[f], nets, lane)
                   for f in range(len(vectors))]
            assert got == want, lane

    def test_no_tests(self, s27):
        assert simulate_lanes(CompiledCircuit(s27), []) == []

    def test_mis_sized_tests_rejected(self, s27):
        cc = CompiledCircuit(s27)
        good = (V.vec("000"), [V.vec("0000")])
        for bad, match in (((V.vec("00"), [V.vec("0000")]), "state width"),
                           ((V.vec("0000"), [V.vec("0000")]),
                            "state width"),
                           ((V.vec("000"), [V.vec("000")]),
                            "vector width")):
            with pytest.raises(ValueError, match=match):
                simulate_lanes(cc, [good, bad])


class TestSequence:
    def test_errors(self, s27):
        cc = CompiledCircuit(s27)
        with pytest.raises(ValueError, match="empty"):
            simulate_sequence(cc, [])
        with pytest.raises(ValueError, match="state width"):
            simulate_sequence(cc, [V.vec("0000")], V.vec("00"))
        with pytest.raises(ValueError, match="vector width"):
            simulate_sequence(cc, [V.vec("00")], V.vec("000"))

    def test_state_frames_track_captures(self, s27):
        cc = CompiledCircuit(s27)
        res = simulate_sequence(cc, [V.vec("0000")] * 3, V.vec("000"))
        assert len(res.state_frames) == 3
        assert res.final_state == res.state_frames[-1]

    def test_all_x_initial_state_default(self, s27):
        cc = CompiledCircuit(s27)
        res = simulate_sequence(cc, [V.vec("0000")])
        assert len(res.po_frames) == 1

    def test_known_s27_behaviour(self, s27):
        """G17 = NOT(G11); with state 000 and input G0=1, G11 stays 0
        in frame 1 => G17 = 1 (hand-computed)."""
        cc = CompiledCircuit(s27)
        res = simulate_sequence(cc, [V.vec("1000")], V.vec("000"))
        # G14=NOT(1)=0; G11=NOR(G5=0, G9); G12=NOR(0, G7=0)=1;
        # G8=AND(0, G6=0)=0; G15=OR(1,0)=1; G16=OR(0,0)=0;
        # G9=NAND(0,1)=1; G11=NOR(0,1)=0; G17=NOT(0)=1.
        assert res.po_frames[0][0] == V.ONE


class TestMonotonicity:
    """Refining X inputs must never flip a binary result -- the
    foundation for the paper's 'F0 is detected under any scan-in
    state' claim."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), data=st.data())
    def test_ternary_monotone_under_refinement(self, seed, data):
        net = synth.generate("mono", 3, 2, 3, 20, seed=seed % 50)
        cc = CompiledCircuit(net)
        rng = random.Random(seed)
        vec_x = tuple(data.draw(st.sampled_from(
            [V.ZERO, V.ONE, V.X])) for _ in range(3))
        state_x = tuple(data.draw(st.sampled_from(
            [V.ZERO, V.ONE, V.X])) for _ in range(3))
        po_x, ns_x = simulate_comb(cc, vec_x, state_x)
        # Refine all Xs randomly.
        vec_b = V.fill_x(vec_x, rng)
        state_b = V.fill_x(state_x, rng)
        po_b, ns_b = simulate_comb(cc, vec_b, state_b)
        for x, b in zip(po_x + ns_x, po_b + ns_b):
            if x != V.X:
                assert x == b
