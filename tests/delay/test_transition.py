"""Tests for transition-fault simulation."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import library, synth
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.delay import transition as transition_mod
from repro.delay.transition import (TransitionFault, TransitionSim,
                                    all_transition_faults)
from repro.sim import fault_sim
from repro.sim import values as V
from repro.sim.counters import SimCounters
from repro.sim.logicsim import CompiledCircuit, simulate_lanes
from tests.reference import (KERNEL, mixed_scan_tests, production_circuit,
                             production_circuits, reference_circuit)

needs_packed = pytest.mark.skipif(
    not KERNEL, reason="packed TDF route needs cffi + C kernel")


def oracle_detects(netlist, fault, test):
    """Reference: for each launch frame, freeze the net at its old
    value for that frame only, then run the error forward through the
    fault-free circuit and compare against the good run."""
    cc = CompiledCircuit(netlist)
    # Good-machine net values per frame.
    zero = [0] * cc.n_nets
    one = [0] * cc.n_nets
    for nid_, val in zip(cc.ff_ids, test.scan_in):
        zero[nid_], one[nid_] = V.pack_scalar(val, 1)
    values = []
    for vec in test.vectors:
        for nid_, val in zip(cc.pi_ids, vec):
            zero[nid_], one[nid_] = V.pack_scalar(val, 1)
        cc.eval_frame(zero, one, 1)
        values.append((list(zero), list(one)))
        cap = tuple(V.word_scalar(zero[nid_], one[nid_])
                    for nid_ in cc.ff_d_ids)
        for nid_, val in zip(cc.ff_ids, cap):
            zero[nid_], one[nid_] = V.pack_scalar(val, 1)
    nid = netlist.net_ids[fault.net]
    last = test.length - 1
    for t in range(1, test.length):
        pz, po_ = values[t - 1]
        czv, cov = values[t]
        if fault.rising:
            launched = bool(pz[nid] & 1) and bool(cov[nid] & 1)
            stuck = 0
        else:
            launched = bool(po_[nid] & 1) and bool(czv[nid] & 1)
            stuck = 1
        if not launched:
            continue
        # Faulty machine: stuck-at-old at frame t, fault-free after.
        fz = [0] * cc.n_nets
        fo = [0] * cc.n_nets
        state = tuple(
            V.word_scalar(values[t - 1][0][d], values[t - 1][1][d])
            for d in cc.ff_d_ids)
        for fid_, val in zip(cc.ff_ids, state):
            fz[fid_], fo[fid_] = V.pack_scalar(val, 1)
        for u in range(t, test.length):
            for pid, val in zip(cc.pi_ids, test.vectors[u]):
                fz[pid], fo[pid] = V.pack_scalar(val, 1)
            if u == t:
                stems = {nid: (1, 0) if stuck == 0 else (0, 1)}
                if nid in cc.pi_ids or nid in cc.ff_ids:
                    fz[nid], fo[nid] = (1, 0) if stuck == 0 else (0, 1)
                cc.eval_frame(fz, fo, 1, stems)
            else:
                cc.eval_frame(fz, fo, 1)
            gz, go = values[u]
            observe = list(cc.po_ids) + (list(cc.ff_d_ids)
                                         if u == last else [])
            for oid in observe:
                g = V.word_scalar(gz[oid], go[oid])
                f = V.word_scalar(fz[oid], fo[oid])
                if g != f and g != V.X and f != V.X:
                    return True
            cap = [(fz[d], fo[d]) for d in cc.ff_d_ids]
            for fid_, (z, o) in zip(cc.ff_ids, cap):
                fz[fid_], fo[fid_] = z, o
    return False


def oracle_set(netlist, faults, test):
    """The indices of ``faults`` that :func:`oracle_detects` says
    ``test`` detects."""
    return {i for i, fault in enumerate(faults)
            if oracle_detects(netlist, fault, test)}


class TestModel:
    def test_fault_enumeration(self, s27):
        faults = all_transition_faults(s27)
        assert len(faults) == 2 * s27.num_nets
        assert str(TransitionFault("a", True)) == "a/STR"
        assert str(TransitionFault("a", False)) == "a/STF"

    def test_length_one_test_detects_nothing(self, s27):
        """No at-speed vector pair => no transition coverage (the crux
        of the paper's at-speed argument)."""
        sim = TransitionSim(CompiledCircuit(s27))
        test = ScanTest(V.vec("000"), (V.vec("1111"),))
        assert sim.detect_test(test) == set()

    def test_counter_lsb_transitions(self):
        """In a free-running counter, q0 toggles every cycle: both
        transition faults on its data net are launched and captured."""
        net = library.counter(3)
        cc = CompiledCircuit(net)
        sim = TransitionSim(cc)
        test = ScanTest((V.ZERO,) * 3, ((V.ONE,),) * 6)
        detected = {str(sim.faults[i]) for i in sim.detect_test(test)}
        assert "d0/STR" in detected or "q0/STR" in detected


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_s27_matches_reference(self, s27, seed):
        rng = random.Random(seed)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(10))
        test = ScanTest(V.random_binary_vector(3, rng), vectors)
        sim = TransitionSim(CompiledCircuit(s27))
        got = sim.detect_test(test)
        for i, fault in enumerate(sim.faults):
            expected = oracle_detects(s27, fault, test)
            assert (i in got) == expected, str(fault)


class TestTestSets:
    def test_coverage_monotone_in_tests(self, s27):
        rng = random.Random(3)
        cc = CompiledCircuit(s27)
        sim = TransitionSim(cc)
        tests = []
        for _ in range(3):
            vectors = tuple(V.random_binary_vector(4, rng)
                            for _ in range(8))
            tests.append(ScanTest(V.random_binary_vector(3, rng),
                                  vectors))
        small = ScanTestSet(3, tests[:1])
        large = ScanTestSet(3, tests)
        assert sim.detect_test_set(small) <= sim.detect_test_set(large)

    def test_coverage_percent_bounds(self, s27):
        rng = random.Random(4)
        cc = CompiledCircuit(s27)
        sim = TransitionSim(cc)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(12))
        ts = ScanTestSet(3, [ScanTest(V.vec("000"), vectors)])
        pct = sim.coverage_percent(ts)
        assert 0.0 <= pct <= 100.0

    def test_target_restriction(self, s27):
        rng = random.Random(5)
        sim = TransitionSim(CompiledCircuit(s27))
        vectors = tuple(V.random_binary_vector(4, rng) for _ in range(8))
        test = ScanTest(V.vec("010"), vectors)
        full = sim.detect_test(test)
        if full:
            some = set(sorted(full)[:3])
            assert sim.detect_test(test, some) == some

    def test_out_of_range_target_rejected(self, s27):
        """A target index that names no fault raises on every route,
        also -1 when the last fault, which it would wrap to, is
        detected."""
        rng = random.Random(0)
        vectors = tuple(V.random_binary_vector(4, rng) for _ in range(8))
        test = ScanTest(V.random_binary_vector(3, rng), vectors)
        for circuit in production_circuits(s27) + [reference_circuit(s27)]:
            sim = TransitionSim(circuit)
            last = len(sim.faults) - 1
            assert last in sim.detect_test(test)
            for bad in (-1, last + 1, 10 ** 6):
                with pytest.raises(ValueError, match="outside"):
                    sim.detect_test(test, {0, bad})


# ----------------------------------------------------------------------
# The dense passes on either store: the kernel's ("packed") and a
# big-int word arena ("scalar")
# ----------------------------------------------------------------------

_N_PI = 4
_N_PO = 3
_N_FF = 4

_EQ_CACHE = {}


def sims_for(seed):
    """``(production sims, reference sim)``, cached across hypothesis
    examples (fault lists and packing plans are per-circuit and
    expensive to rebuild every example)."""
    if seed not in _EQ_CACHE:
        net = synth.generate("tdfeq", _N_PI, _N_PO, _N_FF, 25, seed=seed)
        _EQ_CACHE[seed] = (
            [TransitionSim(cc) for cc in production_circuits(net)],
            TransitionSim(reference_circuit(net)))
    return _EQ_CACHE[seed]


eq_seeds = st.integers(0, 9)


def _vectors(data, rng, n):
    """A PI sequence mixing binary and X-laden vectors."""
    out = []
    for _ in range(n):
        if data.draw(st.booleans()):
            out.append(V.random_binary_vector(_N_PI, rng))
        else:
            out.append(tuple(rng.choice((V.ZERO, V.ONE, V.X))
                             for _ in range(_N_PI)))
    return tuple(out)


class TestRouteSelection:
    def test_unknown_route_rejected(self, s27):
        """There is no route option: the circuit decides."""
        with pytest.raises(TypeError, match="route"):
            TransitionSim(CompiledCircuit(s27), route="fused")

    def test_scalar_route_forced(self, s27):
        """The reference circuit has no array backend: scalar."""
        sim = TransitionSim(reference_circuit(s27))
        assert sim.route == "scalar"

    def test_auto_resolves(self, s27):
        """Production resolves to packed exactly when the circuit has
        an array backend, and to scalar without the kernel."""
        sim = TransitionSim(CompiledCircuit(s27))
        assert sim.route == ("packed" if KERNEL else "scalar")
        bigint = TransitionSim(production_circuit(s27, kernel=False))
        assert bigint.route == "scalar"

    @needs_packed
    def test_packed_route_forced(self, s27):
        sim = TransitionSim(production_circuit(s27, kernel=True))
        assert sim.route == "packed"

    def test_counters_surface_tdf_fields(self, s27):
        counters = SimCounters()
        sim = TransitionSim(CompiledCircuit(s27), counters=counters)
        rng = random.Random(7)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(8))
        sim.detect_test(ScanTest(V.vec("010"), vectors))
        assert counters.tdf_passes > 0
        assert counters.tdf_words > 0
        assert counters.tdf_s >= 0.0
        back = SimCounters.from_dict(counters.as_dict())
        assert back.tdf_passes == counters.tdf_passes
        assert back.tdf_words == counters.tdf_words


class TestRouteEquivalence:
    """Both production configurations must detect what the serial
    oracle and the reference circuit detect -- including X-laden
    stimuli, restricted targets and multi-word launch groups."""

    @settings(max_examples=30, deadline=None)
    @given(seed=eq_seeds, data=st.data())
    def test_detections_identical(self, seed, data):
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 10)))
        test = ScanTest(V.random_binary_vector(_N_FF, rng), vectors)
        production, reference = sims_for(seed)
        want = oracle_set(reference.circuit.netlist, reference.faults, test)
        assert reference.detect_test(test) == want
        for sim in production:
            assert sim.detect_test(test) == want

    @settings(max_examples=20, deadline=None)
    @given(seed=eq_seeds, data=st.data())
    def test_restricted_target_identical(self, seed, data):
        """Target restriction + the all-caught saturation break must
        not depend on the route."""
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(2, 8)))
        test = ScanTest(V.random_binary_vector(_N_FF, rng), vectors)
        production, reference = sims_for(seed)
        full = reference.detect_test(test)
        if not full:
            return
        k = data.draw(st.integers(1, len(full)))
        some = set(sorted(full)[:k])
        for sim in production:
            assert sim.detect_test(test, some) == some

    def test_length_one_detects_nothing_packed(self, s27):
        for circuit in production_circuits(s27):
            sim = TransitionSim(circuit)
            test = ScanTest(V.vec("000"), (V.vec("1111"),))
            assert sim.detect_test(test) == set()

    def test_multi_word_launch_groups(self):
        """A circuit with > 63 faults forces multi-word uint64 chunks
        (and several scalar words); detection must still match the
        reference exactly."""
        net = synth.generate("tdfwide", 5, 4, 8, 80, seed=11)
        reference = TransitionSim(reference_circuit(net))
        assert len(reference.faults) > 63
        rng = random.Random(2)
        tests = [ScanTest(V.random_binary_vector(net.num_ffs, rng),
                          tuple(V.random_binary_vector(5, rng)
                                for _ in range(12)))
                 for _ in range(3)]
        ts = ScanTestSet(net.num_ffs, tests)
        want = reference.detect_test_set(ts)
        for circuit in production_circuits(net):
            assert TransitionSim(circuit).detect_test_set(ts) == want

    def test_counters_identical_across_stores(self):
        """Both stores run the same dense passes: ``tdf_passes`` and
        ``tdf_words`` are the reference circuit's in both production
        configurations, and only the kernel counts kernel passes."""
        net = synth.generate("tdfwide", 5, 4, 8, 80, seed=11)
        rng = random.Random(2)
        tests = ScanTestSet(net.num_ffs, [
            ScanTest(V.random_binary_vector(net.num_ffs, rng),
                     tuple(V.random_binary_vector(5, rng)
                           for _ in range(12)))
            for _ in range(3)])
        reference = TransitionSim(reference_circuit(net))
        want = reference.detect_test_set(tests)
        counts = (reference.counters.tdf_passes,
                  reference.counters.tdf_words)
        assert counts[0] > 0 and reference.counters.np_passes == 0
        for circuit in production_circuits(net):
            sim = TransitionSim(circuit)
            assert sim.detect_test_set(tests) == want
            c = sim.counters
            assert (c.tdf_passes, c.tdf_words) == counts
            assert (c.np_passes > 0) == (circuit.array_backend is not None)

    def test_sanitizer_spot_checks_packed_captures(self, monkeypatch):
        """With REPRO_SANITIZE armed, each configuration re-runs its
        first dense passes on the reference circuit; agreement means no
        violation is reported and the spot budget is consumed."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        net = synth.generate("tdfsan", 4, 3, 5, 30, seed=5)
        rng = random.Random(9)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(10))
        test = ScanTest(V.random_binary_vector(net.num_ffs, rng), vectors)
        for circuit in production_circuits(net):
            sim = TransitionSim(circuit)
            sim.detect_test(test)
            assert sim._sanitize_spots_left < \
                transition_mod._SANITIZE_SPOT_BUDGET

    def test_shadow_does_not_distort_counters(self, monkeypatch):
        """The sanitizer's shadow keeps its own counters: armed and
        unarmed runs count the same, in either configuration."""
        net = synth.generate("tdfsan", 4, 3, 5, 30, seed=6)
        rng = random.Random(3)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(8))
        test = ScanTest(V.random_binary_vector(net.num_ffs, rng), vectors)
        for circuit in production_circuits(net):
            counts = []
            for armed in (False, True):
                if armed:
                    monkeypatch.setenv("REPRO_SANITIZE", "1")
                else:
                    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
                sim = TransitionSim(circuit)
                sim.detect_test(test)
                counts.append((sim.counters.tdf_passes,
                               sim.counters.tdf_words))
            assert counts[0] == counts[1]


def _edge_test(rng, n_frames, x_rate):
    """A scan test whose PI 0 holds one value until the last frame and
    flips there (a launch at the last frame only), whose PI 1 toggles
    every frame (each of its faults launched in several frames, rising
    and falling on one net), and whose other PIs and scan-in are
    random, X at ``x_rate``."""
    def value():
        return V.X if rng.random() < x_rate else rng.choice((V.ZERO, V.ONE))

    held = rng.choice((V.ZERO, V.ONE))
    vectors = tuple(
        (1 - held if t == n_frames - 1 else held, t % 2) +
        tuple(value() for _ in range(_N_PI - 2)) for t in range(n_frames))
    return ScanTest(tuple(value() for _ in range(_N_FF)), vectors)


def _launches(sim, test):
    """Every ``(frame, fault)`` launch of ``test``, read off a one-lane
    good-machine pass."""
    frames = simulate_lanes(sim.circuit, [(test.scan_in, test.vectors)])
    out = []
    for t in range(1, test.length):
        (pz, po), (cz, co) = frames[t - 1], frames[t]
        for fid, fault in enumerate(sim.faults):
            nid = sim.circuit.netlist.net_ids[fault.net]
            if (pz[nid] & co[nid] if fault.rising else po[nid] & cz[nid]) & 1:
                out.append((t, fid))
    return out


class TestDenseWindows:
    """A test's launches are graded in frame order, at most
    ``FUSED_CAP - 1`` to a pass, each forced only in its launch frame;
    at a cap of 8 a test runs many windows and later windows skip the
    faults earlier ones detected."""

    @settings(max_examples=25, deadline=None)
    @given(seed=eq_seeds, data=st.data())
    def test_small_cap_matches_reference(self, seed, data):
        rng = random.Random(data.draw(st.integers(0, 999)))
        x_rate = data.draw(st.sampled_from((0.0, 0.25)))
        tests = [_edge_test(rng, data.draw(st.integers(2, 12)), x_rate)
                 for _ in range(2)]
        production, reference = sims_for(seed)
        net = reference.circuit.netlist
        want = [oracle_set(net, reference.faults, test) for test in tests]
        assert [reference.detect_test(test) for test in tests] == want
        with mock.patch.object(fault_sim, "FUSED_CAP", 8):
            for sim in production:
                assert [sim.detect_test(test) for test in tests] == want
                assert sim.detect_test_set(
                    ScanTestSet(_N_FF, tests)) == want[0] | want[1]

    def test_windows_prune_and_cover_the_edges(self, monkeypatch):
        """One stimulus of the hypothesis case, checked to hold every
        edge it is built for: several windows, later ones pruned, a
        launch at the last frame only, one fault launched in several
        frames, rising and falling faults on one net, launches on PI
        and flip-flop-output nets, and X in the scan-in and vectors."""
        production, reference = sims_for(0)
        circuit = reference.circuit
        test = _edge_test(random.Random(1), 12, 0.25)
        launches = _launches(reference, test)
        frames_of = {}
        for t, fid in launches:
            frames_of.setdefault(fid, []).append(t)
        assert any(ts == [test.length - 1] for ts in frames_of.values())
        assert any(len(ts) > 1 for ts in frames_of.values())
        nets = {}
        for fid in frames_of:
            fault = reference.faults[fid]
            nets.setdefault(fault.net, set()).add(fault.rising)
        assert {True, False} in nets.values()
        launched = {circuit.netlist.net_ids[net] for net in nets}
        assert launched & set(circuit.pi_ids)
        assert launched & set(circuit.ff_ids)
        assert V.X in test.scan_in and any(V.X in v for v in test.vectors)
        want = reference.detect_test(test)
        passes = []
        real = TransitionSim._dense_pass

        def spy(self, *args):
            passes.append(len(args[-1]))
            return real(self, *args)

        monkeypatch.setattr(fault_sim, "FUSED_CAP", 8)
        monkeypatch.setattr(TransitionSim, "_dense_pass", spy)
        for sim in production:
            passes.clear()
            assert sim.detect_test(test) == want
            assert len(passes) > 2 and max(passes) == 7
            assert sum(passes) < len(launches)


class TestLanePass:
    """The lane-batched good-machine pass behind ``detect_test_set``:
    read lane by lane, it must detect per test exactly what the serial
    oracle and the reference detect test by test."""

    @pytest.mark.parametrize("n_tests", [6, 70])
    def test_per_test_sets_match_reference(self, n_tests):
        net = synth.generate("tdflane", 4, 3, 5, 30, seed=4)
        tests = mixed_scan_tests(net, n_tests, n_tests)
        reference = TransitionSim(reference_circuit(net))
        want = [oracle_set(net, reference.faults, t) for t in tests]
        assert [reference.detect_test(t) for t in tests] == want
        blank = ScanTest((V.X,) * net.num_ffs,
                         ((V.X,) * net.num_inputs,) * 2)
        for circuit in production_circuits(net):
            sim = TransitionSim(circuit)
            # Test k in lane 64 + k (lane word 1 or 2), behind all-X
            # tests that launch nothing.
            assert [sim.detect_test_set(ScanTestSet(
                net.num_ffs, [blank] * (64 + k) + [t]))
                for k, t in enumerate(tests)] == want
            assert [sim.detect_test(t) for t in tests] == want
            assert sim.detect_test_set(
                ScanTestSet(net.num_ffs, tests)) == set().union(*want)

    def test_mis_sized_tests_rejected(self):
        """Short and long scan-ins and short PI vectors raise instead
        of being truncated or padded."""
        net = synth.generate("tdfeq", 4, 3, 4, 25, seed=0)
        rng = random.Random(1)
        vectors = tuple(V.random_binary_vector(4, rng) for _ in range(6))
        good = ScanTest(V.random_binary_vector(4, rng), vectors)
        bad = [(ScanTest(good.scan_in[:3], vectors), "state width"),
               (ScanTest(good.scan_in + (V.ONE,) * 3, vectors),
                "state width"),
               (ScanTest(good.scan_in, tuple(v[:2] for v in vectors)),
                "vector width")]
        for circuit in production_circuits(net):
            sim = TransitionSim(circuit)
            assert sim.detect_test(good)
            for test, match in bad:
                with pytest.raises(ValueError, match=match):
                    sim.detect_test(test)
                with pytest.raises(ValueError, match=match):
                    sim.detect_test_set([good, test])
