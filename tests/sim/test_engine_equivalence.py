"""Production vs reference: every simulation route must agree exactly.

Production runs each pass chunk on the C kernel when it loads and on
big-int words otherwise; the reference is a circuit with no array
backend (see :mod:`tests.reference`).  Wide-word
fusion, multi-chunk packing, the in-pass repack and the kernel are
pure execution strategies -- none of them may change a single
detection.  These properties drive random circuits, fused caps, scan
configurations, restricted targets and X-laden vectors through both
production configurations and require byte-identical results.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.atpg import random_gen
from repro.circuits import synth
from repro.circuits.netlist import Netlist
from repro.core.combine import _detections
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.sim.comb_sim import CombPatternSim
from repro.sim import fault_sim as fault_sim_mod
from repro.sim import npsim
from repro.sim import values as V
from repro.sim.counters import SimCounters
from repro.sim.fault_sim import FUSED_CAP, FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit
from repro.sim.scoreboard import FaultScoreboard
from tests.reference import (KERNEL, production_circuits,
                             reference_circuit)

_N_PI = 4

_CACHE = {}


def circuit_for(seed):
    """Small random sequential circuit, cached across examples:
    ``(production circuits, reference circuit, fault set)``."""
    if seed not in _CACHE:
        net = synth.generate("equiv", _N_PI, 3, 5, 30, seed=seed)
        _CACHE[seed] = (production_circuits(net), reference_circuit(net),
                        FaultSet.collapsed(net))
    return _CACHE[seed]


def production_for(seed, kernel):
    """The production circuit of one configuration, with the
    reference circuit and fault set."""
    production, reference, fs = circuit_for(seed)
    circuit, = [c for c in production
                if (c.array_backend is not None) == kernel]
    return circuit, reference, fs


needs_kernel = pytest.mark.skipif(not KERNEL,
                                  reason="the C kernel is unavailable")

circuit_seeds = st.integers(0, 14)
#: Fused caps: 2 and 5 force many-chunk packing, 128 a few chunks on
#: the larger circuits, FUSED_CAP one fused word.
fused_caps = st.sampled_from([2, 5, 128, FUSED_CAP])


def _vectors(data, rng, n):
    """A sequence that mixes binary and X-laden vectors."""
    out = []
    for _ in range(n):
        if data.draw(st.booleans()):
            out.append(V.random_binary_vector(_N_PI, rng))
        else:
            out.append(tuple(rng.choice((V.ZERO, V.ONE, V.X))
                             for _ in range(_N_PI)))
    return out


def _target(data, rng, n_faults):
    """``None`` (every fault) or a random restricted target."""
    if data.draw(st.booleans()):
        return None
    return sorted(rng.sample(range(n_faults), rng.randrange(n_faults)))


# The properties, each checked in both production configurations: the
# big-int one by TestEngineEquivalence, the kernel one by
# TestNumpyBackendEquivalence.

def check_detect(kernel, seed, cap, data):
    """``detect`` under any fused cap agrees with the reference."""
    circuit, reference, fs = production_for(seed, kernel)
    rng = random.Random(data.draw(st.integers(0, 999)))
    vectors = _vectors(data, rng, data.draw(st.integers(1, 10)))
    init = (V.random_binary_vector(len(reference.ff_ids), rng)
            if data.draw(st.booleans()) else None)
    target = _target(data, rng, len(fs))
    scan_out = data.draw(st.booleans())
    early_exit = data.draw(st.booleans())

    want = FaultSimulator(reference, fs).detect(
        vectors, init, target=target, scan_out=scan_out,
        early_exit=False)
    sim = FaultSimulator(circuit, fs, fused_cap=cap)
    got = sim.detect(vectors, init, target=target, scan_out=scan_out,
                     early_exit=early_exit)
    assert got == want
    if not kernel:
        assert sim.counters.np_passes == 0
    elif target is None or target:
        assert sim.counters.np_passes > 0


def check_partial_scan(kernel, seed, cap, data):
    """Agreement holds when scan-out observes a subset of FFs."""
    circuit, reference, fs = production_for(seed, kernel)
    rng = random.Random(data.draw(st.integers(0, 999)))
    n_ff = len(reference.ff_ids)
    observe = sorted(rng.sample(range(n_ff),
                                data.draw(st.integers(0, n_ff))))
    vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
    init = V.random_binary_vector(n_ff, rng)

    want = FaultSimulator(reference, fs).detect(
        vectors, init, scan_observe=observe, early_exit=False)
    got = FaultSimulator(circuit, fs, fused_cap=cap).detect(
        vectors, init, scan_observe=observe, early_exit=False)
    assert got == want


def check_records(kernel, seed, cap, data):
    """run_with_records yields the same truncated-test detections
    whatever the packing or the route."""
    circuit, reference, fs = production_for(seed, kernel)
    rng = random.Random(data.draw(st.integers(0, 999)))
    vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
    init = V.random_binary_vector(len(reference.ff_ids), rng)
    target = _target(data, rng, len(fs))

    ref = FaultSimulator(reference, fs).run_with_records(
        vectors, init, target=target)
    alt = FaultSimulator(circuit, fs, fused_cap=cap).run_with_records(
        vectors, init, target=target)
    for frame in range(len(vectors)):
        assert (ref.detected_with_scanout_at(frame)
                == alt.detected_with_scanout_at(frame))


class TestEngineEquivalence:
    """The big-int configuration (no kernel) vs the reference."""

    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_detect_sets_identical(self, seed, cap, data):
        check_detect(False, seed, cap, data)

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_partial_scan_observation(self, seed, cap, data):
        check_partial_scan(False, seed, cap, data)

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_records_identical(self, seed, cap, data):
        check_records(False, seed, cap, data)


class TestRepack:
    def test_repack_preserves_detections(self, monkeypatch):
        """Forcing aggressive in-pass retirement changes counters,
        never the detection set."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_MACHINES", 2)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("repack", 5, 4, 8, 80, seed=3)
        fs = FaultSet.collapsed(net)
        reference = reference_circuit(net)
        vectors = random_gen.random_sequence(reference, 30, seed=1)
        init = random_gen.random_state(reference, seed=2)

        plain = FaultSimulator(reference, fs).detect(
            vectors, init, early_exit=False)
        for circuit in production_circuits(net):
            repacking = FaultSimulator(circuit, fs)
            got = repacking.detect(vectors, init, early_exit=True)
            # early_exit/repack are pure shortcuts: the set is unchanged.
            assert got == plain
            assert repacking.counters.repacks > 0
            assert repacking.counters.faults_dropped > 0

    def test_repack_detects_same_on_hard_targets(self, monkeypatch):
        """When early_exit cannot trigger the all-caught break (some
        fault is never detected), the repacking pass must still find
        exactly the full detection set."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_MACHINES", 2)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("repack2", 4, 3, 6, 50, seed=9)
        fs = FaultSet.collapsed(net)
        reference = reference_circuit(net)
        vectors = random_gen.random_sequence(reference, 25, seed=4)
        init = random_gen.random_state(reference, seed=5)

        plain = FaultSimulator(reference, fs).detect(
            vectors, init, early_exit=False)
        if len(plain) == len(fs):  # pragma: no cover - seed-dependent
            pytest.skip("every fault detected: early exit would fire")
        for circuit in production_circuits(net):
            repacking = FaultSimulator(circuit, fs)
            got = repacking.detect(vectors, init, early_exit=True)
            assert got == plain
            assert repacking.counters.repacks > 0


class TestWidthPolicy:
    def test_auto_fuses_below_cap(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        assert sim.resolve_width(50) == 51
        assert len(sim._build_chunks(range(50))) == 1

    def test_auto_balances_above_cap(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs, fused_cap=101)
        # 250 targets over a 101-machine cap -> 3 balanced chunks.
        assert sim.resolve_width(250) == 85  # ceil(250/3) + good machine
        # And over the real fault list: chunks within one of each other.
        small = FaultSimulator(cc, fs, fused_cap=len(fs) // 2)
        chunks = small._build_chunks(range(len(fs)))
        sizes = [len(c.indices) for c in chunks]
        assert len(sizes) >= 2
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(fs)

    def test_bad_width_rejected(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        with pytest.raises(ValueError, match="fused_cap"):
            FaultSimulator(cc, fs, fused_cap=1)
        with pytest.raises(TypeError):
            FaultSimulator(cc, fs, width="auto")


class TestScoreboard:
    def test_retire_and_query(self):
        counters = SimCounters()
        board = FaultScoreboard(10, counters=counters)
        assert board.retire([1, 3, 5]) == 3
        assert board.retire([3, 5, 7]) == 1  # only 7 is new
        assert board.n_retired == 4
        assert board.is_retired(3)
        assert not board.is_retired(0)
        assert board.retired_within({0, 1, 2, 3}) == {1, 3}
        assert board.active({0, 1, 2, 3}) == [0, 2]
        assert counters.faults_dropped == 4

    def test_out_of_range_rejected(self):
        board = FaultScoreboard(4)
        with pytest.raises(ValueError):
            board.retire([4])
        with pytest.raises(ValueError):
            FaultScoreboard(-1)

    def test_disabled_scoreboard_is_inert(self):
        counters = SimCounters()
        board = FaultScoreboard(10, counters=counters, enabled=False)
        assert board.retire([1, 2, 3]) == 0
        assert board.n_retired == 0
        assert board.active({1, 2, 3}) == [1, 2, 3]
        assert counters.faults_dropped == 0

    def test_disabled_scoreboard_ablation_identical_results(self):
        """The full pipeline with cross-phase dropping off must produce
        the exact result of the dropping run (the ablation claim)."""
        from repro.atpg import comb_set as comb_set_mod
        from repro.core import proposed
        from repro.sim.comb_sim import CombPatternSim

        net = synth.generate("abl", 4, 3, 5, 40, seed=3)
        results = []
        for enabled in (True, False):
            cc = CompiledCircuit(net.copy())
            fs = FaultSet.collapsed(net)
            sim = FaultSimulator(cc, fs)
            comb_sim = CombPatternSim(sim)
            comb = comb_set_mod.generate(cc, fs, seed=1)
            t0 = random_gen.random_sequence(cc, 60, seed=1)
            board = FaultScoreboard(len(fs), counters=sim.counters,
                                    enabled=enabled)
            res = proposed.run(sim, comb_sim, t0, comb.tests,
                               scoreboard=board)
            results.append((res, sim.counters.faults_dropped))
        (with_drop, n_dropped), (without, n_plain) = results
        assert n_dropped > 0 and n_plain == 0
        assert with_drop.final_detected == without.final_detected
        assert with_drop.seq_detected == without.seq_detected
        assert with_drop.added_tests == without.added_tests
        assert len(with_drop.test_set) == len(without.test_set)


class TestCounters:
    def test_note_words_and_density(self):
        c = SimCounters()
        c.note_words(4, 100)
        c.note_words(1, 20)
        assert c.words == 5
        assert c.machines == 420
        assert c.machines_per_word == 84.0

    def test_dict_round_trip(self):
        c = SimCounters(frames=7, words=3, machines=30,
                        faults_dropped=2, repacks=1, detect_passes=4)
        d = c.as_dict()
        assert d["machines_per_word"] == 10.0
        back = SimCounters.from_dict(d)
        assert back == c

    def test_from_dict_legacy_checkpoint(self):
        """Checkpoints written before newer counter fields existed lack
        their keys: missing fields default, derived and unknown keys
        are ignored, present timer fields stay float."""
        legacy = {"frames": 9, "words": 4, "machines": 40,
                  "machines_per_word": 10.0,    # derived, not a field
                  "retired_total": 3}           # a key we never had
        back = SimCounters.from_dict(legacy)
        assert back.frames == 9 and back.words == 4
        assert back.faults_dropped == 0         # missing -> default
        assert back.phase1_s == 0.0
        assert back.machines_per_word == 10.0   # re-derived, not stored
        half = SimCounters.from_dict({"frames": 1, "phase3_s": 0.25})
        assert half.phase3_s == 0.25 and isinstance(half.phase3_s, float)

    def test_phase_timer_accumulates(self):
        c = SimCounters()
        with c.phase_timer("phase2"):
            pass
        first = c.phase2_s
        assert first >= 0.0
        with c.phase_timer("phase2"):
            sum(range(1000))
        assert c.phase2_s >= first  # accumulates, never resets
        assert c.phase1_s == 0.0
        with pytest.raises(ValueError, match="phase"):
            with c.phase_timer("phase9"):
                pass

    def test_timer_fields_stay_float_through_dict(self):
        c = SimCounters(frames=2, words=1, machines=4)
        with c.phase_timer("phase1"):
            pass
        back = SimCounters.from_dict(c.as_dict())
        assert isinstance(back.phase1_s, float)
        assert isinstance(back.frames, int)
        c.reset()
        assert c.phase1_s == 0.0 and c.frames == 0

    def test_counting_during_detect(self):
        net = synth.generate("cnt", 3, 2, 4, 20, seed=1)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        vectors = random_gen.random_sequence(cc, 10, seed=0)
        sim.detect(vectors, None, early_exit=False)
        assert sim.counters.detect_passes == 1
        assert sim.counters.frames == 10
        assert sim.counters.words == 10  # fused: one word per frame
        assert sim.counters.machines == 10 * len(fs)


class TestCombineCache:
    def test_cached_tests_not_resimulated(self):
        net = synth.generate("cache", 4, 3, 5, 30, seed=2)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        rng = random.Random(0)
        tests = [ScanTest(V.random_binary_vector(5, rng),
                          (V.random_binary_vector(4, rng),))
                 for _ in range(3)]
        target = list(range(len(fs)))
        cache = {}
        first = _detections(sim, tests, target, cache)
        passes = sim.counters.detect_passes
        second = _detections(sim, tests, target, cache)
        assert sim.counters.detect_passes == passes  # all cache hits
        assert first == second

    def test_superset_cache_entry_intersected(self):
        net = synth.generate("cache", 4, 3, 5, 30, seed=2)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        rng = random.Random(1)
        test = ScanTest(V.random_binary_vector(5, rng),
                        (V.random_binary_vector(4, rng),))
        full = sim.detect(list(test.vectors), test.scan_in,
                          early_exit=False)
        sub = sorted(full)[: max(1, len(full) // 2)]
        cache = {test: full}
        out = _detections(sim, [test], sub, cache)
        assert out == [set(sub) & full]


class TestScanoutRegression:
    def test_zero_frame_records_raise_value_error(self):
        """Regression: earliest_safe_scanout on an empty recording
        raised NameError (unbound 'missing') instead of ValueError."""
        net = synth.generate("reg", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        records = sim.run_with_records([], init_state=None)
        with pytest.raises(ValueError, match="no frames"):
            records.earliest_safe_scanout({0})


class TestNumpyBackendEquivalence:
    """The kernel configuration vs the reference."""

    @needs_kernel
    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_detect_sets_identical(self, seed, cap, data):
        check_detect(True, seed, cap, data)

    @needs_kernel
    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_partial_scan_observation(self, seed, cap, data):
        check_partial_scan(True, seed, cap, data)

    @needs_kernel
    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_records_identical(self, seed, cap, data):
        check_records(True, seed, cap, data)

    @settings(max_examples=15, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_omission_identical(self, seed, data):
        """Phase-2 suffix trials run on the kernel when it loads; the
        shortened test, its detections, the trial-by-trial search path
        and the frame/word accounting must match the reference."""
        from repro.core.omission import omit_vectors
        production, reference, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(4, 12)))
        init = V.random_binary_vector(len(reference.ff_ids), rng)
        required = set(FaultSimulator(reference, fs)
                       .detect(vectors, init, early_exit=False))
        test = ScanTest(tuple(init), tuple(tuple(v) for v in vectors))
        ref_sim = FaultSimulator(reference, fs)
        ref = omit_vectors(ref_sim, test, set(required))
        for circuit in production:
            sim = FaultSimulator(circuit, fs)
            got = omit_vectors(sim, test, set(required))
            assert got.test == ref.test
            assert got.detected == ref.detected
            assert got.trials == ref.trials
            assert (sim.counters.frames, sim.counters.words) == \
                (ref_sim.counters.frames, ref_sim.counters.words)


class TestNumpyRepack:
    def test_forced_repacks_identical(self, monkeypatch):
        """Aggressive in-pass retirement repacks inside the kernel's
        pass loop; sets, repack counts and word accounting stay
        exactly the reference's."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_MACHINES", 2)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("repack", 5, 4, 8, 80, seed=3)
        fs = FaultSet.collapsed(net)
        reference = reference_circuit(net)
        vectors = random_gen.random_sequence(reference, 30, seed=1)
        init = random_gen.random_state(reference, seed=2)

        ref_sim = FaultSimulator(reference, fs)
        want = ref_sim.detect(vectors, init, early_exit=True)
        assert ref_sim.counters.repacks > 0

        for circuit in production_circuits(net):
            sim = FaultSimulator(circuit, fs)
            got = sim.detect(vectors, init, early_exit=True)
            assert got == want
            c, r = sim.counters, ref_sim.counters
            assert (c.repacks, c.faults_dropped) == \
                (r.repacks, r.faults_dropped)
            assert (c.frames, c.words, c.machines) == \
                (r.frames, r.words, r.machines)
            assert (c.np_passes > 0) == (circuit.array_backend is not None)


class TestEngineSelection:
    @needs_kernel
    def test_auto_threshold_routes_by_machine_count(self):
        """No machine-count threshold: a chunk of any size, down to a
        single faulty machine, runs on the kernel."""
        net = synth.generate("autoeq", 4, 3, 5, 40, seed=1)
        fs = FaultSet.collapsed(net)
        cc = CompiledCircuit(net)
        vectors = random_gen.random_sequence(cc, 4, seed=1)
        sim = FaultSimulator(cc, fs, fused_cap=2)
        sim.detect(vectors, None, target=[0, 1, 2], early_exit=False)
        assert sim.counters.np_passes == 3   # three 1-machine chunks

    def test_auto_env_override(self, monkeypatch):
        """The environment overrides of the removed routing knobs are
        not read: the fused cap and the route stay the production
        ones."""
        monkeypatch.setenv("REPRO_NP_AUTO_MIN", "100000")
        monkeypatch.setenv("REPRO_FUSED_CAP", "3")
        monkeypatch.setenv("REPRO_NP_KERNEL", "py")
        net = synth.generate("autoeq2", 4, 3, 5, 40, seed=1)
        fs = FaultSet.collapsed(net)
        cc = CompiledCircuit(net)
        sim = FaultSimulator(cc, fs)
        assert sim.fused_cap == FUSED_CAP
        sim.detect(random_gen.random_sequence(cc, 3, seed=2), None,
                   early_exit=False)
        assert sim.counters.np_passes == (1 if KERNEL else 0)

    def test_auto_agrees_with_codegen(self):
        """The two production configurations agree on a longer test
        with every fault in one fused word."""
        net = synth.generate("autoeq3", 4, 3, 6, 50, seed=2)
        fs = FaultSet.collapsed(net)
        reference = reference_circuit(net)
        vectors = random_gen.random_sequence(reference, 12, seed=3)
        init = random_gen.random_state(reference, seed=4)
        got = [FaultSimulator(cc, fs).detect(vectors, init,
                                             early_exit=False)
               for cc in production_circuits(net)]
        assert got == [FaultSimulator(reference, fs).detect(
            vectors, init, early_exit=False)] * len(got)

    def test_missing_numpy_raises_actionable_error(self, monkeypatch):
        """Without numpy, require_numpy raises an actionable error,
        while circuits silently run on big-int words and say why."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(npsim.MissingNumpyError,
                           match=r"repro\[fast\]"):
            npsim.require_numpy()
        net = synth.generate("noeq", 3, 2, 3, 15, seed=0)
        circuit = CompiledCircuit(net)
        assert circuit.array_backend is None
        assert npsim.kernel_unavailable_reason(circuit) == \
            "numpy is not installed"

    def test_sanitizer_shadow_is_cross_backend(self, monkeypatch):
        """With the sanitizer armed, a production detect is spot
        checked against a chunked shadow on the reference circuit."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        shadows = []

        class Spy(CompiledCircuit):
            def __init__(self, netlist, _reference=False):
                shadows.append(_reference)
                super().__init__(netlist, _reference=_reference)

        monkeypatch.setattr(fault_sim_mod, "CompiledCircuit", Spy)
        net = synth.generate("sancb", 4, 3, 5, 40, seed=6)
        fs = FaultSet.collapsed(net)
        cc = CompiledCircuit(net)
        sim = FaultSimulator(cc, fs)
        vectors = random_gen.random_sequence(cc, 6, seed=1)
        init = random_gen.random_state(cc, seed=2)
        sim.detect(vectors, init, early_exit=False)
        assert shadows == [True]
        assert (sim.counters.np_passes > 0) == KERNEL
        assert sim._sanitize_spots_left < fault_sim_mod.\
            _SANITIZE_SPOT_BUDGET


def _wide_gate_netlist(n_fanins=65):
    """A small sequential circuit around one ``n_fanins``-input AND."""
    net = Netlist("wide")
    sources = ["a", "b", "c", "q0", "q1"]
    for name in sources[:3]:
        net.add_input(name)
    for i in range(n_fanins):
        kind = ("BUF", "NOT")[i % 2] if i < 10 else "BUF"
        net.add_gate(f"g{i}", kind, [sources[i % len(sources)]])
    net.add_gate("w", "AND", [f"g{i}" for i in range(n_fanins)])
    net.add_gate("d0", "XOR", ["w", "a"])
    net.add_gate("d1", "OR", ["q0", "b"])
    net.add_dff("q0", "d0")
    net.add_dff("q1", "d1")
    net.add_gate("o", "NAND", ["q1", "c"])
    net.add_output("w")
    net.add_output("o")
    return net


class TestWideGates:
    def test_65_fanin_gate_runs_on_bigint(self):
        """A gate wider than the kernel holds keeps its circuit on
        big-int words, with the reason reported; detect, measure_delay
        and compact_tests all match the reference."""
        net = _wide_gate_netlist()
        wb = api.Workbench.for_netlist(net)
        assert wb.circuit.array_backend is None
        reason = npsim.kernel_unavailable_reason(wb.circuit)
        assert reason is not None
        if KERNEL:
            assert "65 fanins" in reason
        with pytest.raises(ValueError):
            npsim.ArrayBackend(wb.circuit)

        reference = reference_circuit(net)
        fs = wb.faults
        rng = random.Random(4)
        vectors = [V.random_binary_vector(3, rng) for _ in range(8)]
        init = V.random_binary_vector(2, rng)
        assert wb.sim.detect(vectors, init, early_exit=False) == \
            FaultSimulator(reference, fs).detect(vectors, init,
                                                 early_exit=False)

        result = api.compact_tests(net, seed=1, t0_source="random",
                                   t0_length=20, workbench=wb)
        ref_sim = FaultSimulator(reference, fs)
        ref_wb = api.Workbench(
            netlist=net, circuit=reference, faults=fs, sim=ref_sim,
            comb_sim=CombPatternSim(ref_sim))
        ref_result = api.compact_tests(net, seed=1, t0_source="random",
                                       t0_length=20, workbench=ref_wb)
        final = result.compacted_set or result.test_set
        assert final.tests == \
            (ref_result.compacted_set or ref_result.test_set).tests
        assert result.final_detected == ref_result.final_detected

        sets = {"proposed": final,
                "scan": ScanTestSet(2, [ScanTest(init, tuple(vectors))])}
        report = api.measure_delay(net, sets, workbench=wb)
        want = api.measure_delay(net, sets, workbench=ref_wb)
        assert report.engine == want.engine == "scalar"
        assert report.as_dict() == want.as_dict()
