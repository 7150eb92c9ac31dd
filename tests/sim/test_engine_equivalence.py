"""Production vs reference: every simulation route must agree exactly.

Production runs each pass chunk on the C kernel when it loads and on
big-int words otherwise; the reference is a circuit with no array
backend (see :mod:`tests.reference`).  Wide-word
fusion, multi-part packing, the kernel's shared pass stores and
the kernel itself are pure execution strategies -- none of them may
change a single detection.  These properties drive random circuits, fused caps, scan
configurations, restricted targets and X-laden vectors through both
production configurations and require byte-identical results.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.atpg import random_gen
from repro.circuits import library, suite, synth
from repro.circuits.netlist import Netlist
from repro.core import omission, proposed
from repro.core.combine import _detections
from repro.core.omission import _CheckpointedRun, omit_vectors
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.delay.transition import TransitionSim
from repro.sim.comb_sim import CombPatternSim
from repro.sim import fault_sim as fault_sim_mod
from repro.sim import npsim
from repro.sim import values as V
from repro.sim.counters import SimCounters
from repro.sim.fault_sim import FUSED_CAP, FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit
from repro.sim.scoreboard import FaultScoreboard
from tests.reference import (KERNEL, production_circuit,
                             production_circuits, reference_circuit,
                             serial_omit_vectors)

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


def _vectors_binary(rng, n):
    """``n`` random binary vectors."""
    return [V.random_binary_vector(_N_PI, rng) for _ in range(n)]


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
    def test_repack_preserves_detections(self):
        """``early_exit`` is accepted and has no effect: the detection
        set is the reference's either way."""
        net = synth.generate("repack", 5, 4, 8, 80, seed=3)
        fs = FaultSet.collapsed(net)
        reference = reference_circuit(net)
        vectors = random_gen.random_sequence(reference, 30, seed=1)
        init = random_gen.random_state(reference, seed=2)

        plain = FaultSimulator(reference, fs).detect(
            vectors, init, early_exit=False)
        for circuit in production_circuits(net):
            got = FaultSimulator(circuit, fs).detect(vectors, init,
                                                     early_exit=True)
            assert got == plain

    def test_repack_detects_same_on_hard_targets(self):
        """When the all-caught break cannot fire (some fault is never
        detected), the pass must still find exactly the full detection
        set."""
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
            got = FaultSimulator(circuit, fs).detect(vectors, init,
                                                     early_exit=True)
            assert got == plain


class TestWidthPolicy:
    def test_auto_fuses_below_cap(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        assert sim.resolve_width(50) == 51
        assert len(sim._groups(range(50))) == 1

    def test_auto_balances_above_cap(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs, fused_cap=101)
        # 250 targets over a 101-machine cap -> 3 balanced chunks.
        assert sim.resolve_width(250) == 85  # ceil(250/3) + good machine
        # And over the real fault list: chunks within one of each other.
        small = FaultSimulator(cc, fs, fused_cap=len(fs) // 2)
        sizes = [len(group) for group in small._groups(range(len(fs)))]
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
                        faults_dropped=2, detect_passes=4)
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
                  "repacks": 2,                 # a removed field
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
    @given(seed=circuit_seeds, cap=fused_caps, partial=st.booleans(),
           data=st.data())
    def test_omission_identical(self, seed, cap, partial, data):
        """Phase 2 runs on the kernel when it loads; the shortened
        test, its detections, the trial-by-trial search path and the
        frame/word/machine accounting must match the reference, under
        any fused cap, from X-laden scan-ins, under full or partial
        scan."""
        production, reference, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(4, 12)))
        n_ff = len(reference.ff_ids)
        positions = (sorted(rng.sample(range(n_ff), rng.randint(1, n_ff)))
                     if partial else None)
        init = tuple(rng.choice((V.ZERO, V.ONE, V.X)) for _ in
                     range(n_ff if positions is None else len(positions)))
        test = ScanTest(init, tuple(tuple(v) for v in vectors))

        def run(circuit):
            sim = FaultSimulator(circuit, fs, scan_positions=positions,
                                 fused_cap=cap)
            required = FaultSimulator(
                reference, fs, scan_positions=positions).detect(
                    vectors, init)
            got = omit_vectors(sim, test, set(required))
            c = sim.counters
            return ((got.test, got.detected, got.trials, got.omitted),
                    (c.frames, c.words, c.machines))

        want = run(reference)
        for circuit in production:
            assert run(circuit) == want


def _later_row(store, row):
    """Trail row ``row``'s ``later`` words, whichever store holds them:
    a word arena keeps ints, a kernel store rows of its row width."""
    if isinstance(store, fault_sim_mod._WordArena):
        return store._later[row]
    size = 8 * store.n_words
    return int.from_bytes(store._later_bytes[row * size:(row + 1) * size],
                          "little")


class TestOmissionCheckpoints:
    @pytest.mark.parametrize("circuit", production_circuits(
        synth.generate("equiv", _N_PI, 3, 5, 30, seed=3)),
        ids=lambda c: "kernel" if c.array_backend is not None
        else "bigint")
    def test_checkpoints_follow_the_machines(self, circuit):
        """Every trail row holds the machines' state after its frame and
        their PO detections up to it -- also in a chunk that is fully
        PO-caught partway through the rebuild, whose later rows must
        still advance (a pass that stops once every machine is caught
        would leave the flip-flops behind).  Its ``later`` words are
        what the rest of the sequence catches, and the empty-suffix
        scan-out at each checkpoint matches a scan-out of the simulated
        prefix, as does any other suffix.  So after a rebuild from
        frame 0, one that drops two vectors in the middle and one that
        drops the tail."""
        fs = FaultSet.collapsed(circuit.netlist)
        sim = FaultSimulator(circuit, fs, fused_cap=2)
        vectors = random_gen.random_sequence(circuit, 10, seed=1)
        init = random_gen.random_state(circuit, seed=2)
        required = sorted(sim.detect(vectors, init))
        groups = sim._groups(required)
        run = _CheckpointedRun(sim, init, groups, len(vectors) + 1)
        reference = FaultSimulator(reference_circuit(circuit.netlist), fs)

        def arena(group):
            """A reference word arena bound to ``group``."""
            store = reference._new_store()
            assert isinstance(store, fault_sim_mod._WordArena)
            store.bind(group)
            return store

        caught_early = 0
        for start, suffix in ((0, vectors), (4, vectors[6:]), (6, [])):
            run.rebuild(start, suffix)
            vectors = vectors[:start] + suffix
            assert run.length == len(vectors)
            records = []
            for group in groups:
                whole = arena(group)
                whole.load_scan_in(init)
                whole.load_vectors(vectors)
                whole.run(len(vectors), True, True, None, records=True)
                records.append((whole.rec_po, whole.rec_scan))
            for frame in range(len(vectors) + 1):
                for ci, (group, store) in enumerate(zip(groups, run.stores)):
                    rec_po, rec_scan = records[ci]
                    po = 0
                    for word in rec_po[:frame]:
                        po |= word
                    later = rec_scan[-1] if vectors else 0
                    for word in rec_po[frame:]:
                        later |= word
                    prefix = arena(group)
                    prefix.load_scan_in(init)
                    prefix.load_vectors(vectors[:frame])
                    prefix.run(frame, True, True, None, records=True)
                    if not vectors:
                        later = prefix.scan_diff(None)
                    store.restore_row(frame)
                    assert store._ff_words() == prefix._ff_words()
                    assert run.caught[ci][frame] == po
                    assert _later_row(store, frame) == later
                    if po == (1 << (len(group) + 1)) - 2 and \
                            frame < len(vectors):
                        caught_early += 1
                assert run.detected_by(frame, []) == \
                    reference.detect(vectors[:frame], init, target=required)
                other = vectors[::-1]
                assert run.detected_by(frame, other) == reference.detect(
                    vectors[:frame] + other, init, target=required)
        assert caught_early > 0   # the saturated case did occur

    @pytest.mark.parametrize("circuit", production_circuits(
        synth.generate("equiv", _N_PI, 3, 5, 30, seed=3)),
        ids=lambda c: "kernel" if c.array_backend is not None
        else "bigint")
    def test_trials_read_the_current_sequence(self, circuit):
        """A trial runs its suffix from the current sequence the stores
        hold, also after ``detected_by`` ran another suffix: over the
        faults the first five vectors PO-detect, some one-vector drops
        keep them all and some do not, each as the reference says."""
        fs = FaultSet.collapsed(circuit.netlist)
        sim = FaultSimulator(circuit, fs, fused_cap=5)
        vectors = random_gen.random_sequence(circuit, 10, seed=1)
        init = random_gen.random_state(circuit, seed=2)
        reference = FaultSimulator(reference_circuit(circuit.netlist), fs)
        early = sorted(reference.detect(vectors[:5], init, scan_out=False))
        run = _CheckpointedRun(sim, init, sim._groups(early),
                               len(vectors) + 1)
        run.rebuild(0, vectors)
        run.detected_by(1, vectors[::-1])
        verdicts = [run.keeps_all(position, position)
                    for position in range(len(vectors))]
        assert verdicts == [
            set(early) <= reference.detect(
                vectors[:position] + vectors[position + 1:], init,
                target=early)
            for position in range(len(vectors))]
        assert True in verdicts and False in verdicts

    @needs_kernel
    def test_short_trail_raises(self):
        """A trail shorter than a rebuild's rows raises ValueError before
        the kernel writes past it."""
        circuit, reference, fs = production_for(3, True)
        sim = FaultSimulator(circuit, fs)
        vectors = random_gen.random_sequence(reference, 10, seed=1)
        run = _CheckpointedRun(sim, random_gen.random_state(reference, seed=2),
                               [list(range(len(fs)))], 5)
        with pytest.raises(ValueError, match="malformed trail pass"):
            run.rebuild(0, vectors)

    def test_trail_decides_trials(self, monkeypatch):
        """On b01 at seed 1, Phase 2 runs under half the frames it runs
        with the trail withheld from its trials, with identical
        results: the trail ends most trials early."""
        netlist = suite.profile("b01").build()

        def phase2(withhold):
            frames = []
            run_pass = omission._CheckpointedRun._run
            omit = proposed.omit_vectors

            def run_without_trail(self, ci, store, first, n_frames,
                                  trail=None):
                return run_pass(self, ci, store, first, n_frames)

            def counted(sim, *args, **kwargs):
                before = sim.counters.frames
                result = omit(sim, *args, **kwargs)
                frames.append(sim.counters.frames - before)
                return result

            wb = api.Workbench.for_netlist(netlist)
            with monkeypatch.context() as patch:
                patch.setattr(proposed, "omit_vectors", counted)
                if withhold:
                    patch.setattr(omission._CheckpointedRun, "_run",
                                  run_without_trail)
                result = api.compact_tests(netlist, seed=1, workbench=wb,
                                           run_phase4=False)
            return (result.test_set, result.final_detected,
                    wb.counters.omission_trials), sum(frames)

        (got, frames), (want, withheld) = phase2(False), phase2(True)
        assert got == want
        assert 0 < 2 * frames < withheld


class TestSerialOmissionOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, cap=st.sampled_from([2, 5, FUSED_CAP]),
           partial=st.booleans(), block=st.integers(1, 16),
           passes=st.integers(1, 2), data=st.data())
    def test_omission_matches_serial_oracle(self, seed, cap, partial, block,
                                            passes, data):
        """Phase 2 on its trails gives the serial oracle's shortened
        test, detections, trials and omitted count in both production
        configurations: from X-laden scan-ins, under full or partial
        scan, with the required set split over several stores (caps 2
        and 5) or fused in one, at every initial block size and one or
        two sweeps."""
        production, reference, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(2, 14)))
        n_ff = len(reference.ff_ids)
        positions = (sorted(rng.sample(range(n_ff), rng.randint(1, n_ff)))
                     if partial else None)
        init = tuple(rng.choice((V.ZERO, V.ONE, V.X)) for _ in
                     range(n_ff if positions is None else len(positions)))
        test = ScanTest(init, tuple(tuple(v) for v in vectors))
        oracle = FaultSimulator(reference, fs, scan_positions=positions)
        required = oracle.detect(vectors, init)
        want = serial_omit_vectors(oracle, test, required, block, passes)
        for circuit in production:
            sim = FaultSimulator(circuit, fs, scan_positions=positions,
                                 fused_cap=cap)
            got = omit_vectors(sim, test, set(required),
                               initial_block=block, passes=passes)
            assert (got.test, got.detected, got.trials, got.omitted) == want


class TestKernelConfiguration:
    @needs_kernel
    @pytest.mark.parametrize("net, cap", [
        (library.s27(), FUSED_CAP),
        (synth.generate("nointerp", 4, 3, 6, 50, seed=2), 8)],
        ids=["s27", "synthetic-cap8"])
    def test_no_interpreter_frames(self, net, cap, monkeypatch):
        """With the kernel loaded, no fault-simulation frame of
        ``detect``, ``run_with_records``, an incremental run, Phase 2,
        ``detect_trials``, ``detect_candidates`` or a PPSFP block runs
        on the interpreter: with ``eval_frame`` made to raise, every
        call completes, with the reference's results."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        circuit = production_circuit(net, kernel=True)

        def interpreted(*args, **kwargs):
            raise AssertionError("a frame ran on the interpreter")

        monkeypatch.setattr(circuit, "eval_frame", interpreted)
        fs = FaultSet.collapsed(net)

        def script(circuit):
            sim = FaultSimulator(circuit, fs, fused_cap=cap)
            rng = random.Random(5)
            vectors = [V.random_binary_vector(net.num_inputs, rng)
                       for _ in range(12)]
            init = V.random_binary_vector(net.num_ffs, rng)
            required = sim.detect(vectors, init)
            records = sim.run_with_records(vectors, init)
            out = [required, sim.detect(vectors, None, scan_out=False),
                   [records.detected_with_scanout_at(frame)
                    for frame in range(len(vectors))]]
            inc = sim.incremental(init_state=init)
            for vector in vectors:
                out += [inc.preview(vector), inc.apply(vector)]
            out.append(inc.good_state())
            omitted = omit_vectors(sim, ScanTest(init, tuple(vectors)),
                                   required)
            out.append((omitted.test, omitted.detected, omitted.trials))
            states = [V.random_binary_vector(net.num_ffs, rng)
                      for _ in range(5)]
            out.append(sim.detect_trials(
                [(state, vectors[:k]) for k, state in enumerate(states)]))
            out.append(sim.detect_candidates(vectors[:4], states))
            out.append(CombPatternSim(sim).detect_block(
                [(state, vector) for state, vector in zip(states, vectors)]))
            return out, len(sim._groups(sorted(required)))

        got, n_chunks = script(circuit)
        assert got == script(reference_circuit(net))[0]
        assert (n_chunks > 1) == (cap == 8)


def _entry_of_kind(entries, kind):
    return next(entry for entry in entries if entry[0] == kind)


def _negative_index(backend, entries):
    return {"faults": [0, -1]}


def _index_past_the_table(backend, entries):
    return {"faults": [0, len(entries)]}


def _stem_at_a_negative_net(backend, entries):
    _entry_of_kind(entries, npsim.SITE_STEM)[1] = -1
    return {}


def _net_past_the_circuit(backend, entries):
    _entry_of_kind(entries, npsim.SITE_STEM)[1] = backend.circuit.n_nets
    return {}


def _branch_pin_past_fanins(backend, entries):
    entry = _entry_of_kind(entries, npsim.SITE_BRANCH)
    entry[2] = int(backend.net_arity[entry[1]])
    return {}


def _flip_flop_past_the_chain(backend, entries):
    entries[0][:2] = [npsim.SITE_FF, len(backend.circuit.ff_ids)]
    return {}


def _site_value_not_binary(backend, entries):
    entries[0][3] = 2
    return {}


def _frame_past_the_pass(backend, entries):
    return {"frames": [4] * len(entries)}


def _negative_frame(backend, entries):
    return {"frames": [-1] + [0] * (len(entries) - 1)}


def _blocks_not_dividing_the_words(backend, entries):
    def tweak(store):
        store.n_blocks = store.n_words + 1
    return {"tweak": tweak}


def _words_past_the_buffers(backend, entries):
    def tweak(store):
        store.n_words += store.n_blocks
    return {"tweak": tweak}


def _trail_rows_past_the_trail(backend, entries):
    return {"blocks": 1, "rows": 4, "records": True, "trail": 1}


def _trail_over_blocks(backend, entries):
    return {"rows": 5, "trail": 1, "later": True}


def _later_without_trail_rows(backend, entries):
    return {"blocks": 1, "rows": 5, "later": True}


class TestPlanValidation:
    @needs_kernel
    @pytest.mark.parametrize("corrupt", [
        _negative_index, _index_past_the_table, _stem_at_a_negative_net,
        _net_past_the_circuit, _branch_pin_past_fanins,
        _flip_flop_past_the_chain, _site_value_not_binary,
        _frame_past_the_pass, _negative_frame,
        _blocks_not_dividing_the_words, _words_past_the_buffers,
        _trail_rows_past_the_trail, _trail_over_blocks,
        _later_without_trail_rows],
        ids=["index-negative", "index-too-large", "stem-site",
             "net-outside", "branch-pin", "ff-position", "site-value",
             "frame-outside", "frame-negative", "block-count",
             "word-count", "trail-rows", "trail-blocks",
             "later-without-rows"])
    def test_malformed_plan_raises_before_the_kernel(self, corrupt):
        """A malformed fault-site table raises ValueError when it is
        built, a malformed machine list when a store binds it, and a
        machine frame past the pass, a block count that does not
        divide the words into blocks the buffers hold, a trail pass
        that would meet rows past its trail or runs over several
        blocks, or ``later`` rows without trail rows when the pass
        runs: before the kernel indexes anything with them."""
        net = synth.generate("plan", 4, 3, 5, 40, seed=5)
        circuit = production_circuit(net, kernel=True)
        backend = circuit.array_backend
        fs = FaultSet.collapsed(net)
        entries = [list(row) for row in FaultSimulator(circuit, fs)._sites]
        assert {entry[0] for entry in entries} >= {npsim.SITE_STEM,
                                                   npsim.SITE_BRANCH}

        def run_pass(entries, faults=range(len(entries)),
                     frames=[k % 4 for k in range(len(entries))],
                     blocks=3, rows=None, tweak=None, **trail):
            store = backend.store(backend.site_table(entries),
                                  SimCounters())
            store.bind(faults, n_blocks=blocks, frames=frames)
            if rows is not None:
                store.keep_trail(rows)
            store.load_vectors([(V.ZERO,) * (blocks * net.num_inputs)] * 4)
            if tweak is not None:
                tweak(store)
            store.run(4, True, True, None, **trail)

        # The intact passes: a plain one, and trail passes over the
        # last four rows of a five-row trail.
        run_pass([list(entry) for entry in entries])
        run_pass([list(entry) for entry in entries], blocks=1, rows=5,
                 records=True, trail=1)
        run_pass([list(entry) for entry in entries], blocks=1, rows=5,
                 trail=1, later=True)
        changes = corrupt(backend, entries)
        if "faults" in changes and "frames" not in changes:
            changes["frames"] = None
        with pytest.raises(ValueError, match="malformed"):
            run_pass(entries, **changes)

    @pytest.mark.parametrize("changes", [
        {"faults": [0, -1]}, {"faults": [0, "past"]},
        {"frames": [0]}, {"frames": [-1, 0, 0]}, {"frames": [0, 4, 0]}],
        ids=["index-negative", "index-too-large", "frames-mismatched",
             "frame-negative", "frame-outside"])
    def test_malformed_machine_list_raises_on_every_store(self, changes):
        """A malformed machine list raises the same ValueError on the
        kernel's store and on a word arena: a fault index outside the
        sites (a negative one included) or frames that do not match the
        machines or lie before the pass when the store binds it, and a
        frame past the pass when the pass runs."""
        net = synth.generate("plan", 4, 3, 5, 40, seed=5)
        fs = FaultSet.collapsed(net)
        messages = []
        for circuit in production_circuits(net):
            sim = FaultSimulator(circuit, fs)
            faults = [len(fs) if f == "past" else f
                      for f in changes.get("faults", [0, 1, 2])]
            frames = changes.get("frames", None)
            store = sim._new_store()
            store.bind([0, 1, 2], frames=[0, 1, 3])
            store.load_scan_in((V.ZERO,) * net.num_ffs)
            store.load_vectors([(V.ONE,) * net.num_inputs] * 4)
            store.run(4, True, True, None)   # the intact list runs
            with pytest.raises(ValueError, match="malformed machine list") \
                    as raised:
                store.bind(faults, frames=frames)
                store.load_scan_in((V.ZERO,) * net.num_ffs)
                store.load_vectors([(V.ONE,) * net.num_inputs] * 4)
                store.run(4, True, True, None)
            messages.append(str(raised.value))
        assert len(set(messages)) == 1


def _forced_pass(circuit, fs, frames, vectors, init):
    """Every fault of ``fs`` as one machine, forcing in ``frames``: the
    records-mode rows of a pass over ``vectors`` from ``init``, then the
    caught words and frame count of a detect-mode pass."""
    store = FaultSimulator(circuit, fs)._new_store()
    store.bind(range(len(fs)), frames=frames)
    store.load_scan_in(init)
    store.load_vectors(vectors)
    store.run(len(vectors), True, True, None, records=True)
    rows = (list(store.rec_po), list(store.rec_scan))
    store.load_scan_in(init)
    n_frames = store.run(len(vectors), True, True, None)
    return rows, store.caught, n_frames


class TestForcingFrames:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stores_force_alike(self, seed):
        """A machine list with frames forces each machine only in its
        own frame, at stem, fanout-branch and flip-flop-branch sites
        alike (s27 has all three): both production stores give the
        reference word arena's record rows, caught words and frame
        count, which differ from those of the same list forcing in
        every frame."""
        net = library.s27()
        production, reference = production_circuits(net), \
            reference_circuit(net)
        fs = FaultSet.collapsed(net)
        kinds = {row[0] for row in FaultSimulator(reference, fs)._sites}
        assert kinds == {npsim.SITE_STEM, npsim.SITE_BRANCH, npsim.SITE_FF}
        rng = random.Random(seed)
        vectors = _vectors_binary(rng, 6)
        init = V.random_binary_vector(len(reference.ff_ids), rng)
        frames = [rng.randrange(6) for _ in range(len(fs))]
        want = _forced_pass(reference, fs, frames, vectors, init)
        assert want != _forced_pass(reference, fs, None, vectors, init)
        for circuit in production:
            assert _forced_pass(circuit, fs, frames, vectors, init) == want


class TestNumpyRepack:
    def test_forced_repacks_identical(self):
        """With ``early_exit`` passed, sets and word accounting stay
        exactly the reference's."""
        net = synth.generate("repack", 5, 4, 8, 80, seed=3)
        fs = FaultSet.collapsed(net)
        reference = reference_circuit(net)
        vectors = random_gen.random_sequence(reference, 30, seed=1)
        init = random_gen.random_state(reference, seed=2)

        ref_sim = FaultSimulator(reference, fs)
        want = ref_sim.detect(vectors, init, early_exit=True)

        for circuit in production_circuits(net):
            sim = FaultSimulator(circuit, fs)
            got = sim.detect(vectors, init, early_exit=True)
            assert got == want
            c, r = sim.counters, ref_sim.counters
            assert (c.frames, c.words, c.machines) == \
                (r.frames, r.words, r.machines)
            assert (c.np_passes > 0) == (circuit.array_backend is not None)


def _interleaved_calls(circuit, fs, fused_cap):
    """One fixed script of interleaved calls on one simulator:
    ``detect``, ``run_with_records``, ``omit_vectors`` and the
    ``preview`` / ``apply`` steps of one incremental run, over
    sequences that grow and shrink, with ``set_untestable`` and
    ``set_adi_order`` installed after the first round.  Returns every
    result, in order, and the simulator."""
    sim = FaultSimulator(circuit, fs, fused_cap=fused_cap)
    rng = random.Random(11)
    n_ff = len(circuit.ff_ids)
    inc = sim.incremental()
    results = []
    for round_no, length in enumerate((6, 14, 3, 1, 9, 2, 12)):
        vectors = [V.random_binary_vector(_N_PI, rng) if rng.random() < 0.8
                   else tuple(rng.choice((V.ZERO, V.ONE, V.X))
                              for _ in range(_N_PI))
                   for _ in range(length)]
        init = V.random_binary_vector(n_ff, rng)
        target = sorted(rng.sample(range(len(fs)),
                                   rng.randrange(1, len(fs))))
        results.append(inc.preview(vectors[0]))
        results.append(sim.detect(vectors, init, target=target))
        results.append(inc.preview(vectors[-1]))
        records = sim.run_with_records(vectors, init, target=target)
        results.append([records.detected_with_scanout_at(frame)
                        for frame in range(length)])
        results.append(inc.apply(vectors[0]))
        required = sim.detect(vectors, init)
        omitted = omit_vectors(sim, ScanTest(tuple(init), tuple(vectors)),
                               required)
        results.append((omitted.test, omitted.detected, omitted.trials,
                        omitted.omitted))
        results.append(sim.detect(vectors[:1], None, scan_out=False))
        results.append(inc.preview(vectors[-1]))
        if round_no == 0:
            # Any exclusion does, as long as both sides install it.
            sim.set_untestable(list(range(0, len(fs), 7)))
            sim.set_adi_order({f: rng.randrange(5) for f in range(len(fs))})
    results.append(inc.good_state())
    return results, sim


class TestRepeatedKernelCalls:
    """Every kernel store reuses its buffers across calls (the store a
    simulator's one-off passes share, an incremental run's stores, a
    Phase-2 run's stores), so no call may leak into the next: repeated
    and interleaved calls on one simulator give the reference's
    results, and at the default fused cap its work counters too."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_default_cap_matches_reference(self, seed):
        production, reference, fs = circuit_for(seed)
        want, ref_sim = _interleaved_calls(reference, fs, FUSED_CAP)
        for circuit in production:
            got, sim = _interleaved_calls(circuit, fs, FUSED_CAP)
            assert got == want
            c, r = sim.counters, ref_sim.counters
            assert (c.frames, c.words, c.machines) == \
                (r.frames, r.words, r.machines)
            assert (c.np_passes > 0) == (circuit.array_backend is not None)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_small_cap_matches_reference(self, seed):
        """With a cap of 8 machines every pass has many chunks."""
        production, reference, fs = circuit_for(seed)
        want, _ = _interleaved_calls(reference, fs, FUSED_CAP)
        for circuit in production:
            got, _ = _interleaved_calls(circuit, fs, 8)
            assert got == want


def _width_calls(circuit, fs):
    """One fixed script whose kernel passes grow and shrink, on one
    simulator and one transition simulator: targets of 5 faults, then
    the full set, then 5 again; multi-trial passes of 1, 8, 64, 8 and
    1 blocks; transition passes over the launches of tests of 2 to 30
    vectors and back.  ``detect``, ``run_with_records``,
    ``detect_trials`` and the transition passes interleave, so a
    shared store runs every width after every other.  Returns every
    result, in order."""
    sim = FaultSimulator(circuit, fs)
    tsim = TransitionSim(circuit)
    rng = random.Random(23)
    n_ff = len(circuit.ff_ids)

    def vectors(n):
        return [V.random_binary_vector(_N_PI, rng) for _ in range(n)]

    results = []
    for size, n_trials, length in ((5, 1, 2), (len(fs), 8, 9),
                                   (len(fs), 64, 30), (len(fs), 8, 9),
                                   (5, 1, 3)):
        target = sorted(rng.sample(range(len(fs)), size))
        seq = vectors(length)
        init = V.random_binary_vector(n_ff, rng)
        results.append(sim.detect(seq, init, target=target))
        records = sim.run_with_records(seq, init, target=target)
        results.append([records.detected_with_scanout_at(frame)
                        for frame in range(length)])
        trials = [(V.random_binary_vector(n_ff, rng),
                   vectors(1 + k % length)) for k in range(n_trials)]
        results.append(sim.detect_trials(trials, target=target))
        results.append(tsim.detect_test(ScanTest(init, tuple(seq))))
        results.append(sim.detect(seq[:1], None, target=target,
                                  scan_out=False))
    return results


class TestGrowingAndShrinkingPasses:
    @pytest.mark.parametrize("seed", [2, 6])
    def test_widths_match_reference(self, seed):
        """The kernel's one-off passes share one store per simulator,
        whose buffers grow to the widest pass: passes of every width,
        in any order, give the reference's results."""
        production, reference, fs = circuit_for(seed)
        want = _width_calls(reference, fs)
        for circuit in production:
            assert _width_calls(circuit, fs) == want


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

    def test_missing_cffi_runs_on_bigint_words(self, monkeypatch):
        """Without cffi the kernel reports itself unavailable and says
        why, while circuits silently run on big-int words, with the
        reference's results."""
        monkeypatch.setattr(npsim, "_KERNEL", None)
        monkeypatch.setattr(npsim, "_KERNEL_ERROR", None)
        monkeypatch.setattr(npsim, "_KERNEL_TRIED", False)
        monkeypatch.setitem(sys.modules, "cffi", None)
        assert npsim.kernel_unavailable_reason() == "cffi is not installed"
        net = synth.generate("noeq", 3, 2, 3, 15, seed=0)
        circuit = CompiledCircuit(net)
        assert circuit.array_backend is None
        assert npsim.kernel_unavailable_reason(circuit) == \
            "cffi is not installed"
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(circuit, fs)
        vectors = random_gen.random_sequence(circuit, 6, seed=1)
        assert sim.detect(vectors, None) == FaultSimulator(
            reference_circuit(net), fs).detect(vectors, None)
        assert sim.counters.np_passes == 0

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
