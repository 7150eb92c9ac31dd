"""Tests for the engine-invariant sanitizer layer."""

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError
from repro.atpg import random_gen
from repro.circuits import library, synth
from repro.core import omission
from repro.core.omission import omit_vectors
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.delay.transition import TransitionSim
from repro.sim import fault_sim, npsim
from repro.sim.counters import SimCounters
from repro.sim.fault_sim import (FUSED_CAP, _SANITIZE_SPOT_BUDGET,
                                 FaultSimulator)
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit
from repro.sim.scoreboard import FaultScoreboard
from tests.reference import (KERNEL, production_circuit,
                             production_circuits, reference_circuit)


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
    sanitizer.reset()
    yield
    sanitizer.reset()


def _arm(monkeypatch, mode="1"):
    monkeypatch.setenv(sanitizer.ENV_VAR, mode)


class TestSwitches:
    def test_disabled_by_default(self):
        assert not sanitizer.enabled()
        assert not sanitizer.collect_only()

    def test_env_values(self, monkeypatch):
        _arm(monkeypatch, "0")
        assert not sanitizer.enabled()
        _arm(monkeypatch, "1")
        assert sanitizer.enabled() and not sanitizer.collect_only()
        _arm(monkeypatch, "collect")
        assert sanitizer.enabled() and sanitizer.collect_only()

    def test_report_raises_unless_collect(self, monkeypatch):
        _arm(monkeypatch)
        with pytest.raises(SanitizerError, match="sanitize.demo"):
            sanitizer.report_violation("demo", "boom")
        assert len(sanitizer.violations()) == 1
        _arm(monkeypatch, "collect")
        sanitizer.report_violation("demo", "again")  # no raise
        assert len(sanitizer.violations()) == 2
        diags = sanitizer.to_diagnostics()
        assert all(d.rule == "sanitize.demo" for d in diags)
        assert all(d.severity == "error" for d in diags)
        sanitizer.reset()
        assert sanitizer.violations() == []


class TestScoreboardChecks:
    def test_monotone(self, monkeypatch):
        _arm(monkeypatch)
        sanitizer.check_monotone({1, 2}, {1, 2, 3}, "t")  # fine
        with pytest.raises(SanitizerError, match="scoreboard-monotonic"):
            sanitizer.check_monotone({1, 2}, {2}, "t")

    def test_retired_subset(self, monkeypatch):
        _arm(monkeypatch)
        sanitizer.check_retired_subset({1}, {1, 2}, "t")  # fine
        with pytest.raises(SanitizerError, match="scoreboard-soundness"):
            sanitizer.check_retired_subset({1, 9}, {1, 2}, "t")

    def test_fresh_targets(self, monkeypatch):
        _arm(monkeypatch)
        board = FaultScoreboard(10)
        board.retire([3, 4])
        sanitizer.check_fresh_targets(board, [0, 1], "t")  # fine
        sanitizer.check_fresh_targets(None, [3], "t")      # no board
        with pytest.raises(SanitizerError,
                           match="scoreboard-reactivation"):
            sanitizer.check_fresh_targets(board, [0, 3], "t")

    def test_disabled_board_never_flags(self, monkeypatch):
        _arm(monkeypatch)
        board = FaultScoreboard(10, enabled=False)
        board.retire([3])  # no-op ledger
        sanitizer.check_fresh_targets(board, [3], "t")  # inert

    def test_agreement(self, monkeypatch):
        _arm(monkeypatch)
        sanitizer.check_agreement({1, 2}, {1, 2}, "t")  # fine
        with pytest.raises(SanitizerError,
                           match="fused-chunked-agreement"):
            sanitizer.check_agreement({1, 2}, {1, 3}, "t")


def _sim(fused_cap=FUSED_CAP, seed=5):
    net = synth.generate("sani", 4, 3, 5, 40, seed=seed)
    cc = CompiledCircuit(net)
    fs = FaultSet.collapsed(net)
    return FaultSimulator(cc, fs, fused_cap=fused_cap), cc, fs


class TestChunkChecks:
    def test_bad_machine_lists_caught(self, monkeypatch):
        """A machine list that gives a fault two machines, or holds a
        fault of a proven-untestable class, is a ``lane-disjoint``
        violation; a list of distinct simulated faults is clean."""
        _arm(monkeypatch)
        _, _, fs = _sim()
        sanitizer.check_machines([0, 1, 2], fs, frozenset(), "test")
        with pytest.raises(SanitizerError, match="more than one machine"):
            sanitizer.check_machines([0, 1, 1], fs, frozenset(), "test")
        with pytest.raises(SanitizerError, match="proven-untestable"):
            sanitizer.check_machines([0, 1], fs,
                                     frozenset({fs.rep_of[1]}), "test")
        assert [v.invariant for v in sanitizer.violations()] == \
            ["lane-disjoint"] * 2

    def test_real_trial_chunks_pass(self, monkeypatch):
        """detect_trials checks the machine list of every chunk it binds,
        on either store, and its chunks (two faults each at fused_cap=8
        over 4 trials) are clean."""
        _arm(monkeypatch)
        net = synth.generate("sani", 4, 3, 5, 40, seed=5)
        fs = FaultSet.collapsed(net)
        checked = []
        real_machines = sanitizer.check_machines

        def spy_machines(machines, faults, untestable, context):
            checked.append((len(machines), context))
            real_machines(machines, faults, untestable, context)

        monkeypatch.setattr(sanitizer, "check_machines", spy_machines)
        vectors = random_gen.random_sequence(reference_circuit(net), 3,
                                             seed=2)
        for circuit in production_circuits(net):
            checked.clear()
            sim = FaultSimulator(circuit, fs, fused_cap=8)
            sim.detect_trials([(None, vectors[:k]) for k in range(1, 5)],
                              target=range(min(8, len(fs))))
            sizes = [n for n, ctx in checked
                     if ctx == "FaultSimulator.detect_trials"]
            assert sizes == [2, 2, 2, 2]
        assert sanitizer.violations() == []


class TestTrialCrossCheck:
    @pytest.mark.parametrize("kernel", [True, False],
                             ids=["kernel", "bigint"])
    def test_dropped_detection_caught(self, kernel, monkeypatch):
        """With the per-block decode made to drop one detection, the
        trial cross-check against one reference detect per trial
        raises, on either store."""
        if kernel and not KERNEL:
            pytest.skip("the C kernel is unavailable")
        net = synth.generate("sani", 4, 3, 5, 40, seed=5)
        _arm(monkeypatch)  # a simulator samples the setting when built
        sim = FaultSimulator(production_circuit(net, kernel),
                             FaultSet.collapsed(net))
        store = npsim._Arena if kernel else fault_sim._WordArena
        real = store.faults_by_block

        def lossy(self):
            blocks = real(self)
            for fids in blocks:
                if fids:
                    fids.pop()
                    break
            return blocks

        cc = reference_circuit(net)
        trials = [(random_gen.random_state(cc, seed=k),
                   random_gen.random_sequence(cc, 1 + k % 3, seed=k))
                  for k in range(5)]
        assert any(sim.detect_trials(trials))  # clean without the patch
        monkeypatch.setattr(store, "faults_by_block", lossy)
        with pytest.raises(SanitizerError,
                           match="fused-chunked-agreement"):
            sim.detect_trials(trials)

    def test_budget(self, monkeypatch):
        """Only the first few calls per simulator are cross-checked."""
        _arm(monkeypatch)
        sim, cc, _ = _sim()
        trials = [(None, random_gen.random_sequence(cc, 4, seed=3))]
        for _ in range(_SANITIZE_SPOT_BUDGET + 2):
            sim.detect_trials(trials)
        assert sim._sanitize_trial_spots_left == 0
        assert sanitizer.violations() == []


def _omission_case(kernel):
    """A simulator and a Phase-2 input on the s27 benchmark: a
    30-vector test and the faults it detects."""
    net = library.s27()
    sim = FaultSimulator(production_circuit(net, kernel),
                         FaultSet.collapsed(net))
    cc = reference_circuit(net)
    test = ScanTest(random_gen.random_state(cc, seed=2),
                    tuple(random_gen.random_sequence(cc, 30, seed=1)))
    return sim, test, sim.detect(list(test.vectors), test.scan_in)


class TestOmissionCrossCheck:
    @pytest.mark.parametrize("kernel", [True, False],
                             ids=["kernel", "bigint"])
    def test_clean_run_consumes_budget(self, kernel, monkeypatch):
        """Phase 2 re-runs its first early-decided trials without the
        trail, and they agree."""
        if kernel and not KERNEL:
            pytest.skip("the C kernel is unavailable")
        _arm(monkeypatch)  # a simulator samples the setting when built
        sim, test, required = _omission_case(kernel)
        omit_vectors(sim, test, required)
        assert sim._sanitize_omission_spots_left == 0
        assert sanitizer.violations() == []

    @pytest.mark.parametrize("kernel", [True, False],
                             ids=["kernel", "bigint"])
    def test_corrupt_later_rows_caught(self, kernel, monkeypatch):
        """With every trail's ``later`` rows made to claim that every
        machine is still caught, a trial the trail accepts early
        disagrees with its run to the end, on either store."""
        if kernel and not KERNEL:
            pytest.skip("the C kernel is unavailable")
        real = omission._CheckpointedRun.rebuild

        def corrupt(self, start_frame, suffix):
            real(self, start_frame, suffix)
            for store in self.stores:
                every = (1 << (store.n_machines + 1)) - 2
                store.set_later([every] * (self.length + 1))

        monkeypatch.setattr(omission._CheckpointedRun, "rebuild", corrupt)
        _arm(monkeypatch)
        sim, test, required = _omission_case(kernel)
        with pytest.raises(SanitizerError, match="omission-early-decision"):
            omit_vectors(sim, test, required)


class TestDelayCrossCheck:
    def test_dropped_detection_caught(self, monkeypatch):
        """With a simulator's dense-pass decode made to drop one
        detection, the re-run of its first passes on the reference
        circuit, one launch frame at a time, raises: on either store.
        Only the production simulator's decode is patched, not its
        shadow's."""
        net = synth.generate("tdfsan", 4, 3, 5, 30, seed=5)
        cc = reference_circuit(net)
        tests = ScanTestSet(net.num_ffs, [
            ScanTest(random_gen.random_state(cc, seed=k),
                     tuple(random_gen.random_sequence(cc, 8, seed=k)))
            for k in range(3)])

        def lossy(store):
            return TransitionSim._caught(store)[1:]

        _arm(monkeypatch)
        for circuit in production_circuits(net):
            sim = TransitionSim(circuit)
            assert sim.detect_test_set(tests)  # clean without the patch
            assert sim._shadow is not None
            sim = TransitionSim(circuit)
            sim._caught = lossy
            with pytest.raises(SanitizerError, match="delay-agreement"):
                sim.detect_test_set(tests)


class TestEndToEnd:
    def test_detect_clean_under_sanitizer(self, monkeypatch):
        _arm(monkeypatch)
        sim, cc, fs = _sim()
        vectors = random_gen.random_sequence(cc, 20, seed=0)
        detected = sim.detect(vectors, None, early_exit=False)
        assert sanitizer.violations() == []
        # Same detections as an unsanitized run.
        monkeypatch.delenv(sanitizer.ENV_VAR)
        sim2, cc2, _ = _sim()
        assert detected == sim2.detect(vectors, None, early_exit=False)

    def test_agreement_spot_check_consumes_budget(self, monkeypatch):
        _arm(monkeypatch)
        sim, cc, fs = _sim()
        before = sim._sanitize_spots_left
        assert before > 0
        vectors = random_gen.random_sequence(cc, 10, seed=1)
        sim.detect(vectors, None, early_exit=False)
        assert sim._sanitize_spots_left == before - 1
        assert sanitizer.violations() == []
        # The budget bottoms out at zero and stays there.
        for s in range(before + 2):
            sim.detect(vectors, None, early_exit=False)
        assert sim._sanitize_spots_left == 0

    def test_detect_candidates_clean(self, monkeypatch):
        _arm(monkeypatch)
        sim, cc, fs = _sim()
        n_sv = len(cc.ff_ids)
        import repro.sim.values as V
        states = [tuple(V.ONE if ((i >> b) & 1) else V.ZERO
                        for b in range(n_sv)) for i in range(4)]
        vectors = random_gen.random_sequence(cc, 6, seed=2)
        sim.detect_candidates(vectors, states,
                              list(range(min(12, len(fs)))))
        assert sanitizer.violations() == []

    def test_scoreboard_retire_hook_runs(self, monkeypatch):
        _arm(monkeypatch)
        board = FaultScoreboard(10, counters=SimCounters())
        board.retire([1, 2])
        board.retire([2, 3])
        assert sanitizer.violations() == []
