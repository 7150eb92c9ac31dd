"""Tests for the engine-invariant sanitizer layer."""

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError
from repro.atpg import random_gen
from repro.circuits import synth
from repro.sim.counters import SimCounters
from repro.sim.fault_sim import FUSED_CAP, FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit
from repro.sim.scoreboard import FaultScoreboard


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
    def test_real_chunks_pass(self, monkeypatch):
        _arm(monkeypatch)
        sim, _, fs = _sim(fused_cap=8)
        for chunk in sim._build_chunks(list(range(len(fs)))):
            sanitizer.check_chunk(chunk, "test")
        assert sanitizer.violations() == []

    def test_tampered_stem_caught(self, monkeypatch):
        _arm(monkeypatch)
        sim, _, fs = _sim(fused_cap=8)
        chunk = sim._build_chunks(list(range(len(fs))))[0]
        net_id, (m0, m1) = next(iter(chunk.stems.items()))
        # Force one machine bit to both 0 and 1.
        chunk.stems[net_id] = (m0 | 2, m1 | 2)
        with pytest.raises(SanitizerError, match="lane-disjoint"):
            sanitizer.check_chunk(chunk, "test")

    def test_good_bit_claim_caught(self, monkeypatch):
        _arm(monkeypatch)
        sim, _, fs = _sim(fused_cap=8)
        chunk = sim._build_chunks(list(range(len(fs))))[0]
        net_id, (m0, m1) = next(iter(chunk.stems.items()))
        chunk.stems[net_id] = (m0 | 1, m1)  # claims the good machine
        with pytest.raises(SanitizerError, match="universe"):
            sanitizer.check_chunk(chunk, "test")

    def test_real_lane_chunks_pass(self, monkeypatch):
        _arm(monkeypatch)
        sim, _, fs = _sim()
        chunks = sim._build_lane_chunks(list(range(min(8, len(fs)))), 4)
        for chunk in chunks:
            sanitizer.check_lane_chunk(chunk, "test")
        assert sanitizer.violations() == []


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
