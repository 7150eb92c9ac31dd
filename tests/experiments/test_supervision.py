"""Heartbeat supervision, chaos grammar and stall detection.

The subprocess cases exercise the real spawn boundary: heartbeats
streaming over the worker pipe, the supervisor's stall timeout killing
silent workers, and phase-scoped chaos riding `REPRO_CHAOS` /
``HarnessConfig.chaos`` into a worker whose retry recomputes the job
from scratch.
"""

import json

import pytest

from repro.experiments import reporting
from repro.experiments.harness import (HarnessConfig, JobSpec, RunStore,
                                       run_jobs)
from repro.experiments.supervision import (ChaosDirective, ChaosError,
                                           ProgressReporter, WorkerHooks,
                                           chaos_from_env, parse_chaos)
from repro.sim.counters import SimCounters


def _spec(circuit="s27", **kw):
    kw.setdefault("arms", ("random",))
    kw.setdefault("with_baselines", False)
    return JobSpec(circuit, seed=1, **kw)


def _cfg(**kw):
    kw.setdefault("backoff_base", 0.01)
    kw.setdefault("heartbeat_interval", 0.05)
    return HarnessConfig(**kw)


def _chaos_once(directive):
    def chaos(spec, attempt):
        return directive if attempt == 1 else None
    return chaos


class TestParseChaos:
    @pytest.mark.parametrize("text,kind,phase", [
        ("crash", "crash", None),
        ("exit", "exit", None),
        ("hang", "hang", None),
        ("corrupt-checkpoint", "corrupt-checkpoint", None),
        ("crash@phase1", "crash", "phase1"),
        ("crash@phase3", "crash", "phase3"),
        ("stall@phase2", "stall", "phase2"),
        ("stall@phase4", "stall", "phase4"),
    ])
    def test_valid(self, text, kind, phase):
        directive = parse_chaos(text)
        assert directive == ChaosDirective(kind, phase)
        assert str(directive) == text

    @pytest.mark.parametrize("text,match", [
        ("stall", "requires a phase scope"),
        ("segfault", "unknown chaos directive"),
        ("corrupt-salvage", "unknown chaos directive"),
        ("crash@phase9", "unknown phase"),
        ("crash@", "unknown phase"),
        ("exit@phase2", "does not accept a phase scope"),
        ("corrupt-checkpoint@phase3", "does not accept a phase scope"),
    ])
    def test_invalid(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_chaos(text)


class TestChaosFromEnv:
    def test_wildcard_first_attempt_only(self):
        chaos = chaos_from_env("crash@phase3")
        assert chaos(_spec("s27"), 1) == "crash@phase3"
        assert chaos(_spec("b02"), 1) == "crash@phase3"
        assert chaos(_spec("s27"), 2) is None

    def test_circuit_scoped(self):
        chaos = chaos_from_env("s27:crash@phase3,b02:stall@phase2")
        assert chaos(_spec("s27"), 1) == "crash@phase3"
        assert chaos(_spec("b02"), 1) == "stall@phase2"
        assert chaos(_spec("s298"), 1) is None

    def test_malformed_fails_at_parse_time(self):
        with pytest.raises(ValueError):
            chaos_from_env("s27:stall")
        with pytest.raises(ValueError):
            chaos_from_env("segfault")

    def test_blank_entries_ignored(self):
        chaos = chaos_from_env("crash, ,")
        assert chaos(_spec(), 1) == "crash"

    def test_env_reaches_run_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash@phase3")
        outcome = run_jobs([_spec()],
                           config=_cfg(isolate=False, retries=1,
                                       run_dir=tmp_path))
        assert outcome.ok
        assert outcome.records[0].attempts == 2

    def test_explicit_chaos_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash@phase3")
        outcome = run_jobs([_spec()],
                           config=_cfg(isolate=False,
                                       chaos=lambda s, a: None))
        assert outcome.ok
        assert outcome.records[0].attempts == 1


class _PipeStub:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class TestProgressReporter:
    def test_update_sends_immediately(self):
        conn = _PipeStub()
        reporter = ProgressReporter(conn, interval=60.0)
        reporter.update(arm="random", phase="phase1")
        assert len(conn.sent) == 1
        kind, status = conn.sent[0]
        assert kind == "heartbeat"
        assert status["arm"] == "random"
        assert status["phase"] == "phase1"
        assert status["seq"] == 1
        reporter.update(phase="phase2")
        assert conn.sent[-1][1]["arm"] == "random"  # merged, not reset
        assert conn.sent[-1][1]["seq"] == 2

    def test_counters_snapshot_in_heartbeat(self):
        conn = _PipeStub()
        reporter = ProgressReporter(conn, interval=60.0)
        counters = SimCounters()
        reporter.bind_counters(counters, n_faults=100)
        counters.frames = 7
        counters.faults_dropped = 40
        reporter.update(arm="random", phase="phase2")
        status = conn.sent[-1][1]
        assert status["counters"]["frames"] == 7
        assert status["faults_remaining"] == 60

    def test_inline_mode_tracks_without_sending(self):
        reporter = ProgressReporter(None, interval=60.0)
        reporter.start()  # no-op, no thread
        reporter.update(arm="random", phase="phase3")
        assert reporter.status["phase"] == "phase3"
        reporter.stop()

    def test_status_survives_json(self):
        """Heartbeat payloads must stay plain data (they cross the
        pipe and land in JobRecord.progress)."""
        conn = _PipeStub()
        reporter = ProgressReporter(conn, interval=60.0)
        reporter.bind_counters(SimCounters(), n_faults=10)
        reporter.update(arm="seqgen", phase="phase1")
        json.dumps(conn.sent[-1][1])


class TestWorkerHooksInline:
    def test_phase_crash_enacted_once(self):
        hooks = WorkerHooks(ProgressReporter(None),
                            chaos=parse_chaos("crash@phase2"),
                            isolated=False)
        observer = hooks.arm_observer("random")
        observer.enter("phase1")
        with pytest.raises(ChaosError, match="crash@phase2"):
            observer.enter("phase2")
        observer.enter("phase2")  # directive cleared: second pass runs

    def test_inline_stall_degrades_to_raise(self):
        hooks = WorkerHooks(ProgressReporter(None),
                            chaos=parse_chaos("stall@phase2"),
                            isolated=False)
        observer = hooks.arm_observer("random")
        with pytest.raises(ChaosError, match="inline"):
            observer.enter("phase2")


class TestRetryFromScratch:
    """A job killed inside the pipeline is retried from scratch, and
    the retry's result is byte-identical to an uninterrupted run.

    Every campaign here has a run dir, so the final attempt keeps the
    job's seed (default config, ``perturb_final_seed`` on).
    """

    @pytest.fixture(scope="class")
    def reference(self):
        outcome = run_jobs([_spec()], config=_cfg(isolate=False))
        assert outcome.ok
        return outcome.runs[0]

    @pytest.mark.parametrize("directive", ["crash@phase3",
                                           "crash@phase4"])
    def test_retry_is_byte_identical(self, tmp_path, reference,
                                     directive):
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=False, retries=1, run_dir=tmp_path,
                        chaos=_chaos_once(directive)))
        assert outcome.ok
        assert [r.status for r in outcome.records] == ["ok"]
        assert outcome.records[0].attempts == 2
        run = outcome.runs[0]
        got, want = (reporting.proposed_to_dict(r.arms["random"].result)
                     for r in (run, reference))
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(want, sort_keys=True)
        # The retry re-ran every phase: its work equals a fresh run's.
        for key in ("candidate_passes", "omission_trials"):
            assert run.counters[key] == reference.counters[key]
            assert run.counters[key] > 0

    def test_checkpoint_holds_the_job_seed_result(self, tmp_path,
                                                  reference):
        """What a retried run-dir job checkpoints under (circuit, seed)
        is that seed's result, and ``--resume`` serves it as such."""
        config = _cfg(isolate=False, retries=1, run_dir=tmp_path,
                      chaos=_chaos_once("crash@phase3"))
        assert run_jobs([_spec()], config=config).ok
        stored, corrupt = RunStore(tmp_path).load_runs()
        assert corrupt == 0
        want = json.dumps(reporting.proposed_to_dict(
            reference.arms["random"].result), sort_keys=True)
        assert json.dumps(reporting.proposed_to_dict(
            stored[("s27", 1)].arms["random"].result),
            sort_keys=True) == want
        resumed = run_jobs([_spec()],
                           config=_cfg(isolate=False, run_dir=tmp_path,
                                       resume=True))
        assert [r.status for r in resumed.records] == ["skipped-resume"]
        assert json.dumps(reporting.proposed_to_dict(
            resumed.runs[0].arms["random"].result),
            sort_keys=True) == want


class TestIsolatedSupervision:
    """Real subprocess workers: heartbeats, stalls, retries."""

    def test_progress_recorded_on_success(self, tmp_path):
        outcome = run_jobs([_spec()],
                           config=_cfg(isolate=True, run_dir=tmp_path))
        assert outcome.ok
        record = outcome.records[0]
        assert record.progress is not None
        assert record.progress.startswith("random/")
        summary = outcome.failure_summary().render()
        assert "progress" in summary

    def test_hang_killed_by_stall_timeout(self, tmp_path):
        """A worker that never heartbeats dies at the stall timeout --
        no wall-clock timeout configured at all."""
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=True, run_dir=tmp_path,
                        stall_timeout=1.0,
                        chaos=lambda s, a: "hang"))
        assert not outcome.ok
        record = outcome.records[0]
        assert record.status == "stall"
        assert "without a heartbeat" in record.error
        assert "stall" in record.reason

    def test_phase_stall_killed_and_resumed(self, tmp_path):
        """stall@phase2: heartbeats flow through Phase 1, go quiet at
        the Phase-2 boundary, the supervisor kills on silence, and the
        retry recomputes the job from scratch and succeeds."""
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=True, retries=1, run_dir=tmp_path,
                        stall_timeout=0.5,
                        chaos=_chaos_once("stall@phase2")))
        assert outcome.ok
        assert outcome.records[0].attempts == 2

    def test_isolated_crash_resumes_byte_identical(self, tmp_path):
        reference = run_jobs([_spec()], config=_cfg(isolate=False))
        assert reference.ok
        ref = reporting.proposed_to_dict(
            reference.runs[0].arms["random"].result)
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=True, retries=1, run_dir=tmp_path,
                        chaos=_chaos_once("crash@phase3")))
        assert outcome.ok
        retried = reporting.proposed_to_dict(
            outcome.runs[0].arms["random"].result)
        assert json.dumps(retried, sort_keys=True) == \
            json.dumps(ref, sort_keys=True)

    def test_stall_reports_last_progress(self, tmp_path):
        """The stall record carries the last heartbeat-reported
        position so the job summary says *where* it died."""
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=True, run_dir=tmp_path,
                        stall_timeout=0.5,
                        chaos=lambda s, a: "stall@phase2"))
        assert not outcome.ok
        record = outcome.records[0]
        assert record.status == "stall"
        assert record.progress is not None
        assert "phase" in record.progress


class TestBackoffJitter:
    def test_deterministic_per_job(self):
        from repro.experiments.harness import _JobState, _retry_delay
        cfg = HarnessConfig(backoff_base=0.5, backoff_cap=30.0)
        a = _JobState(_spec("s27"), attempts=1)
        b = _JobState(_spec("s27"), attempts=1)
        assert _retry_delay(a, cfg) == _retry_delay(b, cfg)

    def test_jobs_decorrelate(self):
        from repro.experiments.harness import _JobState, _retry_delay
        cfg = HarnessConfig(backoff_base=0.5, backoff_cap=30.0)
        delays = {_retry_delay(_JobState(_spec(c), attempts=1), cfg)
                  for c in ("s27", "b02", "s298", "s344")}
        assert len(delays) > 1

    def test_growth_and_cap(self):
        from repro.experiments.harness import _JobState, _retry_delay
        cfg = HarnessConfig(backoff_base=0.5, backoff_cap=2.0)
        state = _JobState(_spec(), attempts=1)
        seen = []
        for attempt in range(1, 8):
            state.attempts = attempt
            delay = _retry_delay(state, cfg)
            assert cfg.backoff_base <= delay <= cfg.backoff_cap
            seen.append(delay)
        assert max(seen) <= cfg.backoff_cap

    def test_no_hang_seconds_constant(self):
        """The bounded-sleep hang constant is gone; stalls are the
        supervisor's business now."""
        from repro.experiments import harness, supervision
        assert not hasattr(harness, "_HANG_SECONDS")
        assert hasattr(supervision, "freeze")
