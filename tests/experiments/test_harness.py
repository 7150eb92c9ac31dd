"""Chaos-injection tests for the resilient experiment harness.

Every failure mode the harness defends against is forced
deterministically through ``HarnessConfig.chaos``: worker crashes,
hard exits, hangs (killed by the timeout), and corrupt checkpoint
lines on resume.  Subprocess cases use the cheap s27/b02 jobs with a
single arm to keep the suite fast.
"""

import json

import pytest

from repro.circuits import suite
from repro.experiments import harness, reporting, runner, tables
from repro.experiments.harness import (HarnessConfig, JobRecord, JobSpec,
                                       RunStore, run_jobs,
                                       run_suite_resilient)


def _spec(circuit="s27", **kw):
    kw.setdefault("arms", ("random",))
    kw.setdefault("with_baselines", False)
    return JobSpec(circuit, seed=1, **kw)


def _cfg(**kw):
    kw.setdefault("backoff_base", 0.01)
    return HarnessConfig(**kw)


@pytest.fixture(scope="module")
def s27_full_run():
    return runner.run_circuit(suite.profile("s27"), seed=1,
                              delay=True)


class TestSerialization:
    def test_roundtrip_through_json(self, s27_full_run):
        blob = json.dumps(reporting.run_to_dict(s27_full_run))
        back = reporting.run_from_dict(json.loads(blob))
        assert back.name == "s27"
        assert back.n_faults == s27_full_run.n_faults
        assert back.transition == s27_full_run.transition
        for source in ("seqgen", "random"):
            orig = s27_full_run.arms[source].result
            rest = back.arms[source].result
            assert rest.final_detected == orig.final_detected
            assert rest.initial_cycles() == orig.initial_cycles()
            assert rest.compacted_cycles() == orig.compacted_cycles()
        assert back.baseline4.stats == s27_full_run.baseline4.stats
        assert back.dynamic.detected == s27_full_run.dynamic.detected

    def test_roundtrip_preserves_delay_report(self, s27_full_run):
        """The at-speed report survives the JSON checkpoint verbatim;
        legacy checkpoints without the key load with delay=None."""
        assert s27_full_run.delay is not None
        blob = json.dumps(reporting.run_to_dict(s27_full_run))
        back = reporting.run_from_dict(json.loads(blob))
        assert back.delay is not None
        assert back.delay.as_dict() == s27_full_run.delay.as_dict()
        assert back.delay.spec == s27_full_run.delay.spec
        legacy = reporting.run_to_dict(s27_full_run)
        del legacy["delay"]
        assert reporting.run_from_dict(legacy).delay is None

    def test_roundtrip_preserves_counters(self, s27_full_run):
        assert s27_full_run.counters  # the runner collected them
        assert s27_full_run.counters["words"] > 0
        back = reporting.run_from_dict(
            reporting.run_to_dict(s27_full_run))
        assert back.counters == s27_full_run.counters

    def test_counters_table_renders(self, s27_full_run):
        table = reporting.engine_counters_table([s27_full_run])
        text = table.render()
        assert "mach/word" in text
        assert "p1_s" in text and "p4_s" in text
        assert "s27" in text

    def test_phase_timers_collected_and_roundtrip(self, s27_full_run):
        counters = s27_full_run.counters
        # Every phase ran, so every timer accumulated wall clock.
        for key in ("phase1_s", "phase2_s", "phase3_s", "phase4_s"):
            assert counters[key] > 0.0
        back = reporting.run_from_dict(
            reporting.run_to_dict(s27_full_run))
        # Timers stay floats through the JSON checkpoint round-trip.
        assert all(isinstance(back.counters[k], float)
                   for k in ("phase1_s", "phase2_s",
                             "phase3_s", "phase4_s"))

    def test_legacy_checkpoint_without_counters(self, s27_full_run):
        data = reporting.run_to_dict(s27_full_run)
        del data["counters"]
        back = reporting.run_from_dict(data)
        assert back.counters == {}
        # The renderer degrades to dashes, never crashes.
        assert "-" in reporting.engine_counters_table([back]).render()

    def test_legacy_checkpoint_without_phase_timers(self, s27_full_run):
        """Checkpoints written before the timer fields existed render
        with dashes in the timer columns, not a KeyError."""
        data = reporting.run_to_dict(s27_full_run)
        for key in ("phase1_s", "phase2_s", "phase3_s", "phase4_s"):
            del data["counters"][key]
        back = reporting.run_from_dict(data)
        text = reporting.engine_counters_table([back]).render()
        assert "s27" in text and "-" in text

    @staticmethod
    def _run_legacy_spec(**removed):
        """Run one worker in process on a spec dict that still carries
        removed settings; returns the produced run."""
        import multiprocessing
        from dataclasses import asdict
        legacy = dict(asdict(_spec()), **removed)
        parent, child = multiprocessing.Pipe()
        harness._worker_main(child, legacy, 1, None,
                             heartbeat_interval=60.0)
        messages = []
        while parent.poll():
            try:
                messages.append(parent.recv())
            except EOFError:  # the worker closed its end
                break
        status, payload = messages[-1]
        assert status == "ok", payload
        run = reporting.run_from_dict(payload)
        for name in removed:
            assert name not in run.knobs
        return run

    def test_engine_width_travel_through_jobspec(self):
        """A legacy spec dict still carrying engine/width crosses the
        worker boundary: the worker ignores them and runs the one
        production path."""
        run = self._run_legacy_spec(engine="interp", width=16)
        assert run.counters["words"] >= run.counters["frames"]

    def test_candidate_scan_travels_through_jobspec(self):
        """Likewise for the removed Phase-1 and trial-batch settings:
        Phase 1 still runs its candidate-parallel pass."""
        run = self._run_legacy_spec(candidate_scan="scalar",
                                    trial_batch=1)
        assert run.counters["candidate_passes"] > 0

    def test_roundtrip_preserves_tables(self, s27_full_run):
        back = reporting.run_from_dict(
            reporting.run_to_dict(s27_full_run))
        for build in (tables.table1, tables.table3, tables.table4):
            assert build([back]).rows == build([s27_full_run]).rows

    def test_unknown_circuit_gets_stub_profile(self, s27_full_run):
        data = reporting.run_to_dict(s27_full_run)
        data["circuit"] = "never-heard-of-it"
        back = reporting.run_from_dict(data)
        assert back.name == "never-heard-of-it"
        with pytest.raises(RuntimeError, match="checkpoint"):
            back.profile.build()
        # Table renderers only need the name.
        assert tables.table3([back]).rows


class TestRunStore:
    def test_corrupt_lines_skipped(self, tmp_path, s27_full_run):
        store = RunStore(tmp_path)
        store.corrupt_checkpoint()
        store.append_run(_spec(), s27_full_run)
        (tmp_path / "runs.jsonl").open("a").write('{"truncat')
        runs, corrupt = store.load_runs()
        assert corrupt == 2
        assert ("s27", 1) in runs

    def test_journal_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        store.append_record(JobRecord("s27", 1, "failed", 3, 1.5,
                                      error="boom"))
        records = store.load_records()
        assert records[0].status == "failed"
        assert records[0].attempts == 3

    def test_missing_store_is_empty(self, tmp_path):
        store = RunStore(tmp_path / "fresh")
        assert store.load_runs() == ({}, 0)
        assert store.load_records() == []


class TestInlineMode:
    """isolate=False: retry/backoff/checkpoint logic without spawns."""

    def test_crash_then_retry_succeeds(self, tmp_path):
        crashes = []

        def chaos(spec, attempt):
            if attempt == 1:
                crashes.append(spec.circuit)
                return "crash"
            return None

        out = run_jobs([_spec()], _cfg(retries=1, isolate=False,
                                       run_dir=tmp_path, chaos=chaos))
        assert out.ok
        assert crashes == ["s27"]
        assert [(r.status, r.attempts) for r in out.records] == [("ok", 2)]

    def test_crash_exhausts_retries(self):
        out = run_jobs([_spec()],
                       _cfg(isolate=False, chaos=lambda s, a: "crash"))
        assert not out.ok
        record = out.records[0]
        assert record.status == "failed"
        assert record.attempts == 1
        assert "injected" in record.error
        assert out.runs == []

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError, match="chaos directive"):
            run_jobs([_spec()],
                     _cfg(isolate=False, chaos=lambda s, a: "meteor"))

    def test_final_attempt_perturbs_seed(self):
        spec = _spec()
        config = _cfg(retries=2)
        assert harness._attempt_seed(spec, 1, config) == spec.seed
        assert harness._attempt_seed(spec, 2, config) == spec.seed
        assert harness._attempt_seed(spec, 3, config) == \
            spec.seed + harness.SEED_PERTURBATION
        config.perturb_final_seed = False
        assert harness._attempt_seed(spec, 3, config) == spec.seed


class TestIsolatedChaos:
    def test_worker_crash_then_retry(self, tmp_path):
        out = run_jobs(
            [_spec()],
            _cfg(retries=1, run_dir=tmp_path,
                 chaos=lambda s, a: "crash" if a == 1 else None))
        assert out.ok
        assert out.records[0].attempts == 2
        # The checkpoint holds the completed run.
        runs, _ = RunStore(tmp_path).load_runs()
        assert ("s27", 1) in runs

    def test_worker_hard_exit(self):
        out = run_jobs([_spec()], _cfg(chaos=lambda s, a: "exit"))
        assert not out.ok
        record = out.records[0]
        assert record.status == "failed"
        assert "exit code" in record.error

    def test_worker_hang_times_out(self):
        out = run_jobs([_spec()],
                       _cfg(timeout=2.0, chaos=lambda s, a: "hang"))
        record = out.records[0]
        assert record.status == "timeout"
        assert record.failed
        assert out.failures == {"s27": "timeout"}

    def test_parallel_jobs_all_complete(self):
        specs = [_spec("s27"), _spec("b02")]
        out = run_jobs(specs, _cfg(jobs=2))
        assert out.ok
        assert [r.name for r in out.runs] == ["s27", "b02"]


class TestResume:
    def test_failed_job_recomputed_survivor_skipped(self, tmp_path):
        specs = [_spec("s27"), _spec("b02")]

        def chaos(spec, attempt):
            return "crash" if spec.circuit == "s27" else None

        first = run_jobs(specs, _cfg(run_dir=tmp_path, chaos=chaos))
        assert not first.ok
        assert [r.name for r in first.runs] == ["b02"]

        # Re-invocation with resume: only the failed job reruns.
        second = run_jobs(specs, _cfg(run_dir=tmp_path, resume=True))
        assert second.ok
        assert [r.name for r in second.runs] == ["s27", "b02"]
        by_circuit = {r.circuit: r for r in second.records}
        assert by_circuit["b02"].status == "skipped-resume"
        assert by_circuit["b02"].attempts == 0
        assert by_circuit["s27"].status == "ok"
        assert by_circuit["s27"].attempts == 1
        # The journal keeps the whole campaign's attempt history.
        journal = RunStore(tmp_path).load_records()
        assert [(r.circuit, r.status) for r in journal] == [
            ("s27", "failed"), ("b02", "ok"),
            ("b02", "skipped-resume"), ("s27", "ok")]

    def test_corrupt_checkpoint_line_recomputed(self, tmp_path):
        run_jobs([_spec()], _cfg(run_dir=tmp_path, isolate=False))
        # A crash mid-append leaves a truncated line; resume must
        # recompute that job rather than die.
        runs_file = tmp_path / "runs.jsonl"
        runs_file.write_text(runs_file.read_text()[:40])
        out = run_jobs([_spec()],
                       _cfg(run_dir=tmp_path, resume=True,
                            isolate=False))
        assert out.ok
        assert out.records[0].status == "ok"  # not skipped-resume

    def test_chaos_corrupts_checkpoint(self, tmp_path):
        out = run_jobs(
            [_spec()],
            _cfg(run_dir=tmp_path, isolate=False,
                 chaos=lambda s, a: "corrupt-checkpoint"))
        assert out.ok  # the attempt itself runs normally
        runs, corrupt = RunStore(tmp_path).load_runs()
        assert corrupt == 1
        assert ("s27", 1) in runs

    def test_resume_rejects_insufficient_checkpoint(self, tmp_path):
        run_jobs([_spec()], _cfg(run_dir=tmp_path, isolate=False))
        richer = JobSpec("s27", seed=1, arms=("seqgen", "random"),
                         with_baselines=True)
        out = run_jobs([richer], _cfg(run_dir=tmp_path, resume=True,
                                      isolate=False))
        # The cached run lacks baselines + the seqgen arm: recompute.
        assert out.records[0].status == "ok"
        assert out.runs[0].baseline4 is not None


class TestDegradedTables:
    def test_tables_render_with_failures(self, s27_full_run):
        failures = {"s298": "timeout"}
        for table in tables.all_tables([s27_full_run],
                                       failures=failures):
            text = table.render()
            assert "FAILED(timeout)" in text
            assert "s298" in text

    def test_table3_failure_row_before_total(self, s27_full_run):
        t = tables.table3([s27_full_run], failures={"s298": "crash"})
        assert t.rows[-1][0] == "total"
        assert t.rows[-2][:2] == ["s298", "FAILED(crash)"]

    def test_empty_runs_render(self):
        failures = {"s27": "timeout", "b02": "crash"}
        for table in tables.all_tables([], with_delay=True,
                                       failures=failures):
            assert "FAILED" in table.render()
        comparison = tables.paper_comparison([], failures=failures)
        assert "FAILED(timeout)" in comparison.render()

    def test_empty_runs_no_failures(self):
        for table in tables.all_tables([]):
            assert table.render()


class TestPreflightLint:
    """Structurally broken circuits become SKIPPED rows, not crashes."""

    @staticmethod
    def _install_broken(monkeypatch, name="brokenville"):
        from repro.circuits import suite as suite_mod
        from repro.circuits.netlist import Netlist

        class _Profile:
            def build(self):
                net = Netlist(name)
                net.add_input("a")
                net.add_gate("g1", "AND", ["a", "ghost"])
                net.add_output("g1")
                return net

        real = suite_mod.profile

        def lookup(circuit):
            return _Profile() if circuit == name else real(circuit)

        monkeypatch.setattr(suite_mod, "profile", lookup)

    def test_broken_circuit_skipped_healthy_runs(self, monkeypatch,
                                                 tmp_path):
        self._install_broken(monkeypatch)
        out = run_jobs([_spec("brokenville"), _spec("s27")],
                       _cfg(isolate=False, run_dir=tmp_path))
        by = {r.circuit: r for r in out.records}
        record = by["brokenville"]
        assert record.status == "skipped-lint"
        assert record.skipped_lint and not record.failed
        assert record.lint_rules == ("struct.undriven-net",)
        assert record.attempts == 0
        assert record.reason == "lint: struct.undriven-net"
        assert by["s27"].status == "ok"
        # Lint skips are deliberate outcomes, not failures...
        assert out.ok
        assert [r.name for r in out.runs] == ["s27"]
        # ...but they still reach the table renderers.
        assert out.failures == \
            {"brokenville": "lint: struct.undriven-net"}

    def test_skip_rendered_in_tables(self, monkeypatch):
        self._install_broken(monkeypatch)
        out = run_jobs([_spec("brokenville")], _cfg(isolate=False))
        text = tables.table1(out.runs, failures=out.failures).render()
        assert "SKIPPED(lint: struct.undriven-net)" in text
        assert "FAILED" not in text
        summary = out.failure_summary().render()
        assert "skipped-lint" in summary
        assert "struct.undriven-net" in summary

    def test_journal_roundtrip_lint_rules(self, monkeypatch, tmp_path):
        self._install_broken(monkeypatch)
        run_jobs([_spec("brokenville")],
                 _cfg(isolate=False, run_dir=tmp_path))
        records = RunStore(tmp_path).load_records()
        assert [r.status for r in records] == ["skipped-lint"]
        # JSON round-trip re-coerces the rule list to a tuple.
        assert records[0].lint_rules == ("struct.undriven-net",)

    def test_preflight_opt_out_restores_crash(self, monkeypatch):
        self._install_broken(monkeypatch)
        out = run_jobs([_spec("brokenville")],
                       _cfg(isolate=False, preflight=False))
        record = out.records[0]
        assert record.status == "failed"
        assert record.lint_rules == ()
        assert not out.ok

    def test_healthy_circuit_has_no_lint_rules(self):
        out = run_jobs([_spec("s27")], _cfg(isolate=False))
        assert out.ok
        assert out.records[0].lint_rules == ()
        assert out.skipped_records == []


class TestSuiteEntry:
    def test_run_suite_resilient_matches_run_suite(self):
        profile = suite.profile("s27")
        outcome = run_suite_resilient(
            [profile], arms=("random",), with_baselines=False,
            config=_cfg(isolate=False))
        plain = runner.run_suite([profile], arms=("random",),
                                 with_baselines=False)
        assert outcome.ok
        assert tables.table5(outcome.runs).rows == \
            tables.table5(plain).rows

    def test_failure_summary_table(self):
        out = run_jobs([_spec()],
                       _cfg(isolate=False, chaos=lambda s, a: "crash"))
        text = out.failure_summary().render()
        assert "s27" in text and "failed" in text


class TestPowerSerialization:
    """The PowerReport travels through checkpoints and JobSpecs."""

    def test_run_carries_power_report(self, s27_full_run):
        report = s27_full_run.power
        assert report is not None
        assert report.x_fill == "random"
        assert report.budget is None
        assert set(report.sets) == {"seqgen", "random", "baseline4"}

    def test_power_roundtrip_through_json(self, s27_full_run):
        blob = json.dumps(reporting.run_to_dict(s27_full_run))
        back = reporting.run_from_dict(json.loads(blob))
        assert back.power is not None
        assert back.power.x_fill == s27_full_run.power.x_fill
        assert back.power.budget == s27_full_run.power.budget
        assert back.power.sets == s27_full_run.power.sets
        assert tables.table_power([back]).rows == \
            tables.table_power([s27_full_run]).rows

    def test_legacy_checkpoint_without_power(self, s27_full_run):
        """Checkpoints written before the power subsystem load with
        power=None and the power table silently drops them."""
        data = reporting.run_to_dict(s27_full_run)
        del data["power"]
        back = reporting.run_from_dict(data)
        assert back.power is None
        assert tables.table_power([back]).rows == []
        titles = [t.title for t in tables.all_tables([back])]
        assert not any("Power" in t for t in titles)

    def test_legacy_counters_render_power_dashes(self, s27_full_run):
        data = reporting.run_to_dict(s27_full_run)
        for key in ("power_passes", "power_words", "power_s"):
            del data["counters"][key]
        back = reporting.run_from_dict(data)
        text = reporting.engine_counters_table([back]).render()
        assert "pw_words" in text and "pw_s" in text
        assert "-" in text

    def test_engine_column_and_legacy_dashes(self, s27_full_run):
        """The counters table records what ran -- the kernel pass
        count (``np``) -- and no longer echoes an engine knob; a
        checkpoint from before the field renders a dash, not a
        KeyError."""
        table = reporting.engine_counters_table([s27_full_run])
        assert "np" in table.headers and "eng" not in table.headers
        row = dict(zip(table.headers, table.rows[0]))
        assert row["np"] == s27_full_run.counters["np_passes"]
        data = reporting.run_to_dict(s27_full_run)
        del data["knobs"]
        del data["counters"]["np_passes"]
        back = reporting.run_from_dict(data)
        legacy = reporting.engine_counters_table([back])
        row = dict(zip(legacy.headers, legacy.rows[0]))
        assert row["np"] is None
        assert "-" in legacy.render()

    def test_jobspec_defaults_from_legacy_dict(self):
        """A spec dict from before the power fields still loads with
        the paper-reproducing defaults."""
        from dataclasses import asdict
        legacy = asdict(_spec())
        del legacy["x_fill"]
        del legacy["power_budget"]
        spec = JobSpec(**legacy)
        assert spec.x_fill == "random"
        assert spec.power_budget is None

    def test_checkpoint_usable_power_knobs(self, s27_full_run):
        from repro.experiments.harness import _checkpoint_usable
        base = _spec(arms=("seqgen", "random"), with_baselines=True,
                     delay=True)
        assert _checkpoint_usable(s27_full_run, base)
        # Non-default knobs reject a default checkpoint ...
        assert not _checkpoint_usable(
            s27_full_run, _spec(arms=("random",), x_fill="adjacent"))
        assert not _checkpoint_usable(
            s27_full_run, _spec(arms=("random",), power_budget=9.0))
        # ... and a pre-power checkpoint (power=None) too.
        data = reporting.run_to_dict(s27_full_run)
        del data["power"]
        old = reporting.run_from_dict(data)
        assert _checkpoint_usable(old, base)
        assert not _checkpoint_usable(
            old, _spec(arms=("random",), x_fill="adjacent"))
        # A default spec must not reuse a non-default checkpoint.
        data = reporting.run_to_dict(s27_full_run)
        data["knobs"]["x_fill"] = "adjacent"
        assert not _checkpoint_usable(reporting.run_from_dict(data),
                                      base)
        data["knobs"]["x_fill"] = "random"
        data["knobs"]["power_budget"] = 9.0
        assert not _checkpoint_usable(reporting.run_from_dict(data),
                                      base)
        # Pre-knob checkpoints fall back to the PowerReport fields.
        data = reporting.run_to_dict(s27_full_run)
        del data["knobs"]
        data["power"]["x_fill"] = "adjacent"
        assert not _checkpoint_usable(reporting.run_from_dict(data),
                                      base)
        data["power"]["x_fill"] = "random"
        data["power"]["budget"] = 9.0
        assert not _checkpoint_usable(reporting.run_from_dict(data),
                                      base)

    def test_checkpoint_usable_rejects_every_knob(self, s27_full_run):
        """Every JobSpec result-shaping knob participates in the
        checkpoint compatibility check, including on legacy spec
        dicts rebuilt without the newer fields; the removed simulation
        settings a legacy checkpoint recorded do not."""
        from dataclasses import asdict
        from repro.experiments.harness import _checkpoint_usable
        from repro.experiments.salvage import RESULT_KNOBS
        base = _spec(arms=("seqgen", "random"), with_baselines=True,
                     delay=True)
        different = {"x_fill": "adjacent", "power_budget": 9.0,
                     "adi": True, "scoap": True}
        assert set(different) == set(RESULT_KNOBS)
        for name, value in different.items():
            spec = _spec(arms=("seqgen", "random"), with_baselines=True,
                         **{"delay": True, name: value})
            assert not _checkpoint_usable(s27_full_run, spec), name
        # A legacy spec dict (pre-knob fields stripped) resolves to the
        # defaults and must still accept the matching checkpoint.
        legacy = asdict(base)
        for name in RESULT_KNOBS:
            legacy.pop(name, None)
        assert _checkpoint_usable(s27_full_run, JobSpec(**legacy))
        # A checkpoint that recorded the removed settings is reused.
        data = reporting.run_to_dict(s27_full_run)
        data["knobs"].update(engine="interp", width=4,
                             candidate_scan="scalar", trial_batch=1)
        assert _checkpoint_usable(reporting.run_from_dict(data), base)

    def test_checkpoint_usable_delay_asymmetric(self, s27_full_run):
        """--delay is measurement-only: a delay-bearing checkpoint
        serves both settings, but a bare checkpoint cannot serve a
        delay request (nor can a with_transition-era one, which
        carried only the flat coverage dict)."""
        from repro.experiments.harness import _checkpoint_usable
        plain = _spec(arms=("seqgen", "random"), with_baselines=True)
        wants = _spec(arms=("seqgen", "random"), with_baselines=True,
                      delay=True)
        assert _checkpoint_usable(s27_full_run, plain)
        assert _checkpoint_usable(s27_full_run, wants)
        data = reporting.run_to_dict(s27_full_run)
        data["delay"] = None
        bare = reporting.run_from_dict(data)
        assert _checkpoint_usable(bare, plain)
        assert not _checkpoint_usable(bare, wants)

    def test_power_knobs_travel_through_jobspec(self):
        """x_fill/power_budget cross the spawn boundary and land in
        the produced run's PowerReport."""
        spec = _spec(x_fill="fill1", power_budget=100.0)
        outcome = run_jobs([spec], config=_cfg(isolate=True))
        assert outcome.ok
        report = outcome.runs[0].power
        assert report is not None
        assert report.x_fill == "fill1"
        assert report.budget == 100.0
