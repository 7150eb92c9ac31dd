"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "s298" in out

    def test_circuit_s27(self, capsys):
        assert main(["circuit", "s27"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 5" in out
        assert "Engine counters" in out

    def test_circuit_engine_width_flags(self, capsys):
        """The simulation-option flags are gone: usage error, exit 2."""
        for flags in (["--engine", "numpy"], ["--width", "16"]):
            with pytest.raises(SystemExit) as exc:
                main(["circuit", "s27", *flags])
            assert exc.value.code == 2

    def test_width_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["circuit", "s27", "--width", "huge"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["circuit", "s27", "--width", "1"])

    def test_engine_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["circuit", "s27", "--engine", "fpga"])

    def test_circuit_numpy_engine(self, capsys):
        """``circuit`` runs its passes on the C kernel by default when
        the kernel loads: the Engine-counters ``np`` column counts
        them."""
        from repro.sim import npsim
        assert main(["circuit", "s27"]) == 0
        out = capsys.readouterr().out
        lines = out[out.index("Engine counters"):].splitlines()
        headers, row = lines[1].split(), lines[3].split()
        np_passes = int(dict(zip(headers, row))["np"])
        assert (np_passes > 0) == \
            (npsim.kernel_unavailable_reason() is None)

    def test_candidate_scan_flag(self, capsys):
        """So are the Phase-1 and trial-batch flags."""
        for flags in (["--candidate-scan", "scalar"],
                      ["--trial-batch", "1"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["circuit", "s27", *flags])
            assert exc.value.code == 2

    def test_circuit_unknown(self, capsys):
        assert main(["circuit", "sXXX"]) == 2
        err = capsys.readouterr().err
        assert "unknown circuit" in err
        assert "s298" in err  # the valid names are listed

    def test_tables_unknown_circuit(self, capsys):
        assert main(["tables", "--circuits", "s27", "sXXX"]) == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_resume_requires_run_dir(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--resume"])
        assert exc.value.code == 2

    def test_tables_single_circuit_json(self, capsys, tmp_path):
        out_json = tmp_path / "tables.json"
        assert main(["tables", "--circuits", "s27",
                     "--json", str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        titles = [t["title"] for t in data]
        assert any("Table 3" in t for t in titles)

    def test_tables_run_dir_then_resume(self, capsys, tmp_path):
        run_dir = tmp_path / "campaign"
        assert main(["tables", "--circuits", "s27",
                     "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "runs.jsonl").exists()
        capsys.readouterr()
        assert main(["tables", "--circuits", "s27",
                     "--run-dir", str(run_dir), "--resume"]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out
        journal = (run_dir / "journal.jsonl").read_text().splitlines()
        statuses = [json.loads(line)["data"]["status"]
                    for line in journal]
        assert statuses == ["ok", "skipped-resume"]

    def test_failed_job_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments import harness

        def chaos(spec, attempt):
            return "crash"

        original = harness.HarnessConfig

        def patched(*args, **kwargs):
            config = original(*args, **kwargs)
            config.chaos = chaos
            config.isolate = False
            return config

        monkeypatch.setattr("repro.cli.HarnessConfig", patched)
        assert main(["circuit", "s27"]) == 1
        captured = capsys.readouterr()
        assert "Job summary" in captured.out
        assert "ultimately failed" in captured.err

    def test_bench_info(self, capsys):
        assert main(["bench-info"]) == 0
        assert "pytest" in capsys.readouterr().out

    def test_stall_timeout_flag(self):
        args = build_parser().parse_args(["circuit", "s27"])
        assert args.stall_timeout is None
        args = build_parser().parse_args(
            ["tables", "--stall-timeout", "30"])
        assert args.stall_timeout == 30.0

    def test_partial_command(self, capsys):
        assert main(["partial", "s27"]) == 0
        out = capsys.readouterr().out
        assert "full" in out and "cut" in out

    def test_export_roundtrip(self, capsys, tmp_path):
        from repro.core import testio
        out_file = tmp_path / "s27.rtp"
        assert main(["export", "s27", "-o", str(out_file)]) == 0
        program = testio.load(out_file)
        assert program.n_state_vars == 3
        assert "replay OK" in capsys.readouterr().out


class TestLintCommand:
    _SYNTH_4941 = ["lint", "--synth", "4,3,5,40", "--seed", "4941"]

    def test_suite_circuit_clean(self, capsys):
        assert main(["lint", "s27"]) == 0
        out = capsys.readouterr().out
        assert "Lint: s27" in out
        assert "linted: clean" in out

    def test_bench_file_target(self, capsys, tmp_path):
        p = tmp_path / "mini.bench"
        p.write_text("INPUT(a)\ng1 = NOT(a)\nOUTPUT(g1)\n")
        assert main(["lint", str(p)]) == 0
        assert "mini" in capsys.readouterr().out

    def test_missing_bench_file(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope.bench")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_target(self, capsys):
        assert main(["lint", "definitely-not-real"]) == 2
        err = capsys.readouterr().err
        assert "neither a file nor a suite circuit" in err
        assert "s27" in err  # valid names listed

    def test_synth_seed_4941_expected_rule(self, capsys):
        assert main(self._SYNTH_4941 +
                    ["--expect", "xinit.not-synchronizable"]) == 0
        out = capsys.readouterr().out
        assert "as expected" in out
        assert "ff0" in out and "ff2" in out and "ff4" in out

    def test_synth_seed_4941_strict_fails(self, capsys):
        assert main(self._SYNTH_4941 + ["--strict"]) == 1
        err = capsys.readouterr().err
        assert "synth-4941: xinit.not-synchronizable" in err

    def test_warning_passes_without_strict(self, capsys):
        assert main(self._SYNTH_4941) == 0
        assert "linted: clean" in capsys.readouterr().out

    def test_allow_waives_finding(self, capsys):
        assert main(self._SYNTH_4941 + [
            "--strict",
            "--allow", "synth-4941:xinit.not-synchronizable"]) == 0

    def test_allow_malformed(self, capsys):
        assert main(["lint", "s27", "--allow", "nocolon"]) == 2
        assert "CIRCUIT:RULE" in capsys.readouterr().err

    def test_expect_missing_rule_fails(self, capsys):
        assert main(["lint", "s27", "--expect",
                     "xinit.not-synchronizable"]) == 1
        assert "missing on: s27" in capsys.readouterr().err

    def test_json_output(self, capsys):
        assert main(["lint", "s27", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["circuit"] == "s27"
        assert data[0]["diagnostics"] == []

    def test_sweep_multiplies_reports(self, capsys):
        assert main(["lint", "--synth", "2,2,2,8", "--seed", "7",
                     "--sweep", "3", "--no-xinit", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["circuit"] for r in data] == \
            ["synth-7", "synth-8", "synth-9"]

    def test_synth_malformed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--synth", "4,3"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--synth", "a,b,c,d"])

    def test_sanitize_flag_arms_env(self, capsys, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert main(["circuit", "s27", "--sanitize"]) == 0
        assert os.environ["REPRO_SANITIZE"] == "1"
        assert "Table 1" in capsys.readouterr().out


class TestDoctorCommand:
    def _campaign(self, run_dir, monkeypatch):
        """A cheap one-circuit campaign into ``run_dir`` (inline --
        subprocess spawns are wasted on a CLI test)."""
        from repro.experiments import harness
        original = harness.HarnessConfig

        def patched(*args, **kwargs):
            config = original(*args, **kwargs)
            config.isolate = False
            return config

        monkeypatch.setattr("repro.cli.HarnessConfig", patched)
        assert main(["circuit", "s27", "--run-dir", str(run_dir)]) == 0

    def test_clean_run_dir(self, capsys, tmp_path, monkeypatch):
        self._campaign(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["doctor", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runs.jsonl: 1 record(s)" in out
        assert "verdict: clean" in out

    def test_strict_fails_on_corruption(self, capsys, tmp_path,
                                        monkeypatch):
        self._campaign(tmp_path, monkeypatch)
        runs_path = tmp_path / "runs.jsonl"
        line = runs_path.read_text().splitlines()[0]
        runs_path.write_text(
            line.replace('"seed":1', '"seed":7', 1) + "\n")
        capsys.readouterr()
        # Non-strict repairs and reports, exit 0 ...
        assert main(["doctor", str(tmp_path)]) == 0
        assert "quarantined" in capsys.readouterr().out
        # ... the repair already moved the rot aside, so a second
        # strict pass is clean; corrupt it again for the strict run.
        runs_path.write_text(
            line.replace('"seed":1', '"seed":7', 1) + "\n")
        assert main(["doctor", str(tmp_path), "--strict"]) == 1
        captured = capsys.readouterr()
        assert "corrupt record(s) quarantined" in captured.err

    def test_json_output(self, capsys, tmp_path, monkeypatch):
        self._campaign(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clean"] is True
        assert {f["name"] for f in data["files"]} == \
            {"runs.jsonl", "journal.jsonl"}

    def test_missing_dir(self, capsys, tmp_path):
        assert main(["doctor", str(tmp_path / "nope")]) == 2
        assert "no such run dir" in capsys.readouterr().err


class TestPowerCommand:
    def test_power_sweep_s27(self, capsys):
        assert main(["power", "s27"]) == 0
        out = capsys.readouterr().out
        assert "X-fill power sweep: s27" in out
        for strategy in ("random", "fill0", "fill1", "adjacent"):
            assert strategy in out
        # The random row is its own baseline.
        assert "yes" in out

    def test_power_unknown_circuit(self, capsys):
        assert main(["power", "nope"]) == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_power_rejects_bad_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["circuit", "s27",
                                       "--x-fill", "bogus"])

    def test_circuit_power_flags(self, capsys):
        assert main(["circuit", "s27", "--x-fill", "adjacent",
                     "--power-budget", "50"]) == 0
        out = capsys.readouterr().out
        assert "Power: shift WTM" in out
        assert "adjacent (<= 50)" in out
        assert "pw_words" in out

    def test_circuit_default_prints_power_table(self, capsys):
        assert main(["circuit", "s27"]) == 0
        out = capsys.readouterr().out
        assert "Power: shift WTM" in out
        assert "baseline4" in out
