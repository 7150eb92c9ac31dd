"""The self-verifying run store and the doctor.

Covers the CRC32/schema-version line envelope, quarantine-and-repair
loading (including the truncated-trailing-line regression for both
store files), and ``doctor``.
"""

import pytest

from repro.experiments.harness import (HarnessConfig, JobSpec, RunStore,
                                       run_jobs)
from repro.experiments.store import (CorruptLine, decode_line, doctor,
                                     encode_line, load_jsonl)


def _spec(circuit="s27", **kw):
    kw.setdefault("arms", ("random",))
    kw.setdefault("with_baselines", False)
    return JobSpec(circuit, seed=1, **kw)


def _cfg(**kw):
    kw.setdefault("backoff_base", 0.01)
    return HarnessConfig(**kw)


class TestEnvelope:
    def test_roundtrip(self):
        payload = {"a": 1, "b": [1, 2, {"c": "x"}]}
        data, version = decode_line(encode_line(payload))
        assert data == payload
        assert version == 1

    def test_legacy_line_passes_through(self):
        """Pre-envelope dicts decode as version 0, unverified."""
        data, version = decode_line('{"status": "ok", "seed": 3}')
        assert version == 0
        assert data == {"status": "ok", "seed": 3}

    def test_not_json_raises(self):
        with pytest.raises(CorruptLine, match="not JSON"):
            decode_line('{"truncated": tr')

    def test_non_object_raises(self):
        with pytest.raises(CorruptLine, match="not an object"):
            decode_line("[1, 2, 3]")

    def test_future_version_quarantined(self):
        line = encode_line({"x": 1}).replace('"v":1', '"v":99')
        with pytest.raises(CorruptLine, match="newer than"):
            decode_line(line)

    def test_bad_version_type_raises(self):
        line = encode_line({"x": 1}).replace('"v":1', '"v":"one"')
        with pytest.raises(CorruptLine, match="bad envelope version"):
            decode_line(line)

    def test_crc_mismatch_raises(self):
        line = encode_line({"seed": 1})
        rotten = line.replace('"seed":1', '"seed":2')
        with pytest.raises(CorruptLine, match="CRC mismatch"):
            decode_line(rotten)

    def test_data_not_object_raises(self):
        with pytest.raises(CorruptLine, match="data is not an object"):
            decode_line('{"crc": "0", "data": [1], "v": 1}')


class TestLoadJsonl:
    def test_quarantines_and_repairs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good1, good2 = encode_line({"i": 1}), encode_line({"i": 2})
        bad = encode_line({"i": 9}).replace('"i":9', '"i":8')
        path.write_text(f"{good1}\n{bad}\n{good2}\n")
        payloads, n_bad = load_jsonl(path, tmp_path)
        assert payloads == [{"i": 1}, {"i": 2}]
        assert n_bad == 1
        # The rotten line moved aside, inspectable ...
        quarantined = (tmp_path / "quarantine" / "runs.jsonl").read_text()
        assert bad in quarantined
        # ... and the source was repaired in place.
        assert path.read_text() == f"{good1}\n{good2}\n"
        assert load_jsonl(path, tmp_path) == ([{"i": 1}, {"i": 2}], 0)

    def test_no_repair_leaves_source(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        bad = "not json at all"
        path.write_text(f"{bad}\n")
        payloads, n_bad = load_jsonl(path, tmp_path, repair=False)
        assert payloads == [] and n_bad == 1
        assert bad in path.read_text()

    def test_missing_file(self, tmp_path):
        assert load_jsonl(tmp_path / "nope.jsonl", tmp_path) == ([], 0)

    def test_legacy_lines_survive_repair(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        legacy = '{"status": "ok"}'
        path.write_text(f"{legacy}\nbroken{{\n")
        payloads, n_bad = load_jsonl(path, tmp_path)
        assert payloads == [{"status": "ok"}]
        assert n_bad == 1
        assert path.read_text() == f"{legacy}\n"

    def test_truncated_trailing_lines_both_stores(self, tmp_path):
        """Regression: a process killed mid-append leaves a truncated
        final line in runs.jsonl AND journal.jsonl; both loads must
        quarantine just that line and keep everything before it."""
        store = RunStore(tmp_path)
        outcome = run_jobs([_spec()], config=_cfg(isolate=False,
                                                  run_dir=tmp_path))
        assert outcome.ok
        for path in (store.runs_path, store.journal_path):
            text = path.read_text()
            assert text.endswith("\n")
            path.write_text(text + text.splitlines()[0][:37])
        runs, corrupt = store.load_runs()
        assert corrupt == 1
        assert ("s27", 1) in runs
        records = store.load_records()
        assert [r.status for r in records] == ["ok"]
        qdir = tmp_path / "quarantine"
        assert (qdir / "runs.jsonl").exists()
        assert (qdir / "journal.jsonl").exists()


class TestDoctor:
    def _campaign(self, run_dir, circuits=("s27",)):
        specs = [_spec(c) for c in circuits]
        outcome = run_jobs(specs, config=_cfg(isolate=False,
                                              run_dir=run_dir))
        assert outcome.ok
        return outcome

    def test_clean_dir(self, tmp_path):
        self._campaign(tmp_path)
        report = doctor(tmp_path)
        assert report.clean
        assert report.n_quarantined == 0
        assert "verdict: clean" in report.render()
        assert report.to_dict()["clean"] is True

    def test_quarantines_exactly_the_corrupt_lines(self, tmp_path):
        self._campaign(tmp_path, circuits=("s27", "b02"))
        store = RunStore(tmp_path)
        lines = store.runs_path.read_text().splitlines()
        assert len(lines) == 2
        # Flip one character inside the first checkpoint's payload;
        # the envelope stays valid JSON, the CRC catches the rot.
        lines[0] = lines[0].replace('"seed":1', '"seed":3', 1)
        store.runs_path.write_text("".join(l + "\n" for l in lines))
        report = doctor(tmp_path)
        assert not report.clean
        assert report.n_quarantined == 1
        runs_report = next(f for f in report.files
                           if f.name == "runs.jsonl")
        assert runs_report.quarantined == 1
        assert runs_report.records == 1
        # A subsequent resume recomputes only the quarantined job.
        outcome = run_jobs([_spec("s27"), _spec("b02")],
                           config=_cfg(isolate=False, run_dir=tmp_path,
                                       resume=True))
        assert outcome.ok
        statuses = {r.circuit: r.status for r in outcome.records}
        assert statuses == {"s27": "ok", "b02": "skipped-resume"}
