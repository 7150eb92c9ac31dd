"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert len(json.dumps(spec)) < 64 * 1024


def test_names_and_units(spec):
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for metric in spec[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_bounds(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])


def test_declared_metrics_match_code(spec):
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        run.layer_metric_names()
    child = {"wall_s": 1.0, "setup_s": 0.5,
             "reference_s": [0.1, 0.2, 0.1, 0.2], "peak_rss_mb": 2.0,
             "quality": dict.fromkeys(workloads.QUALITY, 3)}
    fake = {"plain": [child], "setups": [child]}
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(run.end_to_end(fake))
    assert set(run.EXACT) == set(workloads.QUALITY)


def test_work_per_pass_does_not_depend_on_the_seed():
    """The quality bounds are near zero because of this: the seed may
    reorder the graded tests, never change a pass's work."""
    def work(name, seed):
        inputs = workloads.WORKLOADS[name].inputs(seed, False)
        if "tests" in inputs:
            return sorted((t.scan_in, t.vectors) for t in inputs["tests"])
        if "jobs" in inputs:
            return sorted(inputs["jobs"])
        return inputs

    for name in workloads.WORKLOADS:
        assert work(name, 1) == work(name, 2), name
    grade = workloads.WORKLOADS["bench1k-grade"]
    assert list(grade.inputs(1, False)["tests"]) != \
        list(grade.inputs(2, False)["tests"])


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    def job():
        clock.now += 0.5
        traced_middle()
        clock.now += 0.25

    traced_leaf = tr.wrap("leaf", leaf)
    traced_middle = tr.wrap("middle", middle)
    traced_job = tr.wrap(tracing.JOB_SPAN, job)
    traced_job()
    traced_job()

    assert tr.calls == {"leaf": 4, "middle": 2, tracing.JOB_SPAN: 2}
    assert tr.self_s["leaf"] == pytest.approx(8.0)
    assert tr.self_s["middle"] == pytest.approx(8.0)
    assert tr.self_s[tracing.JOB_SPAN] == pytest.approx(1.5)
    # Self times add up to the wall clock: nothing double counted.
    assert sum(tr.self_s.values()) == pytest.approx(clock.now)

    by_id = {e["args"]["id"]: e for e in tr.events}
    for event in tr.events:
        assert event["ph"] == "X"
        parent = event["args"]["parent"]
        if event["name"] == tracing.JOB_SPAN:
            assert parent == 0
        else:
            assert by_id[parent]["args"]["job"] == event["args"]["job"]
    assert sorted({e["args"]["job"] for e in tr.events}) == [1, 2]
    assert by_id[1]["name"] == tracing.JOB_SPAN
    assert by_id[1]["dur"] == pytest.approx(8.75e6)  # microseconds


def test_same_span_nested_in_itself_counts_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    traced_inner = tr.wrap("delay.tdf", inner)

    def outer():
        traced_inner()
        traced_inner()

    tr.wrap("delay.tdf", outer)()
    assert tr.calls == {"delay.tdf": 1}
    assert tr.self_s["delay.tdf"] == pytest.approx(2.0)


def test_inactive_tracer_records_nothing():
    tr = tracing.Tracer()
    tr.active = False
    assert tr.wrap("x", lambda: 7)() == 7
    assert tr.calls == {} and tr.events == []


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.a`` defines ``f`` and a class; ``fakepkg.b`` imports
    ``f`` by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def make(cls):
            return cls()

    a.f, a.Thing, b.f = f, Thing, f
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a),
                         ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return a, b


def test_install_wraps_functions_methods_and_aliases(fake_package):
    a, b = fake_package
    original = a.f
    tr = tracing.Tracer()
    spans = {"f": ("fakepkg.a:f",), "method": ("fakepkg.a:Thing.method",),
             "make": ("fakepkg.a:Thing.make",)}
    done = tracing.install(tr, spans, package="fakepkg")
    assert done.absent == []
    assert b.f(1) == 2 and a.f(2) == 3
    assert a.Thing.make().method() == "m"
    assert tr.calls == {"f": 2, "method": 1, "make": 1}
    done.remove()
    assert a.f is original and b.f is original
    assert isinstance(a.Thing.__dict__["make"], classmethod)


def test_absent_targets_are_reported_not_raised(fake_package):
    tr = tracing.Tracer()
    spans = {"gone": ("fakepkg.nosuchmodule:f", "fakepkg.a:renamed"),
             "half": ("fakepkg.a:f", "fakepkg.a:Thing.deleted"),
             "f2": ("fakepkg.a:f",)}
    done = tracing.install(tr, spans, package="fakepkg")
    assert done.absent == ["fakepkg.nosuchmodule:f", "fakepkg.a:renamed",
                           "fakepkg.a:Thing.deleted"]
    assert tracing.absent_spans(done.absent, spans) == ["gone"]
    done.remove()


def test_every_program_target_resolves():
    """Catches a rename in the program: the benchmark would then mark
    the span absent, and this test says which target moved."""
    done = tracing.install(tracing.Tracer())
    try:
        assert done.absent == []
    finally:
        done.remove()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


@pytest.mark.parametrize("a, b, better, expected", [
    ([10, 10.2, 9.9, 10.1, 10], [7, 7.1, 6.9, 7.2, 7], "lower", "better"),
    ([10, 10.2, 9.9, 10.1, 10], [13, 13.1, 12.9, 13.2, 13], "lower",
     "worse"),
    ([10, 10.2, 9.9, 10.1, 10], [10.1, 10, 10.2, 9.9, 10.1], "lower",
     "unchanged"),
    ([10, 14, 8, 12, 6], [11, 9, 13, 7, 10], "lower", "unresolved"),
    ([100, 101, 99], [70, 71, 69], "higher", "worse"),
    ([100, 101, 99], [90, 91, 89], "higher", "unchanged"),
])
def test_verdicts(a, b, better, expected):
    assert run.verdict(a, b, bound=0.2, better=better) == expected


def test_exact_verdicts():
    assert run.verdict([5, 6], [5, 6], 0.2, "lower", exact=True) == \
        "unchanged"
    assert run.verdict([5, 6], [5, 7], 0.2, "lower", exact=True) == "worse"
    assert run.verdict([5, 6], [4, 6], 0.2, "lower", exact=True) == "better"
    assert run.verdict([5, 6], [6, 5], 0.2, "lower", exact=True) == \
        "unresolved"


def _results(path, wall, cycles, digest):
    runs = [{"workload": "small-circuits", "seed": seed, "trace": False,
             "result_digest": digest,
             "metrics": {"wall_s": {"value": w}, "setup_s": {"value": 0.5},
                         "peak_rss_mb": {"value": 40.0},
                         "test_cycles": {"value": cycles},
                         "tdf_detected": {"value": 100}}}
            for seed, w in enumerate(wall, 1)]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_files(tmp_path, spec, capsys):
    base = [2.0, 2.1, 1.9, 2.05, 2.0]
    a = _results(tmp_path / "a.json", base, 1500, "d1")
    same = _results(tmp_path / "b.json", base[::-1], 1500, "d1")
    assert run.compare(a, same, spec) == 0
    out = capsys.readouterr().out
    assert " worse" not in out and " changed (" not in out

    slow = _results(tmp_path / "c.json", [x * 1.5 for x in base], 1500,
                    "d1")
    assert run.compare(a, slow, spec) == 1
    assert re.search(r"wall_s .* worse", capsys.readouterr().out)

    moved = _results(tmp_path / "d.json", base, 1400, "d2")
    assert run.compare(a, moved, spec) == 1
    out = capsys.readouterr().out
    assert re.search(r"test_cycles .* better", out)
    assert "changed (5 seeds)" in out


# ----------------------------------------------------------------------
# The command itself
# ----------------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_smoke_emits_every_declared_metric(spec, trace, group):
    proc = _run(["--workload", "all", "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {f"{w['name']}:{m['name']}" for w in spec["workloads"]
                for m in spec[group]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in spec[group]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(":", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert (HERE / "out" / "small-circuits-seed1.trace.json").exists()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "small-circuits", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
