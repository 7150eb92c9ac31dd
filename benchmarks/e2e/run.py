"""End-to-end benchmark of the compaction pipeline on its default config.

Measure one workload (or ``all``)::

    python3 benchmarks/e2e/run.py --workload small-circuits --seed 1 \\
        --seconds 20 --trace 0

Repeats run one after another, each in a fresh interpreter started by
``child.py`` (closed loop, one client, no pool).  The run keeps
starting repeats until ``--seconds`` is spent, with at least three.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates plain and traced repeats and reports the
per-layer metrics, writing a Chrome trace to ``benchmarks/e2e/out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs one repeat on s27-sized inputs.  ``--out FILE`` also
appends the run, with every sample, to a results file that::

    python3 benchmarks/e2e/run.py compare A.json B.json

compares metric by metric under the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Repeats per run at the least (plain mode), and set-up samples.
MIN_REPEATS = 3
SETUP_SAMPLES = 5
#: No repeat starts after this many seconds: every run ends well
#: inside three minutes.
RUN_CAP_S = 120.0

#: Host times are reported at this reference speed: a time is scaled
#: by ``REFERENCE_S`` over the faster of the two reference-loop
#: timings (:func:`reference_s`) that bracket it, which cancels the
#: host's slow periods.  The loop runs in this process while the child
#: waits, not in the child, so a program change that leaves the
#: child's interpreter slow (a large heap, say) cannot also slow the
#: loop and so hide itself.  The brackets are as close to the timed
#: part as a pause allows: loops timed only before and after the whole
#: child tracked the host worse.
REFERENCE_S = 0.1
#: Rounds of the reference loop, about 0.1 s on a 2-core x86_64 VM.
REFERENCE_ROUNDS = 500_000

#: Quality metrics: deterministic for a seed, compared exactly.
EXACT = ("test_cycles", "tdf_detected")

#: Per-layer counters: metric -> ``SimCounters`` field, or the
#: (numerator, denominator) fields of a ratio.
COUNTERS: Dict[str, Any] = {
    "sim.frames": "frames",
    "sim.words": "words",
    "sim.machines_per_word": ("machines", "words"),
    "sim.omission_trials": "omission_trials",
    "sim.combine_trials": "combine_trials",
    "sim.trial_lanes_per_pass": ("trial_lanes", "trial_passes"),
    "sim.comb_passes": "comb_passes",
    "sim.faults_dropped": "faults_dropped",
    "npsim.passes": "np_passes",
    "delay.tdf_words": "tdf_words",
    "power.words": "power_words",
}


def layer_metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{span}.{kind}" for span in tracing.SPANS
             for kind in ("self_s", "calls")]
    return names + list(COUNTERS) + ["unattributed_s", "trace_overhead_pct"]


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Statistics and verdicts
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str, exact: bool = False) -> str:
    """How ``b`` (the change) compares with ``a`` (the parent).

    ``a`` and ``b`` pair up by position (the same seed).  A gain needs
    ``b`` to win at least nine tenths of the pairs and the medians to
    differ by more than ``a``'s quartile spread; a regression is a
    median worse by more than ``bound`` of ``a``'s.  When either
    side's spread exceeds the bound the result is unresolved, unless
    every run of ``b`` beats every run of ``a``.  Exact metrics are
    unchanged only when every pair is identical.
    """
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    gain = sign * (b_med - a_med)
    if exact:
        if list(a) == list(b):
            return "unchanged"
        if gain == 0:
            return "unresolved"
        return "better" if gain > 0 else "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if gain > 0 and wins >= 0.9 * len(pairs) and gain > a_q3 - a_q1:
        return "better"
    if -gain > bound * abs(a_med):
        return "worse"
    spread_a = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    if spread_a > bound or spread_b > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "unchanged"
        return "unresolved"
    return "unchanged"


# ----------------------------------------------------------------------
# Repeats
# ----------------------------------------------------------------------


def reference_s() -> float:
    """Seconds a fixed pure-Python big-int loop takes right now.

    The machine's speed drifts by tens of per cent over minutes when
    other tenants load the host; :func:`setup_speed` and
    :func:`wall_speed` divide it out.
    """
    started = time.perf_counter()
    mask = (1 << 256) - 1
    x = acc = 0x9E3779B97F4A7C15
    for i in range(REFERENCE_ROUNDS):
        x = (x * 0x5851F42D4C957F2D + i) & mask
        acc ^= x >> (i & 63)
    return time.perf_counter() - started


def setup_speed(result: Dict[str, Any]) -> float:
    """Factor taking a child's set-up time to the reference speed: the
    loops right before the child started and right after its set-up."""
    return REFERENCE_S / min(result["reference_s"][0:2])


def wall_speed(result: Dict[str, Any]) -> float:
    """Factor taking a child's pass time to the reference speed: the
    loops right before and right after the pass."""
    return REFERENCE_S / min(result["reference_s"][2:4])


def _child(workload: str, seed: int, smoke: bool, trace: bool,
           verify: bool, setup_only: bool, timeout: float
           ) -> Tuple[Optional[Dict[str, Any]], float, str]:
    """Run ``child.py`` once; (result or None, seconds, error text).

    The child gets no ``REPRO_*`` variable (so no kernel cache), a
    fixed hash seed (hash randomisation moves pipeline time by about
    ten per cent with identical results), and a private temporary
    directory inside the checkout, removed afterwards.

    The reference loop runs here right before the child starts, and
    again each time the child pauses (after its set-up, right before
    its pass and right after it) while the child waits on its stdin.
    The result's ``reference_s`` lists those timings in order.
    """
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="child-", dir=OUT_DIR / "tmp"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(TMPDIR=str(tmp), PYTHONHASHSEED="0")
    out, log = tmp / "result.json", tmp / "log.txt"
    pause_read, pause_write = os.pipe()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out),
           "--pause-fd", str(pause_write)]
    cmd += [flag for flag, on in (("--smoke", smoke), ("--trace", trace),
                                  ("--verify", verify),
                                  ("--setup-only", setup_only)) if on]
    references = [reference_s()]
    started = time.perf_counter()
    deadline = started + timeout

    def left() -> float:
        return max(0.0, deadline - time.perf_counter())

    try:
        with open(log, "w") as log_file, \
                os.fdopen(pause_read, "rb", buffering=0) as pauses:
            try:
                proc = subprocess.Popen(
                    cmd, env=env, stdin=subprocess.PIPE, stdout=log_file,
                    stderr=subprocess.STDOUT, pass_fds=(pause_write,),
                    start_new_session=True)
            finally:
                os.close(pause_write)
            assert proc.stdin is not None
            with proc.stdin:
                # Until the child exits and its end of the pipe closes.
                while select.select([pauses], [], [], left())[0]:
                    if not pauses.read(1):
                        break
                    references.append(reference_s())
                    try:
                        proc.stdin.write(b"\n")
                        proc.stdin.flush()
                    except BrokenPipeError:
                        break
        try:
            proc.wait(timeout=left())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None, time.perf_counter() - started, \
                f"timed out after {timeout:.0f} s"
        seconds = time.perf_counter() - started
        if proc.returncode != 0 or not out.exists():
            return None, seconds, \
                log.read_text() or f"exit code {proc.returncode}"
        result = json.loads(out.read_text())
        result["reference_s"] = references
        return result, seconds, ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Dict[str, Any]:
    """All repeats of one run; samples, failures and checks."""
    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    errors: List[str] = []
    attempted = failed = 0
    longest = 0.0
    if smoke:
        wanted = 2 if trace else 1
    else:
        wanted = 2 * (MIN_REPEATS - 1) if trace else MIN_REPEATS
    n = 0
    while True:
        elapsed = time.perf_counter() - started
        if n >= wanted and (smoke or elapsed + longest > seconds):
            break
        if elapsed > RUN_CAP_S:
            errors.append(f"stopped after {n} repeats: the run cap of "
                          f"{RUN_CAP_S:.0f} s was reached")
            break
        is_traced = trace and n % 2 == 1
        result, took, error = _child(
            workload, seed, smoke, trace=is_traced, verify=n == 0,
            setup_only=False, timeout=max(10.0, RUN_CAP_S + 30 - elapsed))
        n += 1
        if n > 1:  # the first repeat also runs the checks
            longest = max(longest, took)
        if result is None:
            errors.append(error)
            failed += 1
            attempted += 1
            break
        setups.append(result)
        attempted += result["ops"]
        failed += result["ops_failed"]
        if "error" in result:
            errors.append(result["error"])
            break
        (traced if is_traced else plain).append(result)
    while not (smoke or trace or errors) and len(setups) < SETUP_SAMPLES:
        result, _, error = _child(workload, seed, smoke, trace=False,
                                  verify=False, setup_only=True,
                                  timeout=60.0)
        if result is None:
            errors.append(error)
            break
        setups.append(result)

    repeats = plain + traced
    problems = list(plain[0].get("problems", ["not verified"])) \
        if plain else ["no repeat finished"]
    if len({r["digest"] for r in repeats}) > 1:
        problems.append("result digests differ between repeats")
    if any(r["quality"] != repeats[0]["quality"] for r in repeats):
        problems.append("quality metrics differ between repeats")
    return {"plain": plain, "traced": traced, "setups": setups,
            "errors": errors, "problems": problems,
            "attempted": max(attempted, 1), "failed": failed}


def end_to_end(run: Dict[str, Any]) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric."""
    plain = run["plain"]
    samples: Dict[str, List[float]] = {
        "wall_s": [r["wall_s"] * wall_speed(r) for r in plain],
        "setup_s": [r["setup_s"] * setup_speed(r) for r in run["setups"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for name in EXACT:
        samples[name] = [r["quality"][name] for r in plain]
    return samples


def per_layer(run: Dict[str, Any]) -> Dict[str, List[float]]:
    """Samples of every per-layer metric (traced repeats)."""
    traced, plain = run["traced"], run["plain"]
    samples: Dict[str, List[float]] = {}
    for span in tracing.SPANS:
        samples[f"{span}.self_s"] = [
            r["spans"].get(span, {}).get("self_s", 0) * wall_speed(r)
            for r in traced]
        samples[f"{span}.calls"] = [
            r["spans"].get(span, {}).get("calls", 0) for r in traced]
    for name, field in COUNTERS.items():
        values = []
        for r in traced:
            c = r["counters"]
            if isinstance(field, tuple):
                top, bottom = c.get(field[0], 0), c.get(field[1], 0)
                values.append(top / bottom if bottom else 0.0)
            else:
                values.append(c.get(field, 0))
        samples[name] = values
    samples["unattributed_s"] = [
        (r["wall_s"] - sum(s["self_s"] for s in r["spans"].values()))
        * wall_speed(r) for r in traced]
    overhead = 0.0
    if traced and plain:
        base = statistics.median(r["wall_s"] * wall_speed(r)
                                 for r in plain)
        overhead = 100.0 * (statistics.median(
            r["wall_s"] * wall_speed(r) for r in traced) / base - 1.0)
    samples["trace_overhead_pct"] = [overhead]
    return samples


def absent_counters(run: Dict[str, Any]) -> List[str]:
    if not run["traced"]:
        return []
    have = run["traced"][0]["counters"]
    return [name for name, field in COUNTERS.items()
            if any(f not in have for f in (
                field if isinstance(field, tuple) else (field,)))]


def write_trace(workload: str, seed: int, run: Dict[str, Any]) -> Path:
    last = run["traced"][-1]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps(tracing.chrome_trace(last["events"], {
        "workload": workload, "seed": seed,
        "wall_s": last["wall_s"],
        "absent_targets": last["absent"],
        "dropped_events": last["dropped_events"],
        "spans": last["spans"],
    })))
    return path


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, trace: bool, run: Dict[str, Any],
           spec: Dict[str, Any]) -> Dict[str, Any]:
    """Print the run's table; return its record (with samples)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    samples = per_layer(run) if trace else end_to_end(run)
    metrics: Dict[str, Dict[str, Any]] = {}
    kernel = {r.get("kernel") for r in run["setups"]}
    print(f"== {workload}  seed {seed}  "
          f"{'traced' if trace else 'plain'} repeats: "
          f"{len(run['traced'] if trace else run['plain'])}"
          f"  set-up samples: {len(run['setups'])}"
          f"  C kernel: {', '.join(sorted(map(str, kernel)))}")
    for entry in declared:
        values = samples.get(entry["name"]) or [0]
        # Exact metrics repeat (checked in measure); keep them integers.
        median = values[0] if entry["name"] in EXACT \
            else statistics.median(values)
        metrics[entry["name"]] = {"value": median, "unit": entry["unit"]}
        if trace and not median:
            continue
        print(f"  {entry['name']:<34} {_fmt(median):>12} {entry['unit']:<8}"
              f" min {_fmt(min(values))}  max {_fmt(max(values))}"
              f"  n {len(values)}")
    if trace and run["traced"]:
        absent = run["traced"][0]["absent"]
        spans = tracing.absent_spans(absent) + absent_counters(run)
        print(f"  absent spans/counters: {', '.join(spans) or 'none'}")
        if absent:
            print(f"  absent targets: {', '.join(absent)}")
        trace_file = write_trace(workload, seed, run)
        print(f"  trace: {trace_file.relative_to(ROOT)}")
    for error in run["errors"]:
        print(f"  FAILED: {error.strip()}", file=sys.stderr)
    for problem in run["problems"]:
        print(f"  WRONG: {problem}", file=sys.stderr)
    digests = {r["digest"] for r in run["plain"] + run["traced"]}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not run["errors"] and not run["problems"]
        and run["failed"] == 0,
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": metrics,
        "samples": {k: samples[k] for k in metrics if k in samples},
        "host": {"wall_raw_s": [r["wall_s"] for r in run["plain"]],
                 "setup_raw_s": [r["setup_s"] for r in run["setups"]],
                 "wall_speed": [wall_speed(r) for r in run["plain"]],
                 "setup_speed": [setup_speed(r) for r in run["setups"]]},
        "result_digest": digests.pop() if len(digests) == 1 else None,
    }


def environment() -> Dict[str, Any]:
    """Versions and machine facts stored with a results file."""
    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    def output(cmd: List[str]) -> Optional[str]:
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=30,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    return {"python": platform.python_version(),
            "numpy": version("numpy"), "cffi": version("cffi"),
            "gcc": output(["gcc", "-dumpfullversion"]),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_commit": output(["git", "describe", "--always",
                                  "--dirty"])}


def append_results(path: Path, records: List[Dict[str, Any]]) -> None:
    data = json.loads(path.read_text()) if path.exists() else {
        "schema": "e2e-bench/1", "environment": environment(), "runs": []}
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1) + "\n")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare(a_path: Path, b_path: Path, spec: Dict[str, Any]) -> int:
    """Print a verdict per (workload, metric); 1 when any is worse."""
    runs = [json.loads(p.read_text())["runs"] for p in (a_path, b_path)]
    worse = False
    print(f"{'workload':<16} {'metric':<16} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [{r["seed"]: r for r in side
                  if r["workload"] == workload and not r["trace"]}
                 for side in runs]
        seeds = sorted(set(sides[0]) & set(sides[1]))
        if not seeds:
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a, b = ([side[s]["metrics"][name]["value"] for s in seeds]
                    for side in sides)
            result = verdict(a, b, entry["bound"], entry["better"],
                             exact=name in EXACT)
            worse = worse or result == "worse"
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]")
            print(f"{workload:<16} {name:<16} {cells[0]:>28} "
                  f"{cells[1]:>28}  {result}")
        digests = [[side[s].get("result_digest") for s in seeds]
                   for side in sides]
        same = digests[0] == digests[1]
        print(f"{workload:<16} {'result_digest':<16} {'':>28} {'':>28}  "
              f"{'unchanged' if same else 'changed'} ({len(seeds)} seeds)")
        worse = worse or not same
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main() -> int:
    argv = sys.argv[1:]
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    records = []
    for workload in names if args.workload == "all" else [args.workload]:
        run = measure(workload, args.seed, args.seconds,
                      bool(args.trace), args.smoke)
        records.append(report(workload, args.seed, bool(args.trace),
                              run, spec))
    if args.out is not None:
        append_results(args.out, records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": v for r in records
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
