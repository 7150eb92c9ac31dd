"""Resilient suite execution: isolation, timeouts, retries, resume.

:func:`repro.experiments.runner.run_suite` is a bare serial loop -- one
hung ATPG call or one crash on a single circuit discards every
completed :class:`CircuitRun` and produces no tables at all.  This
module gives long experiment campaigns the resilience a multi-circuit
fault-simulation sweep needs:

* every ``(circuit, seed)`` job runs in an isolated worker subprocess
  (``multiprocessing`` with the ``spawn`` start method), so a crash or
  an out-of-control computation cannot take the campaign down;
* a per-job wall-clock **timeout** kills hung workers;
* failed and timed-out jobs are **retried** with exponential backoff,
  optionally perturbing the seed on the final attempt when no run dir
  is set (a different random ``T0`` often steers around a
  pathological case);
* every outcome is recorded as a structured :class:`JobRecord`
  (``ok`` / ``failed`` / ``timeout`` / ``stall`` / ``skipped-resume``
  / ``skipped-lint``, attempt count, seconds, traceback, last-seen
  progress);
* workers stream **heartbeats** over the result pipe (current arm,
  phase, faults remaining; see
  :mod:`repro.experiments.supervision`); the supervisor kills a
  worker whose heartbeat goes quiet for ``stall_timeout`` seconds --
  catching a genuinely hung worker long before the wall-clock fuse,
  while a slow-but-alive one keeps running;
* a retry recomputes the job from scratch, so a retry under the job's
  own seed gives a result byte-identical to an uninterrupted run's;
* completed runs are **checkpointed** incrementally to a JSONL run
  store, so an interrupted or partially failed campaign resumes from
  the checkpoint instead of recomputing;
* a **pre-flight lint** (structural rules only; see
  :mod:`repro.analysis`) runs once per distinct circuit before any
  worker is spawned: a circuit with error-severity findings would
  crash (or silently mislead) every attempt, so its jobs are recorded
  as ``skipped-lint`` with the rule ids instead of burning
  ``retries + 1`` subprocesses to rediscover the problem.

Run-store layout (``run_dir``)::

    runs.jsonl      one completed CircuitRun per line (checkpoint)
    journal.jsonl   one JobRecord per finished job, every invocation
    quarantine/     corrupt records moved aside by loads and `doctor`

``runs.jsonl`` and ``journal.jsonl`` are append-only; every line is
wrapped in the versioned, CRC32-trailed envelope of
:mod:`repro.experiments.store`.  A corrupt line -- truncated
trailing write, bit rot, a partial overwrite -- is **quarantined** on
load: moved to ``quarantine/`` and removed from the store, so the
affected job (and only it) is recomputed on resume.  Legacy
pre-envelope lines stay readable.  ``repro-compact doctor`` runs the
same verification standalone and reports what it found.

Chaos hook
----------
``HarnessConfig.chaos`` is a callable invoked once per attempt with
``(spec, attempt)``; it may return a directive that forces a failure
mode deterministically -- the fault-injection surface the tests use:

``"crash"``
    the worker raises (clean traceback comes back),
``"exit"``
    the worker dies via ``os._exit`` (no traceback, like a segfault),
``"hang"``
    the worker freezes before doing any work (no heartbeats; killed
    by the stall timeout if set, else the wall clock),
``"corrupt-checkpoint"``
    a garbage line is appended to ``runs.jsonl`` before the attempt
    (the attempt itself then runs normally),
``"crash@phaseN"`` / ``"stall@phaseN"``
    enacted inside the pipeline when phase ``N`` begins.

The same directives are reachable without code through the
``REPRO_CHAOS`` environment variable
(``[circuit:]directive[,...]``, first attempts only); see
:func:`repro.experiments.supervision.chaos_from_env`.
"""

from __future__ import annotations

import os
import random
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..circuits.suite import CircuitProfile
from . import reporting
from .reporting import Table
from .runner import CircuitRun, resolve_profiles, run_circuit_by_name
from .store import encode_line, load_jsonl
from .supervision import (CHAOS_KINDS, ProgressReporter, WorkerHooks,
                          chaos_from_env, freeze, parse_chaos)

#: Added to the base seed when the final retry perturbs it.
SEED_PERTURBATION = 7919

_POLL_INTERVAL = 0.02

#: Directives a chaos callable may return (re-exported; the full
#: grammar, including ``@phaseN`` scopes, lives in
#: :func:`repro.experiments.supervision.parse_chaos`).
CHAOS_DIRECTIVES = CHAOS_KINDS

ChaosFn = Callable[["JobSpec", int], Optional[str]]

#: The result-shaping job knobs: a checkpoint is reused only when it
#: was produced under the same value of every one.
#: Simulation settings change no result, so none is listed; the knobs
#: older runs recorded for them (``engine``, ``width``,
#: ``candidate_scan``, ``trial_batch``) are ignored.
RESULT_KNOBS = ("x_fill", "power_budget", "adi", "scoap")

#: Knob values assumed when a (modern, knob-recording) checkpoint
#: predates a :data:`RESULT_KNOBS` entry -- the knob's default, under
#: which the checkpoint was necessarily produced.  ``delay`` is not a
#: result knob: it is measurement-only (never changes the produced
#: test sets), so a delay-bearing checkpoint also serves a plain
#: request; the reverse direction is the dedicated report-presence
#: check in :func:`_checkpoint_usable`.
_KNOB_DEFAULTS: Dict[str, Any] = {"adi": False, "scoap": False}


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a circuit run under one seed / arm config.

    ``x_fill``/``power_budget`` are the don't-care fill strategy and
    the optional peak shift-WTM cap (see :mod:`repro.power`).  All
    fields travel across the ``spawn`` boundary as plain values;
    workers read missing keys with defaults and ignore unknown ones,
    so old callers and legacy spec dicts (including those carrying
    the removed ``engine`` / ``width`` / ``candidate_scan`` /
    ``trial_batch`` settings) stay compatible.
    """

    circuit: str
    seed: int = 1
    arms: Tuple[str, ...] = ("seqgen", "random")
    with_baselines: bool = True
    #: Also measure at-speed quality (TDF coverage + clock cost) of
    #: the final test sets (result-shaping: compared on resume; legacy
    #: spec dicts -- which carried ``with_transition`` -- default to
    #: off, and workers accept either key).
    delay: bool = False
    x_fill: str = "random"
    power_budget: Optional[float] = None
    #: Accidental-Detection-Index ordering guidance (result-shaping:
    #: compared on resume; legacy checkpoints count as ``False``).
    adi: bool = False
    #: SCOAP testability-ordering guidance (result-shaping: compared
    #: on resume; legacy checkpoints count as ``False``).
    scoap: bool = False

    @property
    def key(self) -> Tuple[str, int]:
        """Checkpoint identity (circuit, base seed)."""
        return (self.circuit, self.seed)


@dataclass
class JobRecord:
    """Structured outcome of one job across all its attempts."""

    circuit: str
    seed: int
    status: str   # ok | failed | timeout | stall | skipped-resume
    #             # | skipped-lint
    attempts: int
    seconds: float
    error: Optional[str] = None
    #: Analyzer rule ids behind a ``skipped-lint`` outcome (empty
    #: otherwise).  Stored in the journal; JSON round-trips lists, so
    #: ``__post_init__`` re-tuples.
    lint_rules: Tuple[str, ...] = ()
    #: Last heartbeat-reported position (``arm/phase``), for the job
    #: summary; None when the worker never reported.
    progress: Optional[str] = None

    def __post_init__(self) -> None:
        self.lint_rules = tuple(self.lint_rules)

    @property
    def failed(self) -> bool:
        return self.status in ("failed", "timeout", "stall")

    @property
    def skipped_lint(self) -> bool:
        return self.status == "skipped-lint"

    @property
    def reason(self) -> str:
        """Short annotation for degraded table rows."""
        if self.status == "timeout":
            return "timeout"
        if self.status == "stall":
            return (f"stall at {self.progress}" if self.progress
                    else "stall")
        if self.skipped_lint:
            return "lint: " + ",".join(self.lint_rules or ("?",))
        if self.error:
            last = self.error.strip().splitlines()[-1]
            return last[:60]
        return self.status


@dataclass
class HarnessConfig:
    """Resilience knobs for :func:`run_suite_resilient`.

    Attributes
    ----------
    timeout:
        Per-attempt wall-clock limit in seconds (None: unlimited).
        Enforced only in isolated mode -- in-process workers cannot be
        interrupted safely.
    stall_timeout:
        Kill a worker whose heartbeat goes quiet for this many
        seconds (None: stall detection off).  Isolated mode only.
        Independent of ``timeout``: the wall clock bounds total work,
        the stall timeout bounds silence.
    heartbeat_interval:
        Seconds between worker heartbeats.  Keep well under
        ``stall_timeout`` (a worker is expected to miss no more than
        a couple of beats while healthy).
    retries:
        Extra attempts after the first failure (total = retries + 1).
    jobs:
        Worker subprocesses running concurrently.
    run_dir:
        Checkpoint directory; None disables checkpointing.
    resume:
        Reuse completed runs found in ``run_dir`` instead of
        recomputing them (recorded as ``skipped-resume``).
    backoff_base:
        Minimum retry delay in seconds.  Retries use decorrelated
        jitter seeded from the job identity: the delay is drawn
        uniformly from ``[base, 3 * previous_delay]`` and capped at
        ``backoff_cap``, so simultaneous worker failures don't retry
        in lockstep while staying deterministic per job.
    backoff_cap:
        Upper bound on any single retry delay.
    perturb_final_seed:
        On the last attempt, offset the seed by ``SEED_PERTURBATION``
        (the attempt recomputes the job from scratch under that seed).
        Never applied with a ``run_dir``: its checkpoints are keyed by
        the job's own seed.
    isolate:
        Run jobs in subprocesses (default).  ``False`` keeps the old
        in-process behavior with retry/backoff/checkpoint support but
        no timeouts and no crash isolation beyond ``except``.
    preflight:
        Lint every distinct circuit (structural rules only) before
        scheduling and record jobs on broken circuits as
        ``skipped-lint`` instead of running them.  ``False`` restores
        the lint-free behavior.
    chaos:
        Fault-injection callable ``(spec, attempt) -> directive`` --
        see the module docstring.  When None, the ``REPRO_CHAOS``
        environment variable is consulted (see
        :func:`repro.experiments.supervision.chaos_from_env`).
    """

    timeout: Optional[float] = None
    stall_timeout: Optional[float] = None
    heartbeat_interval: float = 1.0
    retries: int = 0
    jobs: int = 1
    run_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    perturb_final_seed: bool = True
    isolate: bool = True
    preflight: bool = True
    chaos: Optional[ChaosFn] = None


@dataclass
class SuiteOutcome:
    """Everything a resilient campaign produced."""

    runs: List[CircuitRun]
    records: List[JobRecord] = field(default_factory=list)

    @property
    def failed_records(self) -> List[JobRecord]:
        return [r for r in self.records if r.failed]

    @property
    def skipped_records(self) -> List[JobRecord]:
        """Jobs the pre-flight lint refused to run."""
        return [r for r in self.records if r.skipped_lint]

    @property
    def ok(self) -> bool:
        """True iff no job ultimately failed (lint skips are
        deliberate outcomes, not failures)."""
        return not self.failed_records

    @property
    def failures(self) -> Dict[str, str]:
        """``{circuit: reason}`` for the table renderers.

        Covers both failed and lint-skipped jobs; the latter carry a
        ``lint: <rule,...>`` reason that the renderers turn into a
        ``SKIPPED(...)`` row.
        """
        out = {r.circuit: r.reason for r in self.failed_records}
        for r in self.skipped_records:
            out.setdefault(r.circuit, r.reason)
        return out

    def failure_summary(self) -> Table:
        """One row per job, for the end-of-campaign report."""
        table = Table("Job summary",
                      ["circuit", "seed", "status", "attempts",
                       "seconds", "progress", "lint"])
        for record in self.records:
            table.add_row(record.circuit, record.seed, record.status,
                          record.attempts, record.seconds,
                          record.progress,
                          ",".join(record.lint_rules) or None)
        return table


# ----------------------------------------------------------------------
# Run store (checkpoint)
# ----------------------------------------------------------------------

class RunStore:
    """Append-only JSONL checkpoint of completed runs + job journal.

    Every appended line carries the versioned CRC32 envelope of
    :mod:`repro.experiments.store`; loads verify each line and
    **quarantine** (move to ``quarantine/``, repair the store) any
    that fail, so corruption costs one recompute, never the campaign.
    Legacy pre-envelope lines load unchanged.
    """

    RUNS_NAME = "runs.jsonl"
    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.runs_path = self.run_dir / self.RUNS_NAME
        self.journal_path = self.run_dir / self.JOURNAL_NAME

    def append_run(self, spec: JobSpec, run: CircuitRun) -> None:
        line = encode_line({"circuit": spec.circuit, "seed": spec.seed,
                            "run": reporting.run_to_dict(run)})
        self._append(self.runs_path, line)

    def append_record(self, record: JobRecord) -> None:
        self._append(self.journal_path, encode_line(asdict(record)))

    @staticmethod
    def _append(path: Path, line: str) -> None:
        with open(path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_runs(self) -> Tuple[Dict[Tuple[str, int], CircuitRun], int]:
        """Checkpointed runs keyed by (circuit, seed).

        Returns ``(runs, n_quarantined)``.  Lines failing CRC/version
        verification are quarantined; verified lines whose payload
        nevertheless cannot rebuild a run (schema drift) are counted
        too but left in place.
        """
        runs: Dict[Tuple[str, int], CircuitRun] = {}
        payloads, corrupt = load_jsonl(self.runs_path, self.run_dir)
        for entry in payloads:
            try:
                key = (entry["circuit"], entry["seed"])
                runs[key] = reporting.run_from_dict(entry["run"])
            except Exception:
                corrupt += 1
        return runs, corrupt

    def load_records(self) -> List[JobRecord]:
        """Every JobRecord ever journalled (corrupt lines
        quarantined).

        Keys that are not :class:`JobRecord` fields are dropped, so a
        line that an older build wrote with a since-removed field
        still loads.
        """
        names = {f.name for f in fields(JobRecord)}
        records: List[JobRecord] = []
        payloads, _corrupt = load_jsonl(self.journal_path, self.run_dir)
        for payload in payloads:
            known = {k: v for k, v in payload.items() if k in names}
            try:
                records.append(JobRecord(**known))
            except Exception:
                continue
        return records

    def corrupt_checkpoint(self) -> None:
        """Chaos helper: append a garbage line to the run store."""
        with open(self.runs_path, "a") as handle:
            handle.write('{"circuit": "zzz", "broken\n')


# ----------------------------------------------------------------------
# Worker (runs in the spawned subprocess)
# ----------------------------------------------------------------------

def _result_knobs(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The :data:`RESULT_KNOBS` of a spec
    dict, with the :class:`JobSpec` default for any it lacks."""
    defaults = JobSpec(circuit="")
    return {name: spec.get(name, getattr(defaults, name))
            for name in RESULT_KNOBS}


def _build_hooks(directive: Optional[str], conn: Any,
                 heartbeat_interval: float,
                 isolated: bool) -> WorkerHooks:
    """Assemble one attempt's supervision bundle (worker side).

    Unscoped immediate directives (hang/crash/exit) are enacted right
    here, before any work; phase-scoped ones ride into the hooks and
    fire inside the pipeline.
    """
    chaos = parse_chaos(directive) if directive else None
    if chaos is not None and chaos.phase is None:
        if chaos.kind == "hang":
            freeze()  # no heartbeats ever: the stall timeout's case
        elif chaos.kind == "crash":
            raise RuntimeError("chaos: injected worker crash")
        elif chaos.kind == "exit":
            os._exit(13)
        chaos = None
    reporter = ProgressReporter(conn, heartbeat_interval)
    return WorkerHooks(reporter, chaos, isolated=isolated)


def _worker_main(conn, spec_dict: Dict[str, Any], seed: int,
                 directive: Optional[str],
                 heartbeat_interval: float = 1.0) -> None:
    """Subprocess body: run one circuit job, send the result back.

    Must stay importable at module top level for ``spawn``.  The pipe
    carries ``("heartbeat", status)`` messages while the job runs and
    exactly one final ``("ok", run_dict)`` or ``("error", traceback)``;
    the heartbeat pump is stopped before the final send (the pipe is
    not safe for concurrent writers).
    """
    reporter = None
    try:
        knobs = _result_knobs(spec_dict)
        hooks = _build_hooks(directive, conn, heartbeat_interval,
                             isolated=True)
        reporter = hooks.reporter
        reporter.start()
        run = run_circuit_by_name(
            spec_dict["circuit"], seed=seed,
            arms=tuple(spec_dict["arms"]),
            with_baselines=spec_dict["with_baselines"],
            delay=bool(spec_dict.get(
                "delay", spec_dict.get("with_transition", False))),
            x_fill=knobs["x_fill"], power_budget=knobs["power_budget"],
            adi=bool(knobs["adi"]), scoap=bool(knobs["scoap"]),
            hooks=hooks)
        reporter.stop()
        conn.send(("ok", reporting.run_to_dict(run)))
    except BaseException:
        try:
            if reporter is not None:
                reporter.stop()
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent went away
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


def _run_attempt_inline(spec: JobSpec, seed: int,
                        directive: Optional[str]) -> Tuple[str, Any]:
    """One attempt without process isolation (``isolate=False``).

    Heartbeats go nowhere (no pipe) but phase-scoped chaos still
    fires, with ``stall`` degrading to a raise -- an inline worker
    cannot be killed from outside.
    """
    try:
        if directive in ("crash", "exit", "hang"):
            raise RuntimeError(f"chaos: injected {directive} (in-process)")
        hooks = _build_hooks(directive, conn=None,
                             heartbeat_interval=0.0, isolated=False)
        run = run_circuit_by_name(
            spec.circuit, seed=seed, arms=spec.arms,
            with_baselines=spec.with_baselines,
            delay=spec.delay, x_fill=spec.x_fill,
            power_budget=spec.power_budget, adi=spec.adi,
            scoap=spec.scoap, hooks=hooks)
        return "ok", run
    except Exception:
        return "error", traceback.format_exc()


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------

@dataclass
class _JobState:
    spec: JobSpec
    attempts: int = 0
    not_before: float = 0.0
    seconds: float = 0.0
    last_error: Optional[str] = None
    last_status: str = "failed"
    last_delay: float = 0.0
    progress: Optional[str] = None


class _ActiveWorker:
    __slots__ = ("state", "proc", "conn", "started", "deadline",
                 "last_beat")

    def __init__(self, state, proc, conn, started, deadline) -> None:
        self.state = state
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline = deadline
        # Launch counts as a beat: a worker is granted one full stall
        # window to come up before silence becomes suspicious.
        self.last_beat = started


def _attempt_seed(spec: JobSpec, attempt: int,
                  config: HarnessConfig) -> int:
    """The seed this attempt runs under.

    A run dir keys every checkpoint and journal line by the job's own
    seed, so with one set no attempt is perturbed: a result produced
    under another seed would be resumed as this one's.
    """
    total = config.retries + 1
    if (config.perturb_final_seed and config.run_dir is None
            and total > 1 and attempt == total):
        return spec.seed + SEED_PERTURBATION
    return spec.seed


def _retry_delay(state: _JobState, config: HarnessConfig) -> float:
    """Decorrelated-jitter backoff, deterministic per (job, attempt).

    AWS-style: draw uniformly from ``[base, 3 * previous]``, capped.
    Seeded from the job identity so reruns behave identically while
    different jobs failing together spread their retries apart.
    """
    spec = state.spec
    key = f"{spec.circuit}:{spec.seed}:{state.attempts}"
    rng = random.Random(zlib.crc32(key.encode("utf-8")))
    prev = state.last_delay or config.backoff_base
    delay = rng.uniform(config.backoff_base,
                        max(config.backoff_base, prev * 3))
    delay = min(config.backoff_cap, delay)
    state.last_delay = delay
    return delay


def _progress_text(status: Dict[str, Any]) -> Optional[str]:
    """Render one heartbeat status as a short ``arm/phase`` label."""
    arm, phase = status.get("arm"), status.get("phase")
    if arm is None and phase is None:
        return None
    text = f"{arm or '?'}/{phase or '?'}"
    remaining = status.get("faults_remaining")
    if remaining is not None:
        text += f" ({remaining} faults left)"
    return text


def _preflight_rules(circuit: str,
                     cache: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
    """Error-severity lint rule ids for one suite circuit (cached).

    Only the cheap structural rules run (``xinit=False``).  Resolution
    or analysis problems never fail the pre-flight: a circuit that is
    unknown, unbuildable or un-lintable returns no rules and its job
    runs (and fails) normally, keeping the real traceback.
    """
    if circuit not in cache:
        rules: Tuple[str, ...] = ()
        try:
            from ..analysis.rules import lint_netlist
            from ..circuits.suite import profile as lookup
            report = lint_netlist(lookup(circuit).build(), xinit=False)
            rules = tuple(dict.fromkeys(d.rule for d in report.errors))
        except Exception:
            pass
        cache[circuit] = rules
    return cache[circuit]


def _chaos_directive(config: HarnessConfig, store: Optional[RunStore],
                     spec: JobSpec, attempt: int) -> Optional[str]:
    if config.chaos is None:
        return None
    directive = config.chaos(spec, attempt)
    if directive is None:
        return None
    parse_chaos(directive)  # validate before shipping to a worker
    if directive == "corrupt-checkpoint":
        if store is not None:
            store.corrupt_checkpoint()
        return None
    return directive


def run_jobs(specs: Sequence[JobSpec],
             config: Optional[HarnessConfig] = None,
             verbose: bool = False) -> SuiteOutcome:
    """Execute ``specs`` resiliently; the core of the harness.

    Jobs run in up to ``config.jobs`` worker subprocesses; each attempt
    gets ``config.timeout`` seconds; failures retry with exponential
    backoff.  With ``config.run_dir`` set, completed runs checkpoint
    incrementally, and ``config.resume`` skips jobs the checkpoint
    already holds.  Runs come back in ``specs`` order (failed jobs are
    simply absent); consult :attr:`SuiteOutcome.records` for the
    per-job story.
    """
    config = config or HarnessConfig()
    if config.chaos is None:
        env_chaos = os.environ.get("REPRO_CHAOS")
        if env_chaos:
            config = replace(config, chaos=chaos_from_env(env_chaos))
    store = RunStore(config.run_dir) if config.run_dir else None

    results: Dict[Tuple[str, int], CircuitRun] = {}
    records: List[JobRecord] = []
    pending: List[_JobState] = []
    lint_cache: Dict[str, Tuple[str, ...]] = {}

    checkpoint: Dict[Tuple[str, int], CircuitRun] = {}
    if store is not None and config.resume:
        checkpoint, corrupt = store.load_runs()
        if corrupt and verbose:  # pragma: no cover - cosmetic
            print(f"  (checkpoint: skipped {corrupt} corrupt line(s))")

    for spec in specs:
        cached = checkpoint.get(spec.key)
        if cached is not None and _checkpoint_usable(cached, spec):
            results[spec.key] = cached
            record = JobRecord(spec.circuit, spec.seed, "skipped-resume",
                               attempts=0, seconds=0.0)
            records.append(record)
            if store is not None:
                store.append_record(record)
            if verbose:
                print(f"  {spec.circuit}: resumed from checkpoint")
            continue
        if config.preflight:
            rules = _preflight_rules(spec.circuit, lint_cache)
            if rules:
                record = JobRecord(spec.circuit, spec.seed, "skipped-lint",
                                   attempts=0, seconds=0.0,
                                   error="lint: " + ", ".join(rules),
                                   lint_rules=rules)
                records.append(record)
                if store is not None:
                    store.append_record(record)
                if verbose:
                    print(f"  {spec.circuit}: skipped "
                          f"(lint: {', '.join(rules)})")
                continue
        pending.append(_JobState(spec))

    if config.isolate:
        _run_isolated(pending, config, store, results, records, verbose)
    else:
        _run_inline(pending, config, store, results, records, verbose)

    runs = [results[s.key] for s in specs if s.key in results]
    return SuiteOutcome(runs=runs, records=records)


def _checkpoint_usable(run: CircuitRun, spec: JobSpec) -> bool:
    """A cached run satisfies the request (arms, baselines, delay,
    and every result-shaping knob)."""
    if not all(a in run.arms for a in spec.arms):
        return False
    if spec.with_baselines and run.baseline4 is None:
        return False
    # A delay request needs the full report; checkpoints from the old
    # ``with_transition`` era carried only the flat coverage dict and
    # are recomputed.
    if spec.delay and run.delay is None:
        return False
    if run.knobs:
        # Modern checkpoints record the exact knobs they were
        # produced under; any mismatch means recompute.
        for name in RESULT_KNOBS:
            recorded = run.knobs.get(name, _KNOB_DEFAULTS.get(name))
            if recorded != getattr(spec, name):
                return False
        return True
    # Legacy checkpoints (pre-knob) recorded at most the power pair.
    # The power knobs change the produced test sets, so a checkpoint
    # only matches when it recorded the same knobs.  A pre-power
    # checkpoint (run.power is None) recorded no knobs and can only
    # satisfy the defaults it was produced under.
    if run.power is not None:
        if run.power.x_fill != spec.x_fill:
            return False
        if run.power.budget != spec.power_budget:
            return False
    elif spec.x_fill != "random" or spec.power_budget is not None:
        return False
    return True


def _finish(state: _JobState, status: str, payload: Any,
            config: HarnessConfig, store: Optional[RunStore],
            results: Dict[Tuple[str, int], CircuitRun],
            records: List[JobRecord], pending: List[_JobState],
            verbose: bool) -> None:
    """Record one finished attempt; reschedule or finalize the job."""
    spec = state.spec
    if status == "ok":
        run = payload if isinstance(payload, CircuitRun) \
            else reporting.run_from_dict(payload)
        results[spec.key] = run
        record = JobRecord(spec.circuit, spec.seed, "ok",
                           attempts=state.attempts,
                           seconds=round(state.seconds, 3),
                           progress=state.progress)
        records.append(record)
        if store is not None:
            store.append_run(spec, run)
            store.append_record(record)
        if verbose:
            print(f"  {spec.circuit}: ok in {state.seconds:.1f}s "
                  f"(attempt {state.attempts})")
        return

    state.last_status = status
    state.last_error = payload
    if state.attempts <= config.retries:
        delay = _retry_delay(state, config)
        state.not_before = time.monotonic() + delay
        pending.append(state)
        if verbose:
            print(f"  {spec.circuit}: {status} (attempt "
                  f"{state.attempts}), retrying in {delay:.1f}s")
        return

    record = JobRecord(spec.circuit, spec.seed, status,
                       attempts=state.attempts,
                       seconds=round(state.seconds, 3),
                       error=payload,
                       progress=state.progress)
    records.append(record)
    if store is not None:
        store.append_record(record)
    if verbose:
        print(f"  {spec.circuit}: {status} after "
              f"{state.attempts} attempt(s)")


def _run_inline(pending: List[_JobState], config: HarnessConfig,
                store: Optional[RunStore],
                results: Dict[Tuple[str, int], CircuitRun],
                records: List[JobRecord],
                verbose: bool) -> None:
    """Serial in-process execution (no isolation, no timeouts)."""
    while pending:
        state = pending.pop(0)
        wait = state.not_before - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        state.attempts += 1
        directive = _chaos_directive(config, store, state.spec,
                                     state.attempts)
        seed = _attempt_seed(state.spec, state.attempts, config)
        started = time.monotonic()
        status, payload = _run_attempt_inline(state.spec, seed, directive)
        state.seconds += time.monotonic() - started
        _finish(state, "ok" if status == "ok" else "failed", payload,
                config, store, results, records, pending, verbose)


def _run_isolated(pending: List[_JobState], config: HarnessConfig,
                  store: Optional[RunStore],
                  results: Dict[Tuple[str, int], CircuitRun],
                  records: List[JobRecord],
                  verbose: bool) -> None:
    """Subprocess execution with timeouts, stall detection and bounded
    parallelism."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    max_workers = max(1, config.jobs)
    active: List[_ActiveWorker] = []

    def launch(state: _JobState) -> None:
        state.attempts += 1
        directive = _chaos_directive(config, store, state.spec,
                                     state.attempts)
        seed = _attempt_seed(state.spec, state.attempts, config)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, asdict(state.spec), seed, directive,
                  config.heartbeat_interval),
            daemon=True)
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + config.timeout if config.timeout else None
        active.append(_ActiveWorker(state, proc, parent_conn, now,
                                    deadline))

    def settle(worker: _ActiveWorker, status: str, payload: Any) -> None:
        active.remove(worker)
        worker.conn.close()
        worker.state.seconds += time.monotonic() - worker.started
        _finish(worker.state, status, payload, config, store, results,
                records, pending, verbose)

    def drain(worker: _ActiveWorker) -> bool:
        """Consume pipe messages; True if the worker was settled.

        Heartbeats update the worker's liveness stamp and last-seen
        progress; the single final ``ok``/``error`` message settles
        the job.  EOF without a final message is a hard death
        (``os._exit``, segfault).
        """
        try:
            while worker.conn.poll():
                kind, payload = worker.conn.recv()
                if kind == "heartbeat":
                    worker.last_beat = time.monotonic()
                    worker.state.progress = _progress_text(payload)
                    continue
                worker.proc.join(timeout=5)
                settle(worker, "ok" if kind == "ok" else "failed",
                       payload)
                return True
        except (EOFError, OSError):
            worker.proc.join(timeout=5)
            settle(worker, "failed",
                   f"worker died without a result "
                   f"(exit code {worker.proc.exitcode})")
            return True
        return False

    try:
        while pending or active:
            now = time.monotonic()
            ready = [s for s in pending if s.not_before <= now]
            while ready and len(active) < max_workers:
                state = ready.pop(0)
                pending.remove(state)
                launch(state)

            if not active:
                # Everything left is backing off; sleep to the nearest.
                wake = min(s.not_before for s in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            time.sleep(_POLL_INTERVAL)
            for worker in list(active):
                if drain(worker):
                    continue
                now = time.monotonic()
                if worker.deadline is not None and now >= worker.deadline:
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                    settle(worker, "timeout",
                           f"killed after exceeding the "
                           f"{config.timeout}s per-job timeout")
                elif (config.stall_timeout is not None
                      and now - worker.last_beat > config.stall_timeout):
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                    last = worker.state.progress or "no heartbeat seen"
                    settle(worker, "stall",
                           f"killed after {config.stall_timeout}s "
                           f"without a heartbeat (last: {last})")
                elif not worker.proc.is_alive():
                    worker.proc.join()
                    settle(worker, "failed",
                           f"worker died without a result "
                           f"(exit code {worker.proc.exitcode})")
    finally:
        for worker in active:  # pragma: no cover - only on hard errors
            worker.proc.kill()
            worker.proc.join(timeout=5)


def run_suite_resilient(
    profiles: Optional[Sequence[CircuitProfile]] = None,
    quick: bool = True,
    seed: int = 1,
    arms: Sequence[str] = ("seqgen", "random"),
    with_baselines: bool = True,
    delay: bool = False,
    x_fill: str = "random",
    power_budget: Optional[float] = None,
    adi: bool = False,
    scoap: bool = False,
    config: Optional[HarnessConfig] = None,
    verbose: bool = False,
) -> SuiteOutcome:
    """Resilient drop-in for :func:`repro.experiments.runner.run_suite`.

    Same experiment knobs; adds the :class:`HarnessConfig` resilience
    layer and returns a :class:`SuiteOutcome` instead of a bare list.
    Suite profiles are dispatched to workers *by name*, so explicit
    ``profiles`` must come from the suite registry.
    """
    specs = [JobSpec(circuit=p.name, seed=seed, arms=tuple(arms),
                     with_baselines=with_baselines,
                     delay=delay, x_fill=x_fill,
                     power_budget=power_budget, adi=adi, scoap=scoap)
             for p in resolve_profiles(profiles, quick=quick)]
    return run_jobs(specs, config=config, verbose=verbose)
