"""In-worker supervision: heartbeats, phase hooks, scoped chaos.

The resilient harness used to treat a worker as a black box with a
wall-clock fuse: it either returned, or was killed at the timeout --
and a hung worker was indistinguishable from one grinding through a
hard circuit.  This module gives the worker a voice:

**Heartbeats.**  :class:`ProgressReporter` streams periodic
``("heartbeat", {...})`` messages over the existing spawn-boundary
pipe: current arm and phase, faults remaining, and a compact
:meth:`~repro.sim.counters.SimCounters.brief` snapshot.  The
supervisor's poll loop (:mod:`repro.experiments.harness`) kills a
worker whose heartbeat goes quiet for ``--stall-timeout`` seconds --
*stall* detection, independent of the wall clock -- and surfaces the
last-seen phase in the job summary.

**Phase hooks.**  :class:`WorkerHooks` is the worker-side bundle the
runner threads through the pipeline: it adapts the
:class:`~repro.core.proposed.PhaseObserver` protocol into heartbeat
updates and enacts phase-scoped chaos.

**Phase-scoped chaos.**  Fault-injection directives gain an ``@phase``
suffix (``crash@phase3``, ``stall@phase2``) enacted *inside the
pipeline* at the moment the named phase begins; the retry recomputes
the job from scratch.  Directives come from ``HarnessConfig.chaos`` or
the ``REPRO_CHAOS`` environment variable (``[circuit:]directive[,...]``,
enacted on first attempts only).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.proposed import PhaseObserver
from ..sim.counters import SimCounters

#: Directive kinds that take effect before the pipeline starts (the
#: pre-existing chaos surface).
IMMEDIATE_KINDS = ("crash", "exit", "hang", "corrupt-checkpoint")

#: Directive kinds that may carry an ``@phaseN`` scope.
PHASE_KINDS = ("crash", "stall")

#: All valid directive kinds.
CHAOS_KINDS = IMMEDIATE_KINDS + ("stall",)

_PHASES = ("phase1", "phase2", "phase3", "phase4")


class ChaosError(RuntimeError):
    """Raised by an enacted chaos directive (a deliberate crash)."""


@dataclass(frozen=True)
class ChaosDirective:
    """A parsed fault-injection directive.

    ``phase`` is ``None`` for unscoped directives (enacted before the
    pipeline starts) or ``"phase1"`` .. ``"phase4"`` for directives
    enacted when that phase begins.
    """

    kind: str
    phase: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.kind}@{self.phase}" if self.phase else self.kind


def parse_chaos(text: str) -> ChaosDirective:
    """Parse ``"crash"``, ``"crash@phase3"``, ``"stall@phase2"``, ...

    Raises
    ------
    ValueError
        On an unknown kind, an unknown phase, a phase scope on a kind
        that does not accept one, or a bare ``stall`` (stalling is
        meaningful only at a phase boundary).
    """
    kind, sep, phase = text.partition("@")
    if kind not in CHAOS_KINDS:
        raise ValueError(f"unknown chaos directive {kind!r}; "
                         f"use one of {CHAOS_KINDS}")
    if not sep:
        if kind == "stall":
            raise ValueError("stall requires a phase scope, "
                             "e.g. 'stall@phase2'")
        return ChaosDirective(kind)
    if kind not in PHASE_KINDS:
        raise ValueError(f"directive {kind!r} does not accept a "
                         f"phase scope")
    if phase not in _PHASES:
        raise ValueError(f"unknown phase {phase!r}; "
                         f"use one of {_PHASES}")
    return ChaosDirective(kind, phase)


def chaos_from_env(text: str) -> Callable[[Any, int], Optional[str]]:
    """Build a ``HarnessConfig.chaos`` hook from ``REPRO_CHAOS``.

    ``text`` is a comma-separated list of ``[circuit:]directive``
    entries, e.g. ``"s27:crash@phase3,s298:stall@phase2"`` or just
    ``"crash"`` (applies to every circuit).  Directives fire on first
    attempts only, so every injected failure is retried -- the knob
    exists to *rehearse* recovery, not to make campaigns fail.

    Raises
    ------
    ValueError
        On any malformed entry (fail loud at startup, not mid-run).
    """
    rules = []  # (circuit or None, directive text)
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        circuit, sep, directive = entry.rpartition(":")
        directive_text = directive if sep else entry
        parse_chaos(directive_text)  # validate eagerly
        rules.append((circuit if sep else None, directive_text))

    def chaos(spec: Any, attempt: int) -> Optional[str]:
        if attempt != 1:
            return None
        for circuit, directive_text in rules:
            if circuit is None or circuit == spec.circuit:
                return directive_text
        return None

    return chaos


def freeze() -> None:  # pragma: no cover - killed externally
    """Stall forever (until the supervisor kills the process).

    This replaces the old ``_HANG_SECONDS = 3600`` bounded sleep: a
    stalled worker's lifetime is the supervisor's business (the stall
    timeout), not a constant baked into the worker.
    """
    while True:
        time.sleep(3600.0)


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------

class ProgressReporter:
    """Streams heartbeat messages over the worker pipe.

    A daemon thread sends the current status every ``interval``
    seconds; :meth:`update` mutates the status and pushes one
    immediately (phase transitions should not wait out the interval).
    All sends are lock-guarded -- the pipe is shared with the worker's
    final ``("ok"| "error", ...)`` message, and interleaved
    ``Connection.send`` calls from two threads would corrupt the
    stream, so callers must :meth:`stop` the reporter before sending
    anything else.  With ``conn=None`` (inline mode) the reporter
    only tracks status; nothing is sent.
    """

    def __init__(self, conn: Any, interval: float = 1.0) -> None:
        self.conn = conn
        self.interval = interval
        self.status: Dict[str, Any] = {"arm": None, "phase": None,
                                       "faults_remaining": None,
                                       "counters": {}, "seq": 0}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._counters: Optional[SimCounters] = None
        self._n_faults: Optional[int] = None

    def bind_counters(self, counters: SimCounters,
                      n_faults: int) -> None:
        """Heartbeats snapshot these counters from then on."""
        self._counters = counters
        self._n_faults = n_faults

    def start(self) -> None:
        if self.conn is None:
            return
        self._thread = threading.Thread(target=self._pump, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the pump thread and release the pipe for final sends."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def update(self, **status: Any) -> None:
        """Merge ``status`` and send one heartbeat immediately."""
        self.status.update(status)
        self._send()

    def _send(self) -> None:
        with self._lock:
            if self._counters is not None:
                self.status["counters"] = self._counters.brief()
                if self._n_faults is not None:
                    dropped = self.status["counters"]["faults_dropped"]
                    self.status["faults_remaining"] = \
                        max(0, self._n_faults - dropped)
            self.status["seq"] += 1
            if self.conn is None:
                return
            try:
                self.conn.send(("heartbeat", dict(self.status)))
            except (BrokenPipeError, OSError):  # pragma: no cover
                self._stop.set()  # supervisor gone; nothing to do

    def _pump(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.interval):
            self._send()


# ----------------------------------------------------------------------
# Worker hooks (observer + chaos, per arm)
# ----------------------------------------------------------------------

class _ArmObserver(PhaseObserver):
    """Adapts phase callbacks for one arm of one job."""

    def __init__(self, hooks: "WorkerHooks", arm: str) -> None:
        self.hooks = hooks
        self.arm = arm

    def enter(self, phase: str) -> None:
        self.hooks.reporter.update(arm=self.arm, phase=phase)
        directive = self.hooks.chaos
        if directive is not None and directive.phase == phase:
            self.hooks.chaos = None  # enact once
            if directive.kind == "crash":
                raise ChaosError(f"chaos: {directive}")
            if directive.kind == "stall":
                if self.hooks.isolated:  # pragma: no cover - killed
                    self.hooks.reporter.stop()
                    freeze()
                # Inline mode cannot be killed from outside; a raise
                # exercises the same retry path.
                raise ChaosError(f"chaos: {directive} (inline)")


class WorkerHooks:
    """Everything the runner threads through one job attempt.

    Combines the heartbeat reporter and at most one phase-scoped chaos
    directive.  :meth:`arm_observer` / :meth:`arm_completed` are the
    runner-facing surface.
    """

    def __init__(self, reporter: ProgressReporter,
                 chaos: Optional[ChaosDirective] = None,
                 isolated: bool = True) -> None:
        self.reporter = reporter
        self.chaos = chaos
        self.isolated = isolated

    def bind_counters(self, counters: SimCounters,
                      n_faults: int) -> None:
        self.reporter.bind_counters(counters, n_faults)

    def arm_observer(self, arm: str) -> PhaseObserver:
        return _ArmObserver(self, arm)

    def arm_completed(self, arm: str) -> None:
        """An arm finished end to end."""
        self.reporter.update(arm=arm, phase="done")
