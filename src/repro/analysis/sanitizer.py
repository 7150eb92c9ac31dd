"""Engine-invariant sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

The wide-word fault-simulation engines (DESIGN.md sections 8-9) rest on
invariants that are argued in prose and sampled by the hypothesis
equivalence suites, but never checked in production runs:

* **packing disjointness** (``lane-disjoint``) -- a pass is a machine
  list over the simulator's fault-site rows, on either pass store (the
  C kernel's or a big-int word arena); every list of a one-off pass or
  a per-run store holds distinct fault indices inside the fault set
  and none of a proven-untestable class.  The stores build every
  forcing mask from such a list, one bit per machine, so no mask can
  claim the good machine or a bit outside the pass, or force a machine
  both ways;
* **scoreboard soundness** -- a fault retired by the cross-phase
  scoreboard is never simulated again as a target ("never required by a
  later phase"), and every retired fault is in the final detected set
  ("retired" really means "guaranteed detected");
* **fused/chunked agreement** -- a production ``detect`` pass (one
  fused word, on the C kernel when it loads) and a chunked shadow on
  the reference circuit (the interpreter, no array backend) detect
  identical fault sets, and every trial of a production
  ``detect_trials`` pass detects what one reference ``detect`` of that
  trial detects (each spot-checked on the first few calls per
  simulator, on bounded targets);
* **early omission decisions** (``omission-early-decision``) -- a
  Phase-2 trial that its store's trail decided before the suffix's last
  frame gets the same verdict from a run of the whole suffix without
  the trail (the first few such trials per simulator);
* **transition-fault agreement** (``delay-agreement``) -- a dense
  transition-fault pass catches the same launches as a re-run of it,
  one launch frame at a time, on a simulator over the reference
  circuit (the first few passes per transition simulator).

The setting is sampled once per engine object: a ``FaultSimulator``,
``TransitionSim``, ``ActivityEngine`` or ``FaultScoreboard`` reads
:func:`enabled` when it is built and keeps the answer, so arm (or
disarm) the sanitizer before building the objects it should check.
With ``REPRO_SANITIZE`` unset (or ``0``) every hook is then a cheap
attribute check away from free.  With ``REPRO_SANITIZE=1`` a violated
invariant raises :class:`SanitizerError` at the point of violation.  With
``REPRO_SANITIZE=collect`` violations are recorded but not raised, so a
run can be swept and the violations read back via :func:`violations` /
:func:`to_diagnostics` as structured diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import AbstractSet, Any, Iterable, List, Sequence, Set

from .diagnostics import ERROR, Diagnostic

ENV_VAR = "REPRO_SANITIZE"


def enabled() -> bool:
    """True when the sanitizer is armed.  Read from the environment on
    every call; the engine objects call it once, when they are built,
    and keep the answer (see the module docstring)."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def collect_only() -> bool:
    """True in ``REPRO_SANITIZE=collect`` mode (record, don't raise)."""
    return os.environ.get(ENV_VAR, "") == "collect"


@dataclass(frozen=True)
class Violation:
    """One violated invariant."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"sanitize.{self.invariant}: {self.message}"


class SanitizerError(AssertionError):
    """An engine invariant did not hold."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


_violations: List[Violation] = []


def violations() -> List[Violation]:
    """Violations recorded so far (process-local)."""
    return list(_violations)


def reset() -> None:
    _violations.clear()


def to_diagnostics() -> List[Diagnostic]:
    """Recorded violations as error-severity diagnostics."""
    return [Diagnostic(rule=f"sanitize.{v.invariant}", severity=ERROR,
                       message=v.message) for v in _violations]


def report_violation(invariant: str, message: str) -> None:
    """Record a violation; raise unless in collect mode."""
    violation = Violation(invariant, message)
    _violations.append(violation)
    if not collect_only():
        raise SanitizerError(violation)


# ----------------------------------------------------------------------
# invariant checks (callers guard them with the setting they sampled)
# ----------------------------------------------------------------------

def check_machines(machines: Sequence[int], faults: Any,
                   untestable: AbstractSet[int], context: str) -> None:
    """Packing invariants of one machine list: distinct fault
    indices of ``faults`` (a ``FaultSet``), none in a class whose
    representative is in ``untestable``.  The list is one a pass store
    has bound, so its indices lie inside the fault set: the store's
    bind raises ``ValueError`` for any other."""
    if len(set(machines)) != len(machines):
        report_violation(
            "lane-disjoint",
            f"{context}: machine list gives a fault more than one "
            f"machine")
    dropped = sorted(f for f in machines if faults.rep_of[f] in untestable)
    if dropped:
        report_violation(
            "lane-disjoint",
            f"{context}: machine list holds {len(dropped)} fault(s) of "
            f"proven-untestable classes: {dropped[:10]}")


def check_fresh_targets(scoreboard: Any, target: Iterable[int],
                        context: str) -> None:
    """A retired fault must never be simulated as a target again."""
    if scoreboard is None or not scoreboard.enabled:
        return
    stale = sorted(f for f in target if scoreboard.is_retired(f))
    if stale:
        report_violation(
            "scoreboard-reactivation",
            f"{context}: {len(stale)} already-retired fault(s) handed "
            f"back as simulation targets: {stale[:10]}")


def check_retired_subset(retired: Set[int], detected: Set[int],
                         context: str) -> None:
    """Every fault the scoreboard dropped must be in the final detected
    set -- the soundness claim of cross-phase fault dropping."""
    missing = sorted(retired - detected)
    if missing:
        report_violation(
            "scoreboard-soundness",
            f"{context}: {len(missing)} retired fault(s) absent from "
            f"the final detected set: {missing[:10]}")


def check_monotone(before: Set[int], after: Set[int],
                   context: str) -> None:
    """The retired set only grows."""
    lost = sorted(before - after)
    if lost:
        report_violation(
            "scoreboard-monotonic",
            f"{context}: {len(lost)} fault(s) left the retired set: "
            f"{lost[:10]}")


def check_agreement(fused: Set[int], chunked: Set[int],
                    context: str) -> None:
    """A production pass and its chunked reference shadow must detect
    identical sets."""
    if fused != chunked:
        only_f = sorted(fused - chunked)[:10]
        only_c = sorted(chunked - fused)[:10]
        report_violation(
            "fused-chunked-agreement",
            f"{context}: engines disagree "
            f"(fused-only {only_f}, chunked-only {only_c})")
