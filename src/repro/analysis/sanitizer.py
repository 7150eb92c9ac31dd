"""Engine-invariant sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

The wide-word fault-simulation engines (DESIGN.md sections 8-9) rest on
invariants that are argued in prose and sampled by the hypothesis
equivalence suites, but never checked in production runs:

* **lane-packing disjointness** -- in candidate-parallel simulation
  every fault group owns a contiguous, non-overlapping block of lanes,
  the good/forced stem masks never claim a machine bit outside their
  chunk, and no stem forces a net to 0 and 1 for the same machine;
* **scoreboard soundness** -- a fault retired by the cross-phase
  scoreboard is never simulated again as a target ("never required by a
  later phase"), and every retired fault is in the final detected set
  ("retired" really means "guaranteed detected");
* **fused/chunked agreement** -- a production ``detect`` pass (one
  fused word, on the C kernel when it loads) and a chunked shadow on
  the reference circuit (the interpreter, no array backend) detect
  identical fault sets (spot-checked on the first few ``detect`` calls
  per simulator, on bounded targets).

With ``REPRO_SANITIZE`` unset (or ``0``) every hook is a cheap boolean
check away from free.  With ``REPRO_SANITIZE=1`` a violated invariant
raises :class:`SanitizerError` at the point of violation.  With
``REPRO_SANITIZE=collect`` violations are recorded but not raised, so a
run can be swept and the violations read back via :func:`violations` /
:func:`to_diagnostics` as structured diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Set, Tuple

from .diagnostics import ERROR, Diagnostic

ENV_VAR = "REPRO_SANITIZE"


def enabled() -> bool:
    """True when the sanitizer is armed (read from the environment on
    every call, so workers and tests can flip it dynamically)."""
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
# invariant checks (callers guard with ``if sanitizer.enabled():``)
# ----------------------------------------------------------------------

def _mask_pair(label: str, key: Any, m0: int, m1: int,
               universe: int, context: str) -> None:
    if m0 & m1:
        report_violation(
            "lane-disjoint",
            f"{context}: {label}[{key!r}] forces the same machine "
            f"bit(s) to both 0 and 1 (overlap {bin(m0 & m1)})")
    if (m0 | m1) & ~universe:
        report_violation(
            "lane-disjoint",
            f"{context}: {label}[{key!r}] claims machine bits "
            f"outside its universe {bin(universe)}")


def _mask_pairs(label: str,
                masks: Mapping[Any, Tuple[int, int]],
                universe: int, context: str) -> None:
    """``masks``: net id -> (force-to-0 mask, force-to-1 mask)."""
    for key, (m0, m1) in masks.items():
        _mask_pair(label, key, m0, m1, universe, context)


def _branch_masks(label: str,
                  branch: Mapping[Any, Iterable[Tuple[int, int, int]]],
                  universe: int, context: str) -> None:
    """``branch``: net id -> [(pin, force-0 mask, force-1 mask), ...]."""
    for key, entries in branch.items():
        for pin, m0, m1 in entries:
            _mask_pair(label, (key, pin), m0, m1, universe, context)


def _ff_branch_masks(entries: Iterable[Tuple[int, int, int]],
                     universe: int, context: str) -> None:
    """``entries``: [(flip-flop position, force-0, force-1), ...]."""
    for pos, m0, m1 in entries:
        _mask_pair("ff_branch", pos, m0, m1, universe, context)


def check_lane_chunk(chunk: Any, context: str = "detect_candidates") -> None:
    """Lane-packing disjointness of one ``_LaneChunk``.

    Group ``g`` must own exactly the contiguous lane block
    ``[g*n_lanes, (g+1)*n_lanes)``; the union of the blocks must be the
    chunk mask; and every injection mask must stay inside the mask with
    no machine bit forced to both values.
    """
    n_lanes = chunk.n_lanes
    n_groups = chunk.n_groups
    block = (1 << n_lanes) - 1
    union = 0
    for g in range(n_groups):
        blk = block << (g * n_lanes)
        if union & blk:
            report_violation(
                "lane-disjoint",
                f"{context}: lane block of group {g} overlaps an "
                f"earlier group")
        union |= blk
    if union != chunk.mask:
        report_violation(
            "lane-disjoint",
            f"{context}: chunk mask {bin(chunk.mask)} is not the union "
            f"of its {n_groups} lane block(s) {bin(union)}")
    _mask_pairs("stem", chunk.stems, chunk.mask, context)
    _branch_masks("branch", chunk.branch, chunk.mask, context)
    _ff_branch_masks(chunk.ff_branch, chunk.mask, context)


def check_chunk(chunk: Any, context: str = "detect") -> None:
    """Packing invariants of one scalar ``_Chunk`` (good bit 0 plus one
    faulty machine per index)."""
    want = (1 << (len(chunk.indices) + 1)) - 1
    if chunk.mask != want:
        report_violation(
            "lane-disjoint",
            f"{context}: chunk mask {bin(chunk.mask)} does not cover "
            f"good bit + {len(chunk.indices)} machines")
    # Bit 0 is the good machine: no injection may claim it (the
    # universe excludes it), and no machine bit may be forced both ways.
    _mask_pairs("stem", chunk.stems, chunk.mask & ~1, context)
    _branch_masks("branch", chunk.branch, chunk.mask & ~1, context)
    _ff_branch_masks(chunk.ff_branch, chunk.mask & ~1, context)


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
