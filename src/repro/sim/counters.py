"""Engine instrumentation: cheap counters for the simulation hot path.

Every :class:`~repro.sim.fault_sim.FaultSimulator` owns a
:class:`SimCounters` instance (callers may share one across simulators)
and bumps it from the inner loops: how many logical frames were
simulated, how many packed words were evaluated (``frames x chunks``),
how many machine bits those words carried, how many faults were
retired before a pass, and how many tentative
omission/combination trials the compaction procedures ran.

The point is to make engine work *measurable*: the wide-word fusion
and fault-dropping optimizations claim to reduce words-evaluated and
raise effective machines/word -- these counters are what
``benchmarks/e2e`` reports per workload and what the CLI surfaces per
circuit, so a perf regression shows up as a number, not a feeling.

Counting convention
-------------------
* ``frames`` -- logical frames simulated: one per time step of a pass,
  regardless of how many words (chunks) carried the fault set.
* ``words`` -- word evaluations: one per ``eval_frame`` call made on
  behalf of fault simulation (``frames x chunks``, minus early exits).
* ``machines`` -- total faulty-machine bits across evaluated words;
  ``machines / words`` is the effective packing density (fusion
  pushes this toward the full fault-set size; a small ``fused_cap``
  caps it).  The C kernel and the big-int path pack a pass into the
  same chunks, so these counts are the same on both.
* ``faults_dropped`` -- faults retired from simulation because a
  scoreboard already knew them detected.
* ``detect_passes`` / ``record_passes`` / ``candidate_passes`` --
  calls into :meth:`~repro.sim.fault_sim.FaultSimulator.detect` /
  :meth:`~repro.sim.fault_sim.FaultSimulator.run_with_records` /
  :meth:`~repro.sim.fault_sim.FaultSimulator.detect_candidates`.
* ``omission_trials`` / ``combine_trials`` -- tentative vector
  omissions and pair combinations simulated by Phase 2 / Phase 4.

Phase wall-clock timers
-----------------------
``phase1_s`` .. ``phase4_s`` accumulate wall-clock seconds per paper
phase (Phase 1 scan-in/scan-out selection incl. Step 1, Phase 2
vector omission, Phase 3 top-off incl. the ``tau_seq`` full-set
re-simulation, Phase 4 static compaction).  They are bumped by the
:meth:`SimCounters.phase_timer` context manager from
:func:`repro.core.proposed.run` and surfaced in the CLI "Engine
counters" table and ``CircuitRun`` JSON; checkpoints written before
these fields existed simply lack the keys and render as dashes.

Power-engine counters
---------------------
``power_passes`` counts test-set power measurements (one per
:meth:`~repro.power.activity.ActivityEngine.set_power` call),
``power_words`` the test frames the activity engine measured (each
distinct test once; its lane-batched good pass shares words across
tests), and ``power_s`` its wall clock (via ``phase_timer("power")``).  Like
the phase timers, these render as dashes for legacy checkpoints.

Backend counters
----------------
``np_passes`` counts the passes executed by the C kernel
(:mod:`repro.sim.npsim`), one per chunk a call runs (a multi-trial
pass runs one per chunk, with no separate
fault-free pass); a Phase-2 rebuild runs one records-mode pass per
chunk -- zero when everything ran on big-int
words, so it doubles as a cheap "did the kernel actually run?" probe
for tests and benchmarks.  Legacy checkpoints lack the key and
render as dashes.

Trial-batch counters
--------------------
``trial_passes`` counts multi-trial passes (one per
:meth:`~repro.sim.fault_sim.FaultSimulator.detect_trials` call,
including the calls behind Phase-1 candidate scans and PPSFP pattern
blocks), ``trial_lanes`` the trials those passes carried (one block
each) -- ``trial_lanes / trial_passes`` is the effective
trial-batching density.  Such a pass counts each chunk's frames as
word evaluations carrying the chunk's faults times the trials (good
machines are not counted) and adds its longest chunk's frames to
``frames``; it runs no separate fault-free pass.  ``adi_orderings``
counts the Accidental-Detection-Index ordering decisions applied
(fused-word packing, Phase-3 target order, Phase-1 candidate
scoring); it stays zero unless the ``--adi``
knob is on (or ``--scoap``, which reuses the packing-order hook when
ADI is off).  All three render as dashes for legacy checkpoints.

Transition-fault counters
-------------------------
``tdf_passes`` counts the faulty-machine passes of the
transition-fault simulator (:class:`~repro.delay.transition.
TransitionSim`): one per dense pass (a window of one test's launches,
each its own machine, carried to the end of the test), the same
passes on the kernel and on big-int words, so the count is identical
in both configurations; on the kernel each also counts one
``np_passes``.
``tdf_words`` counts the frames those passes simulated, summed, and
``tdf_s`` the simulator's wall clock (via ``phase_timer("tdf")``).
The lane-batched good-machine pass is excluded: these counters
measure the faulty-capture work the wide-word packing actually
shrinks.
Like the other families, all three render as dashes for legacy
checkpoints.

Static fault-space counters
---------------------------
``comb_passes`` counts, for each call into the combinational-pattern
adapter (:class:`~repro.sim.comb_sim.CombPatternSim` -- one pattern
block or one single pattern), the representative faults it
simulates: the cost the representative-only simulation of
equivalence collapsing actually shrinks, since ``detect_passes``
counts *calls* and is identical with or without collapsing.
``untestable_dropped`` counts faults excluded from simulation
because the static analyzer *proved* them untestable (bumped once per
:meth:`~repro.sim.fault_sim.FaultSimulator.set_untestable`
installation, not per pass).  ``scoap_orderings`` counts SCOAP
difficulty-ordering decisions applied (Phase-1 candidate scoring,
Phase-3 top-off order); zero unless the ``--scoap`` knob is on.
All render as dashes for legacy checkpoints.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict

#: Phases :meth:`SimCounters.phase_timer` accepts.
PHASE_NAMES = ("phase1", "phase2", "phase3", "phase4", "power", "tdf")


@dataclass
class SimCounters:
    """Mutable engine counters (see module docstring for semantics)."""

    frames: int = 0
    words: int = 0
    machines: int = 0
    faults_dropped: int = 0
    detect_passes: int = 0
    record_passes: int = 0
    candidate_passes: int = 0
    omission_trials: int = 0
    combine_trials: int = 0
    phase1_s: float = 0.0
    phase2_s: float = 0.0
    phase3_s: float = 0.0
    phase4_s: float = 0.0
    power_passes: int = 0
    power_words: int = 0
    power_s: float = 0.0
    tdf_passes: int = 0
    tdf_words: int = 0
    tdf_s: float = 0.0
    np_passes: int = 0
    trial_passes: int = 0
    trial_lanes: int = 0
    adi_orderings: int = 0
    comb_passes: int = 0
    untestable_dropped: int = 0
    scoap_orderings: int = 0

    # ------------------------------------------------------------------
    def note_words(self, n_words: int, n_machines: int) -> None:
        """Record ``n_words`` word evaluations carrying ``n_machines``
        machine bits each."""
        self.words += n_words
        self.machines += n_words * n_machines

    @property
    def machines_per_word(self) -> float:
        """Effective packing density (0.0 before any work)."""
        if not self.words:
            return 0.0
        return self.machines / self.words

    @contextmanager
    def phase_timer(self, phase: str):
        """Accumulate the wall clock of the ``with`` body into
        ``<phase>_s``.  ``phase`` must be one of :data:`PHASE_NAMES`.
        Re-entrant use double-counts; the pipeline times disjoint
        stages only.
        """
        if phase not in PHASE_NAMES:
            raise ValueError(f"unknown phase {phase!r}; "
                             f"use one of {PHASE_NAMES}")
        attr = f"{phase}_s"
        started = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, attr,
                    getattr(self, attr) + time.perf_counter() - started)

    # ------------------------------------------------------------------
    def merge(self, other: "SimCounters") -> None:
        """Accumulate ``other`` into this instance."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> "SimCounters":
        """An independent copy (for before/after deltas)."""
        return SimCounters(**{f.name: getattr(self, f.name)
                              for f in fields(self)})

    def delta(self, since: "SimCounters") -> "SimCounters":
        """Counters accumulated since the ``since`` snapshot."""
        return SimCounters(**{
            f.name: getattr(self, f.name) - getattr(since, f.name)
            for f in fields(self)})

    def brief(self) -> Dict[str, float]:
        """Compact progress snapshot for heartbeat messages.

        Heartbeats fire every second or so over the worker pipe; the
        full :meth:`as_dict` dump would be mostly noise there, so this
        carries only the counters a supervisor (or a human watching the
        job summary) can read progress from.
        """
        return {
            "frames": self.frames,
            "words": self.words,
            "faults_dropped": self.faults_dropped,
            "detect_passes": self.detect_passes,
        }

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        """JSON-ready view, including the derived packing density.

        Timer fields are rounded to microseconds so checkpoint JSON
        stays stable across load/save cycles.
        """
        out: Dict[str, float] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = round(value, 6) if isinstance(value, float) \
                else value
        out["machines_per_word"] = round(self.machines_per_word, 2)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SimCounters":
        """Inverse of :meth:`as_dict` (derived keys ignored; timer
        fields keep their float type, counters coerce to int)."""
        converters = {f.name: (float if isinstance(f.default, float)
                               else int) for f in fields(cls)}
        return cls(**{k: conv(data[k]) for k, conv in converters.items()
                      if k in data})
