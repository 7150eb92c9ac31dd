"""Delay-defect (transition fault) analysis of scan test sets.

Two halves: :mod:`~repro.delay.transition` scores transition-fault
coverage (on the C kernel when available, on big-int words otherwise),
and :mod:`~repro.delay.clocking` prices test application under an
on-chip test-clock generator (slow scan shifts, at-speed
launch/capture pairs, resync overhead).  Together they put a number
on the paper's headline claim: long functional sequences buy at-speed
quality per clock cycle.
"""

from .clocking import (ClockPlan, ClockSpec, DelayReport,
                       SetDelaySummary, measure_delay, plan_set,
                       plan_test, summarize_set)
from .transition import (TransitionFault, TransitionSim,
                         all_transition_faults)

__all__ = [
    "ClockPlan", "ClockSpec", "DelayReport", "SetDelaySummary",
    "TransitionFault", "TransitionSim", "all_transition_faults",
    "measure_delay", "plan_set", "plan_test", "summarize_set",
]
