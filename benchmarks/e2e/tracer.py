"""Layer tracer for the end-to-end benchmark.

The tracer wraps public functions and methods of the program from the
benchmark's own files; nothing under ``src/`` changes.  Every call of a
wrapped target records one span: name, start, end, the span that was
open when it started (its parent) and a job id.  A span's self time is
its duration minus the time its child spans cover.

Spans stay in memory.  The benchmark writes them out when the run ends,
as Chrome trace-event JSON (``ph: "X"`` complete events), which
``chrome://tracing`` and Perfetto open directly.

A target that a later version of the program renames or deletes is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Span name -> ``module:qualified.name`` targets it wraps, outermost
#: layer first.  Where one span lists several targets, a target called
#: from inside another target of the same span is not counted twice.
SPANS: Dict[str, Tuple[str, ...]] = {
    "experiments.run_circuit": ("repro.experiments.runner:run_circuit",),
    "circuits.build": ("repro.circuits.suite:CircuitProfile.build",
                       "repro.circuits.synth:generate"),
    "analysis.faultspace": (
        "repro.analysis.faultspace:analyze_faultspace",),
    "analysis.lint": ("repro.analysis.rules:lint_netlist",),
    "sim.compile": ("repro.sim.logicsim:CompiledCircuit.__init__",),
    "sim.collapse": ("repro.sim.faults:FaultSet.collapsed",),
    "atpg.comb_set": ("repro.atpg.comb_set:generate",),
    "atpg.seqgen": ("repro.atpg.seqgen:generate_sequence",),
    "core.proposed": ("repro.core.proposed:run",),
    "core.phase1": ("repro.core.phase1:detect_no_scan",
                    "repro.core.phase1:run_phase1"),
    "core.omission": ("repro.core.omission:omit_vectors",),
    "core.topoff": ("repro.core.topoff:top_off",),
    "core.combine": ("repro.core.combine:static_compact",),
    "core.dynamic": ("repro.core.dynamic:dynamic_compact",),
    "sim.detect": ("repro.sim.fault_sim:FaultSimulator.detect",),
    "sim.detect_candidates": (
        "repro.sim.fault_sim:FaultSimulator.detect_candidates",),
    "sim.detect_trials": ("repro.sim.fault_sim:FaultSimulator.detect_trials",),
    "sim.records": ("repro.sim.fault_sim:FaultSimulator.run_with_records",),
    "sim.ppsfp": ("repro.sim.comb_sim:CombPatternSim.detect_block",
                  "repro.sim.comb_sim:CombPatternSim.detect_single"),
    "sim.incremental": ("repro.sim.fault_sim:IncrementalFaultSim.preview",
                        "repro.sim.fault_sim:IncrementalFaultSim.apply"),
    "npsim.detect_chunk": ("repro.sim.npsim:ArrayBackend.run_detect_chunk",),
    "npsim.suffix_chunk": ("repro.sim.npsim:ArrayBackend.run_suffix_chunk",),
    "npsim.lane_chunk": ("repro.sim.npsim:ArrayBackend.run_lane_chunk",),
    "npsim.good_lane_chunk": (
        "repro.sim.npsim:ArrayBackend.run_good_lane_pass",),
    "npsim.records_chunk": ("repro.sim.npsim:ArrayBackend.run_records_chunk",),
    "delay.tdf": ("repro.delay.transition:TransitionSim.detect_test_set",
                  "repro.delay.transition:TransitionSim.detect_test"),
    "power.set_power": ("repro.power.activity:ActivityEngine.set_power",),
}

#: Each call of this span starts a new job id; spans outside any job
#: belong to job 0.
JOB_SPAN = "experiments.run_circuit"

#: Spans kept for the trace file; self times and call counts are
#: exact regardless.
MAX_EVENTS = 200_000


class Tracer:
    """Records nested spans and accumulates self time per span name.

    ``clock`` returns seconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.origin = clock()
        self.active = True
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        # Open spans: [name, span id, start, child seconds, job id].
        self._stack: List[List[Any]] = []
        self._next_id = 1
        self._next_job = 1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a ``name`` span per call while active."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active or (self._stack
                                   and self._stack[-1][0] == name):
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _enter(self, name: str) -> None:
        if name == JOB_SPAN:
            job = self._next_job
            self._next_job += 1
        else:
            job = self._stack[-1][4] if self._stack else 0
        self._stack.append([name, self._next_id, self.clock(), 0.0, job])
        self._next_id += 1

    def _exit(self) -> None:
        end = self.clock()
        name, span_id, start, child_s, job = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        if len(self.events) < MAX_EVENTS:
            self.events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "job": job},
            })
        else:
            self.dropped_events += 1


class Installation:
    """The patches one :func:`install` call made; undo with
    :meth:`remove`."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw value)`` of a target, or ``None``."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return None
    if inspect.isclass(owner) and attr not in owner.__dict__:
        return None  # inherited: wrapping it would shadow the base
    func = getattr(raw, "__func__", raw)
    return (owner, attr, raw) if callable(func) else None


def install(tracer: Tracer, spans: Dict[str, Sequence[str]] = SPANS,
            package: str = "repro") -> Installation:
    """Wrap every resolvable target; list the others as absent.

    A module-level function is also rebound wherever a loaded module
    of ``package`` imported it by name, so ``from x import f`` callers
    are traced too.
    """
    done = Installation()
    for name, targets in spans.items():
        for target in targets:
            found = _resolve(target)
            if found is None:
                done.absent.append(target)
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                done.patch(owner, attr,
                           type(raw)(tracer.wrap(name, raw.__func__)))
                continue
            wrapped = tracer.wrap(name, raw)
            done.patch(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not (
                        mod_name == package
                        or mod_name.startswith(package + ".")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        done.patch(module, alias, wrapped)
    return done


def absent_spans(absent: Sequence[str],
                 spans: Dict[str, Sequence[str]] = SPANS) -> List[str]:
    """Span names none of whose targets resolved."""
    missing = set(absent)
    return [name for name, targets in spans.items()
            if all(t in missing for t in targets)]


def chrome_trace(events: Sequence[Dict[str, Any]],
                 metadata: Dict[str, Any]) -> Dict[str, Any]:
    """A Chrome trace-event document for ``events``."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms",
            "otherData": metadata}
