"""Transition (delay) fault simulation for scan tests.

The paper's motivation for long primary-input sequences is at-speed
testing: consecutive functional cycles are launch/capture opportunities
for delay defects [5], [6].  This module quantifies that claim with the
standard transition-fault model under launch-on-capture conditions:

* a *slow-to-rise* fault on net ``n`` is *launched* at frame ``t >= 1``
  when the fault-free value of ``n`` rises from 0 (frame ``t-1``) to 1
  (frame ``t``); the late transition behaves as a stuck-at-0 on ``n``
  during frame ``t``;
* the resulting error is *detected* if it reaches a primary output at
  frame ``t`` or -- after being captured into flip-flops -- reaches a
  primary output of any later frame or the final scanned-out state
  (the error propagates through the fault-free circuit from frame
  ``t+1`` on);
* *slow-to-fall* symmetrically.

Frame 0 is never a launch frame: the transition from the scan-shift
state to the first capture is not applied at functional speed.  A
scan test with a length-1 sequence therefore detects **zero**
transition faults -- which is exactly why the [4]-style single-vector
test sets fare poorly here and the paper's long-sequence sets shine.

Simulation routes
-----------------
Launches are read off one lane-batched good-machine pass
(:func:`repro.sim.logicsim.simulate_lanes`): a whole test set runs at
once, test ``k`` in lane ``k``, and a net launches in frame ``t`` of
test ``k`` when lane ``k`` of its frame-``t-1`` and frame-``t`` words
hold the two values of the transition.  The simulator then packs all
launches of a frame into bit-parallel words and carries them through
the remaining frames together, with early exit once a word's faults
are all detected.  The circuit decides which route executes that
plan:

* **packed** (when the circuit has an array backend): every launch
  of a frame goes into one multi-word ``uint64`` array chunk executed
  by the C pass kernel of :mod:`repro.sim.npsim` -- one kernel call
  for the launch frame (injection stems force the late value,
  scan-out only if it is also the last frame) and one for the
  fault-free propagation suffix (stem-free plan, primary outputs
  observed every frame, final state scanned out).  The kernel writes
  the captured next state back into the shared arrays between calls,
  so the two segments compose into the exact scalar pass.
* **scalar** (otherwise): per-net Python big-int words, at most
  ``_SCALAR_WIDTH - 1`` faults per word, one ``eval_frame`` call per
  frame per word -- exactly the semantics of the stuck-at big-int
  path.

Detection is independent of how launches are grouped into words
(every fault's machine evolves in its own bit-lane and the saturation
break only fires once *all* lanes are caught), so the two routes are
byte-identical; ``tests/delay/test_transition.py`` proves it against
the reference circuit with a hypothesis equivalence suite and --
under ``REPRO_SANITIZE=1`` -- the packed route spot-checks its first
few captures against a scalar recomputation, reporting
``delay-agreement`` violations through
:mod:`repro.analysis.sanitizer`.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis import sanitizer
from ..circuits.netlist import Netlist
from ..core.scan_test import ScanTest, ScanTestSet
from ..sim import values as V
from ..sim.counters import SimCounters
from ..sim.fault_sim import _Chunk
from ..sim.logicsim import (CompiledCircuit, LaneFrame, lane_vector,
                            simulate_lanes)

#: Packed launch-group captures cross-checked against the scalar route
#: per simulator when the sanitizer is armed.
_SANITIZE_SPOT_BUDGET = 3

#: Word width (launched faults + the good machine) of the scalar route.
_SCALAR_WIDTH = 128


@dataclass(frozen=True)
class TransitionFault:
    """A transition fault on a stem.

    ``rising`` selects slow-to-rise (detected via a 0 -> 1 launch and a
    stuck-at-0 capture); otherwise slow-to-fall.
    """

    net: str
    rising: bool

    def __str__(self) -> str:
        return f"{self.net}/{'STR' if self.rising else 'STF'}"


def all_transition_faults(netlist: Netlist) -> List[TransitionFault]:
    """Both transition faults on every net, sorted for reproducibility."""
    if not netlist.is_compiled():
        netlist.compile()
    faults = []
    for net in sorted(netlist.gates):
        faults.append(TransitionFault(net, True))
        faults.append(TransitionFault(net, False))
    return faults


class TransitionSim:
    """Transition-fault simulator bound to one circuit.

    Captures take the packed route when the circuit has an array
    backend and the scalar route otherwise; :attr:`route` reports
    which.  Pass the workbench's shared
    :class:`~repro.sim.counters.SimCounters` to surface
    ``tdf_passes`` / ``tdf_words`` / ``tdf_s`` in the engine counters
    table.
    """

    def __init__(self, circuit: CompiledCircuit,
                 faults: Optional[Sequence[TransitionFault]] = None,
                 counters: Optional[SimCounters] = None) -> None:
        self.circuit = circuit
        self.faults: List[TransitionFault] = list(
            faults if faults is not None
            else all_transition_faults(circuit.netlist))
        self.index: Dict[TransitionFault, int] = {
            f: i for i, f in enumerate(self.faults)}
        self.counters = counters if counters is not None \
            else SimCounters()
        ids = circuit.netlist.net_ids
        self._nid: List[int] = [ids[f.net] for f in self.faults]
        self._src_ids = frozenset(circuit.pi_ids) | \
            frozenset(circuit.ff_ids)
        self._backend = circuit.array_backend
        self.route = "packed" if self._backend is not None else "scalar"
        self._plain_plans: "OrderedDict[int, Any]" = OrderedDict()
        self._stem_site_buf: Optional[Any] = None
        self._stem_dirty: List[int] = []
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET

    #: Stem-free propagation plans retained, keyed by launch-group
    #: size (they are a pure function of the word width).
    _PLAIN_PLAN_CACHE_SIZE = 8

    # ------------------------------------------------------------------
    def detect_test(self, test: ScanTest,
                    target: Optional[Set[int]] = None) -> Set[int]:
        """Transition-fault indices detected by one scan test."""
        if target is None:
            target = set(range(len(self.faults)))
        with self.counters.phase_timer("tdf"):
            frames = simulate_lanes(self.circuit,
                                    [(test.scan_in, test.vectors)])
            return self._detect_lane(test, frames, 0, target)

    def _detect_lane(self, test: ScanTest, frames: Sequence[LaneFrame],
                     lane: int, target: Set[int]) -> Set[int]:
        """Faults of ``target`` that ``test``, riding in lane ``lane``
        of the good-machine ``frames``, detects."""
        remaining = set(target)
        detected: Set[int] = set()
        if test.length < 2 or not remaining:
            return detected
        bit = 1 << lane
        ff_d_ids = self.circuit.ff_d_ids
        packed = self._backend is not None
        vec_arr = self._backend._vec_array(test.vectors) if packed \
            else None
        for t in range(1, test.length):
            prev_zero, prev_one = frames[t - 1]
            cur_zero, cur_one = frames[t]
            launched: List[int] = []
            for fid in remaining:
                nid = self._nid[fid]
                if self.faults[fid].rising:
                    if prev_zero[nid] & cur_one[nid] & bit:
                        launched.append(fid)
                elif prev_one[nid] & cur_zero[nid] & bit:
                    launched.append(fid)
            if not launched:
                continue
            # The state the launch frame starts from: what frame t - 1
            # captured.
            state = lane_vector(frames[t - 1], ff_d_ids, lane)
            if packed:
                caught = self._capture_packed(test, state, t,
                                              sorted(launched), vec_arr)
            else:
                caught = self._capture_and_propagate(test, state, t,
                                                     sorted(launched))
            detected |= caught
            remaining -= caught
            if not remaining:
                break
        return detected

    def _capture_and_propagate(self, test: ScanTest, state: V.Vector,
                               launch: int,
                               launched: Sequence[int],
                               count: bool = True) -> Set[int]:
        """Bit-parallel check for one launch frame (scalar route).

        Frame ``launch`` starts from the good-machine ``state`` and is
        evaluated with the late-transition values forced
        (stuck-at-old); the resulting error state then runs through
        the remaining frames fault-free, observed at primary outputs
        each frame and at the final captured state.  ``count=False``
        suppresses the counter bumps (the sanitizer's shadow
        recomputation must not distort the measurements).
        """
        circuit = self.circuit
        detected: Set[int] = set()
        last = test.length - 1
        per = _SCALAR_WIDTH - 1
        for start in range(0, len(launched), per):
            group = launched[start:start + per]
            mask = (1 << (len(group) + 1)) - 1
            stems: Dict[int, Tuple[int, int]] = {}
            for pos, fid in enumerate(group):
                bit = 1 << (pos + 1)
                nid = self._nid[fid]
                # Slow-to-rise: value stays at old 0 -> stuck-at-0 now.
                m0, m1 = (bit, 0) if self.faults[fid].rising else (0, bit)
                old0, old1 = stems.get(nid, (0, 0))
                stems[nid] = (old0 | m0, old1 | m1)
            zero = [0] * circuit.n_nets
            one = [0] * circuit.n_nets
            for nid, val in zip(circuit.ff_ids, state):
                zero[nid], one[nid] = V.pack_scalar(val, mask)
            if count:
                self.counters.tdf_passes += 1
            frames_run = 0
            caught = 0
            for t in range(launch, test.length):
                for nid, val in zip(circuit.pi_ids, test.vectors[t]):
                    zero[nid], one[nid] = V.pack_scalar(val, mask)
                if t == launch:
                    for nid, (m0, m1) in stems.items():
                        keep = mask & ~(m0 | m1)
                        zero[nid] = (zero[nid] & keep) | m0
                        one[nid] = (one[nid] & keep) | m1
                    circuit.eval_frame(zero, one, mask, stems)
                else:
                    circuit.eval_frame(zero, one, mask)
                frames_run += 1
                for nid in circuit.po_ids:
                    caught |= _diff(zero[nid], one[nid])
                if t == last:
                    for nid in circuit.ff_d_ids:
                        caught |= _diff(zero[nid], one[nid])
                caught &= ~1
                if caught == mask & ~1:
                    break
                captured = [(zero[nid], one[nid])
                            for nid in circuit.ff_d_ids]
                for nid, (z, o) in zip(circuit.ff_ids, captured):
                    zero[nid], one[nid] = z, o
            if count:
                self.counters.tdf_words += frames_run
            for pos, fid in enumerate(group):
                if caught & (1 << (pos + 1)):
                    detected.add(fid)
        return detected

    # ------------------------------------------------------------------
    def _capture_packed(self, test: ScanTest, state: V.Vector,
                        launch: int,
                        launched: Sequence[int],
                        vec_arr: Any) -> Set[int]:
        """Kernel check for one launch frame (packed route).

        All launches go into one multi-word chunk: segment one runs
        just the launch frame with the late values forced through the
        injection-stem plan, segment two propagates fault-free through
        the remaining frames on the same arrays (the kernel's
        next-state write-back carries the error state across the
        boundary).  Saturation in segment one means every lane is
        already caught and the suffix is skipped.
        """
        from ..sim import npsim
        backend = self._backend
        np = backend.np
        circuit = self.circuit
        last = test.length - 1
        group = list(launched)
        site_of: Dict[int, int] = {}
        bits0: List[List[int]] = []   # slow-to-rise: stuck-at-0 bits
        bits1: List[List[int]] = []   # slow-to-fall: stuck-at-1 bits
        for pos, fid in enumerate(group):
            nid = self._nid[fid]
            i = site_of.setdefault(nid, len(bits0))
            if i == len(bits0):
                bits0.append([])
                bits1.append([])
            (bits0 if self.faults[fid].rising else bits1)[i].append(
                pos + 1)
        plan = self._stem_plan(len(group), site_of, bits0, bits1)
        zero, one = backend._init_state(plan, state)
        W = plan.n_words
        caught_arr = np.zeros(W, dtype=np.uint64)
        ns_zero = np.zeros((max(1, len(circuit.ff_ids)), W),
                           dtype=np.uint64)
        ns_one = np.zeros_like(ns_zero)
        counters = self.counters
        counters.np_passes += 1
        counters.tdf_passes += 1
        status, _, frames_run = backend._kernel_segment(
            plan, zero, one, vec_arr, launch, launch, True,
            launch == last, ns_zero, ns_one, caught_arr)
        if launch < last and status != npsim._STATUS_SATURATED:
            plain = self._plain_plan(len(group))
            _, _, more = backend._kernel_segment(
                plain, zero, one, vec_arr, launch + 1, last, True,
                True, ns_zero, ns_one, caught_arr)
            frames_run += more
        counters.tdf_words += frames_run
        caught = V.array_to_word(caught_arr) & ~1
        detected = {fid for pos, fid in enumerate(group)
                    if caught & (1 << (pos + 1))}
        if sanitizer.enabled() and self._sanitize_spots_left > 0:
            self._sanitize_spots_left -= 1
            self._spot_check(test, state, launch, group, detected)
        return detected

    def _plain_plan(self, n_group: int) -> Any:
        """The stem-free propagation plan for a launch group of
        ``n_group`` faults (LRU-cached: it depends only on the word
        width, which depends only on the group size)."""
        plan = self._plain_plans.get(n_group)
        if plan is None:
            from ..sim import npsim
            # TDF injection only ever forces whole stems (see
            # _stem_plan), so the template chunk carries no sites.
            chunk = _Chunk(indices=list(range(n_group)),
                           mask=(1 << (n_group + 1)) - 1)
            plan = npsim._ChunkPlan(self._backend, chunk)
            self._plain_plans[n_group] = plan
            if len(self._plain_plans) > self._PLAIN_PLAN_CACHE_SIZE:
                self._plain_plans.popitem(last=False)
        else:
            self._plain_plans.move_to_end(n_group)
        return plan

    def _stem_plan(self, n_group: int, site_of: Dict[int, int],
                   bits0: Sequence[Sequence[int]],
                   bits1: Sequence[Sequence[int]]) -> Any:
        """The launch-frame plan for one group: the cached stem-free
        template shallow-copied with only the stem arrays patched.

        A full :class:`~repro.sim.npsim._ChunkPlan` rebuild per launch
        frame is the packed route's hot spot (per-net site tables and
        big-int row conversions each time); everything except the
        stems is a pure function of the group size, and the stem rows
        are set bit-by-bit straight into ``uint64`` words (``bits0`` /
        ``bits1`` hold the stuck-at-0 / stuck-at-1 machine-bit
        positions per stem site).  The copy's ``chunk`` still reports
        empty stems; the kernel reads only the patched arrays.  The
        per-net site table is a single reused buffer -- entries
        dirtied by the previous launch frame are cleared here, so the
        plan returned by the last call stays valid until the next
        one.
        """
        np = self._backend.np
        plan = copy.copy(self._plain_plan(n_group))
        plan._kptrs = None   # the template's casts point at its arrays
        site = self._stem_site_buf
        if site is None or len(site) != self.circuit.n_nets:
            site = np.full(self.circuit.n_nets, -1, dtype=np.int32)
            self._stem_site_buf = site
        for nid in self._stem_dirty:
            site[nid] = -1
        self._stem_dirty = list(site_of)
        W = plan.n_words
        n_sites = len(bits0)
        f0 = np.zeros((max(1, n_sites), W), dtype=np.uint64)
        f1 = np.zeros_like(f0)
        for i in range(n_sites):
            for b in bits0[i]:
                f0[i, b >> 6] |= np.uint64(1 << (b & 63))
            for b in bits1[i]:
                f1[i, b >> 6] |= np.uint64(1 << (b & 63))
        for nid, i in site_of.items():
            site[nid] = i
        plan.stem_site = site
        plan.st_f0 = f0
        plan.st_f1 = f1
        plan.st_keep = plan.mask[None, :] & ~(f0 | f1)
        src = [nid for nid in site_of if nid in self._src_ids]
        plan.src_stem_ids = np.asarray(src, dtype=np.int32)
        plan.src_stem_site = np.asarray(
            [site_of[nid] for nid in src], dtype=np.int32)
        return plan

    def _spot_check(self, test: ScanTest, state: V.Vector,
                    launch: int, group: Sequence[int],
                    detected: Set[int]) -> None:
        """Scalar shadow recomputation of one packed capture."""
        scalar = self._capture_and_propagate(test, state, launch, group,
                                             count=False)
        if scalar != detected:
            sanitizer.report_violation(
                "delay-agreement",
                f"packed/scalar TDF mismatch at launch frame "
                f"{launch}: packed {sorted(detected)}, scalar "
                f"{sorted(scalar)}")

    # ------------------------------------------------------------------
    def detect_test_set(self, test_set: ScanTestSet) -> Set[int]:
        """Union of transition faults detected across a test set.

        One lane-batched good-machine pass serves every test of the
        set; tests shorter than two vectors launch nothing and are
        left out of it.
        """
        remaining = set(range(len(self.faults)))
        detected: Set[int] = set()
        with self.counters.phase_timer("tdf"):
            tests = [test for test in test_set if test.length >= 2]
            frames = simulate_lanes(
                self.circuit, [(t.scan_in, t.vectors) for t in tests])
            for lane, test in enumerate(tests):
                if not remaining:
                    break
                caught = self._detect_lane(test, frames, lane, remaining)
                detected |= caught
                remaining -= caught
        return detected

    def coverage_percent(self, test_set: ScanTestSet) -> float:
        """Transition-fault coverage of a test set, in percent."""
        if not self.faults:
            return 0.0
        return 100.0 * len(self.detect_test_set(test_set)) / \
            len(self.faults)


def _diff(zero: int, one: int) -> int:
    """Machines whose binary value differs from the good bit-0 value."""
    if one & 1:
        return zero
    if zero & 1:
        return one
    return 0
