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
hold the two values of the transition.  A fault one test detects is
not graded on the later ones.  The circuit decides the route:

* **packed** (when the circuit has an array backend): the trail is
  converted once into ``uint64`` arrays and each test's launches --
  a launch is a fault and a frame that launches it -- are listed
  with numpy in frame order.  Every launch is its own faulty
  machine.  A dense pass takes the next ``FUSED_CAP - 1`` launches
  of the test (skipping faults an earlier pass detected), starts at
  its first launch frame from the good state the trail holds, and
  runs to the end of the test in one call of the C pass kernel of
  :mod:`repro.sim.npsim`.  The simulator's fault-site table (built
  once) makes a launch a stem site forcing the transition's initial
  value, and the pass's machine list gives each machine its launch
  frame, the only frame it forces in; every pass runs in one kernel
  store the simulator keeps.  Primary
  outputs are observed every frame and the scan-out at the last; a
  machine matches the good one until it is forced, so it can only
  be caught from its launch frame on.
* **scalar** (otherwise): the launches of one frame at a time, at
  most ``_SCALAR_WIDTH - 1`` faults per Python big-int word, each
  word run from that frame's good state to the end of the test, one
  ``eval_frame`` call per frame -- exactly the semantics of the
  stuck-at big-int path.

A fault is detected when any of its launches is, and every machine
evolves in its own bit-lane while the saturation break only fires
once *all* are caught, so the two routes are byte-identical;
``tests/delay/test_transition.py`` proves it against the reference
circuit with hypothesis equivalence suites, and -- under
``REPRO_SANITIZE=1`` -- the packed route recomputes its first few
passes on the scalar route, one launch frame at a time, reporting
``delay-agreement`` violations through
:mod:`repro.analysis.sanitizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis import sanitizer
from ..circuits.netlist import Netlist
from ..core.scan_test import ScanTest, ScanTestSet
from ..sim import fault_sim, npsim
from ..sim import values as V
from ..sim.counters import SimCounters
from ..sim.logicsim import (CompiledCircuit, LaneFrame, lane_vector,
                            simulate_lanes)

#: Packed passes cross-checked against the scalar route per simulator
#: when the sanitizer is armed.
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

    Launches are graded on the packed route when the circuit has an
    array backend and on the scalar route otherwise; :attr:`route`
    reports which.  Pass the workbench's shared
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
        self._backend = circuit.array_backend
        self.route = "packed" if self._backend is not None else "scalar"
        if self._backend is not None:
            np = self._backend.np
            self._nids = np.asarray(self._nid, dtype=np.intp)
            self._rising = np.asarray([f.rising for f in self.faults],
                                      dtype=bool)
            # A launch forces its stem to the transition's initial
            # value; every dense pass shares one kernel store.
            self._store = self._backend.store(self._backend.site_table(
                [(npsim.SITE_STEM, nid, 0, 0 if f.rising else 1)
                 for nid, f in zip(self._nid, self.faults)]),
                self.counters)
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET

    # ------------------------------------------------------------------
    def detect_test(self, test: ScanTest,
                    target: Optional[Set[int]] = None) -> Set[int]:
        """Transition-fault indices detected by one scan test.

        Raises
        ------
        ValueError
            If ``target`` holds an index outside the fault list, or
            the test does not fit the circuit.
        """
        n_faults = len(self.faults)
        if target is None:
            target = set(range(n_faults))
        outside = [i for i in target if not 0 <= i < n_faults]
        if outside:
            raise ValueError(f"transition-fault target {outside[0]} "
                             f"outside the {n_faults} faults")
        with self.counters.phase_timer("tdf"):
            frames = simulate_lanes(self.circuit,
                                    [(test.scan_in, test.vectors)])
            return self._detect_tests([test], frames, target)

    def _detect_tests(self, tests: Sequence[ScanTest],
                      frames: Sequence[LaneFrame],
                      target: Iterable[int]) -> Set[int]:
        """Faults of ``target`` that ``tests``, test ``k`` riding in
        lane ``k`` of the good-machine ``frames``, detect; a fault one
        test detects is not graded again on the later ones."""
        if self._backend is None:
            remaining = set(target)
            detected: Set[int] = set()
            for lane, test in enumerate(tests):
                if not remaining:
                    break
                caught = self._detect_lane(test, frames, lane, remaining)
                detected |= caught
                remaining -= caught
            return detected
        np = self._backend.np
        wanted = np.zeros(len(self.faults), dtype=bool)
        wanted[list(target)] = True
        alive = wanted.copy()
        trail = _trail_arrays(np, frames, len(tests))
        for lane, test in enumerate(tests):
            if not alive.any():
                break
            if test.length >= 2:
                self._grade_dense(test, frames, trail, lane, alive)
        return set(np.flatnonzero(wanted & ~alive).tolist())

    def _detect_lane(self, test: ScanTest, frames: Sequence[LaneFrame],
                     lane: int, target: Set[int]) -> Set[int]:
        """Faults of ``target`` that ``test``, riding in lane ``lane``
        of the good-machine ``frames``, detects (scalar route)."""
        remaining = set(target)
        detected: Set[int] = set()
        if test.length < 2 or not remaining:
            return detected
        bit = 1 << lane
        ff_d_ids = self.circuit.ff_d_ids
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
    def _grade_dense(self, test: ScanTest, frames: Sequence[LaneFrame],
                     trail: Tuple[Any, Any], lane: int,
                     alive: Any) -> None:
        """Grade ``test``, riding in lane ``lane`` of the good-machine
        trail, against the faults ``alive`` marks, and clear the ones
        it detects (packed route).

        Every launch -- a fault and a frame in which the test launches
        it -- is its own machine.  The launches are taken in frame
        order, at most ``FUSED_CAP - 1`` to a pass, and a pass skips
        the faults an earlier one detected.
        """
        np = self._backend.np
        word, shift = divmod(lane, 64)
        zero, one = (((rows[:test.length, :, word] >> np.uint64(shift)) &
                      np.uint64(1)).astype(bool) for rows in trail)
        fids = np.flatnonzero(alive)
        nids = self._nids[fids]
        rise = zero[:-1, nids] & one[1:, nids]
        fall = one[:-1, nids] & zero[1:, nids]
        frame, k = np.nonzero(np.where(self._rising[fids], rise, fall))
        at, fid = frame + 1, fids[k]
        vectors = np.asarray(test.vectors, dtype=np.uint8).reshape(
            test.length, -1)
        cap = fault_sim.FUSED_CAP - 1
        while len(fid):
            pending = alive[fid]
            at, fid = at[pending], fid[pending]
            if len(fid):
                caught = self._dense_pass(test, frames, (zero, one), lane,
                                          vectors, at[:cap], fid[:cap])
                alive[caught] = False
                at, fid = at[cap:], fid[cap:]

    def _dense_pass(self, test: ScanTest, frames: Sequence[LaneFrame],
                    lane_bits: Tuple[Any, Any], lane: int, vectors: Any,
                    at: Any, fid: Any) -> Any:
        """One kernel pass over the launches ``(at[i], fid[i])``, in
        frame order; returns the faults it detects.

        Machine bit ``i + 1`` is launch ``i``: fault ``fid[i]`` of the
        site table, forcing only in pass frame ``at[i] - a``.  The pass
        starts at the first launch frame ``a`` from the good state
        frame ``a - 1`` captured (X where the good machine holds X),
        observes the POs every frame and the scan-out at the last, and
        stops once every machine is caught.
        """
        np = self._backend.np
        start = int(at[0])
        n_frames = test.length - start
        store = self._store
        store.bind(fid, frames=at - start)
        zero, one = (rows[start - 1, self.circuit.ff_d_ids]
                     for rows in lane_bits)
        store.load_scan_in(np.where(zero, V.ZERO, np.where(one, V.ONE,
                                                           V.X)))
        store.load_vectors(vectors[start:])
        self.counters.tdf_passes += 1
        self.counters.tdf_words += store.run(n_frames, True, True, None)
        hit = self._caught(store)
        if sanitizer.enabled() and self._sanitize_spots_left > 0:
            self._sanitize_spots_left -= 1
            self._spot_check(test, frames, lane, at, fid, hit)
        return fid[hit]

    @staticmethod
    def _caught(store: Any) -> Any:
        """The pass positions of the launches a dense pass caught."""
        return store.bits(store.caught) - 1

    def _spot_check(self, test: ScanTest, frames: Sequence[LaneFrame],
                    lane: int, at: Any, fid: Any, hit: Any) -> None:
        """Scalar shadow recomputation of one dense pass, one launch
        frame at a time, each from the good state its previous frame
        captured."""
        caught = set(zip(at[hit].tolist(), fid[hit].tolist()))
        for t in sorted(set(at.tolist())):
            launched = fid[at == t].tolist()
            state = lane_vector(frames[t - 1], self.circuit.ff_d_ids, lane)
            scalar = self._capture_and_propagate(test, state, t, launched,
                                                 count=False)
            packed = {f for f in launched if (t, f) in caught}
            if scalar != packed:
                sanitizer.report_violation(
                    "delay-agreement",
                    f"packed/scalar TDF mismatch at launch frame {t}: "
                    f"packed {sorted(packed)}, scalar {sorted(scalar)}")

    # ------------------------------------------------------------------
    def detect_test_set(self, test_set: ScanTestSet) -> Set[int]:
        """Union of transition faults detected across a test set.

        One lane-batched good-machine pass serves every test of the
        set; tests shorter than two vectors launch nothing and are
        left out of it.
        """
        with self.counters.phase_timer("tdf"):
            tests = [test for test in test_set if test.length >= 2]
            frames = simulate_lanes(
                self.circuit, [(t.scan_in, t.vectors) for t in tests])
            return self._detect_tests(tests, frames,
                                      range(len(self.faults)))

    def coverage_percent(self, test_set: ScanTestSet) -> float:
        """Transition-fault coverage of a test set, in percent."""
        if not self.faults:
            return 0.0
        return 100.0 * len(self.detect_test_set(test_set)) / \
            len(self.faults)


def _trail_arrays(np: Any, frames: Sequence[LaneFrame],
                  n_lanes: int) -> Tuple[Any, Any]:
    """A lane pass's frames as ``(frames, nets, lane words)`` uint64
    ``zero`` and ``one`` arrays (lane ``k`` in bit ``k % 64`` of word
    ``k // 64``), converted one frame at a time."""
    n_words = max(1, (n_lanes + 63) // 64)
    n_nets = len(frames[0][0]) if frames else 0
    zero = np.empty((len(frames), n_nets, n_words), dtype=np.uint64)
    one = np.empty_like(zero)
    for f, (z, o) in enumerate(frames):
        zero[f] = npsim._rows_array(np, z, n_words)
        one[f] = npsim._rows_array(np, o, n_words)
    return zero, one


def _diff(zero: int, one: int) -> int:
    """Machines whose binary value differs from the good bit-0 value."""
    if one & 1:
        return zero
    if zero & 1:
        return one
    return 0
