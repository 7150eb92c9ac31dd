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

Simulation
----------
Launches are read off one lane-batched good-machine pass
(:func:`repro.sim.logicsim.simulate_lanes`): a whole test set runs at
once, test ``k`` in lane ``k``, and a net launches in frame ``t`` of
test ``k`` when lane ``k`` of its frame-``t-1`` and frame-``t`` words
hold the two values of the transition.  A fault one test detects is
not graded on the later ones.

The trail is converted once into net-major bytes, one blob per rail,
and each test's launches -- a launch is a fault and a frame that
launches it -- are listed in frame order from its lane's bits, read
into Python ints a byte per net and frame.  Every launch is its own
faulty machine.  A dense pass takes the next ``FUSED_CAP - 1``
launches of the test (skipping faults an earlier pass detected),
starts at its first launch frame from the good state the trail
holds, and runs to the end of the test in one pass store of
:mod:`repro.sim.fault_sim`: the C kernel's (:mod:`repro.sim.npsim`)
when the circuit has an array backend, else a big-int word arena,
the same passes either way.  The simulator's fault-site rows (built
once) make a launch a stem site forcing the transition's initial
value, and the pass's machine list gives each machine its launch
frame, the only frame it forces in; every pass runs in one store the
simulator keeps.  Primary outputs are observed every frame and the
scan-out at the last; a machine matches the good one until it is
forced, so it can only be caught from its launch frame on.

A fault is detected when any of its launches is.
``tests/delay/test_transition.py`` checks the passes against a serial
oracle, one fault and one launch frame at a time, and against the
reference circuit with hypothesis equivalence suites; under
``REPRO_SANITIZE=1`` the first few passes re-run one launch frame at a
time on a simulator over the reference circuit, reporting
``delay-agreement`` violations through :mod:`repro.analysis.sanitizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..analysis import sanitizer
from ..circuits.netlist import Netlist
from ..core.scan_test import ScanTest, ScanTestSet
from ..sim import fault_sim
from ..sim.counters import SimCounters
from ..sim.fault_sim import _set_bits
from ..sim.logicsim import (CompiledCircuit, LaneFrame, lane_vector,
                            simulate_lanes)

#: Dense passes cross-checked against the reference circuit per
#: simulator when the sanitizer is armed.
_SANITIZE_SPOT_BUDGET = 3

#: Per bit ``j``, the byte translation that reads bit ``j`` of every
#: byte as 0 or 1.
_LANE_BIT = tuple(bytes((i >> j) & 1 for i in range(256)) for j in range(8))

#: The byte translation that reads every nonzero byte as 1.
_NONZERO = bytes(int(i != 0) for i in range(256))


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

    Its dense passes run on the circuit's pass store: the C kernel's
    when the circuit has an array backend, else a big-int word arena.
    :attr:`route` names that store, ``"packed"`` or ``"scalar"``.  Pass
    the workbench's shared :class:`~repro.sim.counters.SimCounters` to
    surface ``tdf_passes`` / ``tdf_words`` / ``tdf_s`` in the engine
    counters table.
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
        #: Whether the sanitizer is armed, sampled once, here.
        self._sanitize = sanitizer.enabled()
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET
        self._shadow: Optional[TransitionSim] = None
        n_nets = circuit.n_nets
        rising: List[List[int]] = [[] for _ in range(n_nets)]
        falling: List[List[int]] = [[] for _ in range(n_nets)]
        for fid, (nid, f) in enumerate(zip(self._nid, self.faults)):
            (rising if f.rising else falling)[nid].append(fid)
        #: Per launch byte (1 rising, 2 falling: a fault of kind ``k``
        #: is byte ``1 << k``) and net, the faults of that kind on the
        #: net.  A net never rises and falls at once.
        self._launch_faults: Tuple[List[Tuple[int, ...]], ...] = (
            [()] * n_nets, [tuple(r) for r in rising],
            [tuple(f) for f in falling])
        # A launch forces its stem to the transition's initial value;
        # every dense pass shares one store.
        sites = [(fault_sim.SITE_STEM, nid, 0, 0 if f.rising else 1)
                 for nid, f in zip(self._nid, self.faults)]
        backend: Any = circuit.array_backend
        #: The store the dense passes run on: ``"packed"`` for the C
        #: kernel's, ``"scalar"`` for a big-int word arena.
        self.route = "scalar" if backend is None else "packed"
        self._store: Any = (
            fault_sim._WordArena(circuit, sites) if backend is None
            else backend.store(backend.site_table(sites), self.counters))

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
        wanted = set(target)
        live = _Live(self, wanted)
        trail = _Trail(frames, len(tests))
        for lane, test in enumerate(tests):
            if not live.n_alive:
                break
            if test.length >= 2:
                self._grade_dense(test, frames, trail, lane, live)
        return {fid for fid in wanted if not live.alive[fid]}

    # ------------------------------------------------------------------
    def _grade_dense(self, test: ScanTest, frames: Sequence[LaneFrame],
                     trail: _Trail, lane: int, live: _Live) -> None:
        """Grade ``test``, riding in lane ``lane`` of the good-machine
        trail, against the faults ``live`` holds alive, and kill the
        ones it detects.

        Every launch -- a fault and a frame in which the test launches
        it -- is its own machine.  The launches are taken in frame
        order, faults ascending within a frame, at most ``FUSED_CAP -
        1`` to a pass, and a pass skips the faults an earlier one
        detected.
        """
        at, fids = live.launches(trail, lane, test.length)
        cap = fault_sim.FUSED_CAP - 1
        alive = live.alive
        while fids:
            if not all(map(alive.__getitem__, fids)):
                keep = [i for i, fid in enumerate(fids) if alive[fid]]
                at, fids = [at[i] for i in keep], [fids[i] for i in keep]
                if not fids:
                    break
            live.kill(self._dense_pass(test, frames, lane, at[:cap],
                                       fids[:cap]))
            at, fids = at[cap:], fids[cap:]

    def _dense_pass(self, test: ScanTest, frames: Sequence[LaneFrame],
                    lane: int, at: Sequence[int],
                    fids: Sequence[int]) -> List[int]:
        """One pass over the launches ``(at[i], fids[i])``, in frame
        order; returns the faults it detects.

        Machine bit ``i + 1`` is launch ``i``: fault ``fids[i]`` of the
        site rows, forcing only in pass frame ``at[i] - a``.  The pass
        starts at the first launch frame ``a`` from the good state
        frame ``a - 1`` captured (X where the good machine holds X),
        observes the POs every frame and the scan-out at the last, and
        stops once every machine is caught.
        """
        start = at[0]
        store = self._store
        store.bind(fids, frames=[t - start for t in at])
        store.load_scan_in(lane_vector(frames[start - 1],
                                       self.circuit.ff_d_ids, lane))
        store.load_vectors(test.vectors[start:])
        self.counters.tdf_passes += 1
        self.counters.tdf_words += store.run(test.length - start, True,
                                             True, None)
        hit = self._caught(store)
        if self._sanitize and self._sanitize_spots_left > 0:
            self._sanitize_spots_left -= 1
            self._spot_check(test, frames, lane, at, fids, hit)
        return [fids[i] for i in hit]

    @staticmethod
    def _caught(store: fault_sim._Store) -> List[int]:
        """The pass positions of the launches a dense pass caught."""
        return [b - 1 for b in _set_bits(store.caught)]

    def _spot_check(self, test: ScanTest, frames: Sequence[LaneFrame],
                    lane: int, at: Sequence[int], fids: Sequence[int],
                    hit: Sequence[int]) -> None:
        """Re-run one dense pass one launch frame at a time, each from
        the good state its previous frame captured, on a shadow over
        the reference circuit (the interpreter, no array backend): it
        must catch the same launches.  The shadow is built once, keeps
        its own counters and runs no spot checks of its own."""
        shadow = self._shadow
        if shadow is None:
            shadow = self._shadow = TransitionSim(
                CompiledCircuit(self.circuit.netlist, _reference=True),
                self.faults)
            shadow._sanitize = False
        caught = {(at[i], fids[i]) for i in hit}
        for t in sorted(set(at)):
            launched = [fid for a, fid in zip(at, fids) if a == t]
            want = set(shadow._dense_pass(test, frames, lane,
                                          [t] * len(launched), launched))
            got = {f for f in launched if (t, f) in caught}
            if got != want:
                sanitizer.report_violation(
                    "delay-agreement",
                    f"dense TDF pass disagrees with the reference at "
                    f"launch frame {t}: dense {sorted(got)}, reference "
                    f"{sorted(want)}")

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


class _Trail:
    """A lane pass's frames as net-major bytes, one blob per rail: byte
    ``(f * n_nets + n) * size + lane // 8`` holds bit ``lane % 8`` of
    net ``n``'s lane word in frame ``f`` (``size`` bytes a word)."""

    def __init__(self, frames: Sequence[LaneFrame], n_lanes: int) -> None:
        self.size = size = max(1, (n_lanes + 7) // 8)
        self.n_nets = len(frames[0][0]) if frames else 0
        self.zero = b"".join([w.to_bytes(size, "little")
                              for z, _ in frames for w in z])
        self.one = b"".join([w.to_bytes(size, "little")
                             for _, o in frames for w in o])

    def lane(self, lane: int, length: int) -> Tuple[int, int]:
        """Lane ``lane``'s zero and one rails in frames ``0 .. length -
        1``, as ints whose bit ``8 * (f * n_nets + n)`` is net ``n``'s
        value in frame ``f``."""
        at, pick, size = lane // 8, _LANE_BIT[lane % 8], self.size
        end = length * self.n_nets * size
        return (int.from_bytes(self.zero[at:end:size].translate(pick),
                               "little"),
                int.from_bytes(self.one[at:end:size].translate(pick),
                               "little"))


class _Live:
    """The faults still alive in a grading: a flag per
    fault and, per kind (rising, falling), a byte per net that is 1
    while a fault of that kind on the net is alive."""

    def __init__(self, sim: TransitionSim, target: Iterable[int]) -> None:
        self.sim = sim
        self.alive = bytearray(len(sim.faults))
        self.n_alive = 0
        n_nets = sim.circuit.n_nets
        self.nets = (bytearray(n_nets), bytearray(n_nets))
        for fid in target:
            if not self.alive[fid]:
                self.alive[fid] = 1
                self.n_alive += 1
                self.nets[_kind(sim.faults[fid])][sim._nid[fid]] = 1

    def kill(self, fids: Iterable[int]) -> None:
        """Mark ``fids`` detected."""
        sim, alive = self.sim, self.alive
        for fid in fids:
            if alive[fid]:
                alive[fid] = 0
                self.n_alive -= 1
                kind, nid = _kind(sim.faults[fid]), sim._nid[fid]
                if not any(alive[g]
                           for g in sim._launch_faults[1 << kind][nid]):
                    self.nets[kind][nid] = 0

    def launches(self, trail: _Trail, lane: int,
                 length: int) -> Tuple[List[int], List[int]]:
        """The launches in frames ``1 .. length - 1`` of lane ``lane``
        on the nets and kinds of the alive faults, as two lists, the
        launch frames and the faults: in frame order, faults ascending
        within a frame.  A rising fault on net ``n`` launches in frame
        ``t`` when ``n`` is 0 in frame ``t - 1`` and 1 in frame ``t``; a
        falling one the other way round.  A detected fault that shares
        its net and kind with an alive one is listed too; the passes
        skip it."""
        n_nets = trail.n_nets
        zero, one = trail.lane(lane, length)
        rising, falling = (int.from_bytes(bytes(nets) * (length - 1),
                                          "little") for nets in self.nets)
        # Byte t * n_nets + n: bit 0 set when net n launches a rising
        # fault in frame t + 1, bit 1 a falling one.
        step = 8 * n_nets
        hits = ((zero & (one >> step) & rising) |
                ((one & (zero >> step) & falling) << 1)).to_bytes(
                    (length - 1) * n_nets, "little")
        faults_of = self.sim._launch_faults
        at: List[int] = []
        fids: List[int] = []
        find = hits.translate(_NONZERO).find
        for t in range(1, length):
            lo, hi = (t - 1) * n_nets, t * n_nets
            p = find(1, lo, hi)
            if p < 0:
                continue
            group: List[int] = []
            while p >= 0:
                group += faults_of[hits[p]][p - lo]
                p = find(1, p + 1, hi)
            group.sort()
            at += [t] * len(group)
            fids += group
        return at, fids


def _kind(fault: TransitionFault) -> int:
    """0 for a slow-to-rise fault, 1 for a slow-to-fall one."""
    return 0 if fault.rising else 1

