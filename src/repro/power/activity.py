"""Bit-parallel switching-activity engine for scan tests.

Shift power: the weighted transition metric
-------------------------------------------
During scan, every pair of adjacent opposite values in the shifted
vector is a *transition* that toggles scan cells as it travels along
the chain.  The weighted transition metric (WTM) weights each
transition by how many shift cycles it spends inside the chain
(Sankaralingam et al.; see arXiv:1106.2794 for the surrounding
power-aware scan literature).

This repo's chain convention (see :mod:`repro.core.tester`): the chain
follows flip-flop declaration order; scan-in enters FF0 and values
move FF0 -> FF(L-1); the scan-in vector is fed last-bit-first so bit
``k`` of a scan vector ends up in flip-flop ``k``.  Consequently, for
a chain of length ``L``:

* scan-in: the transition between ``s[k]`` and ``s[k+1]`` enters at
  FF0 and must travel until ``s[k+1]`` reaches FF ``k+1``, so it is
  alive for ``k+1`` of the ``L`` shift cycles::

      WTM_in(s)  = sum_{k=0}^{L-2} (s[k] XOR s[k+1]) * (k + 1)

* scan-out: the captured response exits at FF(L-1); the transition
  between ``r[j]`` and ``r[j+1]`` stays in the chain until ``r[j+1]``
  has left, i.e. for ``L-1-j`` cycles::

      WTM_out(r) = sum_{j=0}^{L-2} (r[j] XOR r[j+1]) * (L - 1 - j)

A transition involving an X contributes 0 (the tester may fill it
arbitrarily; we score only the guaranteed activity).  Both metrics are
computed bit-parallel: the vector is packed into ``ones``/``defined``
big-int masks, the transition positions fall out of one shifted XOR,
and only the set bits are walked for the weighted sum.

Capture (functional) power
--------------------------
For the functional cycles of a test we count *good-machine toggles*:
the number of nets whose value changes between consecutive frames.
All tests still to be measured share one lane-batched good-machine
pass (:func:`repro.sim.logicsim.simulate_lanes`, test ``k`` in lane
``k``), so one word per net says which tests toggle it between two
frames.  A bit-sliced counter sums those words over the nets -- word
``i`` of the counter holds bit ``i`` of every lane's count, and each
net's word is added with lane-parallel carries -- and the per-test
counts are read out of the lanes at the end.  A net that is X in
either frame never counts.  A test applying ``m`` vectors yields
``m - 1`` toggle counts (single-vector tests score 0: there is no
consecutive functional frame pair).

Sanitizer hook
--------------
Under ``REPRO_SANITIZE=1`` the engine spot-checks its first few
bit-parallel measurements against a direct scalar recomputation and
reports ``power-agreement`` violations through
:mod:`repro.analysis.sanitizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis import sanitizer
from ..core.scan_test import ScanTest, ScanTestSet
from ..sim import values as V
from ..sim.counters import SimCounters
from ..sim.logicsim import (CompiledCircuit, LaneFrame, lane_vector,
                            simulate_lanes)

#: Bit-parallel measurements cross-checked against a scalar
#: recomputation per engine when the sanitizer is armed.
_SANITIZE_SPOT_BUDGET = 3


def _pack_scan(vector: Sequence[int]) -> Tuple[int, int]:
    """Pack a scan vector into ``(ones, defined)`` masks, bit k = s[k]."""
    ones = 0
    defined = 0
    for k, value in enumerate(vector):
        if value == V.ONE:
            ones |= 1 << k
            defined |= 1 << k
        elif value == V.ZERO:
            defined |= 1 << k
    return ones, defined


def _transition_mask(vector: Sequence[int]) -> int:
    """Bit ``k`` set iff ``s[k] != s[k+1]`` with both bits defined."""
    length = len(vector)
    if length < 2:
        return 0
    ones, defined = _pack_scan(vector)
    window = (1 << (length - 1)) - 1
    return ((ones ^ (ones >> 1)) & defined & (defined >> 1) & window)


def scan_in_wtm(vector: Sequence[int]) -> int:
    """WTM of shifting ``vector`` *into* the chain (weight ``k + 1``)."""
    trans = _transition_mask(vector)
    total = 0
    while trans:
        low = trans & -trans
        total += low.bit_length()  # bit k set -> weight k + 1
        trans ^= low
    return total


def scan_out_wtm(vector: Sequence[int]) -> int:
    """WTM of shifting ``vector`` *out of* the chain
    (weight ``L - 1 - j``)."""
    trans = _transition_mask(vector)
    length = len(vector)
    total = 0
    while trans:
        low = trans & -trans
        total += length - low.bit_length()  # bit j -> L - 1 - j
        trans ^= low
    return total


@dataclass
class TestPower:
    """Power profile of one :class:`~repro.core.scan_test.ScanTest`.

    Attributes
    ----------
    scan_in_wtm / scan_out_wtm:
        WTM of the test's scan-in shift and of scanning out its final
        state.
    peak_capture / total_capture:
        Maximum and sum of good-machine net-toggle counts between
        consecutive functional frames (0 for single-vector tests).
    frames:
        Number of functional frames (vectors applied).
    """

    scan_in_wtm: int
    scan_out_wtm: int
    peak_capture: int
    total_capture: int
    frames: int

    @property
    def peak_shift_wtm(self) -> int:
        """The worse of the scan-in and scan-out shift WTMs."""
        return max(self.scan_in_wtm, self.scan_out_wtm)


@dataclass
class SetPowerSummary:
    """Aggregate power numbers for one test set (JSON-friendly)."""

    tests: int = 0
    peak_shift_wtm: int = 0
    avg_shift_wtm: float = 0.0
    peak_capture: int = 0
    avg_capture: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "tests": self.tests,
            "peak_shift_wtm": self.peak_shift_wtm,
            "avg_shift_wtm": round(self.avg_shift_wtm, 2),
            "peak_capture": self.peak_capture,
            "avg_capture": round(self.avg_capture, 2),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SetPowerSummary":
        return cls(
            tests=int(data.get("tests", 0)),
            peak_shift_wtm=int(data.get("peak_shift_wtm", 0)),
            avg_shift_wtm=float(data.get("avg_shift_wtm", 0.0)),
            peak_capture=int(data.get("peak_capture", 0)),
            avg_capture=float(data.get("avg_capture", 0.0)),
        )


@dataclass
class SetPower:
    """Per-test power profiles for a whole test set."""

    tests: List[TestPower] = field(default_factory=list)

    def summary(self) -> SetPowerSummary:
        """Aggregate: peaks are maxima over tests, averages are means
        of the per-test peaks."""
        if not self.tests:
            return SetPowerSummary()
        shift = [t.peak_shift_wtm for t in self.tests]
        capture = [t.peak_capture for t in self.tests]
        return SetPowerSummary(
            tests=len(self.tests),
            peak_shift_wtm=max(shift),
            avg_shift_wtm=sum(shift) / len(shift),
            peak_capture=max(capture),
            avg_capture=sum(capture) / len(capture),
        )


@dataclass
class PowerReport:
    """Power measurements attached to a circuit run.

    ``sets`` maps a test-set label (e.g. ``"seqgen"``, ``"random"``,
    ``"baseline4"``) to its :class:`SetPowerSummary`; ``x_fill`` and
    ``budget`` record the knobs the run was produced with.
    """

    x_fill: str = "random"
    budget: Optional[float] = None
    sets: Dict[str, SetPowerSummary] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "x_fill": self.x_fill,
            "budget": self.budget,
            "sets": {name: summary.as_dict()
                     for name, summary in sorted(self.sets.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PowerReport":
        sets_raw = data.get("sets", {}) or {}
        return cls(
            x_fill=str(data.get("x_fill", "random")),
            budget=(None if data.get("budget") is None
                    else float(data["budget"])),  # type: ignore[arg-type]
            sets={name: SetPowerSummary.from_dict(summary)
                  for name, summary in sets_raw.items()},  # type: ignore[union-attr]
        )


class ActivityEngine:
    """Bit-parallel power measurement over a compiled circuit.

    One engine per circuit; measurements are cached per
    :class:`~repro.core.scan_test.ScanTest` (tests hash by value), so
    the Phase-4 merge filter can score the same candidate merge many
    times for free.  Pass the workbench's shared
    :class:`~repro.sim.counters.SimCounters` to surface
    ``power_passes`` / ``power_words`` / ``power_s`` in the engine
    counters table.
    """

    def __init__(self, circuit: CompiledCircuit,
                 counters: Optional[SimCounters] = None) -> None:
        self.circuit = circuit
        self.counters = counters if counters is not None \
            else SimCounters()
        self._cache: Dict[ScanTest, TestPower] = {}
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET

    # ------------------------------------------------------------------
    def test_power(self, test: ScanTest) -> TestPower:
        """Measure one scan test (cached)."""
        with self.counters.phase_timer("power"):
            self._measure([test])
            return self._cache[test]

    def set_power(self, tests: Iterable[ScanTest]) -> SetPower:
        """Measure a whole test set (accepts a
        :class:`~repro.core.scan_test.ScanTestSet` or any iterable of
        tests)."""
        if isinstance(tests, ScanTestSet):
            tests = tests.tests
        tests = list(tests)
        with self.counters.phase_timer("power"):
            self.counters.power_passes += 1
            self._measure(tests)
            return SetPower([self._cache[t] for t in tests])

    # ------------------------------------------------------------------
    def _measure(self, tests: Sequence[ScanTest]) -> None:
        """Measure and cache every distinct uncached test of ``tests``
        in one lane pass."""
        todo = list(dict.fromkeys(t for t in tests if t not in self._cache))
        if not todo:
            return
        circuit = self.circuit
        frames = simulate_lanes(circuit,
                                [(t.scan_in, t.vectors) for t in todo])
        lengths = [t.length for t in todo]
        for lane, (test, toggles) in enumerate(
                zip(todo, _lane_toggles(frames, lengths))):
            state = lane_vector(frames[test.length - 1], circuit.ff_d_ids,
                                lane)
            result = TestPower(
                scan_in_wtm=scan_in_wtm(test.scan_in),
                scan_out_wtm=scan_out_wtm(state),
                peak_capture=max(toggles) if toggles else 0,
                total_capture=sum(toggles),
                frames=test.length,
            )
            self.counters.power_words += test.length
            if sanitizer.enabled() and self._sanitize_spots_left > 0:
                self._sanitize_spots_left -= 1
                self._spot_check(test, state, toggles, result)
            self._cache[test] = result

    # ------------------------------------------------------------------
    def _spot_check(self, test: ScanTest, scan_out: V.Vector,
                    toggles: List[int], result: TestPower) -> None:
        """Scalar shadow recomputation of the bit-parallel numbers."""
        if result.scan_in_wtm != _scalar_wtm_in(test.scan_in):
            sanitizer.report_violation(
                "power-agreement",
                f"scan-in WTM mismatch: bit-parallel "
                f"{result.scan_in_wtm}, scalar "
                f"{_scalar_wtm_in(test.scan_in)} for "
                f"{V.vec_str(test.scan_in)}")
        if result.scan_out_wtm != _scalar_wtm_out(scan_out):
            sanitizer.report_violation(
                "power-agreement",
                f"scan-out WTM mismatch: bit-parallel "
                f"{result.scan_out_wtm}, scalar "
                f"{_scalar_wtm_out(scan_out)} for "
                f"{V.vec_str(scan_out)}")
        scalar = _scalar_capture_toggles(self.circuit, test)
        if scalar != toggles:
            sanitizer.report_violation(
                "power-agreement",
                f"capture toggle mismatch: bit-parallel {toggles}, "
                f"scalar {scalar}")


def _lane_toggles(frames: Sequence[LaneFrame],
                  lengths: Sequence[int]) -> List[List[int]]:
    """Per-lane toggle counts of a lane pass: entry ``f - 1`` of lane
    ``k``'s list counts the nets whose binary value differs between
    frames ``f - 1`` and ``f``, for ``1 <= f < lengths[k]``.

    The nets' toggle words are summed by a bit-sliced counter:
    ``planes[i]`` holds bit ``i`` of every lane's count, and adding a
    word ripples its carries up the planes lane-parallel.
    """
    out: List[List[int]] = [[] for _ in lengths]
    for f in range(1, len(frames)):
        prev_zero, prev_one = frames[f - 1]
        cur_zero, cur_one = frames[f]
        planes: List[int] = []
        for pz, po, cz, co in zip(prev_zero, prev_one, cur_zero, cur_one):
            carry = (po & cz) | (pz & co)
            i = 0
            while carry:
                if i == len(planes):
                    planes.append(carry)
                    break
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                i += 1
        for lane, length in enumerate(lengths):
            if f < length:
                count = 0
                for i, plane in enumerate(planes):
                    count |= ((plane >> lane) & 1) << i
                out[lane].append(count)
    return out


# ----------------------------------------------------------------------
# Scalar shadows (sanitizer cross-checks and unit-test oracles).

def _scalar_wtm_in(vector: Sequence[int]) -> int:
    total = 0
    for k in range(len(vector) - 1):
        a, b = vector[k], vector[k + 1]
        if a != b and a != V.X and b != V.X:
            total += k + 1
    return total


def _scalar_wtm_out(vector: Sequence[int]) -> int:
    length = len(vector)
    total = 0
    for j in range(length - 1):
        a, b = vector[j], vector[j + 1]
        if a != b and a != V.X and b != V.X:
            total += length - 1 - j
    return total


def _scalar_capture_toggles(circuit: CompiledCircuit,
                            test: ScanTest) -> List[int]:
    """Per-frame-pair toggle counts via per-net scalar extraction."""
    zero = [0] * circuit.n_nets
    one = [0] * circuit.n_nets
    for nid, val in zip(circuit.ff_ids, test.scan_in):
        zero[nid], one[nid] = V.pack_scalar(val, 1)
    frames: List[Tuple[int, ...]] = []
    for vector in test.vectors:
        for nid, val in zip(circuit.pi_ids, vector):
            zero[nid], one[nid] = V.pack_scalar(val, 1)
        circuit.eval_frame(zero, one, 1)
        frames.append(tuple(V.word_scalar(zero[nid], one[nid])
                            for nid in range(circuit.n_nets)))
        state = tuple(V.word_scalar(zero[nid], one[nid])
                      for nid in circuit.ff_d_ids)
        for nid, val in zip(circuit.ff_ids, state):
            zero[nid], one[nid] = V.pack_scalar(val, 1)
    out: List[int] = []
    for prev, cur in zip(frames, frames[1:]):
        out.append(sum(1 for a, b in zip(prev, cur)
                       if a != b and a != V.X and b != V.X))
    return out
