"""The paper benchmark suite: profiles mirroring the DAC-2001 tables.

The paper evaluates on ISCAS-89 and ITC-99 circuits.  Those netlists
are not redistributed here, so each profile builds a seeded synthetic
stand-in (see :mod:`repro.circuits.synth` and DESIGN.md section 5) with
the *original interface sizes* (PI / PO / FF counts) and a gate count
chosen so the collapsed fault count lands near the paper's.  The s27
entry is the exact ISCAS-89 netlist.

Two suite flavours:

* :func:`paper_suite` -- one profile per paper circuit we reproduce
  (small and mid-size rows of Tables 1-5).
* :func:`quick_suite` -- a fast subset for CI and the paper-shape tests.

The per-profile ``paper`` dict carries the numbers printed in the paper
so the experiment reports can show paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import library, synth
from .netlist import Netlist


@dataclass
class CircuitProfile:
    """One row of the experimental suite.

    Attributes
    ----------
    name:
        Suite-local circuit name (matches the paper's circuit column).
    builder:
        Zero-argument netlist factory.
    t0_length:
        Length of the random ``T0`` used in the Table-5 arm (the paper
        uses 1000 everywhere; quick profiles shrink it).
    seq_budget:
        Generation budget (max length) for the sequential-ATPG ``T0``.
    paper:
        The paper's published numbers for this circuit, for side-by-side
        reporting (keys: ``ff``, ``comb_tests``, ``faults``,
        ``t0_detected``, ``scan_detected``, ``final_detected``,
        ``t0_len``, ``scan_len``, ``added`` -- all optional).
    """

    name: str
    builder: Callable[[], Netlist]
    t0_length: int = 1000
    seq_budget: int = 500
    paper: Dict[str, int] = field(default_factory=dict)

    def build(self) -> Netlist:
        """Instantiate (and compile) the circuit."""
        return self.builder()


def _syn(paper_name: str, n_pi: int, n_po: int, n_ff: int,
         n_gates: int) -> Callable[[], Netlist]:
    def build() -> Netlist:
        return synth.paper_like(paper_name, n_pi, n_po, n_ff, n_gates)
    return build


# Interface sizes follow the original benchmarks; gate counts are scaled
# to keep pure-Python fault simulation tractable while preserving the
# FF-to-logic proportions that drive the compaction trade-off.
_PROFILES: List[CircuitProfile] = [
    CircuitProfile(
        "s27", library.s27, t0_length=200, seq_budget=120,
        paper={"ff": 3}),
    CircuitProfile(
        "s298", _syn("s298", 3, 6, 14, 110), t0_length=400, seq_budget=160,
        paper={"ff": 14, "comb_tests": 24, "faults": 308,
               "t0_detected": 265, "scan_detected": 279,
               "final_detected": 308, "t0_len": 117, "scan_len": 68,
               "added": 10, "cycles_23": 376, "cycles_4_init": 374,
               "cycles_4_comp": 318, "cycles_prop_init": 246,
               "cycles_prop_comp": 218, "atspeed_ave_4": 1.20,
               "atspeed_ave_prop": 8.67}),
    CircuitProfile(
        "s344", _syn("s344", 9, 11, 15, 130), t0_length=400, seq_budget=160,
        paper={"ff": 15, "comb_tests": 15, "faults": 342,
               "t0_detected": 329, "scan_detected": 339,
               "final_detected": 342, "t0_len": 57, "scan_len": 36,
               "added": 2, "cycles_23": 166, "cycles_4_init": 255,
               "cycles_4_comp": 195, "cycles_prop_init": 98,
               "cycles_prop_comp": 98, "atspeed_ave_4": 1.36,
               "atspeed_ave_prop": 12.67}),
    CircuitProfile(
        "s382", _syn("s382", 3, 6, 21, 120), t0_length=500, seq_budget=200,
        paper={"ff": 21, "comb_tests": 25, "faults": 399,
               "t0_detected": 364, "scan_detected": 379,
               "final_detected": 399, "t0_len": 516, "scan_len": 445,
               "added": 8, "cycles_4_init": 571, "cycles_4_comp": 529,
               "cycles_prop_init": 663, "cycles_prop_comp": 663,
               "atspeed_ave_4": 1.09, "atspeed_ave_prop": 50.33}),
    CircuitProfile(
        "s526", _syn("s526", 3, 6, 21, 160), t0_length=500, seq_budget=220,
        paper={"ff": 21, "comb_tests": 50, "faults": 555,
               "t0_detected": 454, "scan_detected": 480,
               "final_detected": 554, "t0_len": 1006, "scan_len": 694,
               "added": 24, "cycles_4_init": 1121, "cycles_4_comp": 995,
               "cycles_prop_init": 1264, "cycles_prop_comp": 1222,
               "atspeed_ave_4": 1.14, "atspeed_ave_prop": 31.22}),
    CircuitProfile(
        "s641", _syn("s641", 35, 24, 19, 170), t0_length=400, seq_budget=150,
        paper={"ff": 19, "comb_tests": 22, "faults": 467,
               "t0_detected": 404, "scan_detected": 412,
               "final_detected": 467, "t0_len": 101, "scan_len": 81,
               "added": 12, "cycles_4_init": 459, "cycles_4_comp": 326,
               "cycles_prop_init": 359, "cycles_prop_comp": 302,
               "atspeed_ave_4": 1.47, "atspeed_ave_prop": 9.30}),
    CircuitProfile(
        "s820", _syn("s820", 18, 19, 5, 180), t0_length=500, seq_budget=220,
        paper={"ff": 5, "comb_tests": 94, "faults": 850,
               "t0_detected": 814, "scan_detected": 818,
               "final_detected": 850, "t0_len": 491, "scan_len": 339,
               "added": 8, "cycles_23": 617, "cycles_4_init": 569,
               "cycles_4_comp": 309, "cycles_prop_init": 397,
               "cycles_prop_comp": 392, "atspeed_ave_4": 2.24,
               "atspeed_ave_prop": 43.38}),
    CircuitProfile(
        "b01", _syn("b01", 4, 2, 5, 45), t0_length=300, seq_budget=100,
        paper={"ff": 5, "comb_tests": 24, "faults": 135,
               "t0_detected": 133, "scan_detected": 135,
               "final_detected": 135, "t0_len": 66, "scan_len": 51,
               "added": 0, "cycles_4_init": 149, "cycles_4_comp": 54,
               "cycles_prop_init": 61, "cycles_prop_comp": 61,
               "atspeed_ave_4": 4.80, "atspeed_ave_prop": 51.00}),
    CircuitProfile(
        "b02", _syn("b02", 3, 1, 4, 26), t0_length=300, seq_budget=80,
        paper={"ff": 4, "comb_tests": 15, "faults": 70,
               "t0_detected": 68, "scan_detected": 69,
               "final_detected": 70, "t0_len": 45, "scan_len": 22,
               "added": 1, "cycles_4_init": 79, "cycles_4_comp": 41,
               "cycles_prop_init": 35, "cycles_prop_comp": 35,
               "atspeed_ave_4": 2.17, "atspeed_ave_prop": 11.50}),
    CircuitProfile(
        "b06", _syn("b06", 4, 6, 9, 55), t0_length=300, seq_budget=100,
        paper={"ff": 9, "comb_tests": 22, "faults": 202,
               "t0_detected": 186, "scan_detected": 198,
               "final_detected": 202, "t0_len": 37, "scan_len": 26,
               "added": 2, "cycles_4_init": 229, "cycles_4_comp": 101,
               "cycles_prop_init": 64, "cycles_prop_comp": 64,
               "atspeed_ave_4": 2.50, "atspeed_ave_prop": 9.33}),
    CircuitProfile(
        "b09", _syn("b09", 3, 1, 28, 120), t0_length=400, seq_budget=180,
        paper={"ff": 28, "comb_tests": 44, "faults": 420,
               "t0_detected": 339, "scan_detected": 350,
               "final_detected": 420, "t0_len": 279, "scan_len": 196,
               "added": 13, "cycles_4_init": 1304, "cycles_4_comp": 680,
               "cycles_prop_init": 629, "cycles_prop_comp": 573,
               "atspeed_ave_4": 1.64, "atspeed_ave_prop": 17.42}),
    CircuitProfile(
        "b10", _syn("b10", 12, 6, 17, 140), t0_length=400, seq_budget=160,
        paper={"ff": 17, "comb_tests": 82, "faults": 512,
               "t0_detected": 467, "scan_detected": 476,
               "final_detected": 512, "t0_len": 190, "scan_len": 103,
               "added": 18, "cycles_4_init": 1493, "cycles_4_comp": 514,
               "cycles_prop_init": 461, "cycles_prop_comp": 427,
               "atspeed_ave_4": 2.88, "atspeed_ave_prop": 7.12}),
]

_BY_NAME = {p.name: p for p in _PROFILES}

#: Circuits small enough for CI and tier-1 tests.
_QUICK_NAMES = ("s27", "b02", "b01", "b06", "s298")


def paper_suite() -> List[CircuitProfile]:
    """All reproduced paper circuits (copy; safe to mutate)."""
    return list(_PROFILES)


def quick_suite() -> List[CircuitProfile]:
    """The fast subset used by default in tests and CI."""
    return [_BY_NAME[n] for n in _QUICK_NAMES]


def profile(name: str) -> CircuitProfile:
    """Look up one profile by circuit name.

    Raises
    ------
    KeyError
        If ``name`` is not part of the suite.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown suite circuit {name!r}; "
                       f"have {sorted(_BY_NAME)}") from None


def suite(quick: bool = True) -> List[CircuitProfile]:
    """The quick or full suite, by flag."""
    return quick_suite() if quick else paper_suite()
