"""Collapsed-representative simulation is byte-identical to full.

The acceptance property of the static fault-space analyzer: a
rep-aware :class:`FaultSet` (``uncollapsed(collapse=True)``) makes the
simulators run one representative per equivalence class and re-inflate
the detections to the members.  Against the really-uncollapsed set
(``collapse=False``) every reported quantity -- detection sets,
per-test detections, records, coverage -- must match exactly, on
random synthetic circuits, on the reference and both production
configurations, with and without the untestable-fault exclusion --
and, on a whole proposed-procedure run, with fewer per-fault passes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.faultspace import analyze_faultspace
from repro.atpg import comb_set as comb_set_mod, random_gen
from repro.circuits import synth
from repro.circuits.netlist import Netlist
from repro.core.omission import omit_vectors
from repro.core.proposed import run as run_proposed
from repro.core.scan_test import ScanTest
from repro.sim import values as V
from repro.sim.comb_sim import CombPatternSim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet, fault_classes
from repro.sim.logicsim import CompiledCircuit
from tests.reference import production_circuits, reference_circuit

_N_PI = 4

_CACHE = {}


def circuits_for(seed):
    """Random circuit + the reference and production circuits
    (reference first), cached."""
    if seed not in _CACHE:
        net = synth.generate("collapse", _N_PI, 3, 5, 35, seed=seed)
        engines = [reference_circuit(net)] + production_circuits(net)
        collapsed = FaultSet.uncollapsed(net, collapse=True)
        plain = FaultSet.uncollapsed(net, collapse=False)
        report = analyze_faultspace(net)
        untestable = report.untestable_indices(plain.faults)
        _CACHE[seed] = (engines, collapsed, plain, untestable)
    return _CACHE[seed]


circuit_seeds = st.integers(0, 11)


def _vectors(data, rng, n):
    out = []
    for _ in range(n):
        if data.draw(st.booleans()):
            out.append(V.random_binary_vector(_N_PI, rng))
        else:
            out.append(tuple(rng.choice((V.ZERO, V.ONE, V.X))
                             for _ in range(_N_PI)))
    return out


class TestCollapsedDetectIdentical:
    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_detect_sets_identical(self, seed, data):
        """Same fault universe, same test: the rep-aware set and the
        plain set report the same detections on every engine."""
        engines, collapsed, plain, untestable = circuits_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 8)))
        init = (V.random_binary_vector(len(engines[0].ff_ids), rng)
                if data.draw(st.booleans()) else None)
        scan_out = data.draw(st.booleans())
        early_exit = data.draw(st.booleans())
        drop = data.draw(st.booleans())

        reference = FaultSimulator(engines[0], plain).detect(
            vectors, init, scan_out=scan_out, early_exit=False)
        for circuit in engines:
            sim = FaultSimulator(circuit, collapsed)
            if drop:
                sim.set_untestable(sorted(untestable))
            got = sim.detect(vectors, init, scan_out=scan_out,
                             early_exit=early_exit)
            assert got == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_subset_targets_identical(self, seed, data):
        """Partial targets (mid-class members included) re-inflate to
        exactly the requested indices, never to whole classes."""
        engines, collapsed, plain, _ = circuits_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n = len(plain)
        target = sorted(rng.sample(range(n),
                                   data.draw(st.integers(1, n))))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(len(engines[0].ff_ids), rng)

        reference = FaultSimulator(engines[0], plain).detect(
            vectors, init, target=target, early_exit=False)
        got = FaultSimulator(engines[0], collapsed).detect(
            vectors, init, target=target, early_exit=False)
        assert got == reference
        assert got <= set(target)

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_records_identical(self, seed, data):
        """Per-frame truncated-test detections match through the
        records path (Phase 2's data source)."""
        engines, collapsed, plain, _ = circuits_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(len(engines[0].ff_ids), rng)

        ref = FaultSimulator(engines[0], plain)\
            .run_with_records(vectors, init)
        alt = FaultSimulator(engines[0], collapsed)\
            .run_with_records(vectors, init)
        for frame in range(len(vectors)):
            assert (ref.detected_with_scanout_at(frame)
                    == alt.detected_with_scanout_at(frame))

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_comb_patterns_identical(self, seed, data):
        """The PPSFP combinational simulator agrees per pattern (the
        Phase-1/3/4 data source), with fewer per-fault passes."""
        engines, collapsed, plain, untestable = circuits_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n_ff = len(engines[0].ff_ids)
        patterns = [(V.random_binary_vector(n_ff, rng),
                     V.random_binary_vector(_N_PI, rng))
                    for _ in range(data.draw(st.integers(1, 5)))]

        ref_sim = CombPatternSim(FaultSimulator(engines[0], plain))
        col_sim = CombPatternSim(FaultSimulator(engines[0], collapsed))
        if data.draw(st.booleans()):
            col_sim.sim.set_untestable(sorted(untestable))
        ref = ref_sim.detect_block(patterns)
        got = col_sim.detect_block(patterns)
        assert got == ref
        if collapsed.has_classes:
            assert (col_sim.counters.comb_passes
                    < ref_sim.counters.comb_passes)


class TestCollapsedOmissionIdentical:
    def test_omission_identical(self):
        """Phase 2 on a rep-aware fault set returns the shortened test,
        detections, trials and omissions of the uncollapsed set, in
        both production configurations: its required set names class
        members, and every one of them must stay detected."""
        net = synth.generate("repaware", 5, 4, 6, 60, seed=3)
        collapsed = FaultSet.uncollapsed(net, collapse=True)
        plain = FaultSet.uncollapsed(net, collapse=False)
        for circuit in production_circuits(net):
            vectors = random_gen.random_sequence(circuit, 24, seed=1)
            scan_in = random_gen.random_state(circuit, seed=2)
            test = ScanTest(tuple(scan_in), tuple(vectors))
            required = FaultSimulator(circuit, plain).detect(vectors,
                                                             scan_in)
            # Precondition: some required faults are not their class's
            # representative.
            assert any(collapsed.rep_of[f] != f for f in required)
            want = omit_vectors(FaultSimulator(circuit, plain), test,
                                set(required))
            got = omit_vectors(FaultSimulator(circuit, collapsed), test,
                               set(required))
            assert (got.test, got.detected, got.trials, got.omitted) == \
                (want.test, want.detected, want.trials, want.omitted)


@pytest.fixture(scope="module")
def benchq():
    """benchq (8 PI, 6 PO, 12 FF, 90 gates), its comb set over the
    uncollapsed universe and a random ``T0`` of 40 vectors: the stimuli
    both arms of the collapse gate share."""
    net = synth.generate("benchq", 8, 6, 12, 90, seed=7)
    circuit = CompiledCircuit(net)
    universe = FaultSet.uncollapsed(net, collapse=False)
    comb = comb_set_mod.generate(circuit, universe, seed=1)
    t0 = random_gen.random_sequence(circuit, 40, seed=1)
    return circuit, comb.tests, t0


def _proposed_run(circuit, comb_tests, t0, collapse):
    """The proposed procedure over the uncollapsed universe, simulating
    every fault (``collapse=False``) or one representative per class
    with the proven-untestable classes dropped; returns the fault set,
    the counters and the run's detection sets, tests and cycles."""
    net = circuit.netlist
    faults = FaultSet.uncollapsed(net, collapse=collapse)
    sim = FaultSimulator(circuit, faults)
    if collapse:
        untestable = analyze_faultspace(net).untestable_indices(faults)
        if untestable:
            sim.set_untestable(sorted(untestable))
    result = run_proposed(sim, CombPatternSim(sim), t0, comb_tests)
    final = result.compacted_set or result.test_set
    return faults, sim.counters, (
        frozenset(result.seq_detected), frozenset(result.final_detected),
        tuple(final.tests), final.clock_cycles())


class TestCollapseGate:
    def test_fewer_passes_identical_results(self, benchq):
        """Representative-only simulation reproduces the uncollapsed
        run exactly -- detection sets, final tests, clock cycles --
        with strictly fewer per-fault comb passes and machine bits."""
        universe, plain, want = _proposed_run(*benchq, collapse=False)
        faults, collapsed, got = _proposed_run(*benchq, collapse=True)
        # Precondition: there is something to collapse.
        assert faults.n_classes < len(universe)
        assert got == want
        assert collapsed.comb_passes < plain.comb_passes
        assert collapsed.machines < plain.machines


class TestUntestableExclusion:
    def test_untestable_faults_never_detected(self):
        """Brute force: no random test detects a proven-untestable
        fault, so dropping them is visibly sound."""
        net = synth.generate("unt", 4, 3, 4, 30, seed=7)
        plain = FaultSet.uncollapsed(net, collapse=False)
        report = analyze_faultspace(net)
        untestable = report.untestable_indices(plain.faults)
        cc = CompiledCircuit(net)
        sim = FaultSimulator(cc, plain)
        detected = set()
        for seed in range(5):
            vectors = random_gen.random_sequence(cc, 20, seed=seed)
            init = random_gen.random_state(cc, seed=seed + 100)
            detected |= sim.detect(vectors, init, early_exit=False)
        assert not detected & untestable

    def test_counter_moves_once(self):
        net = synth.generate("unt2", 3, 2, 3, 20, seed=1)
        fs = FaultSet.uncollapsed(net)
        cc = CompiledCircuit(net)
        sim = FaultSimulator(cc, fs)
        comb = CombPatternSim(sim)
        sim.set_untestable([0, 1])
        # The adapter shares the simulator's exclusion and counters:
        # one installation, counted once.
        assert comb.counters.untestable_dropped == 2
        rng = random.Random(0)
        pattern = (V.random_binary_vector(3, rng),
                   V.random_binary_vector(3, rng))
        assert not comb.detect_single(pattern) & {0, 1}


class TestPoStemRegression:
    """A fanout-free stem that is also a primary output must keep its
    faults distinct from the downstream gate-output faults.

    Regression: the old rules united ``n1/0`` with ``n2/0`` below even
    though ``n1`` is a PO (directly observable) while the AND output
    ``n2`` feeds only a DFF -- their detection sets differ, and
    Phase 2 (which simulates members directly) exposed the mismatch.
    """

    @staticmethod
    def _po_stem_netlist():
        net = Netlist("postem")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("n1", "AND", ["a", "b"])
        net.add_gate("n2", "AND", ["n1", "b"])
        net.add_dff("q", "n2")
        net.add_output("n1")
        return net.compile()

    def test_po_stem_not_united(self):
        net = self._po_stem_netlist()
        classes = fault_classes(net)
        for members in classes.values():
            in_class = {f.net for f in members if f.pin is None}
            assert not ({"n1", "n2"} <= in_class), members

    def test_po_branch_still_equivalent(self):
        """Branch lines of an observed stem stay equivalent -- a
        branch fault never reaches the PO directly."""
        net = Netlist("pobranch")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("n1", "AND", ["a", "b"])
        net.add_gate("n2", "AND", ["n1", "b"])
        net.add_gate("n3", "NOT", ["n1"])
        net.add_dff("q", "n2")
        net.add_dff("q2", "n3")
        net.add_output("n1")
        net.compile()
        from repro.sim.faults import Fault
        classes = fault_classes(net)
        cls_of = {f: members for members in classes.values()
                  for f in members}
        # The n1->n2.0 branch s-a-0 collapses into n2's output s-a-0.
        assert Fault("n2", None, 0) in cls_of[Fault("n1", ("n2", 0), 0)]

    def test_collapse_still_merges_interior_stems(self):
        """The exclusion is surgical: unobserved fanout-free stems
        keep collapsing (the s27 count is unchanged)."""
        from repro.circuits import library
        from repro.sim.faults import collapse
        assert len(collapse(library.s27())) == 32

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 19), data=st.data())
    def test_member_direct_simulation_matches(self, seed, data):
        """Simulating any single member directly equals simulating its
        representative -- the exact property Phase 2 relies on."""
        engines, collapsed, plain, _ = circuits_for(seed % 12)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(len(engines[0].ff_ids), rng)
        sim = FaultSimulator(engines[0], plain)
        classes = {}
        for i, rep in enumerate(collapsed.rep_of):
            classes.setdefault(rep, []).append(i)
        multi = [m for m in classes.values() if len(m) > 1]
        if not multi:  # pragma: no cover - seed-dependent
            pytest.skip("no multi-member class in this circuit")
        members = multi[data.draw(st.integers(0, len(multi) - 1))]
        per_member = [
            bool(sim.detect(vectors, init, target=[m],
                            early_exit=False))
            for m in members]
        assert len(set(per_member)) == 1, (
            f"class {members} members disagree: {per_member}")
