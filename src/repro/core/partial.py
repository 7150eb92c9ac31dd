"""Partial-scan extension of the compaction procedure.

The paper notes (Section 1) that "the proposed procedure can be
extended to the case of partial-scan circuits".  This module provides
that extension:

* :class:`PartialScanPlan` -- which flip-flops are in the scan chain.
  :meth:`PartialScanPlan.by_cycle_cutting` implements the classical
  selection heuristic: scan enough flip-flops to break every
  flip-flop-to-flip-flop dependency cycle (self-loops first, then a
  greedy feedback-vertex-set approximation), which bounds the
  sequential depth of the unscanned remainder.
* :func:`workbench_for` -- simulators configured for the plan: scan-in
  vectors cover only the scanned flip-flops, scan-outs observe only
  them, PODEM treats unscanned flip-flops as uncontrollable and
  unobservable.
* :func:`compact_partial` -- the paper's four phases under the plan.

Cost model: a scan operation now shifts only ``|scanned|`` bits, so
``N_cyc = (k+1) * |scanned| + sum L(T_j)`` -- shorter scans buy cheaper
tests at the price of a harder (less controllable) test generation
problem; the example/bench expose that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..atpg import comb_set as comb_set_mod
from ..atpg import random_gen
from ..circuits.netlist import Netlist
from ..sim.comb_sim import CombPatternSim
from ..sim.fault_sim import FaultSimulator
from ..sim.faults import FaultSet
from ..sim.logicsim import CompiledCircuit
from .proposed import ProposedResult, run as run_proposed


@dataclass
class PartialScanPlan:
    """A scan-chain plan: the subset of flip-flops that are scanned.

    ``positions`` indexes into the netlist's flip-flop order (which is
    also the scan-chain order for the scanned subset).
    """

    netlist: Netlist
    positions: List[int]

    def __post_init__(self) -> None:
        n_ff = self.netlist.num_ffs
        self.positions = sorted(set(self.positions))
        if self.positions and not (
                0 <= self.positions[0] and self.positions[-1] < n_ff):
            raise ValueError("scan position out of range")

    @property
    def scanned_ffs(self) -> List[str]:
        ffs = self.netlist.flip_flops
        return [ffs[p] for p in self.positions]

    @property
    def n_scanned(self) -> int:
        return len(self.positions)

    @property
    def is_full_scan(self) -> bool:
        return self.n_scanned == self.netlist.num_ffs

    # ------------------------------------------------------------------
    @classmethod
    def full(cls, netlist: Netlist) -> "PartialScanPlan":
        return cls(netlist, list(range(netlist.num_ffs)))

    @classmethod
    def by_cycle_cutting(cls, netlist: Netlist,
                         extra: int = 0) -> "PartialScanPlan":
        """Select scan flip-flops that break all sequential cycles.

        Builds the flip-flop dependency graph (an edge ``a -> b`` when
        ``a``'s output is in the combinational cone of ``b``'s data
        input), removes self-loops first, then greedily removes the
        highest-degree vertex of each remaining strongly-connected
        component until the graph is acyclic.  ``extra`` adds that many
        further flip-flops (highest remaining degree) for
        controllability.
        """
        if not netlist.is_compiled():
            netlist.compile()
        ffs = netlist.flip_flops
        index = {ff: i for i, ff in enumerate(ffs)}
        edges: Dict[int, Set[int]] = {i: set() for i in range(len(ffs))}
        for ff in ffs:
            d_net = netlist.gates[ff].fanins[0]
            cone = netlist.transitive_fanin([d_net])
            for src in cone:
                if src in index:
                    edges[index[src]].add(index[ff])
        chosen: Set[int] = set()
        for i in range(len(ffs)):
            if i in edges[i]:
                chosen.add(i)  # self-loop: must be cut
        while True:
            cycle = _find_cycle(edges, chosen)
            if cycle is None:
                break
            # Cut the cycle at its highest-degree vertex.
            best = max(cycle, key=lambda v: len(edges[v]) +
                       sum(1 for u in edges if v in edges[u]))
            chosen.add(best)
        remaining = [i for i in range(len(ffs)) if i not in chosen]
        remaining.sort(key=lambda v: -(len(edges[v]) +
                                       sum(1 for u in edges
                                           if v in edges[u])))
        chosen.update(remaining[:max(0, extra)])
        if not chosen:
            chosen.add(0)  # degenerate: keep at least one scanned FF
        return cls(netlist, sorted(chosen))


def _find_cycle(edges: Dict[int, Set[int]],
                removed: Set[int]) -> Optional[List[int]]:
    """A directed cycle avoiding ``removed`` vertices, or ``None``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in edges if v not in removed}
    parent: Dict[int, Optional[int]] = {}

    for root in color:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(edges[root])))]
        color[root] = GRAY
        parent[root] = None
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ in removed:
                    continue
                if color.get(succ) == GRAY:
                    # Found a cycle: unwind the parents.
                    cycle = [node]
                    cur = node
                    while cur != succ:
                        cur = parent[cur]
                        cycle.append(cur)
                    return cycle
                if color.get(succ) == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


@dataclass
class PartialWorkbench:
    """Simulators configured for one partial-scan plan."""

    plan: PartialScanPlan
    circuit: CompiledCircuit
    faults: FaultSet
    sim: FaultSimulator
    comb_sim: CombPatternSim


def workbench_for(plan: PartialScanPlan) -> PartialWorkbench:
    """Build plan-aware simulators (shared compile + fault collapse)."""
    circuit = CompiledCircuit(plan.netlist)
    faults = FaultSet.collapsed(plan.netlist)
    positions = None if plan.is_full_scan else plan.positions
    sim = FaultSimulator(circuit, faults, scan_positions=positions)
    return PartialWorkbench(
        plan=plan,
        circuit=circuit,
        faults=faults,
        sim=sim,
        comb_sim=CombPatternSim(sim),
    )


def compact_partial(
    plan: PartialScanPlan,
    seed: int = 0,
    t0_length: int = 300,
    workbench: Optional[PartialWorkbench] = None,
    run_phase4: bool = True,
) -> ProposedResult:
    """The paper's procedure on a partial-scan circuit.

    The combinational test set, the scan-in candidates, the scan-out
    observation and the cost model all follow the plan; the initial
    sequence ``T0`` is random (Table-5 style), since partial-scan
    circuits are exactly the case where a no-scan sequence is cheap to
    apply.
    """
    wb = workbench or workbench_for(plan)
    positions = None if plan.is_full_scan else plan.positions
    comb = comb_set_mod.generate(wb.circuit, wb.faults, seed=seed,
                                 scan_positions=positions)
    if not comb.tests:
        raise ValueError("no combinational tests found under this plan")
    t0 = random_gen.random_sequence(wb.circuit, t0_length, seed=seed)
    return run_proposed(wb.sim, wb.comb_sim, t0, comb.tests,
                        run_phase4=run_phase4)
