"""Single stuck-at fault model with structural equivalence collapsing.

Fault sites follow the ISCAS convention: every *line* can be stuck at 0
or stuck at 1.  A line is either

* a **stem** -- the output of a gate (identified by the net it drives), or
* a **branch** -- one fanout connection from a net to a gate input pin.
  Branches exist as distinct lines only where the source net has fanout
  greater than one; on a fanout-free net the gate input pin *is* the
  stem line.

Equivalence collapsing merges faults that are indistinguishable by any
test (classic gate-level rules: an AND output s-a-0 is equivalent to any
of its input s-a-0 faults, NOT/BUF faults collapse across the gate,
etc.).  One representative per class is kept; the collapsed list is what
the experiments report as the number of target faults, matching the
convention of the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..circuits.netlist import Netlist


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault.

    Attributes
    ----------
    net:
        The net carrying the faulty line (the driving net).
    pin:
        ``None`` for a stem fault; ``(gate_name, pin_index)`` for a
        fanout-branch fault at that gate input.
    stuck:
        The stuck value, 0 or 1.
    """

    net: str
    pin: Optional[Tuple[str, int]]
    stuck: int

    def __str__(self) -> str:
        if self.pin is None:
            return f"{self.net}/{self.stuck}"
        gate, idx = self.pin
        return f"{self.net}->{gate}.{idx}/{self.stuck}"

    @property
    def is_stem(self) -> bool:
        return self.pin is None

    def sort_key(self):
        """Total order (stems before branches of the same net)."""
        return (self.net, self.pin is not None, self.pin or ("", -1),
                self.stuck)

    def __lt__(self, other: "Fault") -> bool:
        return self.sort_key() < other.sort_key()


def _lines(netlist: Netlist) -> List[Tuple[str, Optional[Tuple[str, int]]]]:
    """Enumerate all distinct lines as ``(net, pin-or-None)`` pairs."""
    lines: List[Tuple[str, Optional[Tuple[str, int]]]] = []
    for net in netlist.gates:
        lines.append((net, None))
    for gate in netlist.gates.values():
        for idx, fin in enumerate(gate.fanins):
            if len(netlist.fanout[fin]) > 1:
                lines.append((fin, (gate.name, idx)))
    return lines


def all_faults(netlist: Netlist) -> List[Fault]:
    """The uncollapsed fault universe: two faults per line."""
    if not netlist.is_compiled():
        netlist.compile()
    faults = []
    for net, pin in _lines(netlist):
        faults.append(Fault(net, pin, 0))
        faults.append(Fault(net, pin, 1))
    return faults


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[Fault, Fault] = {}

    def find(self, x: Fault) -> Fault:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Fault, b: Fault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic representative: the smaller sort key wins.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _input_line(netlist: Netlist, gate_name: str, idx: int,
                fin: str) -> Tuple[str, Optional[Tuple[str, int]]]:
    """The line feeding pin ``idx`` of ``gate_name`` (stem if fanout-free)."""
    if len(netlist.fanout[fin]) > 1:
        return (fin, (gate_name, idx))
    return (fin, None)


def _equivalence_pairs(netlist: Netlist):
    """Yield ``(a, b)`` fault pairs that are structurally equivalent.

    The rules applied per combinational gate:

    * AND:  output s-a-0 == every input s-a-0
    * NAND: output s-a-1 == every input s-a-0
    * OR:   output s-a-1 == every input s-a-1
    * NOR:  output s-a-0 == every input s-a-1
    * BUF:  output s-a-v == input s-a-v
    * NOT:  output s-a-v == input s-a-(1-v)

    XOR/XNOR gates and DFFs introduce no equivalences.

    A *stem* input line that is itself a primary output is excluded:
    its fault is observable at the PO directly, while the gate-output
    fault is not, so their detection sets can differ (a branch line
    into the gate stays equivalent -- the branch fault never reaches
    the PO).
    """
    observed = set(netlist.outputs)
    for gate in netlist.gates.values():
        out0 = Fault(gate.name, None, 0)
        out1 = Fault(gate.name, None, 1)
        ins = [_input_line(netlist, gate.name, i, fin)
               for i, fin in enumerate(gate.fanins)]
        ins = [(net, pin) for net, pin in ins
               if pin is not None or net not in observed]
        if gate.gtype == "AND":
            for net, pin in ins:
                yield out0, Fault(net, pin, 0)
        elif gate.gtype == "NAND":
            for net, pin in ins:
                yield out1, Fault(net, pin, 0)
        elif gate.gtype == "OR":
            for net, pin in ins:
                yield out1, Fault(net, pin, 1)
        elif gate.gtype == "NOR":
            for net, pin in ins:
                yield out0, Fault(net, pin, 1)
        elif gate.gtype == "BUF" and ins:
            net, pin = ins[0]
            yield out0, Fault(net, pin, 0)
            yield out1, Fault(net, pin, 1)
        elif gate.gtype == "NOT" and ins:
            net, pin = ins[0]
            yield out0, Fault(net, pin, 1)
            yield out1, Fault(net, pin, 0)


def _collapsed_union_find(netlist: Netlist) -> _UnionFind:
    uf = _UnionFind()
    for a, b in _equivalence_pairs(netlist):
        uf.union(a, b)
    return uf


def collapse(netlist: Netlist) -> List[Fault]:
    """Equivalence-collapsed fault list (one representative per class).

    See :func:`_equivalence_pairs` for the rules.  The result is sorted
    for reproducibility.
    """
    if not netlist.is_compiled():
        netlist.compile()
    uf = _collapsed_union_find(netlist)
    return sorted({uf.find(f) for f in all_faults(netlist)})


def fault_classes(netlist: Netlist) -> Dict[Fault, List[Fault]]:
    """Map each collapsed representative to its full equivalence class."""
    if not netlist.is_compiled():
        netlist.compile()
    uf = _collapsed_union_find(netlist)
    classes: Dict[Fault, List[Fault]] = {}
    for fault in all_faults(netlist):
        classes.setdefault(uf.find(fault), []).append(fault)
    return classes


class FaultSet:
    """An indexed, ordered collection of target faults.

    Provides stable integer indices (used as compact fault handles by
    the simulators and the compaction procedures) plus subset helpers.

    ``rep_of`` optionally attaches the equivalence structure: index
    ``i``'s class representative is index ``rep_of[i]`` (a fixed point
    of the map).  When present, the simulators use
    :meth:`collapse_target` to simulate representatives only and
    re-inflate detection sets to the members -- byte-identical because
    class members share detection sets exactly (DESIGN.md section 15).
    The default (``None``) is the identity: every fault is its own
    class, i.e. an already-collapsed or deliberately-uncollapsed set.
    """

    def __init__(self, faults: Sequence[Fault],
                 rep_of: Optional[Sequence[int]] = None) -> None:
        self.faults: List[Fault] = list(faults)
        self.index: Dict[Fault, int] = {
            f: i for i, f in enumerate(self.faults)}
        if len(self.index) != len(self.faults):
            raise ValueError("duplicate faults in fault set")
        if rep_of is None:
            self.rep_of: List[int] = list(range(len(self.faults)))
        else:
            self.rep_of = list(rep_of)
            if len(self.rep_of) != len(self.faults):
                raise ValueError("rep_of does not match the fault list")
        self._members: Dict[int, List[int]] = {}
        for i, rep in enumerate(self.rep_of):
            if not self.rep_of[rep] == rep:
                raise ValueError(
                    f"representative {rep} is not a fixed point")
            self._members.setdefault(rep, []).append(i)
        # Identity structure: rep translation is a no-op and every
        # simulator entry point takes its zero-overhead fast path.
        self._identity = len(self._members) == len(self.faults)

    @classmethod
    def collapsed(cls, netlist: Netlist) -> "FaultSet":
        """The collapsed fault set of ``netlist`` (the usual target set)."""
        return cls(collapse(netlist))

    @classmethod
    def uncollapsed(cls, netlist: Netlist,
                    collapse: bool = True) -> "FaultSet":
        """The full fault universe, rep-aware by default.

        With ``collapse=True`` the set carries the equivalence
        structure, so simulators run one representative per class and
        re-inflate -- same reported results, less work.
        ``collapse=False`` drops the structure and really simulates
        every fault (the benchmark baseline arm).
        """
        faults = all_faults(netlist)
        if not collapse:
            return cls(faults)
        uf = _collapsed_union_find(netlist)
        index = {f: i for i, f in enumerate(faults)}
        rep_of = [index[uf.find(f)] for f in faults]
        return cls(faults, rep_of=rep_of)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __getitem__(self, i: int) -> Fault:
        return self.faults[i]

    def indices(self, faults: Sequence[Fault]) -> List[int]:
        """Indices of the given faults within this set."""
        return [self.index[f] for f in faults]

    def subset(self, indices: AbstractSet[int]) -> List[Fault]:
        """The faults at the given indices, in index order."""
        return [self.faults[i] for i in sorted(indices)]

    # -- equivalence structure -----------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of equivalence classes (== ``len`` when identity)."""
        return len(self._members)

    @property
    def has_classes(self) -> bool:
        """True when at least one class has more than one member."""
        return not self._identity

    def members_of(self, rep: int) -> List[int]:
        """All member indices of the class represented by ``rep``."""
        return list(self._members[rep])

    def collapse_target(
        self,
        target: Sequence[int],
        drop: Optional[AbstractSet[int]] = None,
    ) -> Tuple[Sequence[int], Optional[Dict[int, List[int]]]]:
        """Translate a target fault list for representative simulation.

        Returns ``(sim_target, expand)``: the (sorted, deduplicated)
        representative indices actually worth simulating, and the map
        from each representative back to the *requested* members its
        results must be copied to.  ``expand`` is ``None`` when no
        translation happened (identity structure), so callers can keep
        a zero-overhead fast path.  ``drop`` removes whole classes --
        proven-untestable representatives -- from the simulated set;
        sound because a proven-untestable fault appears in no
        detection set, ever.

        Raises
        ------
        ValueError
            If a target index lies outside the fault list (a negative
            one included) and the set has class structure; an identity
            set hands its target on as it is, and a pass store rejects
            such an index when it binds it.
        """
        if self._identity:
            if not drop:
                return target, None
            return [f for f in target if f not in drop], None
        rep_of = self.rep_of
        n = len(rep_of)
        expand: Dict[int, List[int]] = {}
        for f in target:
            if not 0 <= f < n:
                raise ValueError(f"target fault {f} outside the {n} "
                                 f"faults")
            rep = rep_of[f]
            if drop and rep in drop:
                continue
            expand.setdefault(rep, []).append(f)
        return sorted(expand), expand

    def untestable_reps(self, indices: AbstractSet[int]) -> "frozenset[int]":
        """Representative indices of the given (untestable) faults.

        The untestability closure of :mod:`repro.analysis.faultspace`
        covers whole classes, so dropping by representative drops
        exactly the proven faults.
        """
        return frozenset(self.rep_of[i] for i in indices)
