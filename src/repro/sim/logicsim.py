"""Levelized three-valued logic simulation.

:class:`CompiledCircuit` flattens a compiled :class:`~repro.circuits.netlist.Netlist`
into dense integer-indexed evaluation tables so the per-frame inner loop
touches only lists and ints.  The same compiled form and the same
:meth:`CompiledCircuit.eval_frame` are used by the good-machine
simulator here and by the bit-parallel fault simulator in
:mod:`repro.sim.fault_sim` (which passes fault-injection masks).

The sequential simulation model is the standard one for full-scan work:

* every frame, primary-input values are applied and the combinational
  logic is evaluated;
* primary outputs are sampled;
* every DFF loads the value of its data net (next state).

Unknown values propagate pessimistically (X in, X out unless the gate's
controlling value decides the output).

Width contract: :meth:`CompiledCircuit.eval_frame` (the interpreter
below and the code-generated evaluator alike) is agnostic to the
machine word width -- ``mask`` carries the active bits and every
operation is a big-int bitwise op, so the same evaluator serves a
1-bit good-machine pass, a 128-bit chunk, or a fused
multi-thousand-bit word without any per-width code.  The fused
wide-word fault simulator depends on this: do not introduce
width-sensitive constants here or in :mod:`repro.sim.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.netlist import Netlist
from . import values as V

# Opcode table: compact ints for the evaluation loop.
OP_AND, OP_NAND, OP_OR, OP_NOR, OP_XOR, OP_XNOR, OP_NOT, OP_BUF, \
    OP_CONST0, OP_CONST1 = range(10)

_OPCODES = {
    "AND": OP_AND, "NAND": OP_NAND, "OR": OP_OR, "NOR": OP_NOR,
    "XOR": OP_XOR, "XNOR": OP_XNOR, "NOT": OP_NOT, "BUF": OP_BUF,
    "CONST0": OP_CONST0, "CONST1": OP_CONST1,
}

#: Opcodes whose output is the complement of the underlying function.
_INVERTING = {OP_NAND, OP_NOR, OP_XNOR, OP_NOT}


class CompiledCircuit:
    """A netlist compiled for fast frame evaluation.

    Attributes
    ----------
    netlist:
        The source netlist (compiled).
    n_nets:
        Number of nets; net ids index the per-net value arrays.
    pi_ids, ff_ids, po_ids:
        Net ids of primary inputs, flip-flop outputs and primary outputs.
    ff_d_ids:
        Net ids of each flip-flop's data (next state) net, aligned with
        ``ff_ids``.
    ops:
        ``(opcode, out_id, fanin_ids)`` triples in topological order.
    """

    def __init__(self, netlist: Netlist, _reference: bool = False) -> None:
        """Compile ``netlist`` for simulation.

        A circuit evaluates frames with the code-generated big-int
        evaluator (:mod:`repro.sim.codegen`), and its fault-simulation
        pass chunks run on the C kernel of :mod:`repro.sim.npsim`
        whenever that kernel can serve it (see :attr:`array_backend`).

        ``_reference=True`` builds the independent reference instead:
        the interpreting :meth:`eval_frame` below and no array backend.
        Only the equivalence tests and the sanitizer's shadow checks
        use it; results are identical either way.
        """
        if not netlist.is_compiled():
            netlist.compile()
        self.netlist = netlist
        self._array_backend: Optional[object] = None
        self._backend_resolved = _reference
        ids = netlist.net_ids
        self.n_nets = netlist.num_nets
        self.pi_ids: List[int] = [ids[n] for n in netlist.inputs]
        self.ff_ids: List[int] = [ids[n] for n in netlist.flip_flops]
        self.po_ids: List[int] = [ids[n] for n in netlist.outputs]
        self.ff_d_ids: List[int] = [
            ids[netlist.gates[ff].fanins[0]] for ff in netlist.flip_flops]
        self.ops: List[Tuple[int, int, Tuple[int, ...]]] = []
        for gname in netlist.order:
            gate = netlist.gates[gname]
            self.ops.append((
                _OPCODES[gate.gtype],
                ids[gname],
                tuple(ids[f] for f in gate.fanins),
            ))
        if not _reference:
            from .codegen import build_evaluator
            # Instance attribute shadows the method: all simulators
            # transparently use the specialized evaluator.
            self.eval_frame = build_evaluator(self)

    # ------------------------------------------------------------------
    @property
    def array_backend(self) -> Optional[object]:
        """The :class:`~repro.sim.npsim.ArrayBackend` that runs this
        circuit's pass chunks on the C kernel, or ``None``.

        Resolved once, on first use.  ``None`` means every pass runs
        on big-int words: numpy, cffi or a C compiler is missing, or a
        gate has more fanins than the kernel holds
        (:func:`repro.sim.npsim.kernel_unavailable_reason` says
        which), or this is the reference circuit.
        """
        if not self._backend_resolved:
            self._backend_resolved = True
            from .npsim import ArrayBackend, kernel_unavailable_reason
            if kernel_unavailable_reason(self) is None:
                self._array_backend = ArrayBackend(self)
        return self._array_backend

    # ------------------------------------------------------------------
    def eval_frame(
        self,
        zero: List[int],
        one: List[int],
        mask: int,
        stems: Optional[Dict[int, Tuple[int, int]]] = None,
        branch: Optional[Dict[int, List[Tuple[int, int, int]]]] = None,
    ) -> None:
        """Evaluate the combinational logic in place.

        ``zero`` / ``one`` are per-net word arrays; source nets (PIs and
        FF outputs) must already hold their values.  ``mask`` selects the
        active machine bits.

        The evaluation is strictly bitwise and width-agnostic: machine
        bits never interact, and no bit has special meaning at this
        layer.  This is the contract the lane-transposed candidate
        scan (:meth:`repro.sim.fault_sim.FaultSimulator.
        detect_candidates`) relies on -- it re-purposes the lanes to
        carry one candidate scan-in state each instead of one faulty
        machine each, with no changes here.

        Fault injection (used by the fault simulator):

        * ``stems[nid] = (m0, m1)``: machines whose view of net ``nid``
          (including its fanouts and observation) is forced to 0 (bits
          of ``m0``) or 1 (bits of ``m1``).  Applied to source nets by
          the caller, to gate outputs here.
        * ``branch[out_id]`` is a list of ``(pin, m0, m1)`` entries: when
          evaluating the gate driving ``out_id``, the fanin at position
          ``pin`` is forced to 0 for machines ``m0`` and 1 for machines
          ``m1`` -- for that gate only (a fanout-branch fault).

        This is the inner loop of every simulator in the package; it is
        deliberately written with direct indexing (no temporary lists)
        and a single injection-dict lookup per gate.
        """
        for opcode, out, fins in self.ops:
            if branch and out in branch:
                fz = [zero[f] for f in fins]
                fo = [one[f] for f in fins]
                for pin, m0, m1 in branch[out]:
                    keep = mask & ~(m0 | m1)
                    fz[pin] = (fz[pin] & keep) | m0
                    fo[pin] = (fo[pin] & keep) | m1
                z, o = _eval_lists(opcode, fz, fo, mask)
            elif opcode == OP_AND:
                z = 0
                o = mask
                for f in fins:
                    z |= zero[f]
                    o &= one[f]
            elif opcode == OP_NAND:
                o = 0
                z = mask
                for f in fins:
                    o |= zero[f]
                    z &= one[f]
            elif opcode == OP_OR:
                z = mask
                o = 0
                for f in fins:
                    z &= zero[f]
                    o |= one[f]
            elif opcode == OP_NOR:
                o = mask
                z = 0
                for f in fins:
                    o &= zero[f]
                    z |= one[f]
            elif opcode == OP_NOT:
                f = fins[0]
                z, o = one[f], zero[f]
            elif opcode == OP_BUF:
                f = fins[0]
                z, o = zero[f], one[f]
            elif opcode == OP_XOR or opcode == OP_XNOR:
                f = fins[0]
                z, o = zero[f], one[f]
                for f in fins[1:]:
                    bz, bo = zero[f], one[f]
                    z, o = (z & bz) | (o & bo), (z & bo) | (o & bz)
                if opcode == OP_XNOR:
                    z, o = o, z
            elif opcode == OP_CONST0:
                z, o = mask, 0
            else:  # OP_CONST1
                z, o = 0, mask

            if stems and out in stems:
                m0, m1 = stems[out]
                keep = mask & ~(m0 | m1)
                z = (z & keep) | m0
                o = (o & keep) | m1
            zero[out] = z
            one[out] = o


def _eval_lists(opcode: int, fz: List[int], fo: List[int],
                mask: int) -> Tuple[int, int]:
    """Gate evaluation over explicit fanin word lists (branch-fault
    slow path of :meth:`CompiledCircuit.eval_frame`)."""
    if opcode == OP_AND or opcode == OP_NAND:
        z = 0
        o = mask
        for bz, bo in zip(fz, fo):
            z |= bz
            o &= bo
    elif opcode == OP_OR or opcode == OP_NOR:
        z = mask
        o = 0
        for bz, bo in zip(fz, fo):
            z &= bz
            o |= bo
    elif opcode == OP_XOR or opcode == OP_XNOR:
        z, o = fz[0], fo[0]
        for bz, bo in zip(fz[1:], fo[1:]):
            z, o = (z & bz) | (o & bo), (z & bo) | (o & bz)
    elif opcode == OP_NOT or opcode == OP_BUF:
        z, o = fz[0], fo[0]
    elif opcode == OP_CONST0:
        return mask, 0
    else:
        return 0, mask
    if opcode in _INVERTING:
        z, o = o, z
    return z, o


@dataclass
class SeqSimResult:
    """Result of a good-machine sequential simulation.

    Attributes
    ----------
    po_frames:
        Primary-output vector sampled in each frame.
    state_frames:
        Flip-flop state *after* each frame's clock edge (so
        ``state_frames[i]`` is what a scan-out after frame ``i`` reads).
    """

    po_frames: List[V.Vector]
    state_frames: List[V.Vector]

    @property
    def final_state(self) -> V.Vector:
        """State after the last frame (the scan-out vector)."""
        return self.state_frames[-1]


def simulate_sequence(
    circuit: CompiledCircuit,
    vectors: Sequence[V.Vector],
    init_state: Optional[V.Vector] = None,
) -> SeqSimResult:
    """Simulate the fault-free machine over ``vectors``.

    Parameters
    ----------
    circuit:
        Compiled circuit.
    vectors:
        Primary-input vectors, one per frame.
    init_state:
        Initial flip-flop state; ``None`` means all-X (power-up unknown,
        the non-scan case).

    Raises
    ------
    ValueError
        On vector/state width mismatches or an empty sequence.
    """
    n_pi = len(circuit.pi_ids)
    n_ff = len(circuit.ff_ids)
    if not vectors:
        raise ValueError("empty input sequence")
    if init_state is None:
        init_state = V.all_x(n_ff)
    if len(init_state) != n_ff:
        raise ValueError(
            f"state width {len(init_state)} != {n_ff} flip-flops")

    zero = [0] * circuit.n_nets
    one = [0] * circuit.n_nets
    for nid, val in zip(circuit.ff_ids, init_state):
        zero[nid], one[nid] = V.pack_scalar(val, 1)

    po_frames: List[V.Vector] = []
    state_frames: List[V.Vector] = []
    for vector in vectors:
        if len(vector) != n_pi:
            raise ValueError(
                f"vector width {len(vector)} != {n_pi} primary inputs")
        for nid, val in zip(circuit.pi_ids, vector):
            zero[nid], one[nid] = V.pack_scalar(val, 1)
        circuit.eval_frame(zero, one, 1)
        po_frames.append(tuple(
            V.word_scalar(zero[nid], one[nid]) for nid in circuit.po_ids))
        next_state = tuple(
            V.word_scalar(zero[nid], one[nid]) for nid in circuit.ff_d_ids)
        state_frames.append(next_state)
        for nid, val in zip(circuit.ff_ids, next_state):
            zero[nid], one[nid] = V.pack_scalar(val, 1)
    return SeqSimResult(po_frames, state_frames)


def simulate_comb(
    circuit: CompiledCircuit,
    pi_vector: V.Vector,
    state: V.Vector,
) -> Tuple[V.Vector, V.Vector]:
    """Single-frame (combinational) simulation.

    Returns ``(po_vector, next_state)`` for one application of
    ``pi_vector`` with the flip-flops holding ``state`` -- exactly what a
    scan test with a length-1 sequence does.
    """
    result = simulate_sequence(circuit, [pi_vector], state)
    return result.po_frames[0], result.final_state
