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

Good-machine simulation is lane-batched: :func:`simulate_lanes` runs
many tests at once, test ``k`` in bit ``k`` of every word, and
:func:`simulate_sequence` is its one-lane case.

Width contract: :meth:`CompiledCircuit.eval_frame` is agnostic to the
machine word width -- ``mask`` carries the active bits and every
operation is a big-int bitwise op, so the same evaluator serves a
one-lane good-machine pass, a 128-bit chunk, or a fused
multi-thousand-bit word without any per-width code.  The fused
wide-word fault simulator depends on this: do not introduce
width-sensitive constants here.
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

        A circuit's fault-simulation pass chunks run on the C kernel
        of :mod:`repro.sim.npsim` whenever that kernel can serve it
        (see :attr:`array_backend`); everything else evaluates frames
        with :meth:`eval_frame` on big-int words.

        ``_reference=True`` builds the independent reference instead:
        a circuit with no array backend.  Only the equivalence tests
        and the sanitizer's shadow checks use it; results are
        identical either way.
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
        layer.  This is the contract the lane-transposed trial pass
        (:meth:`repro.sim.fault_sim.FaultSimulator.detect_trials`)
        relies on -- it re-purposes the lanes to carry one test each
        instead of one faulty machine each, with no changes here.

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


#: One frame of a lane pass: per-net ``(zero, one)`` lane words.
LaneFrame = Tuple[List[int], List[int]]


def check_state(circuit: CompiledCircuit, state: V.Vector) -> None:
    """Raise ``ValueError`` unless ``state`` has one value per
    flip-flop."""
    n_ff = len(circuit.ff_ids)
    if len(state) != n_ff:
        raise ValueError(f"state width {len(state)} != {n_ff} flip-flops")


def check_vectors(circuit: CompiledCircuit,
                  vectors: Sequence[V.Vector]) -> None:
    """Raise ``ValueError`` unless every vector has one value per
    primary input."""
    n_pi = len(circuit.pi_ids)
    for i, vector in enumerate(vectors):
        if len(vector) != n_pi:
            raise ValueError(
                f"vector width {len(vector)} != {n_pi} primary inputs "
                f"(vector {i})")


def simulate_lanes(
    circuit: CompiledCircuit,
    tests: Sequence[Tuple[Optional[V.Vector], Sequence[V.Vector]]],
) -> List[LaneFrame]:
    """Simulate the fault-free machine over many tests at once.

    Test ``k`` is an ``(init_state, vectors)`` pair (``None`` means an
    all-X initial state) and rides in bit ``k`` of every word: its
    flip-flops start from its own state and its primary inputs take
    its own vectors, then X once it has ended.

    Returns one :data:`LaneFrame` per frame of the longest test.  In
    frame ``f`` the flip-flop nets hold the state the frame starts
    from and every other net its value in that frame, so the
    flip-flop data nets hold the state the frame captures.  Lane ``k``
    is meaningful only in frames ``f < len(vectors_k)``; read it with
    :func:`lane_vector`.

    Raises
    ------
    ValueError
        On a state or vector width that does not match the circuit.
    """
    n_ff = len(circuit.ff_ids)
    states: List[V.Vector] = []
    for init_state, vectors in tests:
        state = V.all_x(n_ff) if init_state is None else init_state
        check_state(circuit, state)
        check_vectors(circuit, vectors)
        states.append(state)
    ended = V.all_x(len(circuit.pi_ids))
    mask = (1 << len(tests)) - 1
    zero = [0] * circuit.n_nets
    one = [0] * circuit.n_nets
    for nid, column in zip(circuit.ff_ids, zip(*states)):
        zero[nid], one[nid] = V.pack_lanes(column)
    frames: List[LaneFrame] = []
    for f in range(max((len(v) for _, v in tests), default=0)):
        inputs = [v[f] if f < len(v) else ended for _, v in tests]
        for nid, column in zip(circuit.pi_ids, zip(*inputs)):
            zero[nid], one[nid] = V.pack_lanes(column)
        circuit.eval_frame(zero, one, mask)
        frames.append((list(zero), list(one)))
        captured = [(zero[nid], one[nid]) for nid in circuit.ff_d_ids]
        for nid, (z, o) in zip(circuit.ff_ids, captured):
            zero[nid], one[nid] = z, o
    return frames


def lane_vector(frame: LaneFrame, nids: Sequence[int],
                lane: int = 0) -> V.Vector:
    """Lane ``lane``'s values of the nets ``nids`` in one frame."""
    zero, one = frame
    return tuple(V.word_scalar(zero[nid], one[nid], lane) for nid in nids)


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
    if not vectors:
        raise ValueError("empty input sequence")
    frames = simulate_lanes(circuit, [(init_state, vectors)])
    return SeqSimResult(
        [lane_vector(frame, circuit.po_ids) for frame in frames],
        [lane_vector(frame, circuit.ff_d_ids) for frame in frames])


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
