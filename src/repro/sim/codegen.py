"""Code-generated circuit evaluation (the production evaluator).

The generic :meth:`CompiledCircuit.eval_frame` interprets an op list:
per gate it unpacks a tuple, dispatches on the opcode and indexes the
word arrays.  For a fixed circuit all of that is constant, so this
module generates a specialized Python function with the whole
evaluation unrolled -- every net id a literal, every gate a line or
two of bitwise expressions -- and compiles it once per circuit.

The generated function is a drop-in for ``eval_frame`` (same
signature, same fault-injection semantics, including per-gate stem
forcing and fanout-branch overrides).  Every
:class:`~repro.sim.logicsim.CompiledCircuit` uses it; the interpreter
stays as the reference (``CompiledCircuit(netlist, _reference=True)``),
and the equivalence tests compare the two over random circuits and
injection masks.

The generated source is **word-width and chunk-count agnostic**: no
literal in it depends on ``mask`` or on how many faulty machines the
caller packed per word.  The same compiled function therefore serves
the good-machine simulator (mask 1), chunked fault simulation, and the
fused wide-word passes (one multi-thousand-bit word per pass) without
recompilation -- the width lives entirely in the big-int operands.
Keep it that way: baking a width into the source would force one
compile per packing.

Compiled code objects are cached by source text, so building many
:class:`~repro.sim.logicsim.CompiledCircuit` instances over copies of
the same netlist (benchmark harnesses, equivalence sweeps, worker
subprocesses re-importing a suite circuit) pays the bytecode
compilation once per distinct circuit per process.

Typical speedup over the interpreter on 100-gate circuits is 1.5-2.5x
for the whole big-int fault simulation stack.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: Source-text -> compiled code object cache (process lifetime; the
#: source embeds every net id, so identical text implies an identical
#: evaluator).
_CODE_CACHE: Dict[str, object] = {}


def generate_source(circuit) -> str:
    """The Python source of the specialized evaluator."""
    from .logicsim import (OP_AND, OP_BUF, OP_CONST0, OP_CONST1,
                           OP_NAND, OP_NOR, OP_NOT, OP_OR, OP_XNOR,
                           OP_XOR)
    lines: List[str] = [
        "def eval_frame(zero, one, mask, stems=None, branch=None):",
        "    _z = zero",
        "    _o = one",
    ]
    emit = lines.append
    for opcode, out, fins in circuit.ops:
        zs = [f"_z[{f}]" for f in fins]
        os_ = [f"_o[{f}]" for f in fins]
        if opcode == OP_AND:
            z = " | ".join(zs)
            o = " & ".join(os_)
        elif opcode == OP_NAND:
            o = " | ".join(zs)
            z = " & ".join(os_)
        elif opcode == OP_OR:
            z = " & ".join(zs)
            o = " | ".join(os_)
        elif opcode == OP_NOR:
            o = " & ".join(zs)
            z = " | ".join(os_)
        elif opcode == OP_NOT:
            z, o = os_[0], zs[0]
        elif opcode == OP_BUF:
            z, o = zs[0], os_[0]
        elif opcode in (OP_XOR, OP_XNOR):
            # Fold pairwise; needs temporaries for 3+ inputs.
            emit(f"    _a, _b = {zs[0]}, {os_[0]}")
            for zf, of in zip(zs[1:], os_[1:]):
                emit(f"    _a, _b = (_a & {zf}) | (_b & {of}), "
                     f"(_a & {of}) | (_b & {zf})")
            if opcode == OP_XNOR:
                z, o = "_b", "_a"
            else:
                z, o = "_a", "_b"
        elif opcode == OP_CONST0:
            z, o = "mask", "0"
        else:  # OP_CONST1
            z, o = "0", "mask"

        has_branch_risk = len(fins) > 0
        if has_branch_risk:
            emit(f"    if branch and {out} in branch:")
            emit(f"        _fz = [{', '.join(zs)}]")
            emit(f"        _fo = [{', '.join(os_)}]")
            emit(f"        for _pin, _m0, _m1 in branch[{out}]:")
            emit("            _keep = mask & ~(_m0 | _m1)")
            emit("            _fz[_pin] = (_fz[_pin] & _keep) | _m0")
            emit("            _fo[_pin] = (_fo[_pin] & _keep) | _m1")
            emit(f"        _t, _u = _eval_lists({opcode}, _fz, _fo, "
                 "mask)")
            emit("    else:")
            emit(f"        _t = {z}")
            emit(f"        _u = {o}")
        else:
            emit(f"    _t = {z}")
            emit(f"    _u = {o}")
        emit(f"    if stems and {out} in stems:")
        emit(f"        _m0, _m1 = stems[{out}]")
        emit("        _keep = mask & ~(_m0 | _m1)")
        emit("        _t = (_t & _keep) | _m0")
        emit("        _u = (_u & _keep) | _m1")
        emit(f"    _z[{out}] = _t")
        emit(f"    _o[{out}] = _u")
    if len(lines) == 3:
        emit("    pass")
    return "\n".join(lines) + "\n"


def build_evaluator(circuit) -> Callable:
    """Compile the specialized evaluator for ``circuit``.

    Returns a function with :meth:`CompiledCircuit.eval_frame`'s
    signature (minus ``self``).
    """
    from .logicsim import _eval_lists
    source = generate_source(circuit)
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, f"<codegen:{circuit.netlist.name}>", "exec")
        _CODE_CACHE[source] = code
    namespace = {"_eval_lists": _eval_lists}
    exec(code, namespace)
    return namespace["eval_frame"]
