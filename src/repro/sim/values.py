"""Three-valued (0 / 1 / X) logic values and their bit-parallel encoding.

Scalar values
-------------
Scalars are plain ints: :data:`ZERO` (0), :data:`ONE` (1), :data:`X` (2).
Vectors (input vectors, states, scan vectors) are tuples of scalars.

Word encoding
-------------
The simulators are *bit parallel*: every net carries a pair of Python
integers ``(zero, one)`` where bit ``w`` of ``zero`` is set iff machine
``w`` sees logic 0 on that net, and bit ``w`` of ``one`` iff it sees
logic 1.  Neither bit set means X.  Both bits set is invalid.  Machine 0
is, by convention, the fault-free machine.

This encoding makes 3-valued gate evaluation a handful of big-int
bitwise operations, independent of how many machines are packed in a
word.

Kernel encoding
---------------
The C kernel's pass stores (:mod:`repro.sim.npsim`) keep the same
packed machines in ``uint64`` rows of cffi memory: big-int bit ``w``
lives in bit ``w % 64`` of row word ``w // 64`` (little-endian word
order), so a row's bytes are the little-endian bytes of its big-int
and ``int.from_bytes(row, "little")`` converts it losslessly.  Their
scalar inputs are bytes, one per value, checked by
:func:`scalar_bytes`; scoreboard masks, detection sets and
:class:`~repro.sim.counters.SimCounters` accounting stay
store-agnostic.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, Tuple

ZERO = 0
ONE = 1
X = 2

_CHAR_TO_VALUE = {"0": ZERO, "1": ONE, "x": X, "X": X, "-": X}
_VALUE_TO_CHAR = {ZERO: "0", ONE: "1", X: "x"}

Vector = Tuple[int, ...]


def lit(char: str) -> int:
    """Parse a single character ('0', '1', 'x', 'X' or '-') to a scalar."""
    try:
        return _CHAR_TO_VALUE[char]
    except KeyError:
        raise ValueError(f"invalid logic literal {char!r}") from None


def vec(text: str) -> Vector:
    """Parse a string like ``"01xx1"`` into a value vector."""
    return tuple(lit(c) for c in text)


def vec_str(vector: Sequence[int]) -> str:
    """Render a value vector as a compact string."""
    return "".join(_VALUE_TO_CHAR[v] for v in vector)


def is_binary(vector: Sequence[int]) -> bool:
    """True when the vector contains no X."""
    return all(v in (ZERO, ONE) for v in vector)


def pack_scalar(value: int, mask: int) -> Tuple[int, int]:
    """Broadcast a scalar to all machines selected by ``mask``.

    Returns the ``(zero, one)`` word pair.
    """
    if value == ZERO:
        return mask, 0
    if value == ONE:
        return 0, mask
    if value == X:
        return 0, 0
    raise ValueError(f"invalid scalar value {value!r}")


def word_scalar(zero: int, one: int, machine: int = 0) -> int:
    """Extract machine ``machine``'s scalar value from a word pair."""
    bit = 1 << machine
    if zero & bit:
        return ZERO
    if one & bit:
        return ONE
    return X


def diff_mask(zero: int, one: int, good_value: int) -> int:
    """Machines whose *binary* value differs from the good value.

    A machine with an X value never differs (pessimistic detection);
    a good value of X never produces a difference.
    """
    if good_value == ONE:
        return zero
    if good_value == ZERO:
        return one
    return 0


def pack_lanes(values: Sequence[int]) -> Tuple[int, int]:
    """Pack one scalar *per machine lane* into a ``(zero, one)`` pair.

    Lane ``k`` of the word carries ``values[k]``.  This is the
    transposed counterpart of :func:`pack_scalar` (which broadcasts one
    scalar to every machine): lane-batched good-machine simulation
    packs one *test's* value per lane, so each lane starts from its
    own flip-flop value.

    Raises
    ------
    ValueError
        If a value is not 0, 1 or X.
    """
    data = scalar_bytes(values)[::-1]       # lane 0 last: the low bit
    if not data:
        return 0, 0
    return (int(data.translate(_LANE_DIGITS[0]), 2),
            int(data.translate(_LANE_DIGITS[1]), 2))


#: The bytes of the three scalar values.
_SCALARS = bytes((ZERO, ONE, X))
#: Byte translations to the binary digit of a lane's zero / one rail.
_LANE_DIGITS = tuple(bytes(b"01"[i == v] for i in range(256))
                     for v in (ZERO, ONE))


def scalar_bytes(values: Iterable[int]) -> bytes:
    """``values`` as bytes, one per value, each checked to be 0, 1 or
    X.

    Raises
    ------
    ValueError
        If a value is not 0, 1 or X.
    """
    try:
        data = bytes(values)
    except (TypeError, ValueError):
        raise ValueError("invalid scalar value: not a byte") from None
    bad = data.translate(None, _SCALARS)
    if bad:
        raise ValueError(f"invalid scalar value {bad[0]!r}")
    return data


def random_binary_vector(width: int, rng: random.Random) -> Vector:
    """A uniformly random fully-specified vector of length ``width``."""
    return tuple(rng.randint(0, 1) for _ in range(width))


def all_x(width: int) -> Vector:
    """The all-X vector of length ``width``."""
    return (X,) * width


#: Don't-care fill strategies accepted by :func:`fill_x`.
FILL_STRATEGIES = ("random", "fill0", "fill1", "adjacent")


def fill_x(vector: Iterable[int], rng: random.Random,
           strategy: str = "random") -> Vector:
    """Replace every X in ``vector`` with a binary value.

    Contract (relied on by every ATPG call site and by the power
    subsystem's pluggable fills):

    * only X positions change -- every specified (0/1) position is
      returned untouched;
    * the result is fully binary (:func:`is_binary` holds);
    * the fill is deterministic given ``rng``'s state: ``"random"``
      draws exactly one ``rng.randint(0, 1)`` per X position, in
      vector order, and the other strategies never touch ``rng`` --
      so two equal-seeded generators produce identical fills and end
      in identical states.

    Strategies (see DESIGN.md section 11 for power semantics):

    * ``"random"`` -- independent uniform bits (the historical
      behavior and the default);
    * ``"fill0"`` / ``"fill1"`` -- every X becomes 0 / 1;
    * ``"adjacent"`` -- every X copies the nearest *preceding*
      specified value (minimum-transition fill); a leading X run
      copies the first specified value, and an all-X vector fills
      with 0.

    Raises
    ------
    ValueError
        On an unknown ``strategy``.
    """
    if strategy == "random":
        return tuple(v if v in (ZERO, ONE) else rng.randint(0, 1)
                     for v in vector)
    values = tuple(vector)
    if strategy == "fill0":
        return tuple(v if v in (ZERO, ONE) else ZERO for v in values)
    if strategy == "fill1":
        return tuple(v if v in (ZERO, ONE) else ONE for v in values)
    if strategy == "adjacent":
        first = next((v for v in values if v in (ZERO, ONE)), ZERO)
        out = []
        previous = first
        for v in values:
            if v in (ZERO, ONE):
                previous = v
                out.append(v)
            else:
                out.append(previous)
        return tuple(out)
    raise ValueError(f"unknown X-fill strategy {strategy!r}; "
                     f"use one of {FILL_STRATEGIES}")
