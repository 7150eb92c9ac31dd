"""Tests for three-valued scalars and word packing."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import values as V


class TestLiterals:
    @pytest.mark.parametrize("char,expected", [
        ("0", V.ZERO), ("1", V.ONE), ("x", V.X), ("X", V.X), ("-", V.X)])
    def test_lit(self, char, expected):
        assert V.lit(char) == expected

    def test_bad_literal(self):
        with pytest.raises(ValueError, match="invalid logic literal"):
            V.lit("2")

    def test_vec_roundtrip(self):
        assert V.vec_str(V.vec("01x")) == "01x"

    def test_is_binary(self):
        assert V.is_binary(V.vec("0101"))
        assert not V.is_binary(V.vec("01x1"))


class TestPacking:
    def test_pack_scalar_zero(self):
        assert V.pack_scalar(V.ZERO, 0b111) == (0b111, 0)

    def test_pack_scalar_one(self):
        assert V.pack_scalar(V.ONE, 0b101) == (0, 0b101)

    def test_pack_scalar_x(self):
        assert V.pack_scalar(V.X, 0b11) == (0, 0)

    def test_pack_bad_scalar(self):
        with pytest.raises(ValueError):
            V.pack_scalar(7, 1)

    @given(st.sampled_from([V.ZERO, V.ONE, V.X]),
           st.integers(0, 20))
    def test_pack_unpack_roundtrip(self, value, machine):
        mask = (1 << 21) - 1
        zero, one = V.pack_scalar(value, mask)
        assert V.word_scalar(zero, one, machine) == value

    @given(st.lists(st.sampled_from([V.ZERO, V.ONE, V.X]), max_size=300))
    def test_pack_lanes_per_value(self, values):
        """Lane ``k`` of the pair carries ``values[k]``, as packing one
        value at a time defines it."""
        zero = one = 0
        for k, value in enumerate(values):
            if value == V.ZERO:
                zero |= 1 << k
            elif value == V.ONE:
                one |= 1 << k
        assert V.pack_lanes(values) == (zero, one)

    @pytest.mark.parametrize("values", [[V.ONE, 7], [V.X, -1], [V.ZERO, 256],
                                        [V.ONE, None]])
    def test_pack_lanes_bad_value(self, values):
        with pytest.raises(ValueError, match="invalid scalar value"):
            V.pack_lanes(values)

    def test_word_scalar_default_machine(self):
        assert V.word_scalar(1, 0) == V.ZERO
        assert V.word_scalar(0, 1) == V.ONE
        assert V.word_scalar(0, 0) == V.X


class TestDiffMask:
    def test_good_one_sees_zeros(self):
        assert V.diff_mask(0b0110, 0b1001, V.ONE) == 0b0110

    def test_good_zero_sees_ones(self):
        assert V.diff_mask(0b0110, 0b1001, V.ZERO) == 0b1001

    def test_good_x_sees_nothing(self):
        assert V.diff_mask(0b1111, 0b0000, V.X) == 0


class TestVectors:
    def test_random_binary_vector(self):
        rng = random.Random(0)
        vec = V.random_binary_vector(50, rng)
        assert len(vec) == 50
        assert V.is_binary(vec)

    def test_all_x(self):
        assert V.all_x(3) == (V.X, V.X, V.X)

    def test_fill_x_preserves_binary(self):
        rng = random.Random(1)
        filled = V.fill_x((V.ONE, V.X, V.ZERO, V.X), rng)
        assert filled[0] == V.ONE
        assert filled[2] == V.ZERO
        assert V.is_binary(filled)

    @given(st.lists(st.sampled_from([V.ZERO, V.ONE, V.X]), max_size=30))
    def test_fill_x_always_binary(self, vec):
        rng = random.Random(2)
        assert V.is_binary(V.fill_x(tuple(vec), rng))


class TestFillStrategies:
    """The :func:`V.fill_x` contract, per strategy."""

    vectors = st.lists(st.sampled_from([V.ZERO, V.ONE, V.X]),
                       max_size=30).map(tuple)

    @given(vectors, st.sampled_from(V.FILL_STRATEGIES),
           st.integers(0, 1000))
    def test_fills_only_x_positions(self, vec, strategy, seed):
        filled = V.fill_x(vec, random.Random(seed), strategy=strategy)
        assert len(filled) == len(vec)
        assert V.is_binary(filled)
        for before, after in zip(vec, filled):
            if before in (V.ZERO, V.ONE):
                assert after == before

    @given(vectors, st.sampled_from(V.FILL_STRATEGIES),
           st.integers(0, 1000))
    def test_deterministic_under_seeded_rng(self, vec, strategy, seed):
        first = V.fill_x(vec, random.Random(seed), strategy=strategy)
        second = V.fill_x(vec, random.Random(seed), strategy=strategy)
        assert first == second

    @given(vectors, st.integers(0, 1000))
    def test_random_consumes_one_draw_per_x(self, vec, seed):
        """The random strategy's rng consumption is exactly one
        ``randint(0, 1)`` per X, in vector order -- the invariant
        that keeps historical runs byte-identical."""
        filled = V.fill_x(vec, random.Random(seed), strategy="random")
        rng = random.Random(seed)
        expected = tuple(v if v in (V.ZERO, V.ONE)
                         else rng.randint(0, 1) for v in vec)
        assert filled == expected

    @given(vectors, st.sampled_from(("fill0", "fill1", "adjacent")),
           st.integers(0, 1000))
    def test_deterministic_strategies_never_touch_rng(self, vec,
                                                      strategy, seed):
        rng = random.Random(seed)
        state = rng.getstate()
        V.fill_x(vec, rng, strategy=strategy)
        assert rng.getstate() == state

    def test_fill0_fill1(self):
        vec = V.vec("x1x0xx")
        rng = random.Random(0)
        assert V.vec_str(V.fill_x(vec, rng, strategy="fill0")) == \
            "010000"
        assert V.vec_str(V.fill_x(vec, rng, strategy="fill1")) == \
            "111011"

    def test_adjacent_copies_preceding_value(self):
        rng = random.Random(0)
        assert V.vec_str(V.fill_x(V.vec("x1x0xx"), rng,
                                  strategy="adjacent")) == "111000"

    def test_adjacent_leading_run_copies_first_specified(self):
        rng = random.Random(0)
        assert V.vec_str(V.fill_x(V.vec("xx1x"), rng,
                                  strategy="adjacent")) == "1111"

    def test_adjacent_all_x_fills_zero(self):
        rng = random.Random(0)
        assert V.vec_str(V.fill_x(V.vec("xxx"), rng,
                                  strategy="adjacent")) == "000"

    @given(vectors)
    def test_adjacent_never_adds_transitions(self, vec):
        """Adjacent fill yields the minimum-transition completion: no
        0->1/1->0 boundary exists that was not already forced by two
        specified bits."""
        filled = V.fill_x(vec, random.Random(0), strategy="adjacent")
        specified = [v for v in vec if v in (V.ZERO, V.ONE)]
        forced = sum(1 for a, b in zip(specified, specified[1:])
                     if a != b)
        actual = sum(1 for a, b in zip(filled, filled[1:]) if a != b)
        assert actual == forced

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown X-fill"):
            V.fill_x(V.vec("x"), random.Random(0), strategy="bogus")

    def test_strategy_registry(self):
        assert V.FILL_STRATEGIES == ("random", "fill0", "fill1",
                                     "adjacent")
