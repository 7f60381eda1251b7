"""Reproducible named RNG streams."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngStreams, fast_shuffle


class TestRngStreams:
    def test_same_name_returns_same_stream(self):
        rngs = RngStreams(42)
        assert rngs.stream("a/b") is rngs.stream("a/b")

    def test_same_seed_same_sequence(self):
        a = RngStreams(42).stream("vbr/node0")
        b = RngStreams(42).stream("vbr/node0")
        assert [a.random() for _ in range(10)] == [
            b.random() for _ in range(10)
        ]

    def test_different_names_differ(self):
        rngs = RngStreams(42)
        a = rngs.stream("x")
        b = rngs.stream("y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x")
        b = RngStreams(2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_are_independent_of_creation_order(self):
        first = RngStreams(9)
        second = RngStreams(9)
        first.stream("alpha")  # extra stream created first
        a = first.stream("beta").random()
        b = second.stream("beta").random()
        assert a == b

    def test_fork_is_deterministic(self):
        a = RngStreams(5).fork("child").stream("s").random()
        b = RngStreams(5).fork("child").stream("s").random()
        assert a == b

    def test_fork_differs_from_parent(self):
        parent = RngStreams(5)
        child = parent.fork("child")
        assert parent.stream("s").random() != child.stream("s").random()

    def test_seed_attribute_preserved(self):
        assert RngStreams(123).seed == 123


def _boundary_sizes():
    """0..70, then every power of two up to 1024 with both neighbours."""
    sizes = set(range(71))
    for exponent in range(1, 11):
        sizes.update((2**exponent - 1, 2**exponent, 2**exponent + 1))
    return sorted(sizes)


class TestFastShuffle:
    """``fast_shuffle`` is ``Random.shuffle`` draw for draw.

    Placement seeds (which destination every stream gets, and every
    draw the node's generator makes afterwards) depend on both the
    permutation and the generator state left behind, on whichever
    CPython runs the suite.
    """

    @pytest.mark.parametrize("size", _boundary_sizes())
    def test_matches_random_shuffle_at_boundaries(self, size):
        for seed in (0, 1, 2**40 + 7):
            reference, fast = random.Random(seed), random.Random(seed)
            expected, got = list(range(size)), list(range(size))
            reference.shuffle(expected)
            fast_shuffle(fast, got)
            assert got == expected
            assert fast.getstate() == reference.getstate()

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        size=st.integers(min_value=0, max_value=1025),
    )
    def test_matches_random_shuffle(self, seed, size):
        reference, fast = random.Random(seed), random.Random(seed)
        expected, got = list(range(size)), list(range(size))
        reference.shuffle(expected)
        fast_shuffle(fast, got)
        assert got == expected
        assert fast.getstate() == reference.getstate()

    def test_substream_keeps_drawing_the_same_values(self):
        """The draws placement makes after the shuffle are unchanged."""
        reference = RngStreams(3).stream("node5/placement")
        fast = RngStreams(3).stream("node5/placement")
        items = list(range(1023))
        reference.shuffle(list(items))
        fast_shuffle(fast, items)
        assert [fast.randrange(4096) for _ in range(8)] == [
            reference.randrange(4096) for _ in range(8)
        ]
