"""Reproducible named RNG streams."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import rng as rng_module
from repro.sim.rng import RngStreams, _substream_seed, fast_shuffle


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


class _CountingRandom(random.Random):
    """A ``Random`` that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class _SubclassStreams(RngStreams):
    """``RngStreams`` whose substreams are a ``Random`` subclass."""

    def stream(self, name):
        rng = self._streams.get(name)
        if rng is None:
            rng = _CountingRandom(_substream_seed(self.seed, name))
            self._streams[name] = rng
        return rng


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
            reference, fast = random.Random(seed), _CountingRandom(seed)
            expected, got = list(range(size)), list(range(size))
            reference.shuffle(expected)
            draws = fast_shuffle(fast, got)
            assert got == expected
            assert fast.getstate() == reference.getstate()
            # the returned count is every getrandbits call, and that
            # many 32-bit words drawn in one call replay the walk
            assert draws == fast.calls
            replay = random.Random(seed)
            replay.getrandbits(32 * draws)
            assert replay.getstate() == reference.getstate()

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


def _walked(seed: int, name: str, length: int, count: int, walks: int = 1):
    """The reference: ``walks`` shuffles of ``range(length)`` on a
    fresh substream, the last one's prefix and the generator state."""
    reference = random.Random(_substream_seed(seed, name))
    for _ in range(walks):
        order = list(range(length))
        reference.shuffle(order)
    return order[:count], reference.getstate()


def _placed(rngs: RngStreams, name: str, length: int, count: int):
    """``shuffled_prefix``: (prefix, generator state, walks it made)."""
    walks = rng_module.PLACEMENT_WALKS
    stream, prefix = rngs.shuffled_prefix(name, length, count)
    return prefix, stream.getstate(), rng_module.PLACEMENT_WALKS - walks


class TestShuffledPrefix:
    """The placement memo replays a walk bit for bit, or walks."""

    NAME = "node7/placement"

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        hosts=st.integers(min_value=2, max_value=1025),
        first=st.sampled_from(["0", "1", "4", "all", "more"]),
        second=st.sampled_from(["0", "1", "4", "all", "more"]),
    )
    def test_cold_and_warm_placements_agree(self, seed, hosts, first, second):
        length = hosts - 1
        counts = {"0": 0, "1": 1, "4": 4, "all": length, "more": length + 3}
        with mock.patch.dict(rng_module._WALKS, clear=True):
            cold = _placed(RngStreams(seed), self.NAME, length, counts[first])
            warm = _placed(RngStreams(seed), self.NAME, length, counts[second])
        for (prefix, state, _), which in ((cold, first), (warm, second)):
            assert (prefix, state) == _walked(
                seed, self.NAME, length, counts[which]
            )
        assert cold[2] == 1
        # a warm build walks only for a longer prefix than the memo's
        longer = min(counts[second], length) > min(counts[first], length)
        assert warm[2] == int(longer)

    def test_drawn_stream_and_subclass_bypass_the_memo(self):
        seed, length, count = 5, 300, 4
        with mock.patch.dict(rng_module._WALKS, clear=True):
            rngs = RngStreams(seed)
            first = _placed(rngs, self.NAME, length, count)
            assert first[:2] == _walked(seed, self.NAME, length, count)
            # the memo is warm, but the stream has already walked once
            again = _placed(rngs, self.NAME, length, count)
            assert again[:2] == _walked(seed, self.NAME, length, count, 2)
            assert again[2] == 1
            # a Random subclass may draw differently: never replayed
            sub = _placed(_SubclassStreams(seed), self.NAME, length, count)
            assert sub[:2] == first[:2]
            assert sub[2] == 1

    def test_memo_is_bounded_in_insertion_order(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_WALKS", {})
        monkeypatch.setattr(rng_module, "_WALKS_CAP", 2)
        for name in ("a", "b", "c"):
            RngStreams(1).shuffled_prefix(name, 10, 1)
        assert list(rng_module._WALKS) == [
            (_substream_seed(1, name), 10) for name in ("b", "c")
        ]
