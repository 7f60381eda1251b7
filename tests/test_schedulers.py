"""Multiplexer scheduling policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.schedulers import (
    FifoScheduler,
    RoundRobinScheduler,
    SchedulingPolicy,
    VirtualClockScheduler,
    make_scheduler,
)
from repro.core.virtual_clock import VirtualClockState
from repro.errors import ConfigurationError


class TestFactory:
    @pytest.mark.parametrize(
        "policy,cls",
        [
            (SchedulingPolicy.FIFO, FifoScheduler),
            (SchedulingPolicy.VIRTUAL_CLOCK, VirtualClockScheduler),
            (SchedulingPolicy.ROUND_ROBIN, RoundRobinScheduler),
        ],
    )
    def test_make_scheduler(self, policy, cls):
        scheduler = make_scheduler(policy)
        assert isinstance(scheduler, cls)
        assert scheduler.policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("priority")

    def test_instances_are_independent(self):
        assert make_scheduler("fifo") is not make_scheduler("fifo")


class TestFifoScheduler:
    def test_stamp_is_arrival_clock(self):
        state = VirtualClockState()
        state.open(0, vtick=10.0)
        assert FifoScheduler().stamp(77, state) == 77.0

    def test_stamp_ignores_vtick(self):
        fast, slow = VirtualClockState(), VirtualClockState()
        fast.open(0, 1.0)
        slow.open(0, 1000.0)
        scheduler = FifoScheduler()
        assert scheduler.stamp(5, fast) == scheduler.stamp(5, slow)

    def test_select_minimum_stamp(self):
        assert FifoScheduler().select([(9.0, 1), (3.0, 2), (7.0, 0)]) == 2

    def test_select_tie_breaks_to_lower_vc(self):
        assert FifoScheduler().select([(5.0, 3), (5.0, 1)]) == 1

    def test_select_single_candidate(self):
        assert FifoScheduler().select([(1.0, 4)]) == 4

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
        )
    )
    def test_select_is_minimum_property(self, candidates):
        chosen = FifoScheduler().select(candidates)
        chosen_key = min(k for k, vc in candidates if vc == chosen)
        assert all(chosen_key <= k or (k == chosen_key) for k, _ in candidates)
        assert (chosen_key, chosen) == min(candidates)


class TestVirtualClockScheduler:
    def test_stamp_advances_virtual_clock(self):
        state = VirtualClockState()
        state.open(0, vtick=50.0)
        scheduler = VirtualClockScheduler()
        assert scheduler.stamp(0, state) == pytest.approx(50.0)
        assert scheduler.stamp(0, state) == pytest.approx(100.0)

    def test_select_prefers_reserved_bandwidth(self):
        # the stream with the smaller Vtick accumulates smaller stamps
        scheduler = VirtualClockScheduler()
        fast, slow = VirtualClockState(), VirtualClockState()
        fast.open(0, vtick=10.0)
        slow.open(0, vtick=100.0)
        candidates = [
            (scheduler.stamp(0, slow), 0),
            (scheduler.stamp(0, fast), 1),
        ]
        assert scheduler.select(candidates) == 1


class TestRoundRobinScheduler:
    def test_rotates_through_candidates(self):
        scheduler = RoundRobinScheduler()
        candidates = [(0.0, 0), (0.0, 1), (0.0, 2)]
        picks = [scheduler.select(candidates) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_missing_candidates(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.select([(0.0, 0), (0.0, 2)]) == 0
        assert scheduler.select([(0.0, 0), (0.0, 2)]) == 2
        assert scheduler.select([(0.0, 0), (0.0, 2)]) == 0

    def test_wraps_around(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.select([(0.0, 3)]) == 3
        assert scheduler.select([(0.0, 1)]) == 1  # wrap: 1 < last(3)

    def test_ignores_stamps(self):
        scheduler = RoundRobinScheduler()
        # even a huge stamp wins if it's next in rotation
        assert scheduler.select([(1e12, 0), (0.0, 1)]) == 0

    @given(
        indices=st.sets(st.integers(min_value=0, max_value=15), min_size=1),
        stamps=st.lists(st.floats(min_value=0, max_value=1e9), min_size=16,
                        max_size=16),
        data=st.data(),
    )
    def test_select_is_the_literal_rotation(self, indices, stamps, data):
        """For any candidate set and any ``last`` in [-1, n): the first
        sorted index above ``last`` wins, else the lowest; ``last``
        then holds the grant."""
        last = data.draw(st.integers(min_value=-1, max_value=15))
        scheduler = RoundRobinScheduler()
        scheduler.last = last
        ordered = sorted(indices)
        above = [vc for vc in ordered if vc > last]
        expected = above[0] if above else ordered[0]
        candidates = [(stamps[vc], vc) for vc in indices]
        assert scheduler.select(candidates) == expected
        assert scheduler.last == expected
