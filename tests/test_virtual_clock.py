"""The Virtual Clock algorithm (paper section 3.3 / Zhang 1991)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.virtual_clock import (
    BEST_EFFORT_VTICK,
    VirtualClockState,
    vtick_for_fraction,
)
from repro.errors import ConfigurationError


class TestVtickHelpers:
    def test_vtick_for_fraction(self):
        # a 1% stream is entitled to one flit every 100 cycles
        assert vtick_for_fraction(0.01) == pytest.approx(100.0)

    def test_full_link_fraction(self):
        assert vtick_for_fraction(1.0) == pytest.approx(1.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            vtick_for_fraction(0.0)
        with pytest.raises(ConfigurationError):
            vtick_for_fraction(1.5)

    def test_best_effort_vtick_dwarfs_real_time(self):
        # any plausible run length stays far below the BE stamp offset
        assert BEST_EFFORT_VTICK > 1e9


class TestVirtualClockState:
    def test_open_initialises_auxvc_to_clock(self):
        state = VirtualClockState()
        state.open(clock=500, vtick=10.0)
        assert state.auxvc == 500.0
        assert state.is_open

    def test_first_stamp_is_clock_plus_vtick(self):
        state = VirtualClockState()
        state.open(clock=100, vtick=25.0)
        assert state.stamp_arrival(100) == pytest.approx(125.0)

    def test_burst_is_paced_in_virtual_time(self):
        # All arrivals at the same clock: stamps advance by Vtick each,
        # which is the rate regulation MediaWorm relies on.
        state = VirtualClockState()
        state.open(clock=0, vtick=100.0)
        stamps = [state.stamp_arrival(0) for _ in range(5)]
        assert stamps == [pytest.approx(100.0 * (i + 1)) for i in range(5)]

    def test_idle_connection_resyncs_to_clock(self):
        # max(Clock, auxVC): after an idle period the stamp follows the
        # wall clock instead of granting banked credit.
        state = VirtualClockState()
        state.open(clock=0, vtick=10.0)
        state.stamp_arrival(0)  # auxvc = 10
        assert state.stamp_arrival(1000) == pytest.approx(1010.0)

    def test_backlogged_connection_keeps_virtual_lead(self):
        state = VirtualClockState()
        state.open(clock=0, vtick=10.0)
        for _ in range(10):
            last = state.stamp_arrival(0)
        # arriving at clock 50 < auxvc 100: stamp keeps growing from 100
        assert state.stamp_arrival(50) == pytest.approx(last + 10.0)

    def test_close_resets(self):
        state = VirtualClockState()
        state.open(clock=10, vtick=5.0)
        state.stamp_arrival(10)
        state.close()
        assert not state.is_open
        assert state.vtick == BEST_EFFORT_VTICK

    def test_open_rejects_bad_vtick(self):
        state = VirtualClockState()
        with pytest.raises(ConfigurationError):
            state.open(clock=0, vtick=0.0)

    def test_smaller_vtick_means_earlier_stamps(self):
        # "A smaller Vtick value means higher bandwidth requirement."
        fast, slow = VirtualClockState(), VirtualClockState()
        fast.open(0, vtick=10.0)
        slow.open(0, vtick=100.0)
        assert fast.stamp_arrival(0) < slow.stamp_arrival(0)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1),
        st.floats(min_value=0.5, max_value=1e4),
    )
    def test_stamps_strictly_increase_for_nondecreasing_clock(
        self, clocks, vtick
    ):
        state = VirtualClockState()
        clocks = sorted(clocks)
        state.open(clocks[0], vtick)
        previous = None
        for clock in clocks:
            stamp = state.stamp_arrival(clock)
            if previous is not None:
                assert stamp > previous
            previous = stamp

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.5, max_value=1e4),
    )
    def test_stamp_never_precedes_clock(self, clock, vtick):
        state = VirtualClockState()
        state.open(0, vtick)
        assert state.stamp_arrival(clock) >= clock
