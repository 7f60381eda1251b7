"""Unit conversions: LinkSpec, WorkloadScale, TimeBase."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.units import (
    MPEG2_FRAME_BYTES_MEAN,
    MPEG2_FRAME_INTERVAL_MS,
    LinkSpec,
    TimeBase,
    WorkloadScale,
)


class TestLinkSpec:
    def test_paper_cycle_time_400mbps(self):
        # 32 bits at 400 Mbps = 80 ns per flit
        assert LinkSpec(400.0, 32).cycle_ns == pytest.approx(80.0)

    def test_paper_cycle_time_100mbps(self):
        assert LinkSpec(100.0, 32).cycle_ns == pytest.approx(320.0)

    def test_flits_per_second(self):
        # one flit per cycle: 12.5 M flits/s at 400 Mbps
        assert 1e9 / LinkSpec(400.0, 32).cycle_ns == pytest.approx(12.5e6)

    def test_bytes_to_flits(self):
        assert LinkSpec(400.0, 32).bytes_to_flits(4) == pytest.approx(1.0)

    def test_mpeg_frame_is_about_4167_flits(self):
        flits = LinkSpec(400.0, 32).bytes_to_flits(MPEG2_FRAME_BYTES_MEAN)
        assert flits == pytest.approx(4166.5)

    def test_frame_interval_is_412500_cycles(self):
        cycles = LinkSpec(400.0, 32).ms_to_cycles(MPEG2_FRAME_INTERVAL_MS)
        assert cycles == pytest.approx(412_500)

    def test_ms_roundtrip(self):
        link = LinkSpec(400.0, 32)
        assert link.cycles_to_ms(link.ms_to_cycles(12.5)) == pytest.approx(12.5)

    def test_us_roundtrip(self):
        link = LinkSpec(100.0, 32)
        assert link.cycles_to_us(link.ms_to_cycles(7.25e-3)) == pytest.approx(7.25)

    def test_stream_rate_fraction(self):
        # A 4 Mbps stream is 1% of a 400 Mbps link.
        assert LinkSpec(400.0, 32).rate_fraction(4.0) == pytest.approx(0.01)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(0.0, 32)

    def test_rejects_nonpositive_flit_size(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(400.0, 0)

    @given(st.floats(min_value=0.001, max_value=1e5))
    def test_ms_cycles_inverse_property(self, ms):
        link = LinkSpec(400.0, 32)
        assert link.cycles_to_ms(link.ms_to_cycles(ms)) == pytest.approx(
            ms, rel=1e-9
        )


class TestWorkloadScale:
    def test_identity_scale(self):
        scale = WorkloadScale(1.0)
        assert scale.scale_flits(100.0) == 100.0
        assert scale.scale_cycles(100.0) == 100.0
        assert scale.unscale_cycles(100.0) == 100.0

    def test_scaling_preserves_rate_fraction(self):
        scale = WorkloadScale(20.0)
        flits, cycles = 4167.0, 412_500.0
        before = flits / cycles
        after = scale.scale_flits(flits) / scale.scale_cycles(cycles)
        assert after == pytest.approx(before)

    def test_unscale_inverts_scale(self):
        scale = WorkloadScale(7.5)
        assert scale.unscale_cycles(scale.scale_cycles(999.0)) == pytest.approx(
            999.0
        )

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            WorkloadScale(0.0)
        with pytest.raises(ConfigurationError):
            WorkloadScale(-3.0)

    @given(
        st.floats(min_value=0.01, max_value=1000),
        st.floats(min_value=0.001, max_value=1e6),
    )
    def test_rate_invariance_property(self, factor, flits):
        scale = WorkloadScale(factor)
        cycles = flits * 99.0  # arbitrary rate
        assert scale.scale_flits(flits) / scale.scale_cycles(
            cycles
        ) == pytest.approx(flits / cycles, rel=1e-9)


class TestTimeBase:
    def test_report_ms_at_scale_1(self, timebase):
        # 412500 cycles at 80 ns = 33 ms
        assert timebase.report_ms(412_500) == pytest.approx(33.0)

    def test_report_ms_undoes_workload_scaling(self, link400):
        tb = TimeBase(link400, WorkloadScale(20.0))
        # a scaled run measures interval/20 cycles for a 33 ms interval
        assert tb.report_ms(412_500 / 20) == pytest.approx(33.0)

    def test_report_us(self, link400):
        tb = TimeBase(link400, WorkloadScale(1.0))
        assert tb.report_us(100) == pytest.approx(8.0)

    def test_report_nan_passthrough(self, timebase):
        assert math.isnan(timebase.report_ms(float("nan")))
