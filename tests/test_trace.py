"""Trace-driven frame sources."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RngStreams
from repro.traffic.trace import (
    DEFAULT_GOP_PATTERN,
    TraceFrameModel,
    generate_mpeg2_gop_trace,
)

from conftest import make_network
from repro.traffic.streams import MediaStream, StreamConfig
from repro.router.flit import TrafficClass


class TestTraceFrameModel:
    def test_replays_in_order(self):
        model = TraceFrameModel([10, 20, 30])
        rng = RngStreams(1).stream("x")
        assert [model.draw(rng) for _ in range(3)] == [10, 20, 30]

    def test_loops_past_end(self):
        model = TraceFrameModel([10, 20])
        rng = RngStreams(1).stream("x")
        assert [model.draw(rng) for _ in range(5)] == [10, 20, 10, 20, 10]

    def test_mean_and_std_reflect_trace(self):
        model = TraceFrameModel([10, 20, 30])
        assert model.mean_flits == pytest.approx(20.0)
        assert model.std_flits == pytest.approx((200 / 3) ** 0.5)

    def test_constant_trace_detected(self):
        assert TraceFrameModel([5, 5, 5]).is_constant
        assert not TraceFrameModel([5, 6]).is_constant

    def test_rejects_empty_or_invalid(self):
        with pytest.raises(ConfigurationError):
            TraceFrameModel([])
        with pytest.raises(ConfigurationError):
            TraceFrameModel([5, 0])

    def test_drives_a_media_stream(self):
        net = make_network()
        model = TraceFrameModel([15, 25])
        stream = MediaStream(
            StreamConfig(
                src_node=0,
                dst_node=1,
                src_vc=0,
                dst_vc=0,
                vtick=100.0,
                message_size=5,
                frame_interval=300,
                frame_model=model,
                traffic_class=TrafficClass.VBR,
            ),
            RngStreams(1).stream("s"),
        )
        stream.start(net)
        net.run(700)
        net.run_until_drained()
        # frames of 15 and 25 flits: 40 flits delivered
        assert net.flits_ejected == 40


class TestGopGenerator:
    def test_mean_is_respected(self):
        rng = RngStreams(2).stream("gop")
        sizes = generate_mpeg2_gop_trace(1500, 200.0, rng)
        assert sum(sizes) / len(sizes) == pytest.approx(200.0, rel=0.05)

    def test_i_frames_are_largest_without_noise(self):
        rng = RngStreams(2).stream("gop")
        sizes = generate_mpeg2_gop_trace(15, 200.0, rng, noise=0.0)
        by_type = dict(zip(DEFAULT_GOP_PATTERN, sizes))
        assert by_type["I"] > by_type["P"] > by_type["B"]

    def test_noise_free_trace_is_periodic(self):
        rng = RngStreams(2).stream("gop")
        sizes = generate_mpeg2_gop_trace(30, 100.0, rng, noise=0.0)
        assert sizes[:15] == sizes[15:]

    def test_rejects_bad_pattern(self):
        rng = RngStreams(2).stream("gop")
        with pytest.raises(ConfigurationError):
            generate_mpeg2_gop_trace(10, 100.0, rng, pattern="IXB")

    def test_rejects_bad_noise(self):
        rng = RngStreams(2).stream("gop")
        with pytest.raises(ConfigurationError):
            generate_mpeg2_gop_trace(10, 100.0, rng, noise=1.5)

    def test_rejects_zero_frames(self):
        rng = RngStreams(2).stream("gop")
        with pytest.raises(ConfigurationError):
            generate_mpeg2_gop_trace(0, 100.0, rng)
