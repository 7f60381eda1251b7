"""Traffic generation: MPEG models, streams, best-effort sources."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.router.flit import TrafficClass
from repro.sim.rng import RngStreams
from repro.traffic.besteffort import BestEffortConfig, BestEffortSource
from repro.traffic.mpeg import FrameSizeModel, vbr_frame_model
from repro.traffic.streams import MediaStream, StreamConfig

from conftest import make_network


class TestFrameSizeModel:
    def test_cbr_is_constant(self):
        model = FrameSizeModel(100.0, 0.0)
        rng = RngStreams(1).stream("t")
        assert [model.draw(rng) for _ in range(10)] == [100] * 10
        assert model.is_constant

    def test_vbr_varies(self):
        model = vbr_frame_model(100.0, 20.0)
        rng = RngStreams(1).stream("t")
        sizes = [model.draw(rng) for _ in range(50)]
        assert len(set(sizes)) > 1
        assert not model.is_constant

    def test_vbr_mean_matches(self):
        model = vbr_frame_model(200.0, 40.0)
        rng = RngStreams(2).stream("t")
        sizes = [model.draw(rng) for _ in range(3000)]
        assert sum(sizes) / len(sizes) == pytest.approx(200.0, rel=0.05)

    def test_vbr_std_matches(self):
        model = vbr_frame_model(200.0, 40.0)
        rng = RngStreams(2).stream("t")
        sizes = [model.draw(rng) for _ in range(3000)]
        mean = sum(sizes) / len(sizes)
        std = math.sqrt(sum((s - mean) ** 2 for s in sizes) / len(sizes))
        assert std == pytest.approx(40.0, rel=0.1)

    def test_draw_never_below_one_flit(self):
        model = FrameSizeModel(2.0, 50.0)  # pathological tail
        rng = RngStreams(3).stream("t")
        assert all(model.draw(rng) >= 1 for _ in range(200))

    def test_rejects_bad_mean(self):
        with pytest.raises(ConfigurationError):
            FrameSizeModel(0.0, 1.0)

    def test_rejects_negative_std(self):
        with pytest.raises(ConfigurationError):
            FrameSizeModel(10.0, -1.0)

    def test_paper_ratio_preserved(self):
        # sigma/mean = 3333/16666 at any scale
        model = vbr_frame_model(4166.5, 833.25)
        assert model.std_flits / model.mean_flits == pytest.approx(0.2, rel=0.01)


def _stream_config(**overrides):
    defaults = dict(
        src_node=0,
        dst_node=1,
        src_vc=0,
        dst_vc=0,
        vtick=100.0,
        message_size=5,
        frame_interval=200,
        frame_model=FrameSizeModel(20.0, 0.0),
        traffic_class=TrafficClass.CBR,
        phase=0,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


class TestMediaStream:
    def test_emits_frames_at_interval(self):
        net = make_network()
        stream = MediaStream(_stream_config(), RngStreams(1).stream("s"))
        stream.start(net)
        net.run(1000)
        assert stream.frames_emitted == 5

    def test_phase_delays_first_frame(self):
        net = make_network()
        stream = MediaStream(
            _stream_config(phase=150), RngStreams(1).stream("s")
        )
        stream.start(net)
        net.run(160)
        assert stream.frames_emitted == 1
        net.run(349)
        assert stream.frames_emitted == 1
        net.run(360)
        assert stream.frames_emitted == 2

    def test_frame_packetised_into_messages(self):
        delivered = []
        net = make_network(on_message=lambda m, t: delivered.append(m))
        stream = MediaStream(_stream_config(), RngStreams(1).stream("s"))
        stream.start(net)
        net.run(400)
        net.run_until_drained()
        frame0 = [m for m in delivered if m.frame_id == 0]
        assert len(frame0) == 4  # 20 flits / 5-flit messages
        assert all(m.frame_messages == 4 for m in frame0)
        assert all(m.stream_id == stream.stream_id for m in frame0)

    def test_last_message_lands_at_interval_boundary(self):
        net = make_network()
        injected = []
        original = net.schedule_message

        def spy(time, msg):
            injected.append((time, msg))
            original(time, msg)

        net.schedule_message = spy
        stream = MediaStream(_stream_config(), RngStreams(1).stream("s"))
        stream.start(net)
        net.run(201)
        first_frame = [t for t, m in injected if m.frame_id == 0]
        assert max(first_frame) == 200  # aligned to frame_start + interval

    def test_rate_fraction(self):
        stream = MediaStream(_stream_config(), RngStreams(1).stream("s"))
        assert stream.rate_fraction == pytest.approx(20.0 / 200.0)

    def test_vbr_stream_uses_model(self):
        net = make_network()
        config = _stream_config(
            frame_model=vbr_frame_model(20.0, 5.0),
            traffic_class=TrafficClass.VBR,
        )
        stream = MediaStream(config, RngStreams(1).stream("s"))
        stream.start(net)
        net.run(2000)
        assert stream.frames_emitted == 10

    def test_rejects_best_effort_class(self):
        with pytest.raises(ConfigurationError):
            _stream_config(traffic_class=TrafficClass.BEST_EFFORT)

    def test_rejects_bad_phase(self):
        with pytest.raises(ConfigurationError):
            _stream_config(phase=500)

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            _stream_config(frame_interval=0)


def _be_config(**overrides):
    defaults = dict(
        src_node=0,
        dst_nodes=[1, 2, 3],
        vcs=[0, 1],
        message_size=4,
        rate_fraction=0.2,
        phase=0,
    )
    defaults.update(overrides)
    return BestEffortConfig(**defaults)


class TestBestEffortSource:
    def test_constant_rate(self):
        net = make_network()
        source = BestEffortSource(_be_config(), RngStreams(1).stream("be"))
        source.start(net)
        net.run(2000)
        # 0.2 flits/cycle / 4-flit messages = 1 message per 20 cycles
        assert source.messages_emitted == pytest.approx(100, abs=2)

    def test_mean_interval(self):
        assert _be_config().mean_interval == pytest.approx(20.0)

    def test_messages_are_best_effort(self):
        delivered = []
        net = make_network(on_message=lambda m, t: delivered.append(m))
        source = BestEffortSource(_be_config(), RngStreams(1).stream("be"))
        source.start(net)
        net.run(200)
        net.run_until_drained()
        assert delivered
        for msg in delivered:
            assert msg.traffic_class == TrafficClass.BEST_EFFORT
            assert msg.dst_node in (1, 2, 3)
            assert msg.src_vc in (0, 1)

    def test_destinations_cover_all_nodes(self):
        net = make_network()
        seen = set()
        source = BestEffortSource(_be_config(), RngStreams(1).stream("be"))
        original = net.inject_now

        def spy(msg):
            seen.add(msg.dst_node)
            original(msg)

        net.inject_now = spy
        source.start(net)
        net.run(2000)
        assert seen == {1, 2, 3}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dst_nodes=[]),
            dict(vcs=[]),
            dict(message_size=0),
            dict(rate_fraction=0.0),
            dict(rate_fraction=1.5),
            dict(rate_fraction=float("nan")),
            dict(phase=-1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            _be_config(**kwargs)

    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_mean_interval_matches_rate(self, rate):
        config = _be_config(rate_fraction=rate)
        assert config.mean_interval == pytest.approx(4.0 / rate)
