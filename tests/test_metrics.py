"""Statistics, delivery-interval and latency trackers, the collector."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.collector import MetricsCollector
from repro.metrics.delivery import FrameDeliveryTracker
from repro.metrics.latency import LatencyTracker
from repro.metrics.stats import RunningStats
from repro.router.flit import Message, TrafficClass
from repro.sim.units import LinkSpec, TimeBase, WorkloadScale


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.n == 0
        assert stats.variance == 0.0

    def test_single_value(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.min == stats.max == 5.0

    def test_known_values(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.std == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2))
    def test_matches_numpy(self, xs):
        stats = RunningStats()
        stats.extend(xs)
        assert stats.mean == pytest.approx(float(np.mean(xs)), abs=1e-6)
        assert stats.std == pytest.approx(float(np.std(xs)), abs=1e-6)


def _rt_message(stream_id, frame_id, frame_messages=1):
    return Message(
        0,
        1,
        5,
        100.0,
        TrafficClass.VBR,
        stream_id=stream_id,
        frame_id=frame_id,
        frame_messages=frame_messages,
    )


class TestFrameDeliveryTracker:
    def test_single_stream_intervals(self):
        tracker = FrameDeliveryTracker()
        for frame, t in enumerate((100, 200, 310, 400)):
            tracker.on_message(_rt_message(1, frame), t)
        assert tracker.frames_delivered == 4
        assert tracker.intervals == [100.0, 110.0, 90.0]
        assert tracker.mean_interval == pytest.approx(100.0)

    def test_multi_message_frames_complete_on_last(self):
        tracker = FrameDeliveryTracker()
        tracker.on_message(_rt_message(1, 0, frame_messages=3), 10)
        tracker.on_message(_rt_message(1, 0, frame_messages=3), 20)
        assert tracker.frames_delivered == 0
        assert tracker.incomplete_frames == 1
        tracker.on_message(_rt_message(1, 0, frame_messages=3), 30)
        assert tracker.frames_delivered == 1
        assert tracker.incomplete_frames == 0

    def test_streams_are_tracked_independently(self):
        tracker = FrameDeliveryTracker()
        tracker.on_message(_rt_message(1, 0), 100)
        tracker.on_message(_rt_message(2, 0), 150)
        tracker.on_message(_rt_message(1, 1), 200)
        tracker.on_message(_rt_message(2, 1), 300)
        assert sorted(tracker.intervals) == [100.0, 150.0]

    def test_warmup_suppresses_early_intervals(self):
        tracker = FrameDeliveryTracker(warmup=250)
        for frame, t in enumerate((100, 200, 300)):
            tracker.on_message(_rt_message(1, frame), t)
        # only the 200->300 interval completes after warmup
        assert tracker.intervals == [100.0]

    def test_no_intervals_is_nan(self):
        tracker = FrameDeliveryTracker()
        assert math.isnan(tracker.mean_interval)
        assert math.isnan(tracker.std_interval)

    def test_jitter_free_stream_has_zero_std(self):
        tracker = FrameDeliveryTracker()
        for frame in range(10):
            tracker.on_message(_rt_message(3, frame), 1000 * (frame + 1))
        assert tracker.std_interval == pytest.approx(0.0)
        assert tracker.mean_interval == pytest.approx(1000.0)


class TestLatencyTracker:
    def _delivered(self, tracker, inject, deliver):
        msg = Message(0, 1, 5, 1e12, TrafficClass.BEST_EFFORT)
        msg.inject_time = inject
        tracker.on_message(msg, deliver)

    def test_mean_latency(self):
        tracker = LatencyTracker()
        self._delivered(tracker, 0, 50)
        self._delivered(tracker, 100, 250)
        assert tracker.mean_latency == pytest.approx(100.0)
        assert tracker.count == 2
        assert tracker.max_latency == 150.0

    def test_warmup_filtering(self):
        tracker = LatencyTracker(warmup=100)
        self._delivered(tracker, 0, 50)  # before warmup: dropped
        self._delivered(tracker, 100, 160)
        assert tracker.count == 1
        assert tracker.mean_latency == pytest.approx(60.0)

    def test_empty_is_nan(self):
        tracker = LatencyTracker()
        assert math.isnan(tracker.mean_latency)
        assert math.isnan(tracker.std_latency)

    def test_samples_kept_optionally(self):
        tracker = LatencyTracker(keep_samples=False)
        self._delivered(tracker, 0, 10)
        assert tracker.samples == []
        assert tracker.count == 1


class TestMetricsCollector:
    def test_dispatch_by_class(self):
        tb = TimeBase(LinkSpec(400.0, 32), WorkloadScale(1.0))
        collector = MetricsCollector(tb)
        rt = _rt_message(1, 0)
        be = Message(0, 1, 5, 1e12, TrafficClass.BEST_EFFORT)
        be.inject_time = 0
        collector.on_message(rt, 100)
        collector.on_message(be, 50)
        assert collector.delivery.frames_delivered == 1
        assert collector.latency.count == 1

    def test_snapshot_reports_paper_units(self):
        tb = TimeBase(LinkSpec(400.0, 32), WorkloadScale(20.0))
        collector = MetricsCollector(tb)
        # two frames 412500/20 cycles apart = 33 ms paper-equivalent
        collector.on_message(_rt_message(1, 0), 0)
        collector.on_message(_rt_message(1, 1), 412_500 // 20)
        metrics = collector.snapshot()
        assert metrics.d == pytest.approx(33.0, rel=1e-3)
        assert metrics.sigma_d == pytest.approx(0.0)
        assert metrics.interval_count == 1

    def test_be_latency_is_unscaled_microseconds(self):
        tb = TimeBase(LinkSpec(400.0, 32), WorkloadScale(20.0))
        collector = MetricsCollector(tb)
        be = Message(0, 1, 5, 1e12, TrafficClass.BEST_EFFORT)
        be.inject_time = 0
        collector.on_message(be, 125)  # 125 cycles x 80 ns = 10 us
        metrics = collector.snapshot()
        assert metrics.be_latency_us == pytest.approx(10.0)
        assert metrics.be_latency_us_paper_equivalent == pytest.approx(200.0)

    def test_jitter_free_check(self):
        tb = TimeBase(LinkSpec(400.0, 32), WorkloadScale(1.0))
        collector = MetricsCollector(tb)
        for frame in range(5):
            collector.on_message(_rt_message(1, frame), 412_500 * (frame + 1))
        assert collector.snapshot().is_jitter_free()
