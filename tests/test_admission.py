"""Utilisation-based admission control."""

import pytest

from repro.core.admission import AdmissionController
from repro.errors import AdmissionError, ConfigurationError

IN0 = ("host-in", 0, 0)
OUT1 = ("host-out", 1, 0)
OUT2 = ("host-out", 2, 0)


class TestAdmissionController:
    def test_admits_within_threshold(self):
        controller = AdmissionController(threshold=0.75)
        decision = controller.admit(1, 0.01, [IN0, OUT1])
        assert decision
        assert controller.reserved(IN0) == pytest.approx(0.01)
        assert controller.reserved(OUT1) == pytest.approx(0.01)

    def test_rejects_over_threshold(self):
        controller = AdmissionController(threshold=0.05)
        assert controller.admit(1, 0.04, [IN0, OUT1])
        decision = controller.admit(2, 0.04, [IN0, OUT2])
        assert not decision
        assert decision.bottleneck[0] == IN0

    def test_rejection_reserves_nothing(self):
        controller = AdmissionController(threshold=0.05)
        controller.admit(1, 0.04, [IN0, OUT1])
        controller.admit(2, 0.04, [IN0, OUT2])
        assert controller.reserved(OUT2) == 0.0
        assert controller.admitted_streams == [1]

    def test_paper_capacity_75_one_percent_streams(self):
        # 0.75 threshold / 1% streams: exactly 75 streams per channel
        controller = AdmissionController(threshold=0.75)
        admitted = 0
        for stream in range(100):
            if controller.admit(stream, 0.01, [IN0]):
                admitted += 1
        assert admitted == 75

    def test_release_frees_capacity(self):
        controller = AdmissionController(threshold=0.02)
        assert controller.admit(1, 0.02, [IN0])
        assert not controller.would_admit(0.02, [IN0])
        controller.release(1)
        assert controller.would_admit(0.02, [IN0])
        assert controller.reserved(IN0) == 0.0

    def test_would_admit_does_not_commit(self):
        controller = AdmissionController(threshold=0.5)
        assert controller.would_admit(0.3, [IN0])
        assert controller.reserved(IN0) == 0.0

    def test_bottleneck_is_first_saturated_channel(self):
        controller = AdmissionController(threshold=0.1)
        controller.admit(1, 0.08, [OUT1])
        decision = controller.would_admit(0.05, [IN0, OUT1])
        assert decision.bottleneck[0] == OUT1
        assert decision.bottleneck[1] == pytest.approx(0.13)

    def test_double_admit_raises(self):
        controller = AdmissionController()
        controller.admit(1, 0.01, [IN0])
        with pytest.raises(AdmissionError):
            controller.admit(1, 0.01, [IN0])

    def test_release_unknown_raises(self):
        with pytest.raises(AdmissionError):
            AdmissionController().release(9)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(threshold=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(threshold=1.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            AdmissionController().would_admit(0.0, [IN0])

    def test_utilization_snapshot(self):
        controller = AdmissionController()
        controller.admit(1, 0.02, [IN0, OUT1])
        controller.admit(2, 0.03, [IN0])
        util = controller.utilization()
        assert util[IN0] == pytest.approx(0.05)
        assert util[OUT1] == pytest.approx(0.02)

    def test_multipath_streams_reserve_every_hop(self):
        controller = AdmissionController(threshold=0.75)
        path = [IN0, ("link", 0, 4), ("link", 1, 5), OUT1]
        controller.admit(1, 0.01, path)
        for channel in path:
            assert controller.reserved(channel) == pytest.approx(0.01)


def _scan_victim(controller, channel):
    """The whole-table scan ``_pick_victim`` replaced: every admitted
    stream, a linear ``channel in path``, minimum of (is_cbr, -id)."""
    victim = victim_key = None
    for stream_id, (_, path, tclass) in controller._streams.items():
        if channel not in path:
            continue
        key = (tclass == "cbr", -stream_id)
        if victim_key is None or key < victim_key:
            victim_key, victim = key, stream_id
    return victim


class TestChannelIndex:
    """``degrade`` walks the streams on one channel, not every stream."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_victims_as_the_scan_on_random_reservations(self, seed):
        import random

        rng = random.Random(seed)
        channels = [("link", router, port) for router in range(4) for port in range(3)]
        controller = AdmissionController(threshold=0.75)
        next_id = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.6:
                # paths may cross a channel twice (a detour through it)
                path = rng.choices(channels, k=rng.randint(1, 4))
                controller.admit(
                    next_id, rng.choice((0.01, 0.03, 0.08)), path,
                    rng.choice(("cbr", "vbr")),
                )
                next_id += 1
            elif roll < 0.75 and controller.admitted_streams:
                controller.release(rng.choice(controller.admitted_streams))
            elif roll < 0.9:
                channel = rng.choice(channels)
                expected = []
                limit = controller.threshold * 0.5
                # replay degrade() with the scan choosing the victims
                twin = AdmissionController(threshold=0.75)
                twin._streams = dict(controller._streams)
                twin._reserved = dict(controller._reserved)
                while twin._reserved.get(channel, 0.0) > limit + 1e-12:
                    victim = _scan_victim(twin, channel)
                    expected.append(victim)
                    twin.release(victim)
                assert controller.degrade(channel, 0.5) == expected
            else:
                controller.recover(rng.choice(channels))
            for channel in channels:
                assert controller._pick_victim(channel) == _scan_victim(
                    controller, channel
                )
            crossing = {}
            for stream_id, (_, path, _) in controller._streams.items():
                for channel in path:
                    crossing.setdefault(channel, set()).add(stream_id)
            assert controller._on_channel == crossing
        assert controller.streams_shed > 0 and controller.streams_readmitted > 0
