"""Link pipeline: latency, ordering, consumer dispatch."""

import pytest

from repro.errors import FlowControlError
from repro.network.link import DEFAULT_LINK_LATENCY, Link
from repro.router.flit import Message, TrafficClass


class _RecordingSink:
    def __init__(self):
        self.ejected = []

    def eject(self, clock, msg, flit_index):
        self.ejected.append((clock, msg.msg_id, flit_index))


class _RecordingRouter:
    def __init__(self):
        self.accepted = []

    def accept_flit(self, clock, port, vc_index, msg, flit_index):
        self.accepted.append((clock, port, vc_index, msg.msg_id, flit_index))


def _msg(size=3):
    return Message(0, 1, size, 10.0, TrafficClass.VBR)


class TestLink:
    def test_requires_exactly_one_consumer(self):
        with pytest.raises(FlowControlError):
            Link()
        with pytest.raises(FlowControlError):
            Link(dest_router=_RecordingRouter(), sink=_RecordingSink())

    def test_rejects_zero_latency(self):
        with pytest.raises(FlowControlError):
            Link(sink=_RecordingSink(), latency=0)

    def test_delivers_after_latency(self):
        sink = _RecordingSink()
        link = Link(sink=sink, latency=2)
        msg = _msg()
        link.send(10, msg, 0, 3)
        assert link.deliver_due(10) == 0
        assert link.deliver_due(11) == 0
        assert link.deliver_due(12) == 1
        assert sink.ejected == [(12, msg.msg_id, 0)]

    def test_default_latency_models_stage1(self):
        assert DEFAULT_LINK_LATENCY == 2

    def test_router_consumer_gets_port_and_vc(self):
        router = _RecordingRouter()
        link = Link(dest_router=router, dest_port=5, latency=1)
        msg = _msg()
        link.send(0, msg, 2, 7)
        link.deliver_due(1)
        assert router.accepted == [(1, 5, 7, msg.msg_id, 2)]

    def test_pipelining_preserves_order(self):
        sink = _RecordingSink()
        link = Link(sink=sink, latency=2)
        msg = _msg()
        link.send(0, msg, 0, 0)
        link.send(1, msg, 1, 0)
        link.deliver_due(3)
        assert [e[2] for e in sink.ejected] == [0, 1]

    def test_in_flight_count(self):
        link = Link(sink=_RecordingSink(), latency=3)
        msg = _msg()
        assert link.in_flight == 0
        link.send(0, msg, 0, 0)
        link.send(1, msg, 1, 0)
        assert link.in_flight == 2
        link.deliver_due(3)
        assert link.in_flight == 1

    def test_next_arrival(self):
        link = Link(sink=_RecordingSink(), latency=2)
        assert not link.pending
        link.send(5, _msg(), 0, 0)
        assert link.pending[0][0] == 7

    def test_label_defaults_empty(self):
        link = Link(sink=_RecordingSink())
        assert link.label == ""
        assert Link(sink=_RecordingSink(), label="host3:eject").label == (
            "host3:eject"
        )


class TestPurgeMessage:
    def test_purge_drops_only_the_victim(self):
        sink = _RecordingSink()
        link = Link(sink=sink, latency=4)
        victim, other = _msg(), _msg()
        link.send(0, victim, 0, 2)
        link.send(1, other, 0, 3)
        link.send(2, victim, 1, 2)
        dropped = link.purge_message(victim)
        assert dropped == [2, 2]
        assert link.in_flight == 1
        link.deliver_due(10)
        assert [e[1] for e in sink.ejected] == [other.msg_id]

    def test_purge_empty_link_is_noop(self):
        link = Link(sink=_RecordingSink())
        assert link.purge_message(_msg()) == []

    def test_purge_missing_message_keeps_others(self):
        link = Link(sink=_RecordingSink(), latency=2)
        msg = _msg()
        link.send(0, msg, 0, 1)
        assert link.purge_message(_msg()) == []
        assert link.in_flight == 1

    def test_purge_with_flits_spanning_delivery_cycles(self):
        # flits of one message sent on consecutive cycles become due on
        # consecutive cycles; purging between deliveries must drop the
        # still-pending tail while keeping the accounting consistent
        sink = _RecordingSink()
        link = Link(sink=sink, latency=2)
        msg = _msg(size=4)
        for flit in range(4):
            link.send(flit, msg, flit, 0)
        link.deliver_due(2)  # flit 0 arrives
        assert link.in_flight == 3
        dropped = link.purge_message(msg)
        assert dropped == [0, 0, 0]
        assert link.in_flight == 0
        assert link.deliver_due(10) == 0
        assert [e[2] for e in sink.ejected] == [0]

    def test_in_flight_tracks_partial_deliveries(self):
        link = Link(sink=_RecordingSink(), latency=2)
        a, b = _msg(size=2), _msg(size=2)
        link.send(0, a, 0, 0)
        link.send(1, a, 1, 0)
        link.send(2, b, 0, 1)
        assert link.in_flight == 3
        link.deliver_due(2)
        assert link.in_flight == 2
        link.purge_message(a)
        assert link.in_flight == 1
        link.deliver_due(4)
        assert link.in_flight == 0
