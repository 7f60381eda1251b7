"""Network assembly, the cycle loop, and conservation audits."""

import pytest

from repro.errors import (
    ConfigurationError,
    PortCountError,
    SimulationError,
)
from repro.network.network import Network
from repro.network.topology import fat_mesh_2x2, single_switch
from repro.router.config import RouterConfig
from repro.router.flit import TrafficClass

from conftest import deliver_all, make_message, make_network


class TestConstruction:
    def test_port_count_mismatch_is_rejected(self):
        # config says 8 ports but the topology needs 4: refuse loudly
        # instead of silently adapting (PortCountError is a typed
        # ConfigurationError so existing handlers still catch it)
        with pytest.raises(PortCountError, match="num_ports=4"):
            Network(single_switch(4), RouterConfig(num_ports=8, vcs_per_pc=2))
        assert issubclass(PortCountError, ConfigurationError)

    def test_matching_port_count_is_accepted(self):
        net = Network(single_switch(4), RouterConfig(num_ports=4, vcs_per_pc=2))
        assert net.config.num_ports == 4

    def test_every_host_has_interface_and_sink(self):
        net = make_network(ports=4)
        assert set(net.interfaces) == {0, 1, 2, 3}
        assert set(net.sinks) == {0, 1, 2, 3}

    def test_host_credit_sinks_point_at_ni(self):
        net = make_network(ports=4, vcs=2)
        router = net.routers[0]
        ni = net.interfaces[2]
        assert router.inputs[2] == []  # closed until the NI opens it
        assert ni.open_port() is router.inputs[2]
        assert len(router.inputs[2]) == 2
        for vc in router.inputs[2]:
            assert vc.credit_sink is ni.vcs[vc.index]

    def test_fat_mesh_channel_wiring(self):
        net = Network(fat_mesh_2x2(), RouterConfig(vcs_per_pc=2))
        for src_r, src_p, dst_r, dst_p in net.topology.channels:
            src = net.routers[src_r]
            dst = net.routers[dst_r]
            assert src.outputs[src_p] == [] and dst.inputs[dst_p] == []
            # opening an output port opens the input port it feeds
            assert len(src.open_output(src_p)) == 2
            assert len(dst.inputs[dst_p]) == 2
            for vc_index in range(2):
                ovc = src.outputs[src_p][vc_index]
                ivc = dst.inputs[dst_p][vc_index]
                assert ovc.downstream is ivc
                assert ivc.credit_sink is ovc
                assert ovc.credits == net.config.flit_buffer_depth

    def test_host_output_has_no_credit_limit(self):
        net = make_network(ports=4)
        router = net.routers[0]
        assert len(router.open_output(0)) == net.config.vcs_per_pc
        for ovc in router.outputs[0]:
            assert ovc.downstream is None


class TestInjectionApi:
    def test_inject_now_counts_flits(self):
        net = make_network()
        net.inject_now(make_message(size=5))
        assert net.flits_injected == 5
        assert net.flits_in_flight == 5

    def test_unknown_source_rejected(self):
        net = make_network(ports=4)
        with pytest.raises(ConfigurationError):
            net.inject_now(make_message(src=9, dst=1))

    def test_unknown_destination_rejected(self):
        net = make_network(ports=4)
        with pytest.raises(ConfigurationError):
            net.inject_now(make_message(src=0, dst=9))

    def test_schedule_in_past_rejected(self):
        net = make_network()
        net.run(10)
        with pytest.raises(SimulationError):
            net.schedule_message(5, make_message())
        with pytest.raises(SimulationError):
            net.schedule_call(5, lambda: None)

    def test_scheduled_message_fires_at_time(self):
        net = make_network()
        msg = make_message(size=1)
        net.schedule_message(100, msg)
        net.run(300)
        assert msg.inject_time == 100
        assert msg.deliver_time == 107


class TestCycleLoop:
    def test_idle_network_jumps_clock(self):
        net = make_network()
        msg = make_message(size=1)
        net.schedule_message(1_000_000, msg)
        net.run(1_000_050)
        assert msg.deliver_time > 1_000_000
        assert net.clock == 1_000_050

    def test_run_is_resumable(self):
        net = make_network()
        msg = make_message(size=10)
        net.inject_now(msg)
        net.run(5)
        mid_clock = net.clock
        net.run(200)
        assert mid_clock == 5
        assert msg.deliver_time > 0

    def test_run_until_drained(self):
        net = make_network()
        msg = make_message(size=8)
        net.inject_now(msg)
        net.run_until_drained()
        assert net.flits_in_flight == 0
        assert msg.deliver_time > 0

    def test_run_until_drained_raises_when_stuck(self):
        # a best-effort message with no best-effort VCs never drains
        net = make_network(vcs=2, rt_vc_count=2)
        net.inject_now(
            make_message(
                vtick=1e12,
                traffic_class=TrafficClass.BEST_EFFORT,
                dst_vc=None,
            )
        )
        with pytest.raises(SimulationError):
            net.run_until_drained(max_extra=2_000)

    def test_clock_stops_at_until(self):
        net = make_network()
        net.run(123)
        assert net.clock == 123


class TestConservation:
    def test_conservation_during_flight(self):
        net = make_network()
        for i in range(6):
            net.inject_now(
                make_message(src=i % 4, dst=(i + 1) % 4, size=7, src_vc=i % 4,
                             dst_vc=i % 4)
            )
        for _ in range(15):
            net.run(net.clock + 2)
            net.check_conservation()

    def test_conservation_after_drain(self):
        net = make_network()
        net.inject_now(make_message(size=9))
        deliver_all(net)
        net.check_conservation()
        assert net.flits_injected == net.flits_ejected == 9

    def test_conservation_detects_counter_drift(self):
        net = make_network()
        net.inject_now(make_message(size=3))
        net._flits_in_flight += 1  # simulate a bookkeeping bug
        with pytest.raises(SimulationError):
            net.check_conservation()

    def test_delivery_callback_fires_once_per_message(self):
        delivered = []
        net = make_network(on_message=lambda m, t: delivered.append(m.msg_id))
        messages = [make_message(src=s, dst=(s + 1) % 4, size=4) for s in range(4)]
        for msg in messages:
            net.inject_now(msg)
        deliver_all(net)
        assert sorted(delivered) == sorted(m.msg_id for m in messages)
        assert net.messages_delivered == 4
