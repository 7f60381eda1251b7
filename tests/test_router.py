"""Flit-level router behaviour on tiny single-switch networks."""

import random
from types import SimpleNamespace

import pytest

from repro.core.schedulers import SchedulingPolicy
from repro.errors import FlowControlError
from repro.experiments.config import FatMeshExperiment
from repro.experiments.runner import simulate
from repro.obs.sinks import RingBufferSink
from repro.router.config import CrossbarKind
from repro.router.flit import TrafficClass

from conftest import deliver_all, make_message, make_network


class TestBasicDelivery:
    def test_single_message_is_delivered(self):
        net = make_network()
        msg = make_message(src=0, dst=1, size=5)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time > 0
        assert net.flits_ejected == 5
        net.check_invariants()

    def test_header_pipeline_latency(self):
        # 1-flit message: NI mux (cycle 0) -> host link (2 cycles, stage 1)
        # -> routing (1) -> arbitration grant, crossbar next cycle ->
        # stage-5 mux -> output link (2 cycles).
        net = make_network()
        msg = make_message(size=1)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time == 7

    def test_body_flits_stream_at_link_rate(self):
        # After the header's pipeline fill, one flit ejects per cycle:
        # tail of an n-flit message lands at header_latency + (n - 1).
        net = make_network()
        msg = make_message(size=6)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time == 7 + 5

    def test_all_port_pairs_work(self):
        net = make_network(ports=4)
        messages = []
        for src in range(4):
            dst = (src + 1) % 4
            msg = make_message(src=src, dst=dst, size=3)
            messages.append(msg)
            net.inject_now(msg)
        deliver_all(net)
        assert all(m.deliver_time > 0 for m in messages)
        assert net.flits_ejected == 12

    def test_message_to_far_port(self):
        net = make_network(ports=8)
        msg = make_message(src=7, dst=0, size=4)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time > 0

    def test_crossbar_hook_sees_every_flit(self):
        sink = RingBufferSink(events=("xbar",))
        net = make_network(trace_sink=sink)
        msg = make_message(size=4)
        net.inject_now(msg)
        deliver_all(net)
        seen = [(f["msg"], f["flit"]) for _, _, f in sink.records]
        assert seen == [(msg.msg_id, i) for i in range(4)]


class TestWormholeSemantics:
    def test_messages_on_same_vc_serialize(self):
        net = make_network()
        first = make_message(size=4, src_vc=0, dst_vc=0)
        second = make_message(size=4, src_vc=0, dst_vc=1)
        net.inject_now(first)
        net.inject_now(second)
        deliver_all(net)
        # first's tail must leave before second's tail arrives
        assert second.deliver_time > first.deliver_time

    def test_messages_on_distinct_vcs_interleave(self):
        # Two 8-flit messages on different VCs share the host link;
        # total time is ~2x one message, and both finish close together.
        net = make_network()
        a = make_message(size=8, src_vc=0, dst_vc=0)
        b = make_message(size=8, src_vc=1, dst_vc=1)
        net.inject_now(a)
        net.inject_now(b)
        deliver_all(net)
        assert abs(a.deliver_time - b.deliver_time) <= 8

    def test_same_dst_vc_serialises_streams(self):
        # Connection semantics: two RT messages from different sources
        # bound to the same destination VC cannot overlap there.
        net = make_network()
        a = make_message(src=0, dst=2, size=6, src_vc=0, dst_vc=1)
        b = make_message(src=1, dst=2, size=6, src_vc=0, dst_vc=1)
        net.inject_now(a)
        net.inject_now(b)
        deliver_all(net)
        assert abs(a.deliver_time - b.deliver_time) >= 6

    def test_distinct_dst_vcs_share_output_link(self):
        net = make_network()
        a = make_message(src=0, dst=2, size=6, src_vc=0, dst_vc=0)
        b = make_message(src=1, dst=2, size=6, src_vc=0, dst_vc=1)
        net.inject_now(a)
        net.inject_now(b)
        deliver_all(net)
        # output link is shared: both finish within ~one message of each
        # other rather than strictly serialised
        assert abs(a.deliver_time - b.deliver_time) <= 7

    def test_long_message_respects_small_buffers(self):
        net = make_network(depth=2)
        msg = make_message(size=32)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time > 0
        net.check_invariants()

    def test_many_messages_conserve_flits(self):
        net = make_network(ports=4, vcs=2, depth=3)
        total = 0
        for i in range(20):
            msg = make_message(
                src=i % 4, dst=(i + 1) % 4, size=3 + i % 5, src_vc=i % 2,
                dst_vc=i % 2,
            )
            total += msg.size
            net.inject_now(msg)
        deliver_all(net)
        assert net.flits_ejected == total
        net.check_invariants()


class TestClassPartitioning:
    def test_best_effort_keeps_to_its_partition(self):
        sink = RingBufferSink(events=("vc_alloc",))
        net = make_network(vcs=4, rt_vc_count=2, trace_sink=sink)
        be = make_message(
            size=3,
            vtick=1e12,
            traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=2,
            dst_vc=None,
        )
        net.inject_now(be)
        deliver_all(net)
        granted = [(f["msg"], f["vc"]) for _, _, f in sink.records]
        assert granted in ([(be.msg_id, 2)], [(be.msg_id, 3)])

    def test_real_time_keeps_to_its_partition(self):
        net = make_network(vcs=4, rt_vc_count=2)
        msg = make_message(size=3, src_vc=0, dst_vc=1)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time > 0

    def test_best_effort_stuck_without_partition(self):
        # No BE VCs and no dynamic partitioning: arbitration never
        # grants, the message never drains.
        from repro.errors import SimulationError

        net = make_network(vcs=2, rt_vc_count=2)
        be = make_message(
            size=2,
            vtick=1e12,
            traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=0,
            dst_vc=None,
        )
        net.inject_now(be)
        with pytest.raises(SimulationError):
            net.run_until_drained(max_extra=5_000)

    def test_dynamic_partitioning_lets_best_effort_borrow(self):
        net = make_network(vcs=2, rt_vc_count=2, dynamic_partitioning=True)
        be = make_message(
            size=2,
            vtick=1e12,
            traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=0,
            dst_vc=None,
        )
        net.inject_now(be)
        deliver_all(net)
        assert be.deliver_time > 0

    def test_be_dst_vc_fallback_avoids_hol(self):
        # Two BE messages drawn to the same dst VC: with the default
        # fallback the second borrows a sibling VC instead of waiting.
        net = make_network(vcs=4, rt_vc_count=0)
        a = make_message(
            size=8, vtick=1e12, traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=0, dst_vc=1,
        )
        b = make_message(
            size=8, vtick=1e12, traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=1, dst_vc=1,
        )
        net.inject_now(a)
        net.inject_now(b)
        deliver_all(net)
        assert abs(a.deliver_time - b.deliver_time) <= 9

    def test_strict_be_binding_serialises(self):
        net = make_network(vcs=4, rt_vc_count=0, be_dst_vc_binding=True)
        a = make_message(
            size=8, vtick=1e12, traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=0, dst_vc=1,
        )
        b = make_message(
            size=8, vtick=1e12, traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=1, dst_vc=1,
        )
        net.inject_now(a)
        net.inject_now(b)
        deliver_all(net)
        assert abs(a.deliver_time - b.deliver_time) >= 8


class TestCrossbarKinds:
    @pytest.mark.parametrize("crossbar", [CrossbarKind.MULTIPLEXED, CrossbarKind.FULL])
    def test_delivery_under_both_crossbars(self, crossbar):
        net = make_network(crossbar=crossbar)
        messages = [
            make_message(src=s, dst=(s + 1) % 4, size=5, src_vc=s % 4,
                         dst_vc=s % 4)
            for s in range(4)
        ]
        for msg in messages:
            net.inject_now(msg)
        deliver_all(net)
        assert all(m.deliver_time > 0 for m in messages)

    def test_full_crossbar_moves_vcs_concurrently(self):
        # With a full crossbar, two VCs of one input port can cross in
        # the same cycle; with a multiplexed crossbar they cannot.
        def run(crossbar):
            net = make_network(crossbar=crossbar)
            a = make_message(src=0, dst=1, size=10, src_vc=0, dst_vc=0)
            b = make_message(src=0, dst=2, size=10, src_vc=1, dst_vc=1)
            net.inject_now(a)
            net.inject_now(b)
            deliver_all(net)
            return max(a.deliver_time, b.deliver_time)

        # Both configs share the host-link bottleneck (1 flit/cycle), so
        # completion times match; the full crossbar must not be slower.
        assert run(CrossbarKind.FULL) <= run(CrossbarKind.MULTIPLEXED)

    @pytest.mark.parametrize(
        "policy",
        [
            SchedulingPolicy.VIRTUAL_CLOCK,
            SchedulingPolicy.FIFO,
            SchedulingPolicy.ROUND_ROBIN,
        ],
    )
    def test_every_policy_delivers(self, policy):
        net = make_network(policy=policy)
        msg = make_message(size=6)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time > 0


class TestRouterAudit:
    def test_invariants_hold_mid_flight(self):
        net = make_network()
        for i in range(8):
            net.inject_now(
                make_message(src=i % 4, dst=(i + 2) % 4, size=6, src_vc=i % 4,
                             dst_vc=i % 4)
            )
        for _ in range(10):
            net.run(net.clock + 3)
            net.check_invariants()
        deliver_all(net)
        net.check_invariants()

    def test_buffered_flits_counts_everything(self):
        net = make_network()
        msg = make_message(size=10)
        net.inject_now(msg)
        net.run(6)
        assert net.buffered_flits() == 10 - net.flits_ejected

    def test_stage5_without_link_raises(self):
        # Corrupting the wiring surfaces as a FlowControlError, not a
        # silent flit drop.
        net = make_network()
        router = net.routers[0]
        msg = make_message(size=2)
        net.inject_now(msg)
        router.out_links[1] = None
        with pytest.raises(FlowControlError):
            net.run(30)


#: fault state of a dead port: its link is down from cycle 0 for good
_DEAD = SimpleNamespace(down=lambda clock: True)


def _select_as_first_written(router, clock, ports):
    """The section 3.4 rule in its original form: prefilter, then sum.

    Kept here as the reference for the loop in
    ``WormholeRouter._select_output_port``.
    """
    if len(ports) == 1:
        return ports[0]
    if router._oracle:
        usable = [
            port
            for port in ports
            if router.out_links[port] is None
            or router.out_links[port].is_available(clock)
        ]
        if usable:
            ports = usable
    best_port = -1
    best_load = None
    for port in ports:
        load = sum(
            (0 if ovc.is_free else 1) + len(ovc.queue)
            for ovc in router.outputs[port]
        )
        if best_load is None or load < best_load:
            best_load = load
            best_port = port
    return best_port


class TestFatLinkSelection:
    """Load-based port choice: first minimum, faulted siblings last."""

    DOWN_FROM = 50

    def _randomise(self, router, rng, faulty):
        worm = make_message(size=4)
        for port, ovcs in enumerate(router.outputs):
            # a narrow load range makes ties the common case
            busy = rng.random() < 0.6
            for ovc in ovcs:
                # drain to idle, then stage through the buffer's own
                # methods (an idle VC owns no deque to poke at); the
                # rule counts owner and staged flits independently
                while ovc.queue:
                    ovc.pop_head()
                ovc.release()
                owned = busy and rng.random() < 0.5
                staged = rng.randrange(3) if busy else 0
                if owned or staged:
                    ovc.grant(0, worm)
                    for flit in range(staged):
                        ovc.push(worm, flit, 0.0)
                    if not owned:
                        ovc.release()
            link = router.out_links[port]
            link.faults = None
            if faulty and rng.random() < 0.3:
                link.faults = SimpleNamespace(
                    down=lambda clock: clock >= self.DOWN_FROM
                )
        if faulty:
            for link in router.out_links:
                if rng.random() < 0.2:
                    link.faults = _DEAD

    @pytest.mark.parametrize("mode", ["oracle", "static", "adaptive"])
    @pytest.mark.parametrize("faulty", [False, True])
    def test_same_port_as_the_original_rule(self, mode, faulty):
        net = make_network(ports=8, vcs=4, routing_mode=mode)
        router = net.routers[0]
        for port in range(8):
            router.open_output(port)
        rng = random.Random(f"{mode}/{faulty}")
        ties = all_down = 0
        for _ in range(400):
            self._randomise(router, rng, faulty)
            ports = tuple(rng.sample(range(8), rng.randrange(1, 6)))
            for clock in (0, self.DOWN_FROM):
                expected = _select_as_first_written(router, clock, ports)
                assert router._select_output_port(clock, ports) == expected
            loads = [
                sum(
                    len(ovc.queue) + (ovc.owner is not None)
                    for ovc in router.outputs[port]
                )
                for port in ports
            ]
            ties += loads.count(min(loads)) > 1
            all_down += faulty and all(
                router.out_links[port].faults is not None for port in ports
            )
        assert ties > 50
        if faulty:
            assert all_down > 5, "the every-candidate-faulted case never ran"

    def test_oracle_prefers_a_loaded_survivor_to_an_idle_dead_port(self):
        net = make_network(ports=4, vcs=2, routing_mode="oracle")
        router = net.routers[0]
        router.out_links[1].faults = _DEAD
        router.open_output(2)[0].owner = object()
        assert router._select_output_port(0, (1, 2)) == 2
        # ... but a dead port still beats nothing at all
        router.out_links[2].faults = _DEAD
        assert router._select_output_port(0, (1, 2)) == 1

    def test_fat_pair_splits_a_fat_mesh_run(self):
        """Load-based selection splits inter-switch traffic across a
        fat pair: router 0's +X pair toward router 1 is ports 4 and 5."""
        networks = []
        simulate(
            FatMeshExperiment(
                load=0.6,
                mix=(100, 0),
                scale=60.0,
                warmup_frames=1,
                measure_frames=3,
                seed=1,
                network_hook=networks.append,
            )
        )
        flits = [networks[0].routers[0].out_flits[port] for port in (4, 5)]
        assert min(flits) > 0.4 * max(flits) > 0, flits
