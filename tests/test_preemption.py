"""Message preemption (kill and retransmit) — the dynamic-mix extension.

The paper's future work: "permit message preemption (contrary to the
typical hold-and-wait resource usage) in wormhole routing" so resources
can be partitioned dynamically.  Our implementation: with
``dynamic_partitioning`` best-effort messages may borrow idle real-time
VCs; with ``preemption`` a real-time header that finds every real-time
VC busy kills a borrowing best-effort message (its remaining flits are
purged network-wide) and the victim is retransmitted after a backoff.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.experiments.config import SingleSwitchExperiment
from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.network.topology import single_switch
from repro.obs.sinks import TraceSink, install_tracing
from repro.router.flit import Message, TrafficClass
from repro.sim.reference import run_reference
from repro.sim.rng import RngStreams
from repro.traffic.mix import build_workload

from conftest import deliver_all, make_message, make_network


def _be_message(size=20, src=0, dst=1, src_vc=0):
    return Message(
        src_node=src,
        dst_node=dst,
        size=size,
        vtick=1e12,
        traffic_class=TrafficClass.BEST_EFFORT,
        src_vc=src_vc,
        dst_vc=None,
    )


def _preemptive_network(**kwargs):
    return make_network(
        vcs=2,
        rt_vc_count=2,  # no best-effort partition: BE must borrow
        dynamic_partitioning=True,
        preemption=True,
        **kwargs,
    )


class TestKillMessage:
    def test_kill_purges_and_accounts(self):
        net = make_network()
        msg = make_message(size=12)
        net.inject_now(msg)
        net.run(8)  # flits spread over NI, link, buffers
        dropped = net.kill_message(msg)
        assert dropped + net.flits_ejected == 12
        assert net.flits_dropped == dropped
        net.check_conservation()
        net.check_invariants()

    def test_killed_message_never_delivers(self):
        delivered = []
        net = make_network(on_message=lambda m, t: delivered.append(m.msg_id))
        msg = make_message(size=12)
        net.inject_now(msg)
        net.run(5)
        net.kill_message(msg)
        net.run(200)
        assert msg.msg_id not in delivered
        assert net.flits_in_flight == 0

    def test_kill_before_transmission(self):
        net = make_network()
        msg = make_message(size=6)
        net.inject_now(msg)
        dropped = net.kill_message(msg)
        assert dropped == 6
        net.check_conservation()

    def test_double_kill_rejected(self):
        net = make_network()
        msg = make_message(size=4)
        net.inject_now(msg)
        net.kill_message(msg)
        with pytest.raises(SimulationError):
            net.kill_message(msg)

    def test_kill_delivered_message_rejected(self):
        net = make_network()
        msg = make_message(size=4)
        net.inject_now(msg)
        deliver_all(net)
        with pytest.raises(SimulationError):
            net.kill_message(msg)

    def test_other_traffic_survives_a_kill(self):
        net = make_network()
        victim = make_message(size=16, src=0, dst=1, src_vc=0, dst_vc=0)
        bystander = make_message(size=16, src=2, dst=3, src_vc=1, dst_vc=1)
        net.inject_now(victim)
        net.inject_now(bystander)
        net.run(6)
        net.kill_message(victim)
        deliver_all(net)
        assert bystander.deliver_time > 0
        net.check_conservation()

    def test_queue_behind_victim_progresses(self):
        net = make_network()
        victim = make_message(size=16, src_vc=0, dst_vc=0)
        follower = make_message(size=4, src_vc=0, dst_vc=1)
        net.inject_now(victim)
        net.inject_now(follower)
        net.run(6)
        net.kill_message(victim)
        deliver_all(net)
        assert follower.deliver_time > 0


class TestPreemption:
    def test_rt_preempts_borrowing_best_effort(self):
        net = _preemptive_network()
        # BE borrows an RT VC (there is no BE partition) and is long.
        be_a = _be_message(size=60, dst=1, src_vc=0)
        be_b = _be_message(size=60, dst=1, src_vc=1, src=2)
        net.inject_now(be_a)
        net.inject_now(be_b)
        net.run(12)  # both BE messages now hold the RT VCs at port 1
        rt = make_message(src=3, dst=1, size=6, src_vc=0, dst_vc=None)
        net.inject_now(rt)
        net.run(400)
        assert net.preemptions >= 1
        assert rt.deliver_time > 0
        net.check_conservation()

    def test_victim_is_retransmitted(self):
        delivered = []
        net = _preemptive_network(
            on_message=lambda m, t: delivered.append(m.traffic_class)
        )
        be = _be_message(size=60, dst=1, src_vc=0)
        be2 = _be_message(size=60, dst=1, src_vc=1, src=2)
        net.inject_now(be)
        net.inject_now(be2)
        net.run(12)  # both RT VCs at port 1 now held by best-effort
        rt = make_message(src=3, dst=1, size=6, src_vc=0, dst_vc=None)
        net.inject_now(rt)
        net.run(2000)
        assert net.preemptions >= 1
        # the clone eventually delivers the best-effort payload
        assert TrafficClass.BEST_EFFORT in delivered
        assert net.flits_in_flight == 0
        net.check_conservation()

    def test_no_preemption_when_disabled(self):
        net = make_network(vcs=2, rt_vc_count=2, dynamic_partitioning=True)
        be = _be_message(size=200, dst=1, src_vc=0)
        be2 = _be_message(size=200, dst=1, src_vc=1, src=2)
        net.inject_now(be)
        net.inject_now(be2)
        net.run(12)
        rt = make_message(src=3, dst=1, size=6, src_vc=0, dst_vc=None)
        net.inject_now(rt)
        net.run(120)
        assert net.preemptions == 0
        # the RT message waits for a VC instead of preempting
        assert rt.deliver_time == -1 or rt.deliver_time > be.deliver_time

    def test_rt_never_preempts_rt(self):
        net = make_network(
            vcs=2, rt_vc_count=2, dynamic_partitioning=True, preemption=True
        )
        first = make_message(src=0, dst=1, size=200, src_vc=0, dst_vc=0)
        second = make_message(src=2, dst=1, size=200, src_vc=0, dst_vc=0)
        third = make_message(src=3, dst=1, size=6, src_vc=0, dst_vc=1)
        for msg in (first, second, third):
            net.inject_now(msg)
        net.run(300)
        assert net.preemptions == 0

    def test_invariants_hold_through_preemption_storm(self):
        net = _preemptive_network()
        for index in range(6):
            net.inject_now(
                _be_message(size=40, src=index % 4, dst=(index + 1) % 4,
                            src_vc=index % 2)
            )
        net.run(10)
        for index in range(6):
            net.inject_now(
                make_message(
                    src=index % 4, dst=(index + 1) % 4, size=5,
                    src_vc=index % 2, dst_vc=None,
                )
            )
        for _ in range(20):
            net.run(net.clock + 10)
            net.check_invariants()
        net.run(5000)
        assert net.flits_in_flight == 0
        net.check_conservation()


class _DenseDigest(TraceSink):
    """SHA-256 of the event stream, message ids densified by first
    appearance (ids come from a process-global counter)."""

    def __init__(self) -> None:
        self._ids = {}
        self.digest = hashlib.sha256()
        self.events = 0

    def on_event(self, kind, cycle, fields):
        ids = self._ids
        dense = sorted(
            (key, ids.setdefault(value, len(ids)) if key == "msg" else value)
            for key, value in fields.items()
        )
        self.digest.update(repr((kind, cycle, dense)).encode())
        self.events += 1

    def close(self) -> None:
        pass


def _ablation_point(run, traced):
    """``bench_ablation_preemption``'s preempting arm (dynamic
    partitioning + preemption, load 0.95, mix 90:10) at scale 160 with
    1 + 2 frames, driven by ``run``."""
    experiment = SingleSwitchExperiment(
        load=0.95, mix=(90, 10), scale=160.0, warmup_frames=1,
        measure_frames=2,
    )
    collector = MetricsCollector(
        experiment.timebase, warmup=experiment.warmup_cycles
    )
    config = replace(
        experiment.router_config(experiment.num_ports),
        dynamic_partitioning=True,
        preemption=True,
    )
    network = Network(
        single_switch(experiment.num_ports),
        config,
        on_message=collector.on_message,
    )
    build_workload(
        network, experiment.workload_config(), RngStreams(experiment.seed)
    )
    sink = install_tracing(network, _DenseDigest()) if traced else None
    run(network, experiment.total_cycles)
    network.check_conservation()
    network.check_invariants()
    stream = None if sink is None else (sink.events, sink.digest.hexdigest())
    return (
        collector.snapshot(),
        network.preemptions,
        network.flits_dropped,
        network.flits_ejected,
        stream,
    )


class TestAblationPointParity:
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_kernels_match_the_reference(self, traced):
        """The kill runs in the stage 2/3 kernel: at the ablation's
        operating point ``Network.run`` and ``run_reference`` agree on
        the metrics, every preemption, every dropped flit and (traced)
        the event stream."""
        default = _ablation_point(Network.run, traced)
        reference = _ablation_point(run_reference, traced)
        assert default == reference
        snapshot, preemptions, dropped, _, stream = default
        # both loops share the kill rule, so pin what it did
        assert (preemptions, dropped) == (47, 609)
        assert snapshot.frames_delivered > 0
        if traced:
            assert stream[0] > 0
