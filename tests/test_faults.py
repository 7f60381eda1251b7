"""Fault injection, recovery transport, and the progress watchdog."""

import dataclasses
import json

import pytest

from conftest import TINY, make_message, make_network

from repro.errors import DeadlockError, FaultConfigError
from repro.experiments.config import FatMeshExperiment, SingleSwitchExperiment
from repro.experiments.runner import simulate_fat_mesh, simulate_single_switch
from repro.experiments.scale import run_digest
from repro.faults import (
    FATE_CORRUPT,
    FATE_LOST,
    FATE_OK,
    EndToEndTransport,
    FaultPlan,
    LinkDownWindow,
    LinkFaultState,
    RecoveryConfig,
    install_faults,
    install_recovery,
)
from repro.network.link import Link
from repro.sim.rng import RngStreams


class _Rng:
    """Scripted RNG: returns a preset sequence of draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class _StubNetwork:
    """Accounting sink standing in for a Network in link-level tests."""

    def __init__(self):
        self.lost = 0
        self.corrupted = 0
        self.transport = None

    def _flit_lost(self, count):
        self.lost += count

    def _flit_corrupted(self, count):
        self.corrupted += count


class _CreditSink:
    def __init__(self):
        self.credits = 0


class _StubRouter:
    """Router stand-in exposing input VCs with credit sinks."""

    def __init__(self, ports=1, vcs=4):
        self.accepted = []
        self.inputs = [
            [type("VC", (), {"credit_sink": _CreditSink()})() for _ in range(vcs)]
            for _ in range(ports)
        ]

    def accept_flit(self, clock, port, vc_index, msg, flit_index):
        self.accepted.append((clock, port, vc_index, msg.msg_id, flit_index))


class _StubHealth:
    """Health record stand-in logging the events the link feeds it."""

    def __init__(self):
        self.calls = []

    def on_ok(self, clock):
        self.calls.append(("ok", clock))

    def on_miss(self, clock):
        self.calls.append(("miss", clock))

    def on_corrupt(self, clock):
        self.calls.append(("corrupt", clock))


def _state(link_label="l", loss=0.0, corrupt=0.0, windows=(), rng=None, net=None):
    return LinkFaultState(
        label=link_label,
        loss_prob=loss,
        corrupt_prob=corrupt,
        windows=tuple(windows),
        rng=rng,
        network=net or _StubNetwork(),
    )


class TestFaultPlanValidation:
    def test_zero_plan_is_zero(self):
        assert FaultPlan().is_zero
        assert not FaultPlan(flit_loss_prob=0.1).is_zero
        assert not FaultPlan(down_windows=(LinkDownWindow("x"),)).is_zero

    @pytest.mark.parametrize("prob", [-0.1, 1.5])
    def test_probabilities_must_be_in_unit_interval(self, prob):
        with pytest.raises(FaultConfigError):
            FaultPlan(flit_loss_prob=prob)
        with pytest.raises(FaultConfigError):
            FaultPlan(flit_corrupt_prob=prob)

    def test_links_pattern_must_be_nonempty(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(links="")

    def test_down_window_validation(self):
        with pytest.raises(FaultConfigError):
            LinkDownWindow("")
        with pytest.raises(FaultConfigError):
            LinkDownWindow("l", start=-1)
        with pytest.raises(FaultConfigError):
            LinkDownWindow("l", start=10, end=10)

    def test_down_window_activity(self):
        window = LinkDownWindow("l", start=5, end=10)
        assert not window.active(4)
        assert window.active(5)
        assert window.active(9)
        assert not window.active(10)
        forever = LinkDownWindow("l", start=3)
        assert forever.active(1_000_000)

    def test_recovery_config_validation(self):
        with pytest.raises(FaultConfigError):
            RecoveryConfig(timeout=0)
        with pytest.raises(FaultConfigError):
            RecoveryConfig(max_retries=-1)
        with pytest.raises(FaultConfigError):
            RecoveryConfig(backoff_base=0)
        with pytest.raises(FaultConfigError):
            RecoveryConfig(backoff_base=100, backoff_cap=50)


class TestInstallValidation:
    def test_down_window_must_match_a_link(self):
        net = make_network()
        plan = FaultPlan(down_windows=(LinkDownWindow("no-such-link"),))
        with pytest.raises(FaultConfigError):
            install_faults(net, plan, RngStreams(1))

    def test_zero_plan_installs_no_link_state(self):
        net = make_network()
        injector = install_faults(net, FaultPlan(), RngStreams(1))
        assert injector.faulted_links == []
        assert all(link.faults is None for link in net.links)
        assert net.faults_active == []

    def test_probabilistic_plan_covers_matching_links(self):
        net = make_network()
        plan = FaultPlan(flit_loss_prob=0.01, links="host0:*")
        injector = install_faults(net, plan, RngStreams(1))
        assert injector.faulted_links == ["host0:eject", "host0:inject"]
        assert net.fault_injector is injector


class TestBrokenWormSemantics:
    def test_loss_breaks_the_rest_of_the_worm(self):
        msg = make_message(size=4)
        state = _state(loss=0.5, rng=_Rng([0.9, 0.1]))
        assert state.fate(msg, 0, down=False) == FATE_OK
        assert state.fate(msg, 1, down=False) == FATE_LOST
        # no further draws: the worm is broken, flits 2..3 must drop
        assert state.fate(msg, 2, down=False) == FATE_LOST
        assert state.fate(msg, 3, down=False) == FATE_LOST
        # tail processed: broken-worm state is garbage collected
        assert not state.broken

    def test_corrupt_draw_taints_but_delivers(self):
        msg = make_message(size=2)
        state = _state(loss=0.5, corrupt=0.5, rng=_Rng([0.9, 0.1]))
        assert state.fate(msg, 0, down=False) == FATE_CORRUPT

    def test_down_window_drops_every_flit(self):
        msg = make_message(size=3)
        state = _state(windows=[LinkDownWindow("l", 0, 100)])
        assert state.down(50)
        assert state.fate(msg, 0, down=True) == FATE_LOST

    def test_forget_clears_broken_state(self):
        msg = make_message(size=4)
        state = _state(loss=1.0, rng=_Rng([0.0]))
        state.fate(msg, 0, down=False)
        assert msg.msg_id in state.broken
        state.forget(msg)
        assert not state.broken


class TestFaultyLinkDelivery:
    def test_lost_flit_returns_credit_to_sender(self):
        router = _StubRouter()
        net = _StubNetwork()
        link = Link(dest_router=router, dest_port=0, latency=1, label="l")
        link.faults = _state(
            windows=[LinkDownWindow("l", 0, None)], net=net
        )
        msg = make_message(size=2)
        link.send(0, msg, 0, vc_index=3)
        assert link.deliver_due(1) == 0
        assert router.accepted == []
        assert router.inputs[0][3].credit_sink.credits == 1
        assert net.lost == 1

    def test_corrupt_flit_delivers_and_taints(self):
        router = _StubRouter()
        net = _StubNetwork()
        link = Link(dest_router=router, dest_port=0, latency=1, label="l")
        link.faults = _state(corrupt=1.0, rng=_Rng([0.0, 0.0]), net=net)
        msg = make_message(size=1)
        link.send(0, msg, 0, vc_index=0)
        assert link.deliver_due(1) == 1
        assert msg.corrupted
        assert net.corrupted == 1
        assert len(router.accepted) == 1

    def test_apply_fate_owns_loss_and_corruption(self):
        """The method both delivery loops call for a non-OK fate:
        returns the flits it delivered and feeds the health record."""
        router = _StubRouter()
        net = _StubNetwork()
        link = Link(dest_router=router, dest_port=0, latency=1, label="l")
        link.faults = _state(net=net)
        link.health = _StubHealth()
        msg = make_message(size=3)
        assert link.apply_fate(5, msg, 0, 2, FATE_LOST, False) == 0
        assert router.accepted == [] and not msg.corrupted
        assert router.inputs[0][2].credit_sink.credits == 1
        assert link.apply_fate(6, msg, 1, 2, FATE_CORRUPT, False) == 1
        assert [a[4] for a in router.accepted] == [1] and msg.corrupted
        assert (net.lost, net.corrupted) == (1, 1)
        assert link.health.calls == [("miss", 5), ("corrupt", 6)]

    def test_object_loop_draws_then_delegates_non_ok_fates(self):
        # flit 0 survives both draws, flit 1 is corrupted, flit 2 lost
        rng = _Rng([0.9, 0.9, 0.9, 0.1, 0.1])
        router = _StubRouter()
        net = _StubNetwork()
        link = Link(dest_router=router, dest_port=0, latency=1, label="l")
        link.faults = _state(loss=0.5, corrupt=0.5, rng=rng, net=net)
        link.health = _StubHealth()
        msg = make_message(size=3)
        for flit in range(3):
            link.send(flit, msg, flit, vc_index=0)
        assert link.deliver_due(10) == 2
        assert rng.values == []
        assert [a[4] for a in router.accepted] == [0, 1]
        assert (net.lost, net.corrupted) == (1, 1)
        assert link.health.calls == [("ok", 10), ("corrupt", 10), ("miss", 10)]

    def test_is_available_follows_down_windows(self):
        link = Link(sink=object(), label="l")
        assert link.is_available(0)
        link.faults = _state(windows=[LinkDownWindow("l", 10, 20)])
        assert link.is_available(9)
        assert not link.is_available(10)
        assert link.is_available(20)

    def test_purge_forgets_broken_worm_state(self):
        link = Link(sink=object(), latency=1, label="l")
        state = _state(loss=1.0, rng=_Rng([0.0]))
        link.faults = state
        msg = make_message(size=3)
        state.fate(msg, 0, down=False)
        assert state.broken
        link.purge_message(msg)
        assert not state.broken


class TestZeroFaultDeterminism:
    def test_zero_plan_is_bit_identical_to_no_plan(self):
        """The determinism regression the fault substreams guarantee."""
        base = SingleSwitchExperiment(load=0.6, mix=(80, 20), **TINY)
        with_plan = dataclasses.replace(
            base, faults=FaultPlan(), recovery=None
        )
        plain = simulate_single_switch(base)
        planned = simulate_single_switch(with_plan)
        assert json.dumps(
            dataclasses.asdict(plain.metrics), sort_keys=True
        ) == json.dumps(dataclasses.asdict(planned.metrics), sort_keys=True)
        assert plain.flits_injected == planned.flits_injected
        assert plain.flits_ejected == planned.flits_ejected
        assert plain.fault_stats is None
        assert planned.fault_stats is not None
        assert planned.fault_stats["flits_lost"] == 0


class TestFaultedRuns:
    def test_loss_accounting_and_conservation(self):
        experiment = SingleSwitchExperiment(
            load=0.5,
            mix=(80, 20),
            faults=FaultPlan(flit_loss_prob=0.02),
            **TINY,
        )
        result = simulate_single_switch(experiment)
        stats = result.fault_stats
        assert stats["flits_lost"] > 0
        # conservation was audited inside the runner (check_conservation)
        assert result.flits_ejected < result.flits_injected

    def test_corruption_detected_by_checksum(self):
        experiment = SingleSwitchExperiment(
            load=0.5,
            mix=(80, 20),
            faults=FaultPlan(flit_corrupt_prob=0.005),
            recovery=RecoveryConfig(timeout=50_000),
            **TINY,
        )
        result = simulate_single_switch(experiment)
        stats = result.fault_stats
        assert stats["flits_corrupted"] > 0
        assert stats["corrupt_detected"] > 0
        assert stats["retransmissions"] > 0

    def test_corruption_without_checksum_still_delivers(self):
        experiment = SingleSwitchExperiment(
            load=0.5,
            mix=(80, 20),
            faults=FaultPlan(flit_corrupt_prob=0.005),
            **TINY,
        )
        result = simulate_single_switch(experiment)
        assert result.fault_stats["flits_corrupted"] > 0
        assert result.metrics.frames_delivered > 0

    def test_port_failure_routes_around_dead_fat_link(self):
        """The fat-link selector must never pick a faulted channel: a
        dead port is a permanent down window on its outgoing link."""
        experiment = FatMeshExperiment(
            load=0.5,
            mix=(80, 20),
            faults=FaultPlan(down_windows=(LinkDownWindow("ch:0.4->1.4"),)),
            **TINY,
        )
        result = simulate_fat_mesh(experiment)
        # the dead port's link drops every flit sent to it, so zero
        # lost flits proves the selector routed around it entirely
        assert result.fault_stats["flits_lost"] == 0
        assert "ch:0.4->" in result.fault_stats["faulted_links"][0]
        assert result.metrics.frames_delivered > 0
        # the run the retired (router, port) spelling gave
        assert run_digest(result) == (
            "7e3c592efb02fee19394c2e1fffe6bf948c8427255dc78fb0205ff65620777d1"
        )

    def test_recovery_delivers_despite_one_percent_loss(self):
        """Acceptance: >=99% of messages delivered at 1% flit loss."""
        base = FatMeshExperiment(load=0.5, mix=(80, 20), **TINY)
        interval = base.workload_config().frame_interval_cycles
        experiment = dataclasses.replace(
            base,
            faults=FaultPlan(flit_loss_prob=0.01),
            recovery=RecoveryConfig(
                timeout=max(512, interval // 2),
                max_retries=6,
                backoff_base=max(16, interval // 256),
                backoff_cap=max(64, interval // 16),
            ),
            watchdog_window=2 * interval,
        )
        result = simulate_fat_mesh(experiment)
        stats = result.fault_stats
        assert stats["flits_lost"] > 0
        assert stats["loss_kills"] > 0
        assert stats["retransmissions"] > 0
        assert stats["delivered_fraction"] >= 0.99
        # frame delivery keeps working through the faults: the mean
        # inter-frame delivery interval stays near the 33 ms epoch
        assert 20.0 < result.metrics.mean_delivery_interval_ms < 50.0


class TestTransportMachinery:
    class _SchedNet:
        """Network stand-in recording scheduled calls and kills."""

        def __init__(self):
            self.clock = 0
            self.transport = None
            self.scheduled = []
            self.killed = []
            self.injected = []

        def schedule_call(self, time, fn):
            self.scheduled.append((time, fn))

        def kill_message(self, msg):
            msg.killed = True
            self.killed.append(msg)

        def inject_now(self, msg):
            self.injected.append(msg)
            self.transport.on_inject(msg)

    def _transport(self, **kwargs):
        net = self._SchedNet()
        config = RecoveryConfig(
            timeout=100, max_retries=2, backoff_base=8, backoff_cap=16, **kwargs
        )
        transport = EndToEndTransport(net, config)
        net.transport = transport
        return net, transport

    def test_timeout_arms_at_first_flit_not_injection(self):
        net, transport = self._transport()
        msg = make_message()
        transport.on_inject(msg)
        assert transport.stats.originals == 1
        assert net.scheduled == []  # not armed yet: still in the NI queue
        transport.on_start(msg, clock=40)
        assert [time for time, _ in net.scheduled] == [140]

    def test_timeout_kills_and_retransmits_with_backoff(self):
        net, transport = self._transport()
        msg = make_message()
        transport.on_inject(msg)
        transport.on_start(msg, clock=0)
        _, check = net.scheduled[0]
        check()  # timeout fires: msg neither delivered nor killed
        assert transport.stats.timeouts == 1
        assert net.killed == [msg]
        # first retransmission: backoff_base << 0 = 8 cycles out
        assert net.scheduled[-1][0] == net.clock + 8
        net.scheduled[-1][1]()  # deliver the clone to the NI
        clone = net.injected[0]
        assert clone.msg_id != msg.msg_id
        assert clone.frame_id == msg.frame_id
        assert transport.stats.originals == 1  # clone is not a new original

    def test_backoff_doubles_then_caps_then_abandons(self):
        net, transport = self._transport()
        msg = make_message()
        transport.on_inject(msg)
        delays = []
        for _ in range(transport.config.max_retries):
            transport.on_loss(msg)
            time, fn = net.scheduled[-1]
            delays.append(time - net.clock)
            fn()
            msg = net.injected[-1]
        assert delays == [8, 16]  # 8 << 1 = 16 = cap
        transport.on_loss(msg)  # retries exhausted
        assert transport.stats.abandoned == 1
        assert transport.stats.delivered_fraction == 0.0

    def test_delivered_message_ignores_late_timeout(self):
        net, transport = self._transport()
        msg = make_message()
        transport.on_inject(msg)
        transport.on_start(msg, clock=0)
        msg.deliver_time = 50
        transport.on_delivered(msg)
        assert transport.stats.delivered == 1
        net.scheduled[0][1]()  # the stale timeout must be a no-op
        assert transport.stats.timeouts == 0
        assert net.killed == []

    def test_killed_by_other_mechanism_is_left_alone(self):
        # preemption kills and retransmits on its own; the transport
        # must not double-retransmit
        net, transport = self._transport()
        msg = make_message()
        transport.on_inject(msg)
        transport.on_start(msg, clock=0)
        msg.killed = True
        net.scheduled[0][1]()
        assert transport.stats.timeouts == 0
        assert transport.stats.retransmissions == 0

    def test_loss_kill_ignores_already_killed(self):
        net, transport = self._transport()
        msg = make_message()
        transport.on_inject(msg)
        msg.killed = True
        transport.on_loss(msg)
        assert transport.stats.loss_kills == 0


class TestWatchdog:
    def test_wedged_network_raises_deadlock_error(self):
        """Acceptance: credit starvation is detected and diagnosed."""
        net = make_network(ports=4, vcs=2, depth=4)
        net.watchdog_window = 64
        msg = make_message(src=0, dst=1, size=6, dst_vc=0)
        # wedge: a squatter owns the destination output VC forever, so
        # the message can never win arbitration for its bound VC
        squatter = make_message(src=2, dst=3)
        net.routers[0].open_output(1)[0].grant(0, squatter)
        net.inject_now(msg)
        with pytest.raises(DeadlockError) as excinfo:
            net.run(100_000)
        text = str(excinfo.value)
        assert "watchdog window 64" in text
        # the dump names the stalled input VC and the squatting owner
        assert "router 0 in (0,0)" in text
        assert f"owner {squatter.msg_id}" in text

    def test_watchdog_quiet_on_healthy_run(self):
        experiment = SingleSwitchExperiment(
            load=0.6, mix=(80, 20), watchdog_window=200_000, **TINY
        )
        result = simulate_single_switch(experiment)
        assert result.metrics.frames_delivered > 0

    def test_watchdog_ignores_idle_gaps(self):
        # an empty network with a far-future injection must jump the
        # idle gap without tripping the watchdog
        net = make_network(ports=4, vcs=2)
        net.watchdog_window = 10
        msg = make_message(size=2)
        net.schedule_message(5_000, msg)
        net.run(6_000)
        assert net.flits_injected == 2

    def test_stall_report_empty_network(self):
        net = make_network()
        assert net.stall_report() == "(no occupied buffers)"

    def test_stall_report_caps_line_count(self):
        net = make_network(ports=4, vcs=2)
        for port in range(4):
            net.routers[0].open_output(port)
            for vc in range(2):
                net.routers[0].outputs[port][vc].grant(
                    0, make_message(src=0, dst=1)
                )
        report = net.stall_report(max_lines=3)
        assert "more lines elided" in report
        assert len(report.splitlines()) == 4


class TestRecoveryInstallation:
    def test_install_recovery_wires_hooks(self):
        net = make_network()
        transport = install_recovery(net, RecoveryConfig())
        assert net.transport is transport
        for ni in net.interfaces.values():
            assert ni.on_start == transport.on_start
        for sink in net.sinks.values():
            assert sink.on_corrupt == transport.on_corrupt
