"""Link-health monitoring, fault-aware routing, and graceful degradation."""

import dataclasses
import itertools
import json

import pytest

from conftest import TINY, make_mesh_network, make_message, make_network
from test_parity import CELLS

from repro.core.admission import AdmissionController
from repro.errors import ConfigurationError, FaultConfigError
from repro.experiments.config import (
    FatMeshExperiment,
    FatTree3Experiment,
    SingleSwitchExperiment,
)
from repro.experiments.failover import _fat_pair_windows
from repro.experiments.runner import simulate, simulate_fat_mesh, simulate_single_switch
from repro.faults import (
    DomainDownWindow,
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
    install_faults,
)
from repro.network.health import (
    DOWN,
    PROBATION,
    SUSPECT,
    UP,
    HealthConfig,
    LinkHealth,
    install_health,
)
from repro.obs.chrometrace import write_chrome_trace
from repro.obs.events import validate_event
from repro.obs.sinks import RingBufferSink
from repro.router.config import RoutingMode
from repro.sim.rng import RngStreams


class _StubMonitor:
    """Monitor stand-in recording the transition callbacks."""

    def __init__(self, config=None):
        self.config = config or HealthConfig()
        self.events = []
        self.trace = None

    def _on_down(self, health, clock):
        self.events.append(("down", clock))

    def _on_up(self, health, clock):
        self.events.append(("up", clock))

    def _on_probation(self, health):
        self.events.append(("probation",))

    def _on_suspicion_changed(self, health, clock):
        pass  # notification only; no failover action to record


class _StubLink:
    label = "ch:0.4->1.4"
    src_router = None
    src_port = None


def _health(config=None):
    monitor = _StubMonitor(config)
    return LinkHealth(_StubLink(), ("link", 0, 4), monitor), monitor


#: the shared 2x2 fat-mesh builder now lives in conftest
_mesh_network = make_mesh_network

#: the 2x2 fat mesh's eight directed fat groups, ``(src, dst)`` router
_FAT_GROUPS = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))

#: permanently dead fat groups -> ``(host, router)`` the isolation check
#: names; every other one- or two-group outage is routed around
_ISOLATING = {
    ((0, 1), (0, 2)): (1, 0),
    ((0, 2), (1, 3)): (2, 1),
    ((1, 0), (1, 3)): (0, 1),
    ((2, 0), (2, 3)): (0, 2),
    ((2, 0), (3, 1)): (0, 3),
    ((3, 1), (3, 2)): (0, 3),
}


class TestHealthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(suspect_misses=0),
            dict(down_misses=0),
            dict(suspect_misses=5, down_misses=3),
            dict(miss_window=0),
            dict(recover_oks=0),
            dict(probation_oks=0),
            dict(probe_interval=0),
            dict(probe_interval=100, probe_cap=50),
            dict(probe_jitter=-1),
        ],
    )
    def test_invalid_thresholds_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealthConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = HealthConfig()
        assert config.suspect_misses <= config.down_misses
        assert config.probe_interval <= config.probe_cap


class TestLinkHealthStateMachine:
    def test_misses_escalate_up_suspect_down(self):
        health, monitor = _health(HealthConfig(suspect_misses=2, down_misses=4))
        health.on_miss(1)
        assert health.state == UP
        health.on_miss(2)
        assert health.state == SUSPECT
        assert health.routable
        health.on_miss(3)
        health.on_miss(4)
        assert health.state == DOWN
        assert not health.routable
        assert monitor.events == [("down", 4)]
        assert health.downs == 1

    def test_ok_streak_clears_suspect(self):
        health, _ = _health(HealthConfig(suspect_misses=2, down_misses=9,
                                         recover_oks=3))
        health.on_miss(1)
        health.on_miss(2)
        assert health.state == SUSPECT
        for _ in range(3):
            health.on_ok(5)
        assert health.state == UP
        assert health.misses == 0

    def test_window_expiry_forgets_old_misses(self):
        health, _ = _health(HealthConfig(suspect_misses=2, down_misses=4,
                                         miss_window=100))
        health.on_miss(0)
        health.on_miss(500)  # outside the window: counter restarts
        assert health.state == UP
        assert health.misses == 1

    def test_probation_then_recovery_records_ttr(self):
        config = HealthConfig(suspect_misses=1, down_misses=2,
                              probation_oks=4)
        health, monitor = _health(config)
        health.on_miss(10)
        health.on_miss(10)
        assert health.state == DOWN
        health.enter_probation()
        assert health.state == PROBATION
        assert ("probation",) in monitor.events
        for _ in range(4):
            health.on_ok(50)
        assert health.state == UP
        assert health.recoveries == 1
        assert health.ttr_total == 40
        assert health.down_since == -1

    def test_probation_relapse_counts_a_flap(self):
        health, _ = _health(HealthConfig(suspect_misses=1, down_misses=2))
        health.on_miss(10)
        health.on_miss(10)
        health.enter_probation()
        health.on_miss(30)  # a single miss relapses probation
        assert health.state == DOWN
        assert health.flaps == 1
        # the outage is still the original one: ttr spans the relapse
        assert health.down_since == 10

    def test_corrupt_counts_toward_thresholds(self):
        health, _ = _health(HealthConfig(suspect_misses=1, down_misses=2))
        health.on_corrupt(1)
        health.on_corrupt(2)
        assert health.corrupts == 2
        assert health.state == DOWN

    def test_ok_ignored_while_down(self):
        health, _ = _health(HealthConfig(suspect_misses=1, down_misses=1))
        health.on_miss(5)
        assert health.state == DOWN
        for _ in range(100):  # stragglers already on the wire
            health.on_ok(6)
        assert health.state == DOWN

    def test_enter_probation_requires_down(self):
        health, monitor = _health()
        health.enter_probation()
        assert health.state == UP
        assert monitor.events == []


class TestZeroFaultParity:
    """Monitoring alone must not perturb a fault-free run, on either loop
    (the golden switch and its monitored twin are cells of the parity
    matrix, read off the session memo)."""

    @pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
    def test_single_switch_bit_identical(self, simulated, reference_loop):
        plain = simulated(CELLS["golden"]).result
        monitored = simulated(CELLS["golden-monitored"]).result
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            monitored.metrics
        )
        assert plain.flits_injected == monitored.flits_injected
        assert plain.flits_ejected == monitored.flits_ejected
        assert plain.cycles_run == monitored.cycles_run
        health = monitored.fault_stats["health"]
        assert health["link_downs"] == 0
        assert health["streams_shed"] == 0


def _failover_experiment(mode, severity=8):
    """Fat mesh with one permanent member failure per fat pair."""
    base = FatMeshExperiment(
        load=0.6, mix=(80, 20),
        scale=100.0, warmup_frames=1, measure_frames=3, seed=7,
    )
    interval = base.workload_config().frame_interval_cycles
    return dataclasses.replace(
        base,
        faults=FaultPlan(
            down_windows=_fat_pair_windows(base, severity, base.warmup_cycles)
        ),
        recovery=RecoveryConfig(
            timeout=max(512, interval // 2),
            max_retries=8,
            backoff_base=max(16, interval // 256),
            backoff_cap=max(64, interval // 16),
            qos_deadline=2 * interval,
        ),
        health=HealthConfig(),
        routing_mode=mode,
        watchdog_window=4 * interval,
    )


class TestFailoverEndToEnd:
    def test_adaptive_delivers_all_qos_where_static_loses(self):
        """Acceptance: with one permanent failure per fat pair, adaptive
        routing delivers every guaranteed message that static loses."""
        adaptive = simulate_fat_mesh(_failover_experiment(RoutingMode.ADAPTIVE))
        static = simulate_fat_mesh(_failover_experiment(RoutingMode.STATIC))

        a_stats, s_stats = adaptive.fault_stats, static.fault_stats
        assert a_stats["qos_delivered_fraction"] == pytest.approx(1.0)
        assert a_stats["qos_abandoned"] == 0
        assert s_stats["qos_abandoned"] > 0
        assert (
            a_stats["qos_delivered_fraction"]
            > s_stats["qos_delivered_fraction"]
        )

        health = a_stats["health"]
        # every one of the 8 failed links was detected from symptoms
        assert health["link_downs"] >= 8
        assert health["reroutes"] > 0
        assert health["streams_shed"] > 0
        # detection is symptom-based, so static sees the downs too —
        # it just doesn't act on them
        assert s_stats["health"]["link_downs"] >= 8
        assert s_stats["health"]["reroutes"] == 0
        # metrics carry the failover counters
        assert adaptive.metrics.link_downs == health["link_downs"]
        assert adaptive.metrics.reroutes == health["reroutes"]


class TestRequeueStuckWorms:
    def test_requeue_redelivers_the_worm(self):
        delivered = []
        network, topology = make_mesh_network(
            on_message=lambda msg, clock: delivered.append(msg)
        )
        dst = next(node for node, rid, _ in topology.hosts if rid == 1)
        # a long, slow worm: occupies its route for thousands of cycles
        network.inject_now(make_message(src=0, dst=dst, size=50, vtick=100.0))
        network.run(30)
        group = [
            port for rid, port, dr, _ in topology.channels
            if rid == 0 and dr == 1
        ]
        requeued = sum(
            network.requeue_stuck_worms(network.routers[0], port)
            for port in group
        )
        assert requeued == 1
        # the clone is re-injected via a *future* scheduled event, so
        # the drain must chase the event heap too
        network.run_until_drained(max_extra=100_000, drain_events=True)
        assert [msg.dst_node for msg in delivered] == [dst]
        network.check_conservation()


class TestAdmissionDegradedMode:
    CH = ("link", 0, 0)

    def _controller(self):
        controller = AdmissionController(threshold=1.0)
        controller.admit(1, 0.4, [self.CH], "cbr")
        controller.admit(2, 0.4, [self.CH], "vbr")
        return controller

    def test_degrade_sheds_vbr_before_cbr(self):
        controller = self._controller()
        assert controller.degrade(self.CH, 0.5) == [2]
        assert controller.shed_streams == [2]
        assert controller.reserved(self.CH) == pytest.approx(0.4)

    def test_degrade_to_zero_sheds_everything_vbr_first(self):
        controller = self._controller()
        assert controller.degrade(self.CH, 0.0) == [2, 1]
        assert controller.streams_shed == 2
        assert controller.reserved(self.CH) == pytest.approx(0.0)

    def test_degraded_channel_rejects_new_streams(self):
        controller = self._controller()
        controller.degrade(self.CH, 0.0)
        assert not controller.would_admit(0.1, [self.CH])

    def test_recover_readmits_cbr_first(self):
        controller = self._controller()
        controller.degrade(self.CH, 0.0)
        assert controller.recover(self.CH) == [1, 2]
        assert controller.shed_streams == []
        assert controller.streams_readmitted == 2
        assert controller.reserved(self.CH) == pytest.approx(0.8)

    def test_capacity_must_be_a_fraction(self):
        controller = self._controller()
        with pytest.raises(ConfigurationError):
            controller.degrade(self.CH, 1.5)


class TestTransportQosStats:
    def test_deadline_misses_and_per_class_counts(self):
        base = SingleSwitchExperiment(load=0.6, mix=(80, 20), **TINY)
        experiment = dataclasses.replace(
            base,
            # huge timeout: no retransmissions, every message delivers
            # once; a 1-cycle deadline makes every QoS delivery a miss
            recovery=RecoveryConfig(timeout=10**6, qos_deadline=1),
        )
        result = simulate_single_switch(experiment)
        stats = result.fault_stats
        assert stats["qos_delivered"] > 0
        assert stats["be_delivered"] > 0
        assert stats["qos_abandoned"] == 0
        assert stats["qos_deadline_misses"] == stats["qos_delivered"]
        assert stats["qos_delivered_fraction"] == pytest.approx(1.0)

    def test_qos_deadline_validation(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(qos_deadline=0)


class TestHostIsolation:
    def test_dead_host_link_rejected(self):
        network, _ = _mesh_network()
        plan = FaultPlan(
            down_windows=(LinkDownWindow(link="host0:inject", end=None),)
        )
        with pytest.raises(FaultConfigError, match="no reroute is possible"):
            install_faults(network, plan, RngStreams(1))

    def test_severed_router_rejected(self):
        network, _ = _mesh_network()
        plan = FaultPlan(
            down_windows=(LinkDownWindow(link="ch:0.*", end=None),)
        )
        with pytest.raises(FaultConfigError, match="isolates host"):
            install_faults(network, plan, RngStreams(1))

    def test_transient_outage_allowed(self):
        network, _ = _mesh_network()
        plan = FaultPlan(
            down_windows=(
                LinkDownWindow(link="host0:inject", start=0, end=5000),
            )
        )
        install_faults(network, plan, RngStreams(1))

    def test_full_fat_group_outage_allowed_when_detour_exists(self):
        network, topology = _mesh_network()
        windows = tuple(
            LinkDownWindow(link=f"ch:{r}.{p}->{dr}.{dp}", end=None)
            for r, p, dr, dp in topology.channels
            if r == 0 and dr == 1
        )
        assert len(windows) == 2  # the whole fat group 0 -> 1
        install_faults(network, FaultPlan(down_windows=windows), RngStreams(1))

    @pytest.mark.parametrize(
        "groups",
        [
            combo
            for size in (1, 2)
            for combo in itertools.combinations(_FAT_GROUPS, size)
        ],
        ids=lambda combo: "+".join(f"{s}-{d}" for s, d in combo),
    )
    def test_fat_group_outage_verdicts(self, groups):
        """Every one- and two-group permanent outage on the 2x2 fat
        mesh: 30 are routed around (fat-group shrink, detours, the
        Y-then-X table), the 6 pinned in ``_ISOLATING`` cut the named
        host off from the named router."""
        network, topology = _mesh_network()
        windows = tuple(
            LinkDownWindow(link=f"ch:{r}.{p}->{dr}.{dp}", end=None)
            for r, p, dr, dp in topology.channels
            if (r, dr) in groups
        )
        plan = FaultPlan(down_windows=windows)
        verdict = _ISOLATING.get(groups)
        if verdict is None:
            install_faults(network, plan, RngStreams(1))
            return
        node, rid = verdict
        with pytest.raises(
            FaultConfigError, match=f"isolates host {node}: router {rid} "
        ):
            install_faults(network, plan, RngStreams(1))

    def test_dead_single_switch_host_link_rejected(self):
        network = make_network(ports=4)
        plan = FaultPlan(
            down_windows=(LinkDownWindow(link="host2:inject", end=None),)
        )
        with pytest.raises(FaultConfigError, match="no reroute is possible"):
            install_faults(network, plan, RngStreams(1))


class TestMonitorIntegration:
    def test_install_wires_every_link(self):
        network, _ = _mesh_network()
        monitor = install_health(network, HealthConfig(), RngStreams(3))
        assert network.health_monitor is monitor
        assert len(monitor.states) == len(network.links)
        assert all(link.health is not None for link in network.links)
        summary = monitor.summary()
        assert summary["link_downs"] == 0
        assert summary["links_monitored"] == len(network.links)

    def test_stall_report_names_suspected_links(self):
        network, _ = _mesh_network()
        monitor = install_health(network, HealthConfig(), RngStreams(3))
        link = next(l for l in network.links if l.src_router is not None)
        for _ in range(monitor.config.down_misses):
            link.health.on_miss(1)
        assert monitor.down_links() == [link.label]
        assert f"{link.label} (down)" in monitor.suspected()
        report = network.stall_report()
        assert "suspected unhealthy links" in report
        assert link.label in report


class TestSwitchVerdictTrace:
    """A switch-level verdict is a ``health`` event of the one schema:
    its ``link`` is the switch's failure-domain name."""

    def test_switch_down_events_validate_and_export(self, tmp_path):
        base = FatTree3Experiment(
            k=4, load=0.3, mix=(80, 20), vcs_per_pc=16,
            scale=100.0, warmup_frames=1, measure_frames=2, seed=3,
        )
        interval = base.workload_config().frame_interval_cycles
        ring = RingBufferSink()

        def trace_health(network):
            # only the monitor's stream: tracing every component makes
            # this run 25x slower and adds nothing to the check
            network.health_monitor.trace = ring

        simulate(
            dataclasses.replace(
                base,
                faults=FaultPlan(
                    domains=(
                        DomainDownWindow(
                            "switch:8", start=base.warmup_cycles, end=None
                        ),
                    )
                ),
                recovery=RecoveryConfig.scaled(
                    interval, max_retries=8, qos_deadline=4 * interval
                ),
                health=HealthConfig(),
                routing_mode=RoutingMode.ADAPTIVE,
                watchdog_window=4 * interval,
                network_hook=trace_health,
            )
        )
        for kind, cycle, fields in ring.records:
            validate_event({"kind": kind, "cycle": cycle, **fields})
        switch_events = [
            fields for kind, _, fields in ring.records
            if fields["link"] == "switch:8"
        ]
        assert switch_events and switch_events[0]["state"] == DOWN
        chrome = tmp_path / "health.json"
        assert write_chrome_trace(str(chrome), ring.records) > len(ring.records)
        rows = {
            event["args"]["link"]
            for event in json.loads(chrome.read_text())["traceEvents"]
            if event.get("name") == "health"
        }
        assert "switch:8" in rows
