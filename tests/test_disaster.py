"""Switch faults, correlated failure domains, and datacenter failover."""

import dataclasses

import pytest

from conftest import TINY

from repro.errors import FaultConfigError
from repro.experiments import campaign
from repro.experiments.campaign import experiment_key, get_profile
from repro.experiments.config import ButterflyExperiment, FatTree3Experiment
from repro.experiments.disaster import (
    CAMPAIGN,
    CAMPAIGN_MODES,
    CAMPAIGN_TOPOLOGIES,
    _campaign_experiment,
)
from repro.experiments.runner import (
    ExperimentResult,
    simulate_butterfly,
    simulate_fat_tree3,
)
from repro.faults import (
    DomainDownWindow,
    FaultPlan,
    RecoveryConfig,
    domain_switches,
    expand_domain,
)
from repro.metrics.collector import RunMetrics
from repro.network.health import (
    DOWN,
    PROBATION,
    SUSPECT,
    UP,
    HealthConfig,
    install_health,
)
from repro.network.network import Network
from repro.network.topology import butterfly, fat_tree3
from repro.plain import from_plain, to_plain
from repro.router.config import RouterConfig, RoutingMode
from repro.sim.rng import RngStreams


def _tree_network(k=4, mode=RoutingMode.ADAPTIVE):
    topology = fat_tree3(k)
    config = RouterConfig(
        num_ports=topology.ports_per_router,
        vcs_per_pc=4,
        routing_mode=mode,
    )
    return Network(topology, config), topology


# ----------------------------------------------------------------------
# failure-domain grammar and expansion


class TestDomainGrammar:
    def test_switch_domain_covers_incident_and_host_links(self):
        topology = fat_tree3(4)
        windows = expand_domain(
            DomainDownWindow("switch:0", start=100), topology
        )
        labels = {w.link for w in windows}
        # every channel touching router 0, both directions
        for src, sp, dst, dp in topology.channels:
            touched = f"ch:{src}.{sp}->{dst}.{dp}" in labels
            assert touched == (0 in (src, dst))
        # a crashed ToR takes its hosts' attachment links with it
        assert "host0:inject" in labels and "host1:eject" in labels
        assert "host2:inject" not in labels
        assert all(w.start == 100 and w.end is None for w in windows)

    def test_expansion_is_deterministic_and_sorted(self):
        topology = fat_tree3(4)
        window = DomainDownWindow("pod:1", start=5, end=50)
        first = expand_domain(window, topology)
        second = expand_domain(window, topology)
        assert first == second
        assert [w.link for w in first] == sorted(w.link for w in first)

    def test_pod_domain_resolves_leaves_and_spines(self):
        topology = fat_tree3(4)
        # pod 1 of k=4: leaves 2,3 and spines 10,11
        assert domain_switches("pod:1", topology) == frozenset({2, 3, 10, 11})

    def test_pod_needs_a_fat_tree(self):
        with pytest.raises(FaultConfigError, match="three-level fat tree"):
            domain_switches("pod:0", butterfly(2, 3))

    def test_core_group_is_the_top_level(self):
        topology = fat_tree3(4)
        assert domain_switches("core-group", topology) == frozenset(
            {16, 17, 18, 19}
        )
        assert domain_switches("core-group:1", topology) == frozenset(
            {18, 19}
        )

    def test_links_domain_passes_patterns_through(self):
        windows = expand_domain(
            DomainDownWindow("links:ch:0.2->8.0;host3:inject", start=1),
            fat_tree3(4),
        )
        assert {w.link for w in windows} == {"ch:0.2->8.0", "host3:inject"}

    def test_unknown_domain_kinds_rejected(self):
        topology = fat_tree3(4)
        with pytest.raises(FaultConfigError, match="unknown failure domain"):
            domain_switches("rack:0", topology)
        with pytest.raises(FaultConfigError, match="unknown router"):
            domain_switches("switch:99", topology)
        with pytest.raises(FaultConfigError, match="integer"):
            domain_switches("switch:tor", topology)
        with pytest.raises(FaultConfigError, match="unknown pod"):
            domain_switches("pod:7", topology)

    def test_window_validation(self):
        with pytest.raises(FaultConfigError, match="domain name"):
            DomainDownWindow("")
        with pytest.raises(FaultConfigError, match="end must be > start"):
            DomainDownWindow("switch:0", start=10, end=10)

    def test_plan_round_trip_and_back_compat(self):
        plan = FaultPlan(
            domains=(DomainDownWindow("switch:3", start=7, end=None),)
        )
        assert from_plain(FaultPlan, to_plain(plan)) == plan
        # plans serialised before domains existed still decode
        legacy = to_plain(plan)
        del legacy["domains"]
        assert from_plain(FaultPlan, legacy).domains == ()
        assert plan.is_zero is False
        assert FaultPlan().is_zero


# ----------------------------------------------------------------------
# the alternate-ancestor overlay, exhaustively


class TestOverlaySingleSwitchKills:
    def test_every_single_switch_kill_keeps_survivors_routable(self):
        """Property: for ANY one dead switch on fat_tree3(4), the masked
        route program still connects every pair of non-isolated hosts,
        and no unmasked candidate ever aims at the dead switch."""
        topology = fat_tree3(4)
        overlay = topology.routing.overlay
        host_router = dict(overlay.host_router)
        next_router = {
            (src, sp): dst for src, sp, dst, dp in topology.channels
        }
        for dead in range(topology.num_routers):
            masks, isolated = overlay.analyze(
                dead_switches=frozenset({dead})
            )
            expected = {
                n for n, rid in host_router.items() if rid == dead
            }
            assert set(isolated) == expected, f"dead={dead}"
            routing = topology.routing.fork()
            for rid, port in masks:
                routing.mask_port(rid, port)
            live = sorted(set(host_router) - set(isolated))
            for dst in live:
                target = host_router[dst]
                for src in live:
                    if src == dst:
                        continue
                    seen = set()
                    frontier = [host_router[src]]
                    while frontier:
                        rid = frontier.pop()
                        if rid == target or rid in seen:
                            if rid == target:
                                seen.add(rid)
                                break
                            continue
                        seen.add(rid)
                        ports, _ = routing.route_adaptive(rid, dst, None)
                        assert ports, (dead, src, dst, rid)
                        for port in ports:
                            hop = next_router[(rid, port)]
                            assert hop != dead, (dead, src, dst, rid, port)
                            frontier.append(hop)
                    assert target in seen, (dead, src, dst)


# ----------------------------------------------------------------------
# switch-level suspicion aggregation


class TestSwitchSuspicion:
    def _monitor(self):
        network, topology = _tree_network()
        monitor = install_health(network, HealthConfig(), RngStreams(seed=1))
        return network, topology, monitor

    def _set_inbound(self, monitor, rid, state, clock=1000):
        for label in monitor._switch_inbound[rid]:
            monitor.states[label].state = state
        last = monitor.states[monitor._switch_inbound[rid][-1]]
        monitor._reassess_switch(last, clock=clock)
        return last

    def test_all_inbound_down_declares_the_switch_down(self):
        network, _, monitor = self._monitor()
        self._set_inbound(monitor, 9, DOWN)
        assert monitor.switches[9].state == DOWN
        assert monitor.switches[9].downs == 1
        # the overlay repaired around it: masks applied, nobody isolated
        assert monitor._overlay_masks
        assert network.isolated_hosts == set()
        assert "switch 9 (down)" in " / ".join(monitor.suspected())

    def test_suspects_plus_one_down_suffice(self):
        _, _, monitor = self._monitor()
        labels = monitor._switch_inbound[9]
        for label in labels[:-1]:
            monitor.states[label].state = SUSPECT
        monitor.states[labels[-1]].state = DOWN
        monitor._reassess_switch(monitor.states[labels[-1]], clock=1000)
        assert monitor.switches[9].state == DOWN

    def test_all_suspect_no_down_is_not_enough(self):
        _, _, monitor = self._monitor()
        self._set_inbound(monitor, 9, SUSPECT)
        assert monitor.switches[9].state == UP

    def test_tor_kill_isolates_and_sheds_its_hosts(self):
        network, _, monitor = self._monitor()
        self._set_inbound(monitor, 0, DOWN)
        assert monitor.switches[0].state == DOWN
        assert network.isolated_hosts == {0, 1}
        events = monitor.availability_events
        assert [(e["host"], e["event"]) for e in events] == [
            (0, "isolated"),
            (1, "isolated"),
        ]

    def test_probation_lifts_the_overlay_then_up_clears(self):
        network, _, monitor = self._monitor()
        last = self._set_inbound(monitor, 0, DOWN)
        assert monitor._overlay_masks and network.isolated_hosts == {0, 1}
        # one inbound link starts probing: masks come off so the probe
        # traffic can actually test the switch
        last.state = PROBATION
        monitor._reassess_switch(last, clock=2000)
        assert monitor.switches[0].state == PROBATION
        assert monitor._overlay_masks == set()
        assert network.isolated_hosts == set()
        # the probe succeeds: the switch recovers and records its TTR
        # (down since 1000, up at 3000)
        self._set_inbound(monitor, 0, UP, clock=3000)
        switch = monitor.switches[0]
        assert switch.state == UP
        assert switch.recoveries == 1
        assert switch.ttr_total == 2000
        summary = monitor.summary()
        assert summary["switch_recoveries"] == 1
        assert summary["hosts_isolated"] == 2
        assert summary["host_downtime_cycles"] == 2 * 1000

    def test_static_mode_detects_but_never_masks(self):
        network, topology = _tree_network(mode=RoutingMode.STATIC)
        monitor = install_health(
            network, HealthConfig(), RngStreams(seed=1)
        )
        for label in monitor._switch_inbound[0]:
            monitor.states[label].state = DOWN
        monitor._reassess_switch(
            monitor.states[monitor._switch_inbound[0][-1]], clock=500
        )
        assert monitor.switches[0].state == DOWN
        assert monitor._overlay_masks == set()
        assert network.isolated_hosts == set()


# ----------------------------------------------------------------------
# end-to-end: zero-fault parity, accounting, and the k=8 acceptance bar


def _tree_disaster(mode, k=4, severity="switch:0", **overrides):
    base = FatTree3Experiment(k=k, load=0.6, mix=(80, 20), vcs_per_pc=16,
                              **TINY)
    interval = base.workload_config().frame_interval_cycles
    return dataclasses.replace(
        base,
        faults=FaultPlan(
            domains=(DomainDownWindow(severity, start=base.warmup_cycles),)
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
        **overrides,
    )


class TestZeroSwitchFaultParity:
    """Switch-level monitoring must not perturb a healthy tree run."""

    @pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
    def test_fat_tree_bit_identical(self, reference_loop):
        # adaptive mode in both twins: the monitored run has the whole
        # switch-failover machinery armed, and with zero faults it must
        # never fire
        base = FatTree3Experiment(
            k=4, load=0.6, mix=(80, 20), vcs_per_pc=16,
            routing_mode=RoutingMode.ADAPTIVE, **TINY,
        )
        plain = simulate_fat_tree3(base)
        monitored = simulate_fat_tree3(
            dataclasses.replace(base, health=HealthConfig())
        )
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            monitored.metrics
        )
        assert plain.flits_injected == monitored.flits_injected
        health = monitored.fault_stats["health"]
        assert health["switch_downs"] == 0
        assert health["hosts_isolated"] == 0

    def test_butterfly_bit_identical(self):
        base = ButterflyExperiment(
            arity=2, levels=3, load=0.6, mix=(80, 20), **TINY
        )
        plain = simulate_butterfly(base)
        monitored = simulate_butterfly(
            dataclasses.replace(base, health=HealthConfig())
        )
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            monitored.metrics
        )


class TestAvailabilityAccounting:
    def test_tor_kill_timeline_and_reachable_fraction(self):
        result = simulate_fat_tree3(_tree_disaster(RoutingMode.ADAPTIVE))
        stats = result.fault_stats
        health = stats["health"]
        # both hosts of the dead ToR were declared isolated and shed
        assert health["hosts_isolated"] == 2
        assert health["host_downtime_cycles"] > 0
        assert health["switch_downs"] >= 1
        first = {
            e["host"] for e in health["availability"][:2]
        }
        assert first == {0, 1}
        assert all(
            e["event"] in ("isolated", "restored")
            for e in health["availability"]
        )
        # abandons charged to isolated endpoints don't count against
        # the fabric: reachable-fraction >= raw delivered-fraction
        assert (
            stats["qos_reachable_fraction"]
            >= stats["qos_delivered_fraction"]
        )
        # metrics mirror the health summary (checkpoint surface)
        assert result.metrics.hosts_isolated == 2
        assert result.metrics.availability == health["availability"]
        assert (
            result.metrics.host_downtime_cycles
            == health["host_downtime_cycles"]
        )


class TestDisasterAcceptance:
    """The issue's bar: a permanent single-ToR kill on fat_tree3(k=8)."""

    def test_adaptive_survives_where_static_abandons(self):
        profile = get_profile("smoke")
        adaptive = simulate_fat_tree3(
            _campaign_experiment(
                profile, "fat-tree", RoutingMode.ADAPTIVE, "switch"
            )
        )
        static = simulate_fat_tree3(
            _campaign_experiment(
                profile, "fat-tree", RoutingMode.STATIC, "switch"
            )
        )
        a_stats, s_stats = adaptive.fault_stats, static.fault_stats
        # >= 99% of guaranteed traffic between non-isolated hosts
        # delivered, the dead ToR's two hosts shed gracefully (the run
        # completing at all means no DeadlockError)
        assert a_stats["qos_reachable_fraction"] >= 0.99
        assert a_stats["health"]["hosts_isolated"] == 2
        assert a_stats["health"]["streams_shed"] > 0
        # static demonstrably abandons: no shedding, big QoS hole
        assert s_stats["qos_abandoned"] > 0
        assert s_stats["qos_delivered_fraction"] < 0.99
        assert s_stats["health"]["hosts_isolated"] == 0
        assert (
            a_stats["qos_reachable_fraction"]
            > s_stats["qos_delivered_fraction"]
        )


# ----------------------------------------------------------------------
# the campaign plumbing (simulations stubbed out)


def _severity(experiment) -> str:
    """The rung a point's fault plan lowers."""
    plan = experiment.faults
    if plan.is_zero:
        return "none"
    kind = plan.domains[0].domain.partition(":")[0]
    return {"links": "link", "switch": "switch"}.get(kind, "pod")


def _fake_result(experiment):
    adaptive = experiment.routing_mode == RoutingMode.ADAPTIVE
    severity = _severity(experiment)
    fraction = 1.0 if adaptive or severity == "none" else 0.9
    metrics = RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50)
    return ExperimentResult(
        experiment=experiment,
        metrics=metrics,
        workload=None,
        cycles_run=1000,
        flits_injected=10,
        flits_ejected=10,
        wall_seconds=0.0,
        fault_stats={
            "qos_delivered_fraction": fraction,
            "qos_reachable_fraction": 1.0 if adaptive else fraction,
            "qos_abandoned": 0 if adaptive else 5,
            "health": {
                "switch_downs": 0 if severity == "none" else 1,
                "hosts_isolated": 2 if severity == "switch" else 0,
                "host_downtime_cycles": 0,
                "streams_shed": 0,
                "mean_switch_time_to_recover_cycles": 0.0,
            },
        },
    )


class TestRunDisasterCampaign:
    """What is particular to the disaster spec; the plumbing every
    campaign shares is checked once, in tests/test_campaign.py."""

    def test_series_shape_and_butterfly_skips_pod(self, monkeypatch):
        monkeypatch.setattr(campaign, "simulate", _fake_result)
        fig = CAMPAIGN.run("quick", ("none", "switch", "pod"))
        assert fig.figure_id == "disaster"
        assert set(fig.series) == {
            f"{kind}/{mode}"
            for kind in CAMPAIGN_TOPOLOGIES
            for mode in CAMPAIGN_MODES
        }
        assert [p.x for p in fig.series["fat-tree/adaptive"]] == [
            "none", "switch", "pod",
        ]
        # the butterfly has no pods; its series simply omits the rung
        assert [p.x for p in fig.series["butterfly/static"]] == [
            "none", "switch",
        ]
        assert fig.series["fat-tree/static"][1].extra["qos_abandoned"] == 5
        text = CAMPAIGN.render(fig)
        assert "reach frac" in text and "isolated" in text
        assert "fat-tree/adaptive" in text and "butterfly/static" in text

    def test_point_keys_are_fingerprinted(self):
        profile = get_profile("quick")
        experiment = _campaign_experiment(
            profile, "fat-tree", RoutingMode.ADAPTIVE, "switch"
        )
        key = experiment_key(experiment)
        assert key.startswith("FatTree3Experiment-")
        static = _campaign_experiment(
            profile, "fat-tree", RoutingMode.STATIC, "switch"
        )
        assert experiment_key(static) != key
        changed = dataclasses.replace(
            experiment, health=HealthConfig(probe_interval=2048)
        )
        assert experiment_key(changed) != key
