"""The cycle loop's bit-identity contract with the reference full scan.

``Network.run`` executes one loop, the fused cycle loop of
``repro.sim.fused``; ``repro.sim.reference.run_reference`` is the full
scan it is checked against, passed wherever a loop is an argument.
Every workload family of the tier-1 suite must produce the same
``RunMetrics`` (and fault stats, where present) on both.  A traced,
checked run executes the same kernels as an untraced one and emits the
reference's event stream byte for byte.  Delivery is one flit loop,
inside a link's down windows too; the kernels' only object calls are
a faulted link's ``LinkFaultState.fate``, ``Link.apply_fate`` for a
lost or corrupt flit, and a preempting router's ``step``.  Every run
of the fused loop times its phase calls into ``phase_seconds``; the
reference leaves them at zero.
"""

import ast
import dataclasses
import inspect
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    InvariantViolation,
    SimulationError,
)
from repro.experiments import runner
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    FatTreeExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import (
    simulate,
    simulate_butterfly,
    simulate_fat_mesh,
    simulate_fat_tree3,
    simulate_single_switch,
)
from repro.experiments.scale import run_digest
from repro.faults import (
    FATE_CORRUPT,
    FATE_LOST,
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
    install_faults,
    install_recovery,
)
from repro.network.health import (
    PROBATION,
    SUSPECT,
    UP,
    HealthConfig,
    install_health,
)
from repro.network.interface import HostInterface
from repro.network.link import Link
from repro.network.network import Network
from repro.network.topology import single_switch
from repro.obs.events import TraceSpec
from repro.obs.sinks import RingBufferSink, install_tracing, stream_digest
from repro.router.config import RouterConfig, RoutingMode
from repro.router.flit import TrafficClass
from repro.router.router import WormholeRouter
from repro.sim.fused import FusedLoop
from repro.sim.reference import run_reference
from repro.sim.rng import RngStreams
from conftest import (
    TINY,
    attach_workload,
    make_mesh_network,
    make_message,
    make_network,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _metrics(result):
    # repr-compare: exact for every finite float, and NaN fields (a
    # horizon too short to deliver frames) stay comparable
    return repr(dataclasses.asdict(result.metrics))


def _both_loops(build):
    """``build(run)`` once per loop: (fused-loop value, reference value).

    ``run`` is the loop as a callable ``(network, until)``.
    """
    return build(Network.run), build(run_reference)


def _simulate_both(simulate, experiment):
    """One experiment on each loop: (default result, reference result)."""
    return simulate(experiment), simulate(experiment, loop=run_reference)


class TestLoopParity:
    """The default loop is bit-identical to the reference scan on every
    workload family."""

    @pytest.mark.parametrize(
        "scheduler", ["virtual_clock", "fifo", "round_robin"]
    )
    def test_single_switch_schedulers(self, scheduler):
        for crossbar in ("multiplexed", "full"):
            experiment = SingleSwitchExperiment(
                load=0.8, mix=(80, 20), scheduler=scheduler,
                crossbar=crossbar, **TINY
            )
            default, legacy = _simulate_both(
                simulate_single_switch, experiment
            )
            assert _metrics(default) == _metrics(legacy), crossbar

    def test_fat_mesh(self):
        experiment = FatMeshExperiment(load=0.7, mix=(80, 20), **TINY)
        default, legacy = _simulate_both(simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_fat_tree3(self):
        experiment = FatTree3Experiment(load=0.7, mix=(80, 20), **TINY)
        default, legacy = _simulate_both(simulate_fat_tree3, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_butterfly(self):
        experiment = ButterflyExperiment(load=0.7, mix=(80, 20), **TINY)
        default, legacy = _simulate_both(simulate_butterfly, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_faulted_run_gates_flits_inline_identically(self):
        """Every link carries fault state, so every delivered flit
        passes the inlined fate gate; only the lost ones leave the loop."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            faults=FaultPlan(flit_loss_prob=0.01),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = _simulate_both(simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)
        assert default.fault_stats == legacy.fault_stats

    def test_adaptive_failover_health_only_links_identically(self):
        """Health-monitored, fault-free links stay on the inlined
        delivery; adaptive routing runs inline through the router's
        mask-aware ``_adaptive_candidates``."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            routing_mode=RoutingMode.ADAPTIVE,
            health=HealthConfig(),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = _simulate_both(simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_near_saturation_switch_matches_the_reference(self):
        """The near-saturation point: every VC contended every cycle."""
        experiment = SingleSwitchExperiment(load=0.9, mix=(80, 20), **TINY)
        default, legacy = _simulate_both(simulate_single_switch, experiment)
        assert _metrics(default) == _metrics(legacy)
        assert default.cycles_run == legacy.cycles_run
        assert default.flits_ejected == legacy.flits_ejected


def _spy_on_links(monkeypatch):
    """Record every ``Link.deliver_due`` / ``Link.apply_fate`` call.

    Returns ``(deliveries, fates)``: ``(label, clock)`` per
    ``deliver_due`` call and ``(label, clock, fate)`` per ``apply_fate``.
    """
    deliveries, fates = [], []
    deliver_due, apply_fate = Link.deliver_due, Link.apply_fate

    def spy_deliver_due(self, clock):
        deliveries.append((self.label, clock))
        return deliver_due(self, clock)

    def spy_apply_fate(self, clock, msg, flit_index, vc_index, fate, down):
        fates.append((self.label, clock, fate))
        return apply_fate(self, clock, msg, flit_index, vc_index, fate, down)

    monkeypatch.setattr(Link, "deliver_due", spy_deliver_due)
    monkeypatch.setattr(Link, "apply_fate", spy_apply_fate)
    return deliveries, fates


def _down_window(experiment):
    """One inter-router channel severed early in the measured span."""
    measured = experiment.total_cycles - experiment.warmup_cycles
    return LinkDownWindow(
        "ch:0.4->1.4",
        start=experiment.warmup_cycles + measured // 8,
        end=experiment.warmup_cycles + measured // 3,
    )


class TestFaultGate:
    """Faulted, untraced links deliver inside the loop: the fate is
    drawn inline, and only a lost or corrupted flit calls out."""

    def test_every_fault_kind_in_one_adaptive_run(self, monkeypatch):
        """Loss and corruption on every link (host eject links
        included), one channel severed for a window that opens and
        closes mid-measurement, health monitoring and adaptive
        failover: both loops end with the same metrics, fault stats and
        per-link fault RNG states."""
        window = _down_window(
            FatMeshExperiment(load=0.7, mix=(80, 20), **TINY)
        )

        def build(run):
            networks = []
            result = simulate_fat_mesh(
                FatMeshExperiment(
                    load=0.7,
                    mix=(80, 20),
                    faults=FaultPlan(
                        flit_loss_prob=0.002,
                        flit_corrupt_prob=0.002,
                        down_windows=(window,),
                    ),
                    recovery=RecoveryConfig(timeout=4096),
                    health=HealthConfig(),
                    routing_mode=RoutingMode.ADAPTIVE,
                    watchdog_window=200_000,
                    network_hook=networks.append,
                    **TINY,
                ),
                loop=run,
            )
            states = networks[0].fault_injector.states
            return (
                result,
                {label: st.rng.getstate() for label, st in states.items()},
                {label: set(st.broken) for label, st in states.items()},
            )

        deliveries, fates = _spy_on_links(monkeypatch)
        default = build(Network.run)
        called_out = list(deliveries)
        legacy = build(run_reference)
        assert called_out == [], "the fused loop called Link.deliver_due"
        stats = default[0].fault_stats
        assert stats["flits_lost"] > 0 and stats["flits_corrupted"] > 0
        assert stats["health"]["link_downs"] > 0
        assert stats["health"]["link_recoveries"] > 0, "window never closed"
        ejects = {
            fate for label, _, fate in fates if label.endswith(":eject")
        }
        assert ejects == {FATE_LOST, FATE_CORRUPT}
        assert _metrics(default[0]) == _metrics(legacy[0])
        assert stats == legacy[0].fault_stats
        assert default[1] == legacy[1], "fault RNG substreams diverged"
        assert default[2] == legacy[2]

    def test_clean_flits_never_leave_the_loop(self, monkeypatch):
        """An untraced faulted run makes no ``deliver_due`` call, and
        one ``apply_fate`` call per lost or corrupted flit."""
        deliveries, fates = _spy_on_links(monkeypatch)
        result = simulate_fat_mesh(
            FatMeshExperiment(
                load=0.7,
                mix=(80, 20),
                faults=FaultPlan(
                    flit_loss_prob=0.005, flit_corrupt_prob=0.005
                ),
                recovery=RecoveryConfig(timeout=4096),
                health=HealthConfig(),
                watchdog_window=200_000,
                **TINY,
            )
        )
        stats = result.fault_stats
        assert stats["flits_lost"] > 0 and stats["flits_corrupted"] > 0
        assert deliveries == []
        assert len(fates) == stats["flits_lost"] + stats["flits_corrupted"]

    def test_down_window_never_leaves_the_loop(self, monkeypatch):
        """A channel severed for a window that opens and closes: the
        fused loop makes no ``deliver_due`` call, and the link goes DOWN
        and back UP through PROBATION at the cycles the reference loop
        reports."""
        window = LinkDownWindow(_SEVERED, start=1000, end=6000)

        def build(run):
            network, monitor = _severable_mesh(window)
            run(network, 16_000)
            network.check_invariants()
            return [
                (cycle, fields["link"], fields["prev"], fields["state"])
                for kind, cycle, fields in monitor.trace.records
                if kind == "health" and "link" in fields
            ]

        deliveries, _ = _spy_on_links(monkeypatch)
        default = build(Network.run)
        assert deliveries == []
        assert default == build(run_reference)
        assert {
            (label, prev) for _, label, prev, state in default if state == UP
        } == {(_SEVERED, PROBATION)}

    def test_fault_free_link_off_up_fails_the_audit(self):
        """A link leaves UP only through ``Link.apply_fate``, so neither
        loop sends a link without faults a heartbeat; one knocked to
        SUSPECT by hand would stay there, and the audit says so."""
        network, monitor = _severable_mesh(
            LinkDownWindow(_SEVERED, start=1000, end=6000)
        )
        network.run(2000)
        network.check_invariants()
        health = monitor.states["ch:2.1->3.1"]
        assert health.link.faults is None
        health.state = SUSPECT
        health.misses = HealthConfig().suspect_misses
        with pytest.raises(InvariantViolation, match="suspect without faults"):
            network.check_invariants()


#: the inter-router channel :func:`_severable_mesh` can sever
_SEVERED = "ch:0.2->1.2"


def _severable_mesh(window):
    """An adaptive fat mesh under load 0.8 whose only fault plan is
    ``window``, with recovery and traced health monitoring installed;
    returns ``(network, monitor)``."""
    network, _ = make_mesh_network(routing_mode=RoutingMode.ADAPTIVE)
    rngs = RngStreams(5)
    install_faults(network, FaultPlan(down_windows=(window,)), rngs)
    install_recovery(network, RecoveryConfig(timeout=2048))
    monitor = install_health(network, HealthConfig(), rngs)
    monitor.trace = RingBufferSink()
    attach_workload(network, load=0.8)
    return network, monitor


def _spy_on_steps(monkeypatch):
    """Count every ``WormholeRouter.step`` / ``HostInterface.step`` call."""
    calls = {"router": 0, "ni": 0}
    router_step, ni_step = WormholeRouter.step, HostInterface.step

    def spy_router_step(self, clock):
        calls["router"] += 1
        return router_step(self, clock)

    def spy_ni_step(self, clock):
        calls["ni"] += 1
        return ni_step(self, clock)

    monkeypatch.setattr(WormholeRouter, "step", spy_router_step)
    monkeypatch.setattr(HostInterface, "step", spy_ni_step)
    return calls


#: a traced, checked run writes and audits every event: keep it short
_SHORT = dict(TINY, scale=400.0, measure_frames=1)
_MESH = FatMeshExperiment(load=0.5, mix=(80, 20), **_SHORT)

#: traced parity cases: a switch whose port ids reach past 8 (so a
#: port set iterates out of sorted order), round-robin at all three
#: multiplexers (NI, A and C), every fault kind under adaptive
#: routing, and a three-level tree
_TRACED_CASES = {
    "single-switch-16": SingleSwitchExperiment(
        load=0.5, mix=(80, 20), num_ports=16, **_SHORT
    ),
    "single-switch-round-robin": SingleSwitchExperiment(
        load=0.5,
        mix=(80, 20),
        scheduler="round_robin",
        qos_placement="both",
        **_SHORT,
    ),
    "faulted-adaptive-mesh": dataclasses.replace(
        _MESH,
        faults=FaultPlan(
            flit_loss_prob=0.005,
            flit_corrupt_prob=0.005,
            down_windows=(_down_window(_MESH),),
        ),
        recovery=RecoveryConfig(timeout=4096),
        health=HealthConfig(),
        routing_mode=RoutingMode.ADAPTIVE,
        watchdog_window=200_000,
    ),
    "fat-tree3-k4": FatTree3Experiment(
        load=0.3, mix=(80, 20), k=4, **_SHORT
    ),
}


def _dense_ids(records):
    """Ring-buffer ``records`` with message ids renumbered by first
    appearance (ids come from a process-global counter)."""
    ids = {}
    return [
        (
            kind,
            cycle,
            {
                key: ids.setdefault(value, len(ids)) if key == "msg" else value
                for key, value in fields.items()
            },
        )
        for kind, cycle, fields in records
    ]


def _run_preempting_switch(run, **network_kwargs):
    """Two best-effort worms preempted by a third on a bare
    ``preemption`` + ``dynamic_partitioning`` switch, ``run`` as the
    loop; returns the network at cycle 400."""
    network = make_network(
        vcs=2,
        rt_vc_count=2,
        dynamic_partitioning=True,
        preemption=True,
        **network_kwargs,
    )
    for src, src_vc in ((0, 0), (2, 1)):
        network.inject_now(
            make_message(
                src=src,
                dst=1,
                size=60,
                vtick=1e12,
                traffic_class=TrafficClass.BEST_EFFORT,
                src_vc=src_vc,
                dst_vc=None,
            )
        )
    run(network, 12)
    network.inject_now(make_message(src=3, dst=1, size=6, src_vc=0, dst_vc=None))
    run(network, 400)
    network.check_invariants()
    return network


class TestTracedParity:
    """A traced, checked run executes the fused kernels: the stream is
    the reference stepper's, byte for byte, and no object ``step`` or
    ``deliver_due`` runs, down windows included."""

    @pytest.mark.parametrize("case", sorted(_TRACED_CASES))
    def test_traced_checked_run_stays_in_the_kernels(
        self, case, monkeypatch, tmp_path
    ):
        experiment = _TRACED_CASES[case]

        def traced(name):
            spec = TraceSpec(path=str(tmp_path / name), check=True)
            return dataclasses.replace(experiment, trace=spec)

        deliveries, _ = _spy_on_links(monkeypatch)
        steps = _spy_on_steps(monkeypatch)
        default = simulate(traced("default.jsonl"))
        assert steps == {"router": 0, "ni": 0}
        assert deliveries == []
        reference = simulate(traced("reference.jsonl"), loop=run_reference)
        assert steps["router"] > 0 and steps["ni"] > 0
        assert stream_digest(tmp_path / "default.jsonl") == stream_digest(
            tmp_path / "reference.jsonl"
        )
        assert _metrics(default) == _metrics(reference)
        assert default.trace_summary == dict(
            reference.trace_summary,
            jsonl_path=default.trace_summary["jsonl_path"],
        )
        if experiment.faults is not None:
            stats = default.fault_stats
            assert stats["flits_lost"] > 0 and stats["flits_corrupted"] > 0

    def test_preemption_still_steps_every_router(self, monkeypatch):
        """``RouterConfig.preemption`` is the one router feature the
        kernels leave to ``WormholeRouter.step``, traced or not."""

        def build(run):
            sink = RingBufferSink()
            network = _run_preempting_switch(run, trace_sink=sink)
            return network.preemptions, _dense_ids(sink.records)

        steps = _spy_on_steps(monkeypatch)
        default = build(Network.run)
        assert steps["router"] > 0 and steps["ni"] == 0
        assert default[0] >= 1
        assert {"purge", "xbar"} <= {kind for kind, _, _ in default[1]}
        assert build(run_reference) == default


class TestCallOuts:
    """Inlined kernels and object code sharing one run, one cycle, one
    link mirror: partly faulted fabrics (``Link.apply_fate``), tracing
    installed between runs, and purges and requeues from events."""

    def test_lossy_inter_router_links_beside_clean_host_links(self):
        """Only the inter-router channels lose flits; the host links
        carry no fault state, so their flits skip the fate gate in the
        same delivery loop and the same cycles."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            faults=FaultPlan(flit_loss_prob=0.02, links="ch:*"),
            recovery=RecoveryConfig(timeout=4096),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = _simulate_both(simulate_fat_mesh, experiment)
        assert default.fault_stats["flits_lost"] > 0
        assert default.fault_stats["retransmissions"] > 0
        faulted = default.fault_stats["faulted_links"]
        assert faulted and all(label.startswith("ch:") for label in faulted)
        assert _metrics(default) == _metrics(legacy)
        assert default.fault_stats == legacy.fault_stats

    def test_corruption_on_some_links_is_caught_at_an_inlined_sink(self):
        """A flit corrupted on a faulty channel ejects through a
        fault-free host link: the checksum path runs inline."""
        experiment = FatMeshExperiment(
            load=0.6,
            mix=(80, 20),
            faults=FaultPlan(flit_corrupt_prob=0.01, links="ch:*"),
            recovery=RecoveryConfig(timeout=4096),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = _simulate_both(simulate_fat_mesh, experiment)
        assert default.fault_stats["corrupt_detected"] > 0
        assert _metrics(default) == _metrics(legacy)
        assert default.fault_stats == legacy.fault_stats

    def test_tracing_installed_between_two_runs(self):
        """The sink is read per ``run()`` call: the first run emits
        nothing, the second every event, on one network."""

        def build(run):
            delivered = []
            network, _ = make_mesh_network(
                on_message=lambda msg, clock: delivered.append(
                    (msg.src_node, msg.dst_node, msg.size, clock)
                )
            )
            attach_workload(network, load=0.5)
            run(network, 4000)
            sink = install_tracing(network, RingBufferSink())
            run(network, 8000)
            network.check_invariants()
            kinds = [(kind, cycle) for kind, cycle, _ in sink.records]
            return delivered, kinds, network.flits_ejected

        default, legacy = _both_loops(build)
        assert default[1], "the second run emitted no trace events"
        assert min(cycle for _, cycle in default[1]) >= 4000
        assert default == legacy

    def test_mid_run_purge_resyncs_the_link_mirror(self):
        """A kill scheduled mid-run rebuilds ``Link.pending`` deques
        under the loop; it must keep delivering everything else."""

        def build(run):
            delivered = []
            network, _ = make_mesh_network(
                on_message=lambda msg, clock: delivered.append(
                    (msg.src_node, msg.dst_node, msg.size, clock)
                )
            )
            attach_workload(network, load=0.6)
            victim = make_message(src=0, dst=3, size=400, src_vc=1, dst_vc=1)
            network.schedule_message(1000, victim)
            dropped = []
            network.schedule_call(
                1100, lambda: dropped.append(network.kill_message(victim))
            )
            run(network, 6000)
            network.check_invariants()
            return delivered, dropped, network.flits_dropped

        default, legacy = _both_loops(build)
        assert 0 < default[1][0] < 400, "the victim was not caught in flight"
        assert default == legacy

    def test_mid_run_requeue_of_stuck_worms(self):
        """``requeue_stuck_worms`` (the failover kill-and-requeue) run
        from an event while worms hold the port and its wire."""

        def build(run):
            delivered = []
            network, _ = make_mesh_network(
                on_message=lambda msg, clock: delivered.append(
                    (msg.src_node, msg.dst_node, msg.size, clock)
                )
            )
            attach_workload(network, load=0.7)
            router = network.routers[0]
            port = next(
                p
                for p, link in enumerate(router.out_links)
                if link is not None and link.dest_router is not None
            )
            requeued = []
            network.schedule_call(
                2000,
                lambda: requeued.append(
                    network.requeue_stuck_worms(
                        router, port, router.out_links[port]
                    )
                ),
            )
            run(network, 8000)
            network.check_invariants()
            return delivered, requeued, network.flits_dropped

        default, legacy = _both_loops(build)
        assert default == legacy


class TestCyclesExecuted:
    def test_result_reports_executed_and_jumped_cycles(self):
        experiment = FatTree3Experiment(load=0.01, mix=(100, 0), **TINY)
        default, legacy = _simulate_both(simulate_fat_tree3, experiment)
        assert 0 < default.cycles_executed < default.cycles_run
        # the reference scan jumps only over an empty network
        assert default.cycles_executed <= legacy.cycles_executed
        assert legacy.cycles_executed <= legacy.cycles_run

    def test_network_counter_accumulates_across_runs(self):
        topology = single_switch(4)
        network = Network(
            topology, RouterConfig(num_ports=topology.ports_per_router)
        )
        network.inject_now(make_message(size=6))
        network.run(50)
        first = network.cycles_executed
        assert 0 < first < 50
        network.run(100)  # idle: one jump to the horizon
        assert network.cycles_executed == first
        assert network.clock == 100

    def test_phase_seconds_are_banked_with_the_cycles(self):
        """Each exit that settles ``cycles_executed`` banks the phase
        sums too: the horizon, a watchdog trip and lost activity."""
        network = make_network()
        network.inject_now(make_message(size=4))
        network.run(50)
        seconds = dict(network.phase_seconds)
        assert list(seconds) == ["events", "links", "nis", "routers"]
        assert min(seconds.values()) >= 0.0 and seconds["routers"] > 0.0

        wedged = make_network()
        wedged.watchdog_window = 1
        wedged.inject_now(make_message(size=4))
        with pytest.raises(DeadlockError):
            wedged.run(50)
        assert wedged.cycles_executed == 2
        assert wedged.phase_seconds["nis"] > 0.0

        lost = make_network()
        lost.inject_now(make_message(size=4))
        for index in range(len(lost._ni_list)):
            lost._ni_sched.deactivate(index)
        with pytest.raises(SimulationError):
            lost.run(50)
        assert set(lost.phase_seconds.values()) == {0.0}

    def test_preempting_router_steps_are_timed(self):
        """The router phase chosen under preemption (``_router_steps``)
        is timed like the fused stages; the reference times nothing."""
        network = _run_preempting_switch(Network.run)
        assert network.preemptions >= 1
        assert min(network.phase_seconds.values()) >= 0.0
        assert network.phase_seconds["routers"] > 0.0
        reference = _run_preempting_switch(run_reference)
        assert set(reference.phase_seconds.values()) == {0.0}


class TestEngineErrors:
    """The ``engine`` knob is gone; naming an engine anywhere is an error."""

    def test_unknown_engine_name_is_rejected(self, capsys):
        """``mediaworm --engine`` is an argparse error (exit status 2)."""
        from repro.experiments.cli import main

        for argv in (["run", "fig3"], ["all"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--engine", "array"])
            assert excinfo.value.code == 2
            assert "--engine" in capsys.readouterr().err

    def test_trace_has_no_profile_flag(self, capsys):
        """Every run times its phases, so ``mediaworm trace --profile``
        is an argparse error (exit status 2)."""
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--profile"])
        assert excinfo.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_network_validates_engine_at_construction(self):
        topology = single_switch(4)
        config = RouterConfig(num_ports=topology.ports_per_router)
        with pytest.raises(TypeError):
            Network(topology, config, engine="array")
        with pytest.raises(TypeError):
            SingleSwitchExperiment(engine="array", **TINY)


def _alternating(step, first):
    """A loop that hands the network back and forth in uneven slices.

    Slice ``i`` is ``step + (i * 37) % 101`` cycles long; even slices
    run on ``Network.run``, odd ones on the reference, starting at
    slice number ``first``.
    """

    def loop(network, until):
        i = first
        while network.clock < until:
            stop = min(until, network.clock + step + (i * 37) % 101)
            (run_reference if i % 2 else Network.run)(network, stop)
            i += 1

    return loop


def _outcome(result):
    return (
        _metrics(result),
        result.cycles_run,
        result.flits_injected,
        result.flits_ejected,
        result.fault_stats,
    )


_HANDOFF_CASES = {
    "dense-switch": (
        simulate_single_switch,
        SingleSwitchExperiment(load=0.8, mix=(80, 20), **TINY),
        (97, 500, 3001),
    ),
    # round-robin at every mux: each grant's ``last`` is read and
    # written by both loops
    "round-robin-switch": (
        simulate_single_switch,
        SingleSwitchExperiment(
            load=0.8,
            mix=(80, 20),
            scheduler="round_robin",
            qos_placement="both",
            **TINY,
        ),
        (97, 3001),
    ),
    "faulted-adaptive-mesh": (
        simulate_fat_mesh,
        FatMeshExperiment(
            load=0.3,
            mix=(80, 20),
            routing_mode=RoutingMode.ADAPTIVE,
            faults=FaultPlan(flit_loss_prob=0.01),
            recovery=RecoveryConfig(timeout=2048, max_retries=4),
            health=HealthConfig(),
            watchdog_window=200_000,
            **TINY,
        ),
        (97, 3001),
    ),
}


class TestOneLoop:
    def test_lost_activity_raises_instead_of_changing_loops(self):
        """Flits in flight with nothing active and no wake armed is a
        broken activity contract: the run fails with its state saved,
        it does not carry on under some other loop."""
        network = make_network()
        network.inject_now(make_message(size=4))
        for index in range(len(network._ni_list)):
            network._ni_sched.deactivate(index)
        with pytest.raises(SimulationError) as excinfo:
            network.run(200)
        message = str(excinfo.value)
        assert re.search(r"\b4 in-flight flits\b", message), message
        assert "cycle 0" in message
        assert network.clock == 0
        assert network.cycles_executed == 0
        assert network._loop is not None
        network.check_conservation()

    def test_run_is_a_short_sequencer_over_named_kernels(self):
        """``FusedLoop.run`` only sequences and times the phases; each
        kernel names its object twin, and neither tests for a profiler
        or preemption (``_phases`` picks the phase callables once per
        run)."""

        def names(code):
            found = set(code.co_names)
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    found |= names(const)
            return found

        assert len(inspect.getsource(FusedLoop.run).splitlines()) <= 150
        twins = {
            "_delivery": ("Link.deliver_due", "accept_flit", "HostSink.eject"),
            "_injection": ("HostInterface.step",),
            "_router_stages": ("WormholeRouter.step",),
            "_router_steps": ("WormholeRouter.step",),
            "_stage5": ("WormholeRouter._stage5_output",),
            "_stage4": ("WormholeRouter._stage4_crossbar",),
            "_stage23": ("WormholeRouter._stage23_route_arbitrate",),
        }
        for name, twin in twins.items():
            kernel = getattr(FusedLoop, name)
            assert all(method in kernel.__doc__ for method in twin), name
        for function in [FusedLoop.run] + [getattr(FusedLoop, n) for n in twins]:
            assert not {"profiler", "preemption"} & names(function.__code__)

    def test_observing_a_run_never_forks_a_kernel(self):
        """The trace sink is tested only as ``emit is not None`` guards
        around emission, never with an ``else``, and no kernel reads a
        stateless-selector flag, a deferred-append buffer or the
        activation scheduler's internals: one path per kernel, whatever
        observes or schedules the run."""
        tree = ast.parse(inspect.getsource(FusedLoop).lstrip())
        guards = 0
        for node in ast.walk(tree):
            if not isinstance(node, (ast.If, ast.IfExp, ast.While)):
                continue
            tested = {
                name.id
                for name in ast.walk(node.test)
                if isinstance(name, ast.Name)
            }
            if "emit" not in tested:
                continue
            test = node.test
            assert (
                isinstance(node, ast.If)
                and isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "emit"
                and [type(op) for op in test.ops] == [ast.IsNot]
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and not node.orelse
            ), ast.unparse(node.test)
            guards += 1
        assert guards >= 8

        def identifiers(code):
            found = set(code.co_names) | set(code.co_varnames)
            found |= set(code.co_freevars) | set(code.co_cellvars)
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    found |= identifiers(const)
            return found

        forbidden = ("stateless", "arb_buf", "_loaned", "_times")
        for name, member in vars(FusedLoop).items():
            if not inspect.isfunction(member):
                continue
            leaked = {
                ident
                for ident in identifiers(member.__code__)
                if any(word in ident for word in forbidden)
            }
            assert not leaked, (name, leaked)

    @pytest.mark.parametrize("case", sorted(_HANDOFF_CASES))
    def test_loops_hand_a_network_back_and_forth(self, case):
        """One network advanced by alternating loops ends where either
        loop alone would: ``resync()`` at run entry is a full hand-off.
        ``cycles_executed`` is not compared — the reference leaves idle
        components in the active sets, so the fused loop executes a few
        cycles it would otherwise jump."""
        simulate, experiment, steps = _HANDOFF_CASES[case]
        default, reference = _simulate_both(simulate, experiment)
        assert _outcome(default) == _outcome(reference)
        if experiment.faults is not None:
            assert default.fault_stats["retransmissions"] > 0
        for first, step in enumerate(steps):
            mixed = simulate(experiment, loop=_alternating(step, first))
            assert _outcome(mixed) == _outcome(default), (step, first)

    def test_reference_never_builds_the_fused_loop(self):
        topology = single_switch(4)
        network = Network(
            topology, RouterConfig(num_ports=topology.ports_per_router)
        )
        network.inject_now(make_message(size=6))
        run_reference(network, 50)
        assert network.flits_ejected == 6
        assert network._loop is None

    def test_legacy_env_var_is_ignored(self, monkeypatch, tiny_run):
        """``REPRO_LEGACY_LOOP`` used to select the full scan; exported
        now, a run still builds the fused loop and lands on the default
        digest."""
        monkeypatch.setenv("REPRO_LEGACY_LOOP", "1")
        network = make_network()
        network.inject_now(make_message(size=6))
        network.run(50)
        assert network.flits_ejected == 6
        assert network._loop is not None
        exported = simulate_single_switch(tiny_run.experiment)
        assert _outcome(exported) == _outcome(tiny_run)
        assert exported.cycles_executed == tiny_run.cycles_executed

    def test_no_environment_read_and_one_way_to_the_reference(self):
        """Nothing under ``src/repro`` reads the environment, and only
        the two campaigns that need a second opinion import the
        reference stepper — the run path cannot reach it."""
        package = SRC / "repro"
        env_readers, importers = [], []
        for path in sorted(package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = path.relative_to(package).as_posix()
            if "os.environ" in source or "os.getenv" in source:
                env_readers.append(name)
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if "repro.sim.reference" in modules:
                    importers.append(name)
        assert env_readers == []
        assert importers == ["chaos/campaign.py", "experiments/scale.py"]

    def test_run_path_never_imports_numpy(self):
        """The loop is plain Python: numpy's ~11 MiB stays out of every
        simulation process (fresh interpreter, so other tests' imports
        do not count)."""
        probe = (
            "import sys\n"
            "from repro.experiments.config import SingleSwitchExperiment\n"
            "from repro.experiments.runner import simulate_single_switch\n"
            "simulate_single_switch(SingleSwitchExperiment(\n"
            "    load=0.5, mix=(80, 20), scale=100.0,\n"
            "    warmup_frames=1, measure_frames=2))\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={"PYTHONPATH": str(SRC), "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


_PER_KIND_NAMES = (
    "simulate_single_switch",
    "simulate_fat_mesh",
    "simulate_fat_tree3",
    "simulate_butterfly",
)
_GENERATORS = {"single_switch", "fat_mesh", "fat_tree", "fat_tree3", "butterfly"}


class TestOneSimulate:
    """The experiment's type names its topology, so there is one
    ``simulate(experiment)`` and no runner to mismatch it with."""

    @pytest.mark.parametrize(
        "cls",
        [
            SingleSwitchExperiment,
            FatMeshExperiment,
            FatTreeExperiment,
            FatTree3Experiment,
            ButterflyExperiment,
            PCSExperiment,
        ],
    )
    def test_every_per_kind_name_runs_every_experiment_type(self, cls):
        """A name paired with another kind's experiment still runs it:
        an untyped ``AttributeError`` here would escape every sweep's
        ``on_failure`` and abort the sweep."""
        experiment = cls(load=0.05, mix=(100, 0), vcs_per_pc=4, **TINY)
        expected = run_digest(simulate(experiment))
        for name in _PER_KIND_NAMES:
            result = getattr(runner, name)(experiment)
            assert run_digest(result) == expected, name

    def test_per_kind_names_are_the_one_picklable_function(self):
        for name in _PER_KIND_NAMES:
            assert getattr(runner, name) is simulate, name
        # what a pool worker receives for a task built from an old name
        assert pickle.loads(pickle.dumps(simulate_butterfly)) is simulate

    def test_what_cannot_run_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="'object'"):
            simulate(object())

    def test_one_place_knows_generators_and_experiment_types(self):
        """Under ``src/repro`` only ``experiments/config.py`` pairs a
        generator with an experiment; nothing branches on an
        experiment's type, PCS included; the per-kind names live on
        ``runner.py``'s alias line only."""
        package = SRC / "repro"
        per_kind = re.compile(r"\b(" + "|".join(_PER_KIND_NAMES) + r")\b")
        importers, type_tests, alias_lines = [], [], {}
        for path in sorted(package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = path.relative_to(package).as_posix()
            hits = [line for line in source.splitlines() if per_kind.search(line)]
            if hits:
                alias_lines[name] = hits
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    if _GENERATORS & {alias.name for alias in node.names}:
                        importers.append(name)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and any(
                        isinstance(leaf, ast.Name)
                        and leaf.id.endswith("Experiment")
                        for leaf in ast.walk(node.args[1])
                    )
                ):
                    type_tests.append(name)
        assert importers == ["__init__.py", "experiments/config.py"]
        assert type_tests == []
        assert sorted(alias_lines) == ["experiments/runner.py"]
        assert len(alias_lines["experiments/runner.py"]) == 1


class TestOneSkeleton:
    """A figure is a spec: one place builds sweep tasks, one path runs
    them, and nothing on that path reseeds them."""

    def test_one_task_builder_one_path_one_retry_layer(self):
        """Under ``src/repro`` only the campaign skeleton constructs a
        ``SweepTask`` (chaos runs its scenarios through it too),
        ``execute_tasks`` (the bare second path) is gone, no
        ``replace(..., seed=...)`` in the executor, its resilience
        module or the skeleton runs a point as another seed's
        experiment, and what a pool worker imports — ``parallel`` and
        ``runner`` — reaches none of the spec layer."""
        package = SRC / "repro"
        spec_layer = {"campaign", "figures", "tables", "cli"}
        sweep_path = (
            "experiments/parallel.py",
            "experiments/resilience.py",
            "experiments/campaign.py",
        )
        builders, reseeds, bare_path, leaks = [], [], [], []
        for path in sorted(package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = path.relative_to(package).as_posix()
            if "execute_tasks" in source:
                bare_path.append(name)
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = getattr(func, "id", getattr(func, "attr", None))
                    if callee == "SweepTask":
                        builders.append(name)
                    elif (
                        callee == "replace"
                        and name in sweep_path
                        and any(kw.arg == "seed" for kw in node.keywords)
                    ):
                        reseeds.append(f"{name}:{node.lineno}")
                elif name in ("experiments/parallel.py", "experiments/runner.py"):
                    if isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""] + [
                            f"{node.module}.{alias.name}" for alias in node.names
                        ]
                    elif isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    else:
                        continue
                    leaks += [
                        (name, module)
                        for module in modules
                        if module.startswith("repro.experiments")
                        and module.rpartition(".")[2] in spec_layer
                    ]
        assert builders == ["experiments/campaign.py"]
        assert reseeds == []
        assert bare_path == []
        assert leaks == []
