"""The cycle loop's bit-identity contract with the legacy full scan.

``Network.run`` executes one loop, the fused cycle loop of
``repro.sim.fused``; ``REPRO_LEGACY_LOOP=1`` selects the legacy full
scan, the parity reference.  Every workload family of the tier-1 suite
must produce the same ``RunMetrics`` (and fault stats, where present)
on both — whether a component runs through the loop's inlined kernels
or, for a cold feature, is called out to its own object method.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import (
    simulate_butterfly,
    simulate_fat_mesh,
    simulate_fat_tree3,
    simulate_single_switch,
)
from repro.chaos.scenario import ChaosFatMeshExperiment
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
from repro.network.link import Link
from repro.network.network import Network
from repro.network.topology import single_switch
from repro.obs import RingBufferSink, install_tracing
from repro.router.config import RouterConfig, RoutingMode
from repro.sim.rng import RngStreams
from conftest import TINY, attach_workload, make_mesh_network, make_message

SRC = Path(__file__).resolve().parents[1] / "src"


def _metrics(result):
    # repr-compare: exact for every finite float, and NaN fields (a
    # horizon too short to deliver frames) stay comparable
    return repr(dataclasses.asdict(result.metrics))


def _both_loops(monkeypatch, build):
    """``build()`` once per loop: (default-loop value, legacy-loop value)."""
    monkeypatch.delenv("REPRO_LEGACY_LOOP", raising=False)
    default = build()
    monkeypatch.setenv("REPRO_LEGACY_LOOP", "1")
    legacy = build()
    monkeypatch.delenv("REPRO_LEGACY_LOOP")
    return default, legacy


class TestArrayEngineParity:
    """The default loop is bit-identical to the legacy scan on every
    workload family (the class keeps its name from when the fused loop
    was the opt-in "array engine")."""

    def _pair(self, monkeypatch, simulate, experiment):
        return _both_loops(monkeypatch, lambda: simulate(experiment))

    @pytest.mark.parametrize("scheduler", ["virtual_clock", "fifo"])
    def test_single_switch_schedulers(self, monkeypatch, scheduler):
        experiment = SingleSwitchExperiment(
            load=0.8, mix=(80, 20), scheduler=scheduler, **TINY
        )
        default, legacy = self._pair(
            monkeypatch, simulate_single_switch, experiment
        )
        assert _metrics(default) == _metrics(legacy)

    def test_fat_mesh(self, monkeypatch):
        experiment = FatMeshExperiment(load=0.7, mix=(80, 20), **TINY)
        default, legacy = self._pair(monkeypatch, simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_fat_tree3(self, monkeypatch):
        experiment = FatTree3Experiment(load=0.7, mix=(80, 20), **TINY)
        default, legacy = self._pair(
            monkeypatch, simulate_fat_tree3, experiment
        )
        assert _metrics(default) == _metrics(legacy)

    def test_butterfly(self, monkeypatch):
        experiment = ButterflyExperiment(load=0.7, mix=(80, 20), **TINY)
        default, legacy = self._pair(
            monkeypatch, simulate_butterfly, experiment
        )
        assert _metrics(default) == _metrics(legacy)

    def test_faulted_run_gates_flits_inline_identically(self, monkeypatch):
        """Every link carries fault state, so every delivered flit
        passes the inlined fate gate; only the lost ones leave the loop."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            faults=FaultPlan(flit_loss_prob=0.01),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = self._pair(monkeypatch, simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)
        assert default.fault_stats == legacy.fault_stats

    def test_adaptive_failover_health_only_links_identically(
        self, monkeypatch
    ):
        """Health-monitored, fault-free links stay on the inlined
        delivery; adaptive routing runs inline through the mask-aware
        call-out."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            routing_mode=RoutingMode.ADAPTIVE,
            health=HealthConfig(),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = self._pair(monkeypatch, simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_array_matches_legacy_golden_digest(self, monkeypatch):
        """The near-saturation point: every VC contended every cycle."""
        experiment = SingleSwitchExperiment(load=0.9, mix=(80, 20), **TINY)
        default, legacy = self._pair(
            monkeypatch, simulate_single_switch, experiment
        )
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


class TestFaultGate:
    """Faulted, untraced links deliver inside the loop: the fate is
    drawn inline, and only a lost or corrupted flit calls out."""

    def test_every_fault_kind_in_one_adaptive_run(self, monkeypatch):
        """Loss and corruption on every link (host eject links
        included), one channel severed for a window that opens and
        closes mid-measurement, health monitoring and adaptive
        failover: both loops end with the same metrics, fault stats and
        per-link fault RNG states."""
        base = FatMeshExperiment(load=0.7, mix=(80, 20), **TINY)
        measured = base.total_cycles - base.warmup_cycles
        window = LinkDownWindow(
            "ch:0.4->1.4",
            start=base.warmup_cycles + measured // 8,
            end=base.warmup_cycles + measured // 3,
        )

        def build():
            networks = []
            result = simulate_fat_mesh(
                ChaosFatMeshExperiment(
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
                )
            )
            states = networks[0].fault_injector.states
            return (
                result,
                {label: st.rng.getstate() for label, st in states.items()},
                {label: set(st.broken) for label, st in states.items()},
            )

        _, fates = _spy_on_links(monkeypatch)
        default, legacy = _both_loops(monkeypatch, build)
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
        """Outside down windows an untraced faulted run makes no
        ``deliver_due`` call, and one ``apply_fate`` call per lost or
        corrupted flit."""
        deliveries, fates = _spy_on_links(monkeypatch)
        monkeypatch.delenv("REPRO_LEGACY_LOOP", raising=False)
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

    def test_down_window_visits_are_the_only_call_outs(self, monkeypatch):
        """SUSPECT and PROBATION links get their ``on_ok`` heartbeat
        from the inlined path: a severed-then-healed channel (faults +
        health) and a health-only link knocked to SUSPECT both return
        to UP at the cycle the legacy loop reports, while
        ``deliver_due`` runs only on the severed link inside its
        window."""
        severed, suspect = "ch:0.2->1.2", "ch:2.1->3.1"
        window = LinkDownWindow(severed, start=1000, end=6000)

        def build():
            network, _ = make_mesh_network(
                routing_mode=RoutingMode.ADAPTIVE
            )
            rngs = RngStreams(5)
            install_faults(network, FaultPlan(down_windows=(window,)), rngs)
            install_recovery(network, RecoveryConfig(timeout=2048))
            monitor = install_health(network, HealthConfig(), rngs)
            monitor.trace = RingBufferSink()
            attach_workload(network, load=0.8)
            health = monitor.states[suspect]
            assert health.link.faults is None

            def knock():
                health.state = SUSPECT
                health.misses = HealthConfig().suspect_misses

            network.schedule_call(2000, knock)
            network.run(16_000)
            network.check_invariants()
            return [
                (cycle, fields["link"], fields["prev"], fields["state"])
                for kind, cycle, fields in monitor.trace.records
                if kind == "health" and "link" in fields
            ]

        deliveries, _ = _spy_on_links(monkeypatch)
        monkeypatch.delenv("REPRO_LEGACY_LOOP", raising=False)
        default = build()
        called_out = list(deliveries)
        monkeypatch.setenv("REPRO_LEGACY_LOOP", "1")
        legacy = build()
        assert default == legacy
        ups = {
            (label, prev)
            for cycle, label, prev, state in default
            if state == UP
        }
        assert ups == {(severed, PROBATION), (suspect, SUSPECT)}
        assert called_out
        assert all(
            label == severed and window.start <= clock < window.end
            for label, clock in called_out
        )

    def test_traced_faulted_link_is_still_called_out(self, monkeypatch):
        """A trace sink on one faulted link keeps that link (only) on
        ``Link.deliver_due``, which emits ``flit_lost`` and
        ``flit_corrupt``; the other faulted links stay inlined."""
        traced = "ch:0.1->1.1"

        def build():
            network, _ = make_mesh_network()
            install_faults(
                network,
                FaultPlan(flit_loss_prob=0.01, flit_corrupt_prob=0.01),
                RngStreams(5),
            )
            install_recovery(network, RecoveryConfig(timeout=2048))
            sink = RingBufferSink()
            next(
                link for link in network.links if link.label == traced
            ).trace = sink
            attach_workload(network, load=0.6)
            network.run(8000)
            network.check_invariants()
            return (
                [
                    (kind, cycle, fields["flit"])
                    for kind, cycle, fields in sink.records
                ],
                network.flits_lost,
                network.flits_corrupted,
                network.flits_ejected,
            )

        deliveries, _ = _spy_on_links(monkeypatch)
        monkeypatch.delenv("REPRO_LEGACY_LOOP", raising=False)
        default = build()
        assert deliveries and {label for label, _ in deliveries} == {traced}
        kinds = {kind for kind, _, _ in default[0]}
        assert {"link_tx", "flit_lost", "flit_corrupt"} <= kinds
        monkeypatch.setenv("REPRO_LEGACY_LOOP", "1")
        assert build() == default


class TestCallOuts:
    """Cases a whole-run fallback used to hide: inlined kernels and
    object call-outs sharing one run, one cycle, one link mirror."""

    def test_some_links_faulty_mixes_inlined_and_call_out_delivery(
        self, monkeypatch
    ):
        """Only the inter-router channels lose flits; host links stay
        on the inlined delivery kernel in the same cycles."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            faults=FaultPlan(flit_loss_prob=0.02, links="ch:*"),
            recovery=RecoveryConfig(timeout=4096),
            watchdog_window=200_000,
            **TINY,
        )
        default, legacy = _both_loops(
            monkeypatch, lambda: simulate_fat_mesh(experiment)
        )
        assert default.fault_stats["flits_lost"] > 0
        assert default.fault_stats["retransmissions"] > 0
        faulted = default.fault_stats["faulted_links"]
        assert faulted and all(label.startswith("ch:") for label in faulted)
        assert _metrics(default) == _metrics(legacy)
        assert default.fault_stats == legacy.fault_stats

    def test_corruption_on_some_links_is_caught_at_an_inlined_sink(
        self, monkeypatch
    ):
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
        default, legacy = _both_loops(
            monkeypatch, lambda: simulate_fat_mesh(experiment)
        )
        assert default.fault_stats["corrupt_detected"] > 0
        assert _metrics(default) == _metrics(legacy)
        assert default.fault_stats == legacy.fault_stats

    def test_tracing_installed_between_two_runs(self, monkeypatch):
        """Call-outs are decided per ``run()`` call: the first run is
        fully inlined, the second fully traced, on one network."""

        def build():
            delivered = []
            network, _ = make_mesh_network(
                on_message=lambda msg, clock: delivered.append(
                    (msg.src_node, msg.dst_node, msg.size, clock)
                )
            )
            attach_workload(network, load=0.5)
            network.run(4000)
            sink = install_tracing(network, RingBufferSink())
            network.run(8000)
            network.check_invariants()
            kinds = [(kind, cycle) for kind, cycle, _ in sink.records]
            return delivered, kinds, network.flits_ejected

        default, legacy = _both_loops(monkeypatch, build)
        assert default[1], "the second run emitted no trace events"
        assert min(cycle for _, cycle in default[1]) >= 4000
        assert default == legacy

    def test_mid_run_purge_resyncs_the_link_mirror(self, monkeypatch):
        """A kill scheduled mid-run rebuilds ``Link.pending`` deques
        under the loop; it must keep delivering everything else."""

        def build():
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
            network.run(6000)
            network.check_invariants()
            return delivered, dropped, network.flits_dropped

        default, legacy = _both_loops(monkeypatch, build)
        assert 0 < default[1][0] < 400, "the victim was not caught in flight"
        assert default == legacy

    def test_mid_run_requeue_of_stuck_worms(self, monkeypatch):
        """``requeue_stuck_worms`` (the failover kill-and-requeue) run
        from an event while worms hold the port and its wire."""

        def build():
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
            network.run(8000)
            network.check_invariants()
            return delivered, requeued, network.flits_dropped

        default, legacy = _both_loops(monkeypatch, build)
        assert default == legacy

    def test_profiled_run_stays_on_the_loop_and_counts_its_cycles(self):
        experiment = SingleSwitchExperiment(load=0.5, mix=(80, 20), **TINY)
        plain = simulate_single_switch(experiment)
        profiled = simulate_single_switch(
            dataclasses.replace(experiment, profile_loop=True)
        )
        profile = profiled.metrics.profile
        assert profile["loop_cycles_executed"] == profiled.cycles_executed
        assert profile["loop_routers_s"] > 0
        assert profiled.cycles_executed == plain.cycles_executed
        assert dataclasses.replace(
            profiled.metrics, profile={}
        ) == dataclasses.replace(plain.metrics, profile={})


class TestCyclesExecuted:
    def test_result_reports_executed_and_jumped_cycles(self, monkeypatch):
        experiment = FatTree3Experiment(load=0.01, mix=(100, 0), **TINY)
        default, legacy = _both_loops(
            monkeypatch, lambda: simulate_fat_tree3(experiment)
        )
        assert 0 < default.cycles_executed < default.cycles_run
        # the legacy scan jumps only over an empty network
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

    def test_network_validates_engine_at_construction(self):
        topology = single_switch(4)
        config = RouterConfig(num_ports=topology.ports_per_router)
        with pytest.raises(TypeError):
            Network(topology, config, engine="array")
        with pytest.raises(TypeError):
            SingleSwitchExperiment(engine="array", **TINY)


class TestOneLoop:
    def test_legacy_env_never_builds_the_fused_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEGACY_LOOP", "1")
        topology = single_switch(4)
        network = Network(
            topology, RouterConfig(num_ports=topology.ports_per_router)
        )
        network.inject_now(make_message(size=6))
        network.run(50)
        assert network.flits_ejected == 6
        assert network._loop is None

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
