"""The cycle loop's bit-identity contract with the reference full scan.

``Network.run`` executes one loop, the fused cycle loop of
``repro.sim.fused``; ``repro.sim.reference.run_reference`` is the full
scan it is checked against, passed wherever a loop is an argument.
Every workload family of the tier-1 suite must produce the same
``RunMetrics`` (and fault stats, where present) on both — whether a
component runs through the loop's inlined kernels or, for a cold
feature, is called out to its own object method.
"""

import ast
import dataclasses
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import experiments
from repro.errors import ConfigurationError, SimulationError
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
from repro.network.link import Link
from repro.network.network import Network
from repro.network.topology import single_switch
from repro.obs import RingBufferSink, install_tracing
from repro.router.config import RouterConfig, RoutingMode
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


class TestArrayEngineParity:
    """The default loop is bit-identical to the reference scan on every
    workload family (the class keeps its name from when the fused loop
    was the opt-in "array engine")."""

    @pytest.mark.parametrize("scheduler", ["virtual_clock", "fifo"])
    def test_single_switch_schedulers(self, scheduler):
        experiment = SingleSwitchExperiment(
            load=0.8, mix=(80, 20), scheduler=scheduler, **TINY
        )
        default, legacy = _simulate_both(simulate_single_switch, experiment)
        assert _metrics(default) == _metrics(legacy)

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
        default, legacy = _simulate_both(simulate_fat_mesh, experiment)
        assert _metrics(default) == _metrics(legacy)

    def test_array_matches_legacy_golden_digest(self):
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

        _, fates = _spy_on_links(monkeypatch)
        default, legacy = _both_loops(build)
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

        def build(run):
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
            run(network, 16_000)
            network.check_invariants()
            return [
                (cycle, fields["link"], fields["prev"], fields["state"])
                for kind, cycle, fields in monitor.trace.records
                if kind == "health" and "link" in fields
            ]

        deliveries, _ = _spy_on_links(monkeypatch)
        default = build(Network.run)
        called_out = list(deliveries)
        legacy = build(run_reference)
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

        def build(run):
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
            run(network, 8000)
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
        default = build(Network.run)
        assert deliveries and {label for label, _ in deliveries} == {traced}
        kinds = {kind for kind, _, _ in default[0]}
        assert {"link_tx", "flit_lost", "flit_corrupt"} <= kinds
        assert build(run_reference) == default


class TestCallOuts:
    """Cases a whole-run fallback used to hide: inlined kernels and
    object call-outs sharing one run, one cycle, one link mirror."""

    def test_some_links_faulty_mixes_inlined_and_call_out_delivery(self):
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
        """Call-outs are decided per ``run()`` call: the first run is
        fully inlined, the second fully traced, on one network."""

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
    "simulate_fat_tree",
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
            for module in (runner, experiments, repro):
                assert getattr(module, name) is simulate, (module, name)
        # what a pool worker receives for a task built from an old name
        assert pickle.loads(pickle.dumps(simulate_butterfly)) is simulate

    def test_what_cannot_run_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="'object'"):
            simulate(object())
        with pytest.raises(ConfigurationError, match="no cycle loop"):
            simulate(PCSExperiment(**TINY), loop=run_reference)

    def test_one_place_knows_generators_and_experiment_types(self):
        """Under ``src/repro`` only ``experiments/config.py`` (and the
        PCS simulator's own default) pairs a generator with an
        experiment; nothing but ``simulate`` branches on an experiment's
        type; the per-kind names live on ``runner.py``'s alias line and
        in the two re-exporting ``__init__`` files."""
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
        assert importers == [
            "__init__.py",
            "experiments/config.py",
            "network/__init__.py",
            "pcs/simulator.py",
        ]
        assert type_tests == ["experiments/runner.py"]
        assert sorted(alias_lines) == [
            "__init__.py",
            "experiments/__init__.py",
            "experiments/runner.py",
        ]
        assert len(alias_lines["experiments/runner.py"]) == 1


class TestOneSkeleton:
    """A figure is a spec: one place builds sweep tasks, one path runs
    them, one layer retries them."""

    def test_one_task_builder_one_path_one_retry_layer(self):
        """Under ``src/repro`` only the campaign skeleton constructs a
        ``SweepTask`` (chaos runs its scenarios through it too),
        ``execute_tasks`` (the bare second path) is
        gone, only the executor's worker body calls ``run_resilient``,
        and what a pool worker imports — ``parallel`` and ``runner`` —
        reaches none of the spec layer."""
        package = SRC / "repro"
        spec_layer = {"campaign", "figures", "tables", "cli"}
        builders, retriers, bare_path, leaks = [], [], [], []
        for path in sorted(package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = path.relative_to(package).as_posix()
            if "execute_tasks" in source:
                bare_path.append(name)
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id == "SweepTask":
                        builders.append(name)
                    elif node.func.id == "run_resilient":
                        retriers.append(name)
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
        assert retriers == ["experiments/parallel.py"]
        assert bare_path == []
        assert leaks == []
