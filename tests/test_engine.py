"""The cycle loop's bit-identity contract with the reference full scan.

``Network.run`` executes one loop, the fused cycle loop of
``repro.sim.fused``; ``repro.sim.reference.run_reference`` is the full
scan it is checked against, passed wherever a loop is an argument.
Whole experiments are compared on both loops by the parity matrix of
``tests/test_parity.py``; this file holds the loop's structure and the
hand-driven networks that need a live network between runs (down
windows, purges, requeues, preemption).  Delivery is one flit loop,
inside a link's down windows too; the kernels' only object calls are
a faulted link's ``LinkFaultState.fate``, ``Link.apply_fate`` for a
lost or corrupt flit, and the router rules stage 2/3 shares with the
object code (adaptive candidates, the preemption kill).  Every run
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
from repro.experiments.runner import simulate, simulate_butterfly
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
from repro.obs.sinks import RingBufferSink, install_tracing
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
from test_parity import CELLS, FAULTED

SRC = Path(__file__).resolve().parents[1] / "src"


def _spy_on_links(monkeypatch):
    """Record ``(label, clock)`` per ``Link.deliver_due`` call."""
    deliveries = []
    deliver_due = Link.deliver_due

    def spy_deliver_due(self, clock):
        deliveries.append((self.label, clock))
        return deliver_due(self, clock)

    monkeypatch.setattr(Link, "deliver_due", spy_deliver_due)
    return deliveries


def _both_loops(build):
    """``build(run)`` once per loop: (fused-loop value, reference value).

    ``run`` is the loop as a callable ``(network, until)``.
    """
    return build(Network.run), build(run_reference)


def _outcome(result):
    # repr-compare: exact for every finite float, and NaN fields (a
    # horizon too short to deliver frames) stay comparable
    metrics = repr(dataclasses.asdict(result.metrics))
    return metrics, result.cycles_run, result.flits_ejected, result.fault_stats


class TestLoopParity:
    """Every workload family on both loops is ``tests/test_parity.py``'s
    matrix; its ``saturated`` cell is read off the session memo here."""

    def test_near_saturation_switch_matches_the_reference(self, simulated):
        """The near-saturation point: every VC contended every cycle."""
        experiment = CELLS["saturated"]
        fused = simulated(experiment).result
        assert _outcome(fused) == _outcome(simulated(experiment, run_reference).result)


class TestFaultGate:
    """Faulted, untraced links deliver inside the loop: the fate is
    drawn inline, and only a lost or corrupted flit calls out.  A down
    window is delivered inside the loop too, and only
    ``Link.apply_fate`` takes a link off UP."""

    def test_every_fault_kind_in_one_adaptive_run(self, simulated):
        """Loss and corruption on every link (host eject links
        included), one channel severed for a window that opens and
        closes mid-measurement, health monitoring and adaptive
        failover: the matrix's ``mesh-every-fault`` cell, whose loops
        end with the same metrics, fault stats and per-link fault RNG
        states."""
        experiment = CELLS["mesh-every-fault"]
        fused, reference = simulated(experiment), simulated(experiment, run_reference)
        stats = fused.result.fault_stats
        assert stats["flits_lost"] > 0 and stats["flits_corrupted"] > 0
        assert stats["health"]["link_downs"] > 0
        assert stats["health"]["link_recoveries"] > 0, "window never closed"
        assert fused.eject_fates == {FATE_LOST, FATE_CORRUPT}
        assert _outcome(fused.result) == _outcome(reference.result)
        assert fused.link_states == reference.link_states, "fault RNG substreams diverged"

    def test_clean_flits_never_leave_the_loop(self, simulated):
        """On every faulted cell of the matrix the fused loop makes no
        ``deliver_due`` call, and each loop one ``apply_fate`` call per
        lost or corrupted flit."""
        for name in FAULTED:
            fused = simulated(CELLS[name])
            assert fused.calls["Link.deliver_due"] == 0, name
            for run in (fused, simulated(CELLS[name], run_reference)):
                stats = run.result.fault_stats
                lost = stats["flits_lost"] + stats["flits_corrupted"]
                assert run.calls["Link.apply_fate"] == lost, name

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

        deliveries = _spy_on_links(monkeypatch)
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
    """A traced preempting switch on the stage kernels (traced
    experiments are ``tests/test_parity.py``'s)."""

    def test_preemption_steps_no_component(self, monkeypatch):
        """A preempting ``Network.run`` kills in stage 2/3 and calls no
        ``WormholeRouter.step`` or ``HostInterface.step``, traced or
        not; its stream is the reference stepper's."""

        def build(run):
            sink = RingBufferSink()
            network = _run_preempting_switch(run, trace_sink=sink)
            return network.preemptions, _dense_ids(sink.records)

        steps = _spy_on_steps(monkeypatch)
        default = build(Network.run)
        assert steps == {"router": 0, "ni": 0}
        untraced = _run_preempting_switch(Network.run)
        assert steps == {"router": 0, "ni": 0}
        assert untraced.preemptions == default[0] >= 1
        assert {"purge", "xbar"} <= {kind for kind, _, _ in default[1]}
        assert build(run_reference) == default


class TestCallOuts:
    """Inlined kernels and object code sharing one run, one cycle, one
    link mirror: tracing installed between runs, and purges and
    requeues from events (partly faulted fabrics are cells of
    ``tests/test_parity.py``)."""

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

    def test_preempting_router_stages_are_timed(self):
        """A preempting run's router phase is the stage kernels, timed
        like any other run's; the reference times nothing."""
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
        kernel names its object twin, none tests for a profiler, and
        ``_phases`` starts the same kernels for every run: it reads the
        trace sink and chooses no router phase."""

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
            "_stage5": ("WormholeRouter._stage5_output",),
            "_stage4": ("WormholeRouter._stage4_crossbar",),
            "_stage23": ("WormholeRouter._stage23_route_arbitrate",),
        }
        for name, twin in twins.items():
            kernel = getattr(FusedLoop, name)
            assert all(method in kernel.__doc__ for method in twin), name
        for function in [FusedLoop.run] + [getattr(FusedLoop, n) for n in twins]:
            assert "profiler" not in names(function.__code__)
        phases = ast.parse(inspect.getsource(FusedLoop._phases).lstrip())
        branches = [
            ast.unparse(node.test)
            for node in ast.walk(phases)
            if isinstance(node, (ast.If, ast.IfExp))
        ]
        assert branches == ["net.trace is None"]
        kernels = {
            name for name in names(FusedLoop._phases.__code__)
            if name in vars(FusedLoop)
        }
        assert kernels == {"_delivery", "_injection", "_router_stages"}

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

    def test_reference_never_builds_the_fused_loop(self):
        topology = single_switch(4)
        network = Network(
            topology, RouterConfig(num_ports=topology.ports_per_router)
        )
        network.inject_now(make_message(size=6))
        run_reference(network, 50)
        assert network.flits_ejected == 6
        assert network._loop is None

    def test_legacy_env_var_is_ignored(self, monkeypatch):
        """``REPRO_LEGACY_LOOP`` used to select the full scan; exported
        now, a run still builds the fused loop (and nothing reads it:
        the next test)."""
        monkeypatch.setenv("REPRO_LEGACY_LOOP", "1")
        network = make_network()
        network.inject_now(make_message(size=6))
        network.run(50)
        assert network.flits_ejected == 6
        assert network._loop is not None

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
        """A plain run imports only the run path (fresh interpreter, so
        other tests' imports do not count): the loop is plain Python, so
        numpy's ~11 MiB stays out of every simulation process, and each
        optional subsystem's machinery — faults, health, tracing, PCS,
        the result store — loads only at the site that installs it."""
        probe = (
            "import sys\n"
            "import repro.experiments.parallel\n"
            "from repro.experiments.config import SingleSwitchExperiment\n"
            "from repro.experiments.runner import simulate_single_switch\n"
            "simulate_single_switch(SingleSwitchExperiment(\n"
            "    load=0.5, mix=(80, 20), scale=100.0,\n"
            "    warmup_frames=1, measure_frames=2))\n"
            f"print(sorted(set({_OPTIONAL_MODULES!r}) & set(sys.modules)))\n"
        )
        assert _fresh_interpreter(probe) == "[]"

    def test_an_observed_faulted_run_loads_the_machinery(self, tmp_path):
        """The other side of the lazy imports: a fat-mesh run with
        faults, recovery, health and a JSONL + checked trace reaches
        every install site, so each deferred import resolves."""
        probe = (
            "import sys\n"
            "from repro.experiments.config import FatMeshExperiment\n"
            "from repro.experiments.runner import simulate\n"
            "from repro.faultplan import FaultPlan, RecoveryConfig\n"
            "from repro.network.healthconfig import HealthConfig\n"
            "from repro.obs.events import TraceSpec\n"
            "result = simulate(FatMeshExperiment(\n"
            "    load=0.3, scale=100.0, warmup_frames=1, measure_frames=1,\n"
            "    faults=FaultPlan(flit_loss_prob=0.001),\n"
            "    recovery=RecoveryConfig(timeout=4096),\n"
            "    health=HealthConfig(), routing_mode='adaptive',\n"
            "    trace=TraceSpec(path=sys.argv[1], check=True)))\n"
            "assert result.trace_summary['invariant_checks'] > 0\n"
            "print(sorted(set(sys.argv[2:]) - set(sys.modules)))\n"
        )
        machinery = (
            "repro.faults",
            "repro.network.health",
            "repro.obs.sinks",
            "repro.obs.invariants",
            "json",
        )
        trace = str(tmp_path / "trace.jsonl")
        assert _fresh_interpreter(probe, trace, *machinery) == "[]"


#: what a plain run (no faults, recovery, health, trace or PCS, no
#: result store) never imports
_OPTIONAL_MODULES = (
    "numpy",
    "json",
    "logging",
    "repro.faults",
    "repro.network.health",
    "repro.obs.sinks",
    "repro.obs.invariants",
    "repro.obs.chrometrace",
    "repro.pcs.workload",
    "repro.pcs.connection",
    "repro.experiments.resilience",
)


def _fresh_interpreter(probe: str, *args: str) -> str:
    """Run ``probe`` in a new interpreter on ``src`` (writing no
    bytecode cache into it); its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={"PYTHONPATH": str(SRC), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


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
        ``on_failure`` and abort the sweep.  Every name is ``simulate``
        itself (the next test), so one mismatched name per type runs."""
        experiment = cls(load=0.05, mix=(100, 0), vcs_per_pc=4, **TINY)
        other = "simulate_fat_mesh" if cls is not FatMeshExperiment else "simulate_butterfly"
        result = getattr(runner, other)(experiment)
        assert result.experiment is experiment
        assert result.cycles_run == experiment.total_cycles
        assert run_digest(result)

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
