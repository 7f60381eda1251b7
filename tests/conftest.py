"""Shared fixtures: tiny networks and workloads that run in milliseconds,
and the session's one memo of simulated experiments."""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Optional

import pytest

from repro.core.schedulers import SchedulingPolicy
from repro.errors import SimulationError
from repro.experiments.campaign import experiment_key
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.runner import simulate
from repro.network.interface import HostInterface
from repro.network.link import Link
from repro.network.network import Network
from repro.router.router import WormholeRouter
from repro.network.topology import fat_mesh, single_switch
from repro.router.config import RouterConfig
from repro.router.flit import Message, TrafficClass
from repro.sim.reference import run_reference
from repro.sim.rng import RngStreams
from repro.sim.units import LinkSpec, TimeBase, WorkloadScale
from repro.traffic.mix import build_workload


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Every test runs in its own empty directory: the sweep commands'
    default result store persists, so one test's points must never be
    served to another (nor land in the checkout)."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def reference_loop(request, monkeypatch):
    """Run the test on the reference stepper instead of the fused loop.

    Patches ``Network.run`` for the test's duration, so code that calls
    ``network.run`` itself (drains, the chaos replay) follows.  Under
    ``@pytest.mark.parametrize("reference_loop", [False, True],
    indirect=True)`` the test runs once per loop and the fixture's
    value says which; where one test needs both loops side by side,
    pass ``loop=run_reference`` to the runner instead.
    """
    enabled = getattr(request, "param", True)
    if enabled:
        monkeypatch.setattr(Network, "run", run_reference)
    return enabled


@pytest.fixture
def link400() -> LinkSpec:
    """The paper's main link: 400 Mbps, 32-bit flits (80 ns cycles)."""
    return LinkSpec(bandwidth_mbps=400.0, flit_size_bits=32)


@pytest.fixture
def timebase(link400) -> TimeBase:
    return TimeBase(link400, WorkloadScale(1.0))


def make_network(
    ports: int = 4,
    vcs: int = 4,
    depth: int = 4,
    policy: str = SchedulingPolicy.VIRTUAL_CLOCK,
    crossbar: str = "multiplexed",
    rt_vc_count=None,
    on_message=None,
    trace_sink=None,
    **config_kwargs,
) -> Network:
    """A small single-switch network for direct flit-level tests.

    ``trace_sink`` installs an observability sink (see ``repro.obs``)
    on every component before the network is returned.
    """
    config = RouterConfig(
        num_ports=ports,
        vcs_per_pc=vcs,
        flit_buffer_depth=depth,
        crossbar=crossbar,
        qos_policy=policy,
        rt_vc_count=rt_vc_count,
        **config_kwargs,
    )
    network = Network(single_switch(ports), config, on_message=on_message)
    if trace_sink is not None:
        from repro.obs.sinks import install_tracing

        install_tracing(network, trace_sink)
    return network


def make_mesh_network(
    rows: int = 2,
    cols: int = 2,
    hosts_per_router: int = 1,
    fat_width: int = 2,
    vcs: int = 4,
    depth: int = 4,
    policy: str = SchedulingPolicy.VIRTUAL_CLOCK,
    rt_vc_count=2,
    on_message=None,
    trace_sink=None,
    **config_kwargs,
):
    """A small fat-mesh network; returns ``(network, topology)``.

    The fault/failover/health tests all exercise the same 2x2 fat mesh;
    build it here instead of re-deriving the RouterConfig by hand.
    """
    topology = fat_mesh(
        rows=rows,
        cols=cols,
        hosts_per_router=hosts_per_router,
        fat_width=fat_width,
    )
    config = RouterConfig(
        num_ports=topology.ports_per_router,
        vcs_per_pc=vcs,
        flit_buffer_depth=depth,
        qos_policy=policy,
        rt_vc_count=rt_vc_count,
        **config_kwargs,
    )
    network = Network(topology, config, on_message=on_message)
    if trace_sink is not None:
        from repro.obs.sinks import install_tracing

        install_tracing(network, trace_sink)
    return network, topology


def make_message(
    src: int = 0,
    dst: int = 1,
    size: int = 5,
    vtick: float = 100.0,
    traffic_class: str = TrafficClass.VBR,
    src_vc: int = 0,
    dst_vc: int = 0,
    **kwargs,
) -> Message:
    """A small real-time message with sensible defaults."""
    return Message(
        src_node=src,
        dst_node=dst,
        size=size,
        vtick=vtick,
        traffic_class=traffic_class,
        src_vc=src_vc,
        dst_vc=dst_vc,
        **kwargs,
    )


def deliver_all(network: Network, max_cycles: int = 100_000) -> None:
    """Run until every injected flit has ejected (bounded)."""
    network.run_until_drained(max_extra=max_cycles)


TINY = dict(scale=100.0, warmup_frames=1, measure_frames=2, seed=7)


def with_sweep(spec, *values):
    """``spec`` with its default sweep shrunk to ``values``.

    The CLI runs the specs it finds in ``figures.PAPER``, so a test
    shrinks a figure with ``monkeypatch.setitem(PAPER, name, ...)``.
    """
    axis = dataclasses.replace(spec.axis, defaults=values)
    return dataclasses.replace(spec, axis=axis)


#: the golden single switch: the tiny run most claims are made about
GOLDEN = SingleSwitchExperiment(load=0.6, mix=(80, 20), **TINY)


@dataclasses.dataclass
class Run:
    """One simulated (experiment, loop) and what it did outside its
    result: the object calls the loop made and, on a faulted fabric,
    each link's fault RNG state and broken worms when it ended."""

    _result: object
    #: the ``SimulationError`` the run raised instead of a result
    error: Optional[Exception]
    #: ``"Link.apply_fate"`` and, on the fused loop, each of
    #: :data:`OBJECT_STEPS` -> call count
    calls: Counter
    #: the fates ``Link.apply_fate`` applied on host eject links
    eject_fates: set
    #: faulted link label -> (hash of its fault RNG state, broken worm
    #: count); worm ids come from a process-global counter
    link_states: dict

    @property
    def result(self):
        """The run's ``ExperimentResult``; raises what the run raised."""
        if self.error is not None:
            raise self.error
        return self._result


#: the object methods the fused kernels never call; the reference
#: stepper calls them per component per cycle, so only fused runs count
#: them (counting costs a reference run ≈ 20 %)
OBJECT_STEPS = ((Link, "deliver_due"), (WormholeRouter, "step"), (HostInterface, "step"))
_FUSED = Network.run


def count_calls(mp, calls, cls, name, record=None):
    """Patch ``cls.name`` through ``mp`` to count its calls into
    ``calls["Cls.name"]`` (and hand their arguments to ``record``)."""
    method = getattr(cls, name)

    def spy(self, *args):
        calls[f"{cls.__name__}.{name}"] += 1
        if record is not None:
            record(self, *args)
        return method(self, *args)

    mp.setattr(cls, name, spy)


def _run_once(experiment, loop, trace_prefix) -> Run:
    """``simulate(experiment, loop=loop)`` with its object calls
    counted and its fault state read off at the end; a trace's files
    are written under ``trace_prefix``."""
    assert experiment.network_hook is None, "a hook acts per run: not memoised"
    calls, eject_fates, networks = Counter(), set(), []
    trace = experiment.trace
    if trace is not None:
        trace = dataclasses.replace(
            trace,
            path=trace.path and f"{trace_prefix}-{trace.path}",
            chrome_path=trace.chrome_path and f"{trace_prefix}-{trace.chrome_path}",
        )

    def eject_fate(link, clock, msg, flit_index, vc_index, fate, down):
        if link.label.endswith(":eject"):
            eject_fates.add(fate)

    run = dataclasses.replace(experiment, trace=trace, network_hook=networks.append)
    result = error = None
    with pytest.MonkeyPatch.context() as mp:
        count_calls(mp, calls, Link, "apply_fate", eject_fate)
        if (loop or Network.run) is _FUSED:
            for cls, name in OBJECT_STEPS:
                count_calls(mp, calls, cls, name)
        try:
            # portable: a live workload would keep its network alive
            result = simulate(run, loop=loop).portable()
            result.experiment = experiment
        except SimulationError as exc:
            error = exc
    injector = networks[0].fault_injector
    link_states = {
        label: (hash(state.rng.getstate()), len(state.broken))
        for label, state in (injector.states.items() if injector else ())
    }
    return Run(result, error, calls, eject_fates, link_states)


@pytest.fixture(scope="session")
def simulated(tmp_path_factory):
    """``simulated(experiment, loop=None) -> Run``: each (experiment,
    loop) pair runs once per session; ``loop=None`` is whatever
    ``Network.run`` is then (the ``reference_loop`` fixture's too).  A
    traced experiment names its files by base name: they land in one
    session directory, one set per pair."""
    runs = {}
    traces = tmp_path_factory.mktemp("traces")

    def simulated(experiment, loop=None) -> Run:
        used = loop if loop is not None else Network.run
        key = (experiment_key(experiment), used)
        if key not in runs:
            prefix = traces / f"{key[0]}-{used.__name__}"
            runs[key] = _run_once(experiment, loop, prefix)
        return runs[key]

    return simulated


@pytest.fixture(scope="session")
def tiny_run(simulated):
    """The golden tiny single-switch run, shared by read-only assertions."""
    return simulated(GOLDEN).result


@pytest.fixture
def memo_simulate(monkeypatch, simulated):
    """Route the default point body's ``simulate`` through the session
    memo: a CLI or ``spec.run`` test starts from an empty result store,
    so without it every test re-simulates the points it shares with the
    others.  A point that raised raises again."""
    from repro.experiments import campaign

    monkeypatch.setattr(
        campaign, "simulate", lambda experiment: simulated(experiment).result
    )


@pytest.fixture
def counted_simulate(monkeypatch):
    """Stub the ``simulate`` of the default point body; returns the
    experiments it was called with, in order.  Every run measures the
    same metrics, and a PCS run a connection accounting, so any spec of
    ``figures.PAPER`` reduces the stubbed points."""
    from repro.experiments import campaign
    from repro.experiments.config import PCSExperiment
    from repro.experiments.runner import ExperimentResult
    from repro.metrics.collector import RunMetrics
    from repro.pcs.connection import ConnectionStats

    calls = []

    def stub(experiment, loop=None):
        calls.append(experiment)
        metrics = RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50)
        connections = None
        if isinstance(experiment, PCSExperiment):
            connections = ConnectionStats(10, 6, 4, offered=8)
        return ExperimentResult(
            experiment, metrics, None, 1000, 10, 10, 0.0,
            connections=connections,
        )

    monkeypatch.setattr(campaign, "simulate", stub)
    return calls


@pytest.fixture
def rngs() -> RngStreams:
    return RngStreams(seed=1234)


def attach_workload(network: Network, load=0.5, mix=(80, 20), **overrides):
    """Build and start a paper-style workload on ``network``."""
    from repro.traffic.mix import TrafficMix, WorkloadConfig
    from repro.sim.units import LinkSpec, WorkloadScale

    config = WorkloadConfig(
        link=LinkSpec(),
        scale=WorkloadScale(100.0),
        load=load,
        mix=TrafficMix(*mix),
        **overrides,
    )
    return build_workload(network, config, RngStreams(3))
