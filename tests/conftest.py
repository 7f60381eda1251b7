"""Shared fixtures: tiny networks and workloads that run in milliseconds."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.runner import simulate_single_switch
from repro.network.network import Network
from repro.network.topology import fat_mesh, single_switch
from repro.router.config import RouterConfig
from repro.router.flit import Message, TrafficClass
from repro.sim.reference import run_reference
from repro.sim.rng import RngStreams
from repro.sim.units import LinkSpec, TimeBase, WorkloadScale
from repro.traffic.mix import build_workload


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
        from repro.obs import install_tracing

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
        from repro.obs import install_tracing

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


@pytest.fixture(scope="session")
def tiny_run():
    """One cached tiny single-switch run shared by read-only assertions."""
    experiment = SingleSwitchExperiment(load=0.6, mix=(80, 20), **TINY)
    return simulate_single_switch(experiment)


@pytest.fixture(scope="session")
def tiny_loaded_run():
    """A near-saturation tiny run (shared, read-only)."""
    experiment = SingleSwitchExperiment(load=0.9, mix=(80, 20), **TINY)
    return simulate_single_switch(experiment)


@pytest.fixture
def counted_simulate(monkeypatch):
    """Stub the ``simulate`` of the default point body; returns the
    experiments it was called with, in order.  Every run measures the
    same metrics, and a PCS run a connection accounting, so any spec of
    ``figures.PAPER`` reduces the stubbed points."""
    from repro.experiments import campaign
    from repro.experiments.config import PCSExperiment
    from repro.experiments.runner import ExperimentResult, PCSResult
    from repro.metrics.collector import RunMetrics
    from repro.pcs.connection import ConnectionStats

    calls = []

    def stub(experiment, loop=None):
        calls.append(experiment)
        metrics = RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50)
        if isinstance(experiment, PCSExperiment):
            return PCSResult(
                experiment, metrics, ConnectionStats(10, 6, 4), 8, 6, 1000, 0.0
            )
        return ExperimentResult(experiment, metrics, None, 1000, 10, 10, 0.0)

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
