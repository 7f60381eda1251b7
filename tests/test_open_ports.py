"""A router port's VCs exist once traffic needs them.

An output port opens (with the input port at the far end of its link)
when a header is first routed to it, and a host injection port when
its NI queues a first message.  Opening has no simulated effect: a
built but idle port is what an unopened one reads as.  Checked on a
k=4 fat tree and on the adaptive 2x2 fat mesh with a dead fat-pair
link, on both loops.
"""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.experiments.config import FatMeshExperiment, FatTree3Experiment
from repro.experiments.runner import simulate, topology_of
from repro.experiments.scale import run_digest
from repro.faults import FaultPlan, LinkDownWindow, RecoveryConfig
from repro.network.health import HealthConfig
from repro.network.network import Network
from repro.obs.sinks import TraceSink, install_tracing
from repro.router.buffers import InputVC, OutputVC
from repro.sim.reference import run_reference

_RUN = dict(scale=100.0, warmup_frames=1, measure_frames=2, seed=1)


def _dead_pair_mesh():
    base = FatMeshExperiment(load=0.6, mix=(80, 20), vcs_per_pc=4, **_RUN)
    interval = base.workload_config().frame_interval_cycles
    dead = (LinkDownWindow("ch:0.4->1.4", start=base.warmup_cycles, end=None),)
    return dataclasses.replace(
        base,
        faults=FaultPlan(down_windows=dead),
        recovery=RecoveryConfig(timeout=max(512, interval // 2), max_retries=8),
        health=HealthConfig(),
        routing_mode="adaptive",
        watchdog_window=4 * interval,
    )


EXPERIMENTS = {
    "ft3-k4": FatTree3Experiment(k=4, load=0.05, mix=(80, 20), vcs_per_pc=4, **_RUN),
    "mesh-dead-pair": _dead_pair_mesh(),
}

#: router VCs built by the end of each seed-1 run, of 640 and 256
BUILT = {"ft3-k4": 576, "mesh-dead-pair": 256}


def _open_ports(network):
    """``(kind, router, port)`` of every opened port, each holding all
    of its VCs."""
    opened = set()
    m = network.config.vcs_per_pc
    for router in network.routers:
        for kind, ports in (("in", router.inputs), ("out", router.outputs)):
            for port, vcs in enumerate(ports):
                if vcs:
                    assert len(vcs) == m
                    opened.add((kind, router.router_id, port))
    return opened


def _open_everything(network):
    """Open every wired port by hand, before cycle 0."""
    for router in network.routers:
        for port, link in enumerate(router.out_links):
            if link is not None:
                router.open_output(port)
    for ni in network.interfaces.values():
        ni.open_port()


class _Routes(TraceSink):
    """The (router, output port) of every routing decision."""

    def __init__(self):
        self.outputs = set()

    def on_event(self, kind, cycle, fields):
        if kind == "route":
            self.outputs.add((fields["router"], fields["out"]))


def _run(experiment, loop=None, hook=None):
    networks = []

    def keep(network):
        if hook is not None:
            hook(network)
        networks.append(network)

    result = simulate(
        dataclasses.replace(experiment, network_hook=keep), loop=loop
    )
    return result, networks.pop()


@pytest.mark.parametrize("name", EXPERIMENTS)
class TestOpenOnUse:
    def test_a_fresh_network_holds_no_router_vcs(self, name):
        experiment = EXPERIMENTS[name]
        topology = topology_of(experiment)
        network = Network(topology, experiment.router_config(topology.ports_per_router))
        assert network.built_vcs() == 0
        assert _open_ports(network) == set()
        in_use, total = network.buffered_vcs()
        assert in_use == 0
        assert total == 2 * topology.num_routers * topology.ports_per_router * 4

    def test_open_ports_are_the_routed_and_injected_ones_on_both_loops(self, name):
        experiment = EXPERIMENTS[name]
        routes = _Routes()
        _, traced = _run(experiment, hook=lambda net: install_tracing(net, routes))
        expected = {("out", rid, port) for rid, port in routes.outputs}
        for rid, port in routes.outputs:
            link = traced.routers[rid].out_links[port]
            if link.dest_router is not None:
                expected.add(("in", link.dest_router.router_id, link.dest_port))
        for ni in traced.interfaces.values():
            if ni.messages_injected:
                link = ni.link
                expected.add(("in", link.dest_router.router_id, link.dest_port))
        opened = _open_ports(traced)
        assert opened == expected
        assert traced.built_vcs() == BUILT[name]
        for loop in (None, run_reference):
            assert _open_ports(_run(experiment, loop=loop)[1]) == opened

    def test_opening_every_port_before_cycle_0_changes_nothing(self, name):
        experiment = EXPERIMENTS[name]
        lazy, lazy_net = _run(experiment)
        eager, eager_net = _run(experiment, hook=_open_everything)
        assert eager_net.built_vcs() == eager_net.buffered_vcs()[1]
        assert lazy_net.built_vcs() == BUILT[name]
        assert run_digest(eager) == run_digest(lazy)
        assert eager_net.buffered_vcs() == lazy_net.buffered_vcs()


def test_a_1024_host_network_allocates_no_router_vc_and_fits_8_mib():
    """``Network.__init__`` on the k=16 tree traces 5.3 MiB (15.3 with
    every port built at construction)."""
    topology = topology_of(FatTree3Experiment(k=16))
    config = FatTree3Experiment(k=16).router_config(topology.ports_per_router)

    def vc_objects():
        return sum(isinstance(o, (InputVC, OutputVC)) for o in gc.get_objects())

    gc.collect()
    before = vc_objects()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        traced = tracemalloc.get_traced_memory()[0]
        network = Network(topology, config)
        traced = tracemalloc.get_traced_memory()[0] - traced
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert traced <= 8 * 2**20, f"{traced / 2**20:.1f} MiB"
    assert vc_objects() == before
    assert network.built_vcs() == 0
    assert network.buffered_vcs() == (0, 2 * 320 * 16 * config.vcs_per_pc)
