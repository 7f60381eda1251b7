"""Zero-load latency: the pipeline's closed form, on both loops.

One best-effort message in an otherwise idle fabric meets no
contention, so its latency (tail ejection minus injection) is the sum
of the router pipeline's fixed delays (paper Fig. 1), term by term
from the stage code:

* ``L * (h + 1)`` — the ``h + 1`` links from the source NI to the
  destination sink (host link in, ``h - 1`` router-to-router links,
  host link out), each ``L = Link.latency`` cycles of wire plus
  stage 1's sync/demux/buffer/decode (``Link.send``);
* ``h * routing_delay`` — stage 2: a header that arrived at cycle
  ``t`` is routed at ``t + routing_delay``
  (``WormholeRouter._try_route_and_arbitrate``);
* ``h * arbitration_delay`` — stage 3: the granted VC's
  ``ready_at = clock + arbitration_delay`` holds the header out of
  stage 4 (the crossbar) until then;
* ``h * 1`` — stage 5: a router runs its stages downstream to
  upstream, so a flit that crosses the crossbar at cycle ``c`` leaves
  on the output link at ``c + 1``;
* ``size - 1`` — the body follows the header one flit per cycle (the
  NI sends one flit per cycle and every stage moves one), so the tail
  ejects ``size - 1`` cycles after the header.

This is the first check of the simulator against something outside
itself: a formula, not a run of the other loop.
"""

import pytest

from repro.network.link import DEFAULT_LINK_LATENCY as L
from repro.network.network import Network
from repro.network.topology import butterfly, fat_mesh, fat_tree3, single_switch
from repro.router.config import RouterConfig
from repro.router.flit import Message, TrafficClass
from repro.sim.reference import run_reference

LOOPS = {"fused": Network.run, "reference": run_reference}


def zero_load_latency(
    wire_cycles, hops, size, routing_delay=1, arbitration_delay=1
):
    """The closed form, one term per stage (module docstring)."""
    links = wire_cycles * (hops + 1)
    routing = hops * routing_delay
    arbitration = hops * arbitration_delay
    output_mux = hops * 1
    serialisation = size - 1
    return links + routing + arbitration + output_mux + serialisation


def measure(topology, src, dst, size, loop, **config):
    """Latency of one best-effort ``size``-flit message, ``src`` to
    ``dst``, injected at cycle 0 into the idle ``topology``."""
    delivered = []
    network = Network(
        topology,
        RouterConfig(num_ports=topology.ports_per_router, **config),
        on_message=lambda msg, clock: delivered.append(clock - msg.inject_time),
    )
    network.inject_now(
        Message(
            src_node=src,
            dst_node=dst,
            size=size,
            vtick=1e12,
            traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=0,
            dst_vc=None,
        )
    )
    loop(network, 1000)
    assert len(delivered) == 1
    return delivered[0]


def hops(topology, src, dst):
    """Routers a message from ``src`` to ``dst`` crosses: one per
    inter-router channel (``Topology.route``), plus the last."""
    return len(topology.route(src, dst)) + 1


def pair_at(topology, hop_count):
    """The first host pair from host 0 whose route crosses
    ``hop_count`` routers."""
    for dst in range(1, topology.num_hosts):
        if hops(topology, 0, dst) == hop_count:
            return 0, dst
    raise AssertionError(f"{topology.name}: no pair at {hop_count} hops")


@pytest.mark.parametrize("loop", sorted(LOOPS))
class TestZeroLoadLatency:
    @pytest.mark.parametrize("crossbar", ["multiplexed", "full"])
    @pytest.mark.parametrize("size", [1, 2, 5, 20])
    def test_single_switch(self, loop, crossbar, size):
        topology = single_switch(8)
        latency = measure(topology, 0, 1, size, LOOPS[loop], crossbar=crossbar)
        assert latency == zero_load_latency(L, 1, size) == size + 6

    @pytest.mark.parametrize("dst, expected", [(1, 16), (3, 21)])
    def test_fat_mesh(self, loop, dst, expected):
        topology = fat_mesh(rows=2, cols=2, hosts_per_router=1)
        h = hops(topology, 0, dst)
        latency = measure(topology, 0, dst, 5, LOOPS[loop])
        assert latency == zero_load_latency(L, h, 5) == expected

    @pytest.mark.parametrize(
        "build", [lambda: fat_tree3(k=4), lambda: butterfly(2, 3)],
        ids=["fat_tree3", "butterfly"],
    )
    @pytest.mark.parametrize("h, expected", [(1, 7), (3, 17), (5, 27)])
    def test_trees(self, loop, build, h, expected):
        topology = build()
        src, dst = pair_at(topology, h)
        latency = measure(topology, src, dst, 1, LOOPS[loop])
        assert latency == zero_load_latency(L, h, 1) == expected

    def test_slower_stages(self, loop):
        topology = fat_tree3(k=4)
        src, dst = pair_at(topology, 5)
        latency = measure(
            topology, src, dst, 5, LOOPS[loop],
            routing_delay=3, arbitration_delay=2,
        )
        assert latency == zero_load_latency(L, 5, 5, 3, 2) == 46
