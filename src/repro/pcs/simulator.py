"""The PCS router simulation (paper sections 3.5 and 5.6).

The data phase reuses the flit-level substrate with a configuration
that captures what a circuit means:

* every established stream holds a **dedicated VC** on its source input
  link and destination output link (one stream per VC, as PCS requires);
* routing and arbitration delays are zero — the path was set up by the
  probe, so data flits never wait on per-message decisions;
* the physical-channel multiplexers run Virtual Clock with the rate
  negotiated at setup (the connection's Vtick), which is the bandwidth
  reservation a PCS router enforces.

Connection setup, NACKs, retries and drop accounting live in
:class:`repro.pcs.connection.ConnectionManager`; this module drives
stream arrivals against it and starts the data phase of each circuit
once its probe/ack round-trip completes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.schedulers import SchedulingPolicy
from repro.core.virtual_clock import vtick_for_fraction
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.network.topology import Topology, single_switch
from repro.pcs.connection import ConnectionManager
from repro.router.config import RouterConfig
from repro.sim.rng import RngStreams
from repro.traffic.streams import MediaStream, StreamConfig


class _OfferedStream:
    """One stream's lifecycle: arrival, setup attempts, data phase."""

    __slots__ = (
        "index",
        "src_node",
        "dst_node",
        "retries_left",
        "stream",
    )

    def __init__(
        self, index: int, src_node: int, dst_node: int, retries: int
    ) -> None:
        self.index = index
        self.src_node = src_node
        self.dst_node = dst_node
        self.retries_left = retries
        self.stream: Optional[MediaStream] = None


class PCSSimulator:
    """PCS simulation: the paper's single switch, or any topology.

    The circuit path is: the source's input link, every inter-router
    physical channel the deterministic route crosses (fat groups take
    their first candidate link — a circuit cannot rebalance per
    message), and the destination's output link.  Source and
    destination VCs are drawn uniformly per attempt; intermediate links
    reserve whichever VC the manager hands out (one per circuit).
    """

    def __init__(
        self,
        experiment,
        collector: MetricsCollector,
        topology: Optional[Topology] = None,
    ) -> None:
        self.experiment = experiment
        self.collector = collector
        self.rngs = RngStreams(experiment.seed)

        topology = topology or single_switch(experiment.num_ports)
        self.topology = topology
        config = RouterConfig(
            num_ports=topology.ports_per_router,
            vcs_per_pc=experiment.vcs_per_pc,
            flit_buffer_depth=experiment.flit_buffer_depth,
            crossbar=experiment.crossbar,
            qos_policy=SchedulingPolicy.VIRTUAL_CLOCK,
            rt_vc_count=None,
            routing_delay=0,
            arbitration_delay=0,
        )
        self.network = Network(
            topology,
            config,
            on_message=collector.on_message,
        )
        self._host_router = {node: rid for node, rid, _ in topology.hosts}
        self._channel_dest = {
            (src_r, src_p): dst_r
            for src_r, src_p, dst_r, _ in topology.channels
        }
        self.manager = ConnectionManager()
        for node in topology.node_ids:
            self.manager.add_channel(("host-in", node), experiment.vcs_per_pc)
            self.manager.add_channel(("host-out", node), experiment.vcs_per_pc)
        for src_r, src_p, _, _ in topology.channels:
            self.manager.add_channel(("link", src_r, src_p), experiment.vcs_per_pc)

        self.workload = experiment.workload_config()
        if self.workload.mix.rt_fraction < 1.0:
            raise ConfigurationError(
                "the PCS study carries real-time streams only; "
                "use mix=(100, 0)"
            )
        self.offered: List[_OfferedStream] = []
        self.streams: List[MediaStream] = []
        self._build_arrivals()

    def circuit_channels(self, src_node: int, dst_node: int):
        """Inter-router channels of the deterministic circuit path."""
        channels = []
        router = self._host_router[src_node]
        dst_router = self._host_router[dst_node]
        hops = 0
        while router != dst_router:
            ports = self.topology.routing.candidates(router, dst_node)
            port = ports[0]
            channels.append(("link", router, port))
            router = self._channel_dest[(router, port)]
            hops += 1
            if hops > self.topology.num_routers:
                raise ConfigurationError(
                    f"routing loop from node {src_node} to {dst_node}"
                )
        return channels

    # ------------------------------------------------------------------

    def _build_arrivals(self) -> None:
        exp = self.experiment
        interval = self.workload.frame_interval_cycles
        window = max(1, exp.arrival_window_frames * interval)
        per_node = self.workload.streams_per_node()
        nodes = self.network.topology.node_ids
        index = 0
        for node in nodes:
            rng = self.rngs.stream(f"pcs/node{node}/arrivals")
            others = [n for n in nodes if n != node]
            for _ in range(per_node):
                offered = _OfferedStream(
                    index=index,
                    src_node=node,
                    dst_node=rng.choice(others),
                    retries=exp.max_retries,
                )
                index += 1
                self.offered.append(offered)
                arrival = rng.randrange(window)
                self.network.schedule_call(
                    arrival, lambda o=offered: self._attempt_setup(o)
                )

    def _attempt_setup(self, offered: _OfferedStream) -> None:
        exp = self.experiment
        # Each attempt draws fresh source and destination VCs from a
        # uniform distribution (section 4.2.1); the probe NACKs when a
        # drawn VC is already reserved by another circuit, which is the
        # dominant drop mechanism of Table 3.
        rng = self.rngs.stream(f"pcs/vcdraw{offered.index}")
        requests = [
            (("host-in", offered.src_node), rng.randrange(exp.vcs_per_pc)),
        ]
        for channel in self.circuit_channels(
            offered.src_node, offered.dst_node
        ):
            requests.append((channel, rng.randrange(exp.vcs_per_pc)))
        requests.append(
            (("host-out", offered.dst_node), rng.randrange(exp.vcs_per_pc))
        )
        assignment = self.manager.probe_specific(offered.index, requests)
        if assignment is None:
            self._handle_nack(offered)
            return
        # Probe out + ack back across the (two-hop) path before data flows.
        hops = len(requests)
        setup_delay = 2 * hops * exp.setup_hop_cycles
        start_time = self.network.clock + setup_delay
        self._start_data_phase(offered, assignment, start_time)

    def _handle_nack(self, offered: _OfferedStream) -> None:
        if offered.retries_left <= 0:
            self.manager.stats.abandoned_streams += 1
            return
        offered.retries_left -= 1
        exp = self.experiment
        rng = self.rngs.stream(f"pcs/backoff{offered.index}")
        interval = self.workload.frame_interval_cycles
        mean_backoff = max(1.0, exp.backoff_fraction * interval)
        delay = max(1, int(rng.expovariate(1.0 / mean_backoff)))
        self.network.schedule_call(
            self.network.clock + delay,
            lambda o=offered: self._attempt_setup(o),
        )

    def _start_data_phase(self, offered, assignment, start_time: int) -> None:
        vtick = vtick_for_fraction(self.workload.stream_fraction)
        config = StreamConfig(
            src_node=offered.src_node,
            dst_node=offered.dst_node,
            src_vc=assignment[("host-in", offered.src_node)],
            dst_vc=assignment[("host-out", offered.dst_node)],
            vtick=vtick,
            message_size=self.workload.message_size,
            frame_interval=self.workload.frame_interval_cycles,
            frame_model=self.workload.frame_model(),
            traffic_class=self.workload.rt_class,
            phase=0,
        )
        stream = MediaStream(
            config, self.rngs.stream(f"pcs/stream{offered.index}")
        )
        offered.stream = stream
        self.streams.append(stream)
        self.network.schedule_call(
            start_time, lambda s=stream: s.start(self.network)
        )

    # ------------------------------------------------------------------

    def run(self) -> None:
        """Run the configured warmup + measurement horizon."""
        self.network.run(self.experiment.total_cycles)
        self.manager.stats.check()

    @property
    def offered_streams(self) -> int:
        """Streams the workload tried to establish."""
        return len(self.offered)
