"""The PCS workload (paper sections 3.5 and 5.6).

The runner builds a PCS run like any other: the experiment's router
configuration captures what a circuit means —

* every established stream holds a **dedicated VC** on each physical
  channel of its path (one stream per VC, as PCS requires);
* routing and arbitration delays are zero — the path was set up by the
  probe, so data flits never wait on per-message decisions;
* the physical-channel multiplexers run Virtual Clock with the rate
  negotiated at setup (the connection's Vtick), which is the bandwidth
  reservation a PCS router enforces —

and this module is the traffic that runs over it.  Connection setup,
NACKs, retries and drop accounting live in
:class:`repro.pcs.connection.ConnectionManager`; :class:`PCSWorkload`
drives stream arrivals against it and starts the data phase of each
circuit once its probe/ack round-trip completes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.virtual_clock import vtick_for_fraction
from repro.pcs.connection import ConnectionManager, ConnectionStats
from repro.sim.rng import RngStreams
from repro.traffic.streams import MediaStream, StreamConfig

#: streams arrive uniformly over this many frame intervals
ARRIVAL_WINDOW_FRAMES = 2
#: mean setup-retry backoff, as a fraction of the frame interval
BACKOFF_FRACTION = 0.1
#: per-hop latency of the setup probe and of the returning ack, cycles
SETUP_HOP_CYCLES = 16


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


class PCSWorkload:
    """Circuit-switched media streams offered to any network.

    The circuit path is: the source's input link, every inter-router
    physical channel the deterministic route crosses (fat groups take
    their first link — a circuit cannot rebalance per message), and
    the destination's output link.  Each attempt draws one VC per
    channel of that path uniformly, and the probe asks for exactly
    those (one VC per circuit on every channel).

    Attaching schedules every stream's arrival on ``network``; the
    caller runs the network.  The attributes :class:`WorkloadSummary`
    reads (``streams`` — the established ones —, ``streams_per_node``
    and the achieved loads) mirror :class:`~repro.traffic.mix.Workload`.
    """

    def __init__(self, network, experiment, rngs: RngStreams) -> None:
        self.network = network
        self.experiment = experiment
        self.rngs = rngs
        self.topology = network.topology
        self.config = experiment.workload_config()
        self.manager = ConnectionManager()
        vcs = experiment.vcs_per_pc
        for node in self.topology.node_ids:
            self.manager.add_channel(("host-in", node), vcs)
            self.manager.add_channel(("host-out", node), vcs)
        for src_r, src_p, _, _ in self.topology.channels:
            self.manager.add_channel(("link", src_r, src_p), vcs)
        self.streams_per_node = self.config.streams_per_node()
        self.achieved_rt_load = (
            self.streams_per_node * self.config.stream_fraction
        )
        self.achieved_be_load = 0.0
        self.streams: List[MediaStream] = []
        self._build_arrivals()

    @property
    def achieved_load(self) -> float:
        """Offered input-link load after stream-count rounding."""
        return self.achieved_rt_load

    @property
    def connections(self) -> ConnectionStats:
        """The Table 3 accounting; raises unless its identity holds."""
        self.manager.stats.check()
        return self.manager.stats

    def circuit_channels(self, src_node: int, dst_node: int):
        """Inter-router channels of the deterministic circuit path."""
        return [
            ("link", router, group[0])
            for router, group in self.topology.route(src_node, dst_node)
        ]

    # ------------------------------------------------------------------

    def _build_arrivals(self) -> None:
        exp = self.experiment
        interval = self.config.frame_interval_cycles
        window = max(1, ARRIVAL_WINDOW_FRAMES * interval)
        nodes = self.topology.node_ids
        stats = self.manager.stats
        for node in nodes:
            rng = self.rngs.stream(f"pcs/node{node}/arrivals")
            others = [n for n in nodes if n != node]
            for _ in range(self.streams_per_node):
                offered = _OfferedStream(
                    index=stats.offered,
                    src_node=node,
                    dst_node=rng.choice(others),
                    retries=exp.max_retries,
                )
                stats.offered += 1
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
        # Probe out + ack back across the path before data flows.
        setup_delay = 2 * len(requests) * SETUP_HOP_CYCLES
        start_time = self.network.clock + setup_delay
        self._start_data_phase(offered, assignment, start_time)

    def _handle_nack(self, offered: _OfferedStream) -> None:
        if offered.retries_left <= 0:
            self.manager.stats.abandoned_streams += 1
            return
        offered.retries_left -= 1
        rng = self.rngs.stream(f"pcs/backoff{offered.index}")
        interval = self.config.frame_interval_cycles
        mean_backoff = max(1.0, BACKOFF_FRACTION * interval)
        delay = max(1, int(rng.expovariate(1.0 / mean_backoff)))
        self.network.schedule_call(
            self.network.clock + delay,
            lambda o=offered: self._attempt_setup(o),
        )

    def _start_data_phase(self, offered, assignment, start_time: int) -> None:
        config = StreamConfig(
            src_node=offered.src_node,
            dst_node=offered.dst_node,
            src_vc=assignment[("host-in", offered.src_node)],
            dst_vc=assignment[("host-out", offered.dst_node)],
            vtick=vtick_for_fraction(self.config.stream_fraction),
            message_size=self.config.message_size,
            frame_interval=self.config.frame_interval_cycles,
            frame_model=self.config.frame_model(),
            traffic_class=self.config.rt_class,
            phase=0,
            header_flits=self.config.header_flits,
        )
        stream = MediaStream(
            config, self.rngs.stream(f"pcs/stream{offered.index}")
        )
        offered.stream = stream
        self.streams.append(stream)
        self.network.schedule_call(
            start_time, lambda s=stream: s.start(self.network)
        )
