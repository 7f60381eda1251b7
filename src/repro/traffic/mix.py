"""Traffic mixes: offered load split between real-time and best-effort.

Section 4.2.3 of the paper: the input load is a fraction of the
physical link bandwidth; a mix ``x:y`` assigns ``x/(x+y)`` of that load
to VBR/CBR streams and the rest to best-effort.  The same fraction of
the virtual channels is statically reserved for real-time traffic.

``build_workload`` turns a :class:`WorkloadConfig` into live sources
attached to a network: per node, ``round(load * rt_fraction /
stream_fraction)`` media streams (each stream is 4 Mbps, i.e. 1% of a
400 Mbps link) and one best-effort source carrying the remaining load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.virtual_clock import vtick_for_fraction
from repro.errors import ConfigurationError
from repro.router.flit import TrafficClass
from repro.sim.rng import RngStreams
from repro.sim.units import (
    MPEG2_FRAME_BYTES_MEAN,
    MPEG2_FRAME_BYTES_STD,
    MPEG2_FRAME_INTERVAL_MS,
    LinkSpec,
    WorkloadScale,
)
from repro.traffic.besteffort import BestEffortConfig, BestEffortSource
from repro.traffic.mpeg import FrameSizeModel
from repro.traffic.streams import MediaStream, StreamConfig

#: best-effort message size in flits (section 4.2.2)
BE_MESSAGE_SIZE = 20


@dataclass(frozen=True)
class TrafficMix:
    """An ``x:y`` real-time to best-effort proportion."""

    rt: float
    be: float

    def __post_init__(self) -> None:
        if self.rt < 0 or self.be < 0 or self.rt + self.be == 0:
            raise ConfigurationError(f"invalid mix {self.rt}:{self.be}")

    @property
    def rt_fraction(self) -> float:
        """Fraction of the offered load that is real-time."""
        return self.rt / (self.rt + self.be)

    def __str__(self) -> str:
        return f"{self.rt:g}:{self.be:g}"


def rt_vc_count(vcs_per_pc: int, mix: TrafficMix) -> int:
    """VCs reserved for real-time traffic under static partitioning.

    ``x/(x+y)`` of the VCs go to VBR/CBR (section 4.2.3), with at least
    one VC left for whichever class actually carries load.
    """
    fraction = mix.rt_fraction
    count = round(vcs_per_pc * fraction)
    if fraction > 0:
        count = max(count, 1)
    if fraction < 1:
        count = min(count, vcs_per_pc - 1)
    if fraction == 0:
        count = 0
    return count


@dataclass
class WorkloadConfig:
    """Everything needed to offer a paper-style traffic mix."""

    link: LinkSpec = field(default_factory=LinkSpec)
    scale: WorkloadScale = field(default_factory=WorkloadScale)
    load: float = 0.8
    mix: TrafficMix = field(default_factory=lambda: TrafficMix(80, 20))
    rt_class: str = TrafficClass.VBR
    message_size: int = 20
    #: per-message header flits on real-time messages, carried on the
    #: wire on top of the frame payload (the Fig. 7 overhead: "1 header
    #: flit in a message size of 20 flits consumes 5% of the stream
    #: bandwidth").  ``load`` counts frame payload; headers ride on top.
    header_flits: int = 0
    #: when True (default), stream destinations are assigned by a
    #: shuffled round-robin so every node sinks the same number of
    #: streams.  The marginal distribution stays uniform (as in the
    #: paper), but the binomial imbalance of fully independent draws —
    #: which can push one output link's real-time load past the point
    #: where best-effort starves — is removed.  Set False for i.i.d.
    #: destination draws.
    balanced_destinations: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.load <= 1.5:
            raise ConfigurationError(
                f"load must be in (0, 1.5], got {self.load}"
            )
        if self.rt_class not in TrafficClass.REAL_TIME:
            raise ConfigurationError(
                f"rt_class must be VBR or CBR, got {self.rt_class!r}"
            )
        if not 0 <= self.header_flits < self.message_size:
            raise ConfigurationError(
                f"header_flits must be in [0, message_size), got "
                f"{self.header_flits}"
            )

    # -- derived, in scaled simulation units ---------------------------

    @property
    def frame_interval_cycles(self) -> int:
        """Scaled inter-frame interval in cycles."""
        cycles = self.scale.scale_cycles(
            self.link.ms_to_cycles(MPEG2_FRAME_INTERVAL_MS)
        )
        return max(1, round(cycles))

    @property
    def frame_mean_flits(self) -> float:
        """Scaled mean frame size in flits."""
        return self.scale.scale_flits(self.link.bytes_to_flits(MPEG2_FRAME_BYTES_MEAN))

    @property
    def frame_std_flits(self) -> float:
        """Scaled frame size standard deviation in flits."""
        return self.scale.scale_flits(self.link.bytes_to_flits(MPEG2_FRAME_BYTES_STD))

    @property
    def stream_fraction(self) -> float:
        """Fraction of a PC's bandwidth one stream consumes on average."""
        return self.frame_mean_flits / self.frame_interval_cycles

    @property
    def rt_load(self) -> float:
        """Real-time share of the offered input-link load."""
        return self.load * self.mix.rt_fraction

    @property
    def be_load(self) -> float:
        """Best-effort share of the offered input-link load."""
        return self.load * (1.0 - self.mix.rt_fraction)

    def streams_per_node(self) -> int:
        """Number of media streams each node sources."""
        return round(self.rt_load / self.stream_fraction)

    def frame_model(self) -> FrameSizeModel:
        """The frame-size model for the configured real-time class."""
        if self.rt_class == TrafficClass.CBR:
            return FrameSizeModel(self.frame_mean_flits, 0.0)
        return FrameSizeModel(self.frame_mean_flits, self.frame_std_flits)


@dataclass
class Workload:
    """Live sources attached to a network, plus accounting."""

    config: WorkloadConfig
    streams: List[MediaStream]
    besteffort: List[BestEffortSource]
    streams_per_node: int
    achieved_rt_load: float
    achieved_be_load: float

    @property
    def achieved_load(self) -> float:
        """Offered input-link load actually realised after rounding."""
        return self.achieved_rt_load + self.achieved_be_load


def build_workload(
    network,
    config: WorkloadConfig,
    rngs: Optional[RngStreams] = None,
    start: bool = True,
) -> Workload:
    """Create and (optionally) start the paper's workload on ``network``.

    VC choices respect the network's static partition
    (``network.config.rt_vc_count``): stream source/destination VCs are
    drawn from the real-time partition, best-effort VCs from the rest.
    """
    rngs = rngs or RngStreams(0)
    router_config = network.config
    rt_vcs = list(router_config.vc_range_for_class(True))
    be_vcs = list(router_config.vc_range_for_class(False))
    nodes = network.topology.node_ids
    if len(nodes) < 2:
        raise ConfigurationError("workload needs at least two hosts")

    per_node = config.streams_per_node()
    if per_node > 0 and not rt_vcs:
        raise ConfigurationError(
            "workload offers real-time streams but no VC is reserved for "
            "real-time traffic"
        )
    if config.be_load > 1e-9 and not be_vcs:
        raise ConfigurationError(
            "workload offers best-effort traffic but no VC is available "
            "for it"
        )

    streams: List[MediaStream] = []
    sources: List[BestEffortSource] = []
    interval = config.frame_interval_cycles
    vtick = vtick_for_fraction(config.stream_fraction)
    model = config.frame_model()

    for index, node in enumerate(nodes):
        others = nodes[:index] + nodes[index + 1 :]
        if config.balanced_destinations:
            # the shuffled rotation of ``others``; streams read only
            # its first ``per_node`` entries
            node_rng, order = rngs.shuffled_prefix(
                f"node{node}/placement", len(others), per_node
            )
            rotation = [others[j] for j in order]
        else:
            node_rng = rngs.stream(f"node{node}/placement")
        for k in range(per_node):
            stream_rng = rngs.stream(f"node{node}/stream{k}")
            if config.balanced_destinations:
                destination = rotation[k % len(rotation)]
            else:
                destination = node_rng.choice(others)
            stream = MediaStream(
                StreamConfig(
                    src_node=node,
                    dst_node=destination,
                    src_vc=node_rng.choice(rt_vcs),
                    dst_vc=node_rng.choice(rt_vcs),
                    vtick=vtick,
                    message_size=config.message_size,
                    frame_interval=interval,
                    frame_model=model,
                    traffic_class=config.rt_class,
                    phase=node_rng.randrange(interval),
                    header_flits=config.header_flits,
                ),
                stream_rng,
            )
            streams.append(stream)
        if config.be_load > 1e-9:
            source = BestEffortSource(
                BestEffortConfig(
                    src_node=node,
                    dst_nodes=others,
                    vcs=be_vcs,
                    message_size=BE_MESSAGE_SIZE,
                    rate_fraction=config.be_load,
                    phase=node_rng.randrange(
                        max(1, int(BE_MESSAGE_SIZE / config.be_load))
                    ),
                ),
                rngs.stream(f"node{node}/besteffort"),
            )
            sources.append(source)

    if start:
        for stream in streams:
            stream.start(network)
        for source in sources:
            source.start(network)

    return Workload(
        config=config,
        streams=streams,
        besteffort=sources,
        streams_per_node=per_node,
        achieved_rt_load=per_node * config.stream_fraction,
        achieved_be_load=config.be_load if sources else 0.0,
    )
