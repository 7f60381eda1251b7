"""Experiment configurations (Table 1 defaults + per-study knobs).

The paper's Table 1: 8x8 switch, 32-bit flits, 20-flit messages,
400 Mbps PCs (100 Mbps for the PCS comparison), a variable number of
VCs per PC (16 in most studies; 24 in the PCS study, one stream per VC).

``scale`` is the workload shrink factor (see
:class:`repro.sim.units.WorkloadScale`); the default of 20 keeps each
sweep point to seconds of wall time while preserving every bandwidth
ratio.  Set ``scale=1`` for paper-faithful time constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, RecoveryConfig
from repro.network.health import HealthConfig
from repro.network.topology import (
    butterfly,
    fat_mesh,
    fat_tree,
    fat_tree3,
    single_switch,
)
from repro.obs.events import TraceSpec
from repro.router.config import (
    CrossbarKind,
    QosPlacement,
    RouterConfig,
    RoutingMode,
)
from repro.router.flit import TrafficClass
from repro.sim.units import LinkSpec, TimeBase, WorkloadScale
from repro.traffic.mix import TrafficMix, WorkloadConfig, rt_vc_count


@dataclass
class _BaseExperiment:
    """Knobs shared by every experiment type."""

    #: the topology generator, and the fields (in declaration order)
    #: that are its keyword arguments; each experiment type names both
    generator: ClassVar[Optional[Callable]] = None
    shape_fields: ClassVar[Tuple[str, ...]] = ()

    load: float = 0.8
    mix: Tuple[float, float] = (80.0, 20.0)
    rt_class: str = TrafficClass.VBR
    scheduler: str = SchedulingPolicy.VIRTUAL_CLOCK
    qos_placement: str = QosPlacement.AUTO
    crossbar: str = CrossbarKind.MULTIPLEXED
    vcs_per_pc: int = 16
    bandwidth_mbps: float = 400.0
    flit_size_bits: int = 32
    message_size: int = 20
    header_flits: int = 0
    flit_buffer_depth: int = 8
    scale: float = 20.0
    #: measurement horizon, in 33 ms frame epochs
    warmup_frames: int = 4
    measure_frames: int = 16
    seed: int = 1
    dynamic_partitioning: bool = False
    #: round-robin (balanced) stream destinations vs i.i.d. draws
    balanced_destinations: bool = True
    #: best-effort inter-arrival process: "deterministic" or "poisson"
    be_process: str = "deterministic"
    #: optional fault-injection plan; a zero plan (or None) leaves the
    #: run bit-identical to a fault-free simulation
    faults: Optional[FaultPlan] = None
    #: optional end-to-end checksum + timeout/retransmission transport
    recovery: Optional[RecoveryConfig] = None
    #: progress watchdog: raise DeadlockError after this many cycles
    #: without a flit delivery while flits are in flight (None = off)
    watchdog_window: Optional[int] = None
    #: optional symptom-based link-health monitoring (failover studies);
    #: None leaves zero-fault runs bit-identical to unmonitored ones
    health: Optional[HealthConfig] = None
    #: fault reaction of the routers: "oracle" (ground truth, the
    #: historical behaviour), "static" (blind), or "adaptive"
    #: (symptom-driven masking/detours via the health monitor)
    routing_mode: str = RoutingMode.ORACLE
    #: optional structured-tracing request (``mediaworm trace``, tests);
    #: None keeps every hook on its zero-overhead path
    trace: Optional[TraceSpec] = None
    #: profile the simulation loop per phase into ``RunMetrics.profile``
    #: (wall time only; the simulation itself stays bit-identical)
    profile_loop: bool = False
    #: optional ``hook(network)`` (e.g. chaos-harness sabotage): runs
    #: after everything is wired so it can schedule mid-run calls or
    #: perturb component state the oracles are expected to catch
    network_hook: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.warmup_frames < 1 or self.measure_frames < 1:
            raise ConfigurationError("need at least one warmup/measure frame")
        if len(self.mix) != 2:
            raise ConfigurationError(f"mix must be (x, y), got {self.mix!r}")

    # -- derived objects ------------------------------------------------

    def shape(self) -> Dict[str, object]:
        """The generator's keyword arguments for this experiment."""
        return {name: getattr(self, name) for name in self.shape_fields}

    @property
    def traffic_mix(self) -> TrafficMix:
        return TrafficMix(*self.mix)

    @property
    def link(self) -> LinkSpec:
        return LinkSpec(self.bandwidth_mbps, self.flit_size_bits)

    @property
    def workload_scale(self) -> WorkloadScale:
        return WorkloadScale(self.scale)

    @property
    def timebase(self) -> TimeBase:
        return TimeBase(self.link, self.workload_scale)

    def workload_config(self) -> WorkloadConfig:
        return WorkloadConfig(
            link=self.link,
            scale=self.workload_scale,
            load=self.load,
            mix=self.traffic_mix,
            rt_class=self.rt_class,
            message_size=self.message_size,
            header_flits=self.header_flits,
            balanced_destinations=self.balanced_destinations,
            be_process=self.be_process,
        )

    def router_config(self, num_ports: int) -> RouterConfig:
        return RouterConfig(
            num_ports=num_ports,
            vcs_per_pc=self.vcs_per_pc,
            flit_buffer_depth=self.flit_buffer_depth,
            crossbar=self.crossbar,
            qos_policy=self.scheduler,
            qos_placement=self.qos_placement,
            rt_vc_count=rt_vc_count(self.vcs_per_pc, self.traffic_mix),
            dynamic_partitioning=self.dynamic_partitioning,
            routing_mode=self.routing_mode,
        )

    @property
    def warmup_cycles(self) -> int:
        interval = self.workload_config().frame_interval_cycles
        return self.warmup_frames * interval

    @property
    def total_cycles(self) -> int:
        interval = self.workload_config().frame_interval_cycles
        return (self.warmup_frames + self.measure_frames) * interval


@dataclass
class SingleSwitchExperiment(_BaseExperiment):
    """One run on the paper's main testbed: an n-port single switch."""

    generator: ClassVar = staticmethod(single_switch)
    shape_fields: ClassVar = ("num_ports",)
    num_ports: int = 8


@dataclass
class FatMeshExperiment(_BaseExperiment):
    """One run on a fat mesh (section 5.7; defaults are the 2x2 mesh)."""

    generator: ClassVar = staticmethod(fat_mesh)
    shape_fields: ClassVar = ("rows", "cols", "hosts_per_router", "fat_width")
    rows: int = 2
    cols: int = 2
    hosts_per_router: int = 4
    fat_width: int = 2


@dataclass
class FatTreeExperiment(_BaseExperiment):
    """One run on a two-level fat tree (beyond the paper's topologies)."""

    generator: ClassVar = staticmethod(fat_tree)
    shape_fields: ClassVar = ("leaves", "spines", "hosts_per_leaf", "fat_width")
    leaves: int = 4
    spines: int = 2
    hosts_per_leaf: int = 2
    fat_width: int = 1


@dataclass
class FatTree3Experiment(_BaseExperiment):
    """One run on a 3-level k-ary fat tree (the datacenter scale-up).

    ``k=16`` with the default ``hosts_per_leaf`` (``k/2``) is the
    1024-host configuration the scale campaign proves out.
    """

    generator: ClassVar = staticmethod(fat_tree3)
    shape_fields: ClassVar = ("k", "hosts_per_leaf", "fat_width")
    k: int = 4
    #: hosts per leaf switch; None = the full k/2 of a classic fat tree
    hosts_per_leaf: Optional[int] = None
    fat_width: int = 1


@dataclass
class ButterflyExperiment(_BaseExperiment):
    """One run on a k-ary n-tree (folded multistage Clos/Butterfly)."""

    generator: ClassVar = staticmethod(butterfly)
    shape_fields: ClassVar = ("arity", "levels", "hosts_per_leaf", "fat_width")
    arity: int = 2
    levels: int = 3
    #: hosts per leaf switch; None = arity
    hosts_per_leaf: Optional[int] = None
    fat_width: int = 1


@dataclass
class PCSExperiment(_BaseExperiment):
    """One run of the PCS comparison (section 5.6; 100 Mbps, 24 VCs).

    Streams arrive over ``arrival_window_frames`` epochs; a stream whose
    setup probe is NACKed retries after a random backoff, up to
    ``max_retries`` times.  Every failed attempt counts as a *dropped
    connection* (Table 3: attempts = established + dropped).
    """

    generator: ClassVar = staticmethod(single_switch)
    shape_fields: ClassVar = ("num_ports",)
    bandwidth_mbps: float = 100.0
    vcs_per_pc: int = 24
    mix: Tuple[float, float] = (100.0, 0.0)
    num_ports: int = 8
    max_retries: int = 8
    arrival_window_frames: int = 2
    #: mean setup-retry backoff, as a fraction of the frame interval
    backoff_fraction: float = 0.1
    #: per-hop latency of the setup probe and of the returning ack, cycles
    setup_hop_cycles: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if not 0 < self.backoff_fraction <= 1:
            raise ConfigurationError("backoff_fraction must be in (0, 1]")
