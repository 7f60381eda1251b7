"""MediaWorm: QoS support for traffic mixes in wormhole routers.

A full reproduction of *"Investigating QoS Support for Traffic Mixes
with the MediaWorm Router"* (Yum, Vaidya, Das, Sivasubramaniam — HPCA
2000): a flit-level pipelined wormhole router simulator with Virtual
Clock rate-based scheduling, a pipelined circuit switching (PCS)
baseline, MPEG-2 VBR/CBR + best-effort workloads, single-switch and
fat-mesh topologies, and an experiment harness regenerating every
figure and table of the paper's evaluation.

Quickstart::

    from repro import simulate, SingleSwitchExperiment

    result = simulate(SingleSwitchExperiment(load=0.7, mix=(80, 20), seed=1))
    print(result.metrics.d, result.metrics.sigma_d)
"""

from repro.core import (
    AdmissionController,
    SchedulingPolicy,
    VirtualClockState,
    mediaworm_router_config,
    vanilla_router_config,
)
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlockError,
    FaultConfigError,
    FlowControlError,
    ReproError,
    RoutingError,
    SimulationError,
)
from repro.faults import (
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
    install_faults,
    install_recovery,
)
from repro.metrics import MetricsCollector, RunMetrics
from repro.network import (
    HealthConfig,
    Network,
    butterfly,
    fat_mesh,
    fat_mesh_2x2,
    fat_tree,
    fat_tree3,
    single_switch,
)
from repro.router import (
    CrossbarKind,
    Message,
    QosPlacement,
    RouterConfig,
    RoutingMode,
    TrafficClass,
)
from repro.sim import LinkSpec, RngStreams, WorkloadScale
from repro.traffic import TrafficMix, WorkloadConfig, build_workload
from repro.experiments import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    FatTreeExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
    simulate,
    simulate_butterfly,
    simulate_fat_mesh,
    simulate_fat_tree,
    simulate_fat_tree3,
    simulate_single_switch,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "ButterflyExperiment",
    "ConfigurationError",
    "CrossbarKind",
    "DeadlockError",
    "FatMeshExperiment",
    "FatTree3Experiment",
    "FatTreeExperiment",
    "FaultConfigError",
    "FaultPlan",
    "FlowControlError",
    "HealthConfig",
    "LinkDownWindow",
    "LinkSpec",
    "Message",
    "MetricsCollector",
    "Network",
    "PCSExperiment",
    "QosPlacement",
    "RecoveryConfig",
    "ReproError",
    "RngStreams",
    "RouterConfig",
    "RoutingError",
    "RoutingMode",
    "RunMetrics",
    "SchedulingPolicy",
    "SimulationError",
    "SingleSwitchExperiment",
    "TrafficClass",
    "TrafficMix",
    "VirtualClockState",
    "WorkloadConfig",
    "WorkloadScale",
    "__version__",
    "build_workload",
    "butterfly",
    "fat_mesh",
    "fat_mesh_2x2",
    "fat_tree",
    "fat_tree3",
    "install_faults",
    "install_recovery",
    "mediaworm_router_config",
    "simulate",
    "simulate_butterfly",
    "simulate_fat_mesh",
    "simulate_fat_tree",
    "simulate_fat_tree3",
    "simulate_single_switch",
    "single_switch",
    "vanilla_router_config",
]
