"""MediaWorm: QoS support for traffic mixes in wormhole routers.

A full reproduction of *"Investigating QoS Support for Traffic Mixes
with the MediaWorm Router"* (Yum, Vaidya, Das, Sivasubramaniam — HPCA
2000): a flit-level pipelined wormhole router simulator with Virtual
Clock rate-based scheduling, a pipelined circuit switching (PCS)
baseline, MPEG-2 VBR/CBR + best-effort workloads, five topology
generators (single switch, the paper's fat mesh, two- and three-level
fat trees, butterflies), and an experiment harness regenerating every
figure and table of the paper's evaluation.

Quickstart::

    from repro import simulate, SingleSwitchExperiment

    result = simulate(SingleSwitchExperiment(load=0.7, mix=(80, 20), seed=1))
    print(result.metrics.d, result.metrics.sigma_d)

This package re-exports exactly the names the README, the guides in
``docs/`` and ``examples/`` import from ``repro``; everything else is
imported from its module (``repro.experiments.runner``,
``repro.obs.sinks``, ...), and each subpackage ``__init__`` is only its
docstring.
"""

from repro.core.admission import AdmissionController
from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import (
    FatMeshExperiment,
    FatTreeExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import simulate
from repro.faultplan import FaultPlan, RecoveryConfig
from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.network.topology import single_switch
from repro.router.config import RouterConfig
from repro.sim.rng import RngStreams

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "FatMeshExperiment",
    "FatTreeExperiment",
    "FaultPlan",
    "MetricsCollector",
    "Network",
    "PCSExperiment",
    "RecoveryConfig",
    "RngStreams",
    "RouterConfig",
    "SchedulingPolicy",
    "SingleSwitchExperiment",
    "__version__",
    "simulate",
    "single_switch",
]
