"""Experiment harness: one point runner, one sweep skeleton, specs.

``simulate(experiment)`` runs one configuration on the topology the
experiment's type names (the ``simulate_<kind>`` names are that same
function); every sweep is a :class:`~repro.experiments.campaign
.Campaign` spec — :data:`repro.experiments.figures.PAPER` holds
Figures 3-9 and Tables 2-3 — run by ``Campaign.run`` on a
:class:`ParallelSweepExecutor`.
"""

from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    FatTreeExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.experiments.runner import (
    ExperimentResult,
    PCSResult,
    WorkloadSummary,
    simulate,
    simulate_butterfly,
    simulate_fat_mesh,
    simulate_fat_tree,
    simulate_fat_tree3,
    simulate_pcs,
    simulate_single_switch,
)

__all__ = [
    "ButterflyExperiment",
    "ExperimentResult",
    "FatMeshExperiment",
    "FatTree3Experiment",
    "FatTreeExperiment",
    "PCSExperiment",
    "PCSResult",
    "ParallelSweepExecutor",
    "SingleSwitchExperiment",
    "SweepTask",
    "WorkloadSummary",
    "simulate",
    "simulate_butterfly",
    "simulate_fat_mesh",
    "simulate_fat_tree",
    "simulate_fat_tree3",
    "simulate_pcs",
    "simulate_single_switch",
]
