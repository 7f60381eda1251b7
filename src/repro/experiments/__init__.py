"""Experiment harness: one runner per figure/table of the paper.

``simulate(experiment)`` runs one configuration on the topology the
experiment's type names (the ``simulate_<kind>`` names are that same
function); :mod:`repro.experiments.figures` and
:mod:`repro.experiments.tables` wrap it into the sweeps that
regenerate Figures 3-9 and Tables 2-3.
"""

from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    FatTreeExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    execute_tasks,
)
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
    "execute_tasks",
    "simulate",
    "simulate_butterfly",
    "simulate_fat_mesh",
    "simulate_fat_tree",
    "simulate_fat_tree3",
    "simulate_pcs",
    "simulate_single_switch",
]
