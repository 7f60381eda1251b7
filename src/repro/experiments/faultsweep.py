"""Fault campaign: QoS under link faults (beyond the paper's evaluation).

The paper evaluates MediaWorm on a fault-free fabric.  This sweep asks
the robustness question the original evaluation leaves open: how do the
two schedulers (Virtual Clock vs FIFO) degrade when the fat-mesh links
start dropping flits?  Each point runs the 2x2 fat mesh at a fixed load
and mix with a :class:`~repro.faults.FaultPlan` injecting per-flit loss
at the given rate, the end-to-end recovery transport picking up the
pieces, and the progress watchdog bounding wedged runs.

Results are delivered-fraction and jitter versus fault rate, one series
per scheduler, checkpointed per point so an interrupted campaign
resumes where it stopped.
"""

from __future__ import annotations

import dataclasses

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError
from repro.experiments.campaign import Axis, Campaign, Column, _base_kwargs
from repro.experiments.config import FatMeshExperiment
from repro.faults import FaultPlan, RecoveryConfig

#: per-flit loss probabilities swept by ``mediaworm faults``
DEFAULT_FAULT_RATES = (0.0, 0.001, 0.005, 0.01, 0.02)

#: campaign operating point: the fat mesh at moderate load, 80:20 mix
CAMPAIGN_LOAD = 0.7
CAMPAIGN_MIX = (80, 20)


def _campaign_experiment(profile, policy: str, rate: float) -> FatMeshExperiment:
    """One campaign point: fat mesh + fault plan + scaled recovery."""
    base = FatMeshExperiment(
        load=CAMPAIGN_LOAD,
        mix=CAMPAIGN_MIX,
        scheduler=policy,
        vcs_per_pc=16,
        **_base_kwargs(profile),
    )
    interval = base.workload_config().frame_interval_cycles
    return dataclasses.replace(
        base,
        faults=FaultPlan(flit_loss_prob=rate),
        recovery=RecoveryConfig.scaled(interval, max_retries=6),
        # the profile's watchdog (mediaworm --watchdog) wins over the
        # campaign's scaled default of two frame intervals
        watchdog_window=profile.watchdog_window or 2 * interval,
    )


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rates must be in [0, 1], got {rate}")


CAMPAIGN = Campaign(
    name="faults",
    help="QoS degradation under link faults (fat mesh)",
    series=(SchedulingPolicy.VIRTUAL_CLOCK, SchedulingPolicy.FIFO),
    axis=Axis(
        flag="--rates",
        metavar="R1,R2,...",
        help="comma-separated per-flit loss probabilities",
        defaults=DEFAULT_FAULT_RATES,
        parse=float,
        check=_check_rate,
        fmt="g",
    ),
    experiment=_campaign_experiment,
    title="QoS under link faults (2x2 fat mesh, 80:20 mix, load 0.7)",
    xlabel="per-flit loss probability",
    notes="end-to-end recovery enabled (checksum + timeout/"
    "retransmission with capped exponential backoff)",
    series_column=("scheduler", 14),
    columns=(
        Column("loss rate", 9, "x", "g"),
        Column("delivered", 9, "delivered_fraction", ".4f", 1.0),
        Column("d (ms)", 8, "d", ".3f"),
        Column("sigma_d", 8, "sigma_d", ".3f"),
        Column("lost", 7, "flits_lost"),
        Column("rexmit", 7, "retransmissions"),
        Column("abandoned", 9, "abandoned"),
    ),
)
