"""Failover campaign: delivered QoS under permanent link failures.

The fault sweep (``mediaworm faults``) studies *transient* per-flit loss
with an oracle-routed fabric.  This campaign asks the harder robustness
question: when whole links die permanently mid-run, how much of the
guaranteed traffic survives — and how much does symptom-driven adaptive
routing (link-health monitoring + fault-aware detours + graceful QoS
degradation) buy over a blind static router?

Each point runs the 2x2 fat mesh with ``severity`` fat-link pairs
suffering one permanent member failure at the end of warmup, the
end-to-end recovery transport retransmitting, and the health monitor
watching symptoms.  The two series are the routing modes:

* ``adaptive`` — the monitor masks suspect links, reroutes within fat
  groups, detours around dead groups, requeues stuck worms, and sheds
  load (best-effort first) while capacity is degraded;
* ``static`` — the same detection telemetry, but the routers keep
  aiming at dead links; only timeout/retransmission limits the damage.

Reported per point: delivered QoS fraction, QoS deadline misses, jitter
(``d`` / ``sigma_d``), and the monitor's failover counters.  Points are
checkpointed under their experiments' content keys (see
:func:`~repro.experiments.campaign.experiment_key`), so resuming with
changed failover knobs recomputes instead of serving stale points.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.experiments.campaign import Axis, Campaign, Column, _base_kwargs
from repro.experiments.config import FatMeshExperiment
from repro.experiments.runner import topology_of
from repro.faults import FaultPlan, LinkDownWindow, RecoveryConfig
from repro.network.health import HealthConfig
from repro.router.config import RoutingMode

#: failed fat pairs swept by ``mediaworm failover`` (the 2x2 fat mesh
#: has 8 directed fat pairs, so 8 = one dead member in every group)
DEFAULT_SEVERITIES = (0, 2, 4, 8)

#: routing modes compared, one series each
CAMPAIGN_MODES = (RoutingMode.ADAPTIVE, RoutingMode.STATIC)

#: campaign operating point: the fat mesh at moderate load, 80:20 mix
CAMPAIGN_LOAD = 0.6
CAMPAIGN_MIX = (80, 20)


def _fat_pair_windows(
    experiment: FatMeshExperiment, severity: int, onset: int
) -> tuple:
    """Permanent down-windows killing one member of ``severity`` fat pairs.

    Channels are grouped by directed ``(src_router, dst_router)`` pair;
    the lowest-port member of each of the first ``severity`` pairs (in
    sorted pair order, for determinism) dies at ``onset`` and never
    recovers.  Every group keeps at least one healthy sibling, so the
    fabric stays connected and adaptive routing has somewhere to go.
    """
    groups: Dict[tuple, List[tuple]] = {}
    for src, sp, dst, dp in topology_of(experiment).channels:
        groups.setdefault((src, dst), []).append((src, sp, dst, dp))
    if severity > len(groups):
        raise ConfigurationError(
            f"severity {severity} exceeds the {len(groups)} fat pairs "
            f"of the {experiment.rows}x{experiment.cols} mesh"
        )
    windows = []
    for pair in sorted(groups)[:severity]:
        src, sp, dst, dp = sorted(groups[pair])[0]
        windows.append(
            LinkDownWindow(
                link=f"ch:{src}.{sp}->{dst}.{dp}", start=onset, end=None
            )
        )
    return tuple(windows)


def _campaign_experiment(
    profile, mode: str, severity: int
) -> FatMeshExperiment:
    """One campaign point: fat mesh + permanent failures + failover stack."""
    base = FatMeshExperiment(
        load=CAMPAIGN_LOAD,
        mix=CAMPAIGN_MIX,
        vcs_per_pc=16,
        **_base_kwargs(profile),
    )
    interval = base.workload_config().frame_interval_cycles
    # Failures land at the end of warmup, so detection and failover are
    # entirely inside the measurement window and time-to-recovery is
    # comparable across profiles.
    onset = base.warmup_cycles
    return dataclasses.replace(
        base,
        faults=FaultPlan(down_windows=_fat_pair_windows(base, severity, onset)),
        # Transport clocks scale as in the fault sweep; the QoS deadline
        # gives each guaranteed message two frame intervals door-to-door,
        # enough for a couple of retransmissions but strict enough that
        # static routing's head-of-line stalls register as misses.
        recovery=RecoveryConfig.scaled(
            interval, max_retries=8, qos_deadline=2 * interval
        ),
        health=HealthConfig(),
        routing_mode=mode,
        # permanent failures stall progress longer than transient loss;
        # give the watchdog four intervals unless the profile overrides
        watchdog_window=profile.watchdog_window or 4 * interval,
    )


def _check_severity(severity: int) -> None:
    if severity < 0:
        raise ConfigurationError(f"severities must be >= 0, got {severity}")
    # the campaign mesh is the default one; rejects more than its pairs
    _fat_pair_windows(FatMeshExperiment(), severity, onset=0)


CAMPAIGN = Campaign(
    name="failover",
    help="adaptive vs static routing under permanent link failures",
    series=CAMPAIGN_MODES,
    axis=Axis(
        flag="--severities",
        metavar="S1,S2,...",
        help="comma-separated failed fat-pair counts (0..8 on the 2x2 mesh)",
        defaults=DEFAULT_SEVERITIES,
        parse=int,
        check=_check_severity,
    ),
    experiment=_campaign_experiment,
    title=(
        "QoS failover under permanent link failures "
        "(2x2 fat mesh, 80:20 mix, load 0.6)"
    ),
    xlabel="failed fat-pair members",
    notes="one permanent member failure per fat pair at end of "
    "warmup; health monitoring on in both modes, failover actions "
    "only in adaptive",
    series_column=("routing", 9),
    columns=(
        Column("failed", 6, "x"),
        Column("qos frac", 9, "qos_delivered_fraction", ".4f", 1.0),
        Column("misses", 7, "qos_deadline_misses"),
        Column("d (ms)", 8, "d", ".3f"),
        Column("sigma_d", 8, "sigma_d", ".3f"),
        Column("reroute", 8, "health.reroutes"),
        Column("detour", 7, "health.detours"),
        Column("requeue", 8, "health.worms_requeued"),
        Column("shed", 5, "health.streams_shed"),
        Column("abandoned", 9, "qos_abandoned"),
    ),
)
