"""Disaster campaign: datacenter failover under switch/domain failures.

The failover campaign (``mediaworm failover``) kills individual fat-link
members on a mesh.  This campaign asks the datacenter question: when
failures arrive *switch- and domain-shaped* — a ToR dies, a whole pod
loses power — how much guaranteed traffic survives on the fabrics we
actually scaled to (three-level fat trees and butterflies), and what
does symptom-driven switch-level failover buy over a blind static
router?

Severity is swept as an escalation ladder:

* ``none`` — healthy fabric baseline;
* ``link`` — one up-adjacency of leaf 0 severed (both directions);
* ``switch`` — a whole switch crashes permanently (the first ToR on the
  fat tree, sacrificing its hosts; a middle-stage switch on the
  butterfly, which the alternate-ancestor overlay survives hostlessly);
* ``pod`` — pod 0 of the fat tree loses power (fat tree only).

Each severity lowers to a :class:`~repro.faultplan.DomainDownWindow` (the
``link`` rung to two plain link down windows) landing at the end of
warmup.  The two series per topology are the routing modes:
``adaptive`` detects the dead switch from link symptoms, applies the
precomputed :class:`~repro.router.routeprog.UpDownFailover` masks so
every surviving pair re-steers through alternate ancestors, and sheds
the sessions of provably isolated hosts; ``static`` keeps the
detection telemetry but takes no action, so only
timeout/retransmission limits the damage.

Reported per point: delivered QoS fraction over *reachable* hosts (the
honest failover score — a dead ToR's hosts are unsavable), hosts
isolated, host downtime, switch downs/time-to-recover, and jitter.
Points are stored under their experiments' content keys (see
:func:`~repro.experiments.campaign.experiment_key`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.experiments.campaign import Axis, Campaign, Column, _base_kwargs
from repro.experiments.config import ButterflyExperiment, FatTree3Experiment
from repro.experiments.runner import topology_of
from repro.faultplan import (
    DomainDownWindow,
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
)
from repro.network.healthconfig import HealthConfig
from repro.router.config import RoutingMode

#: escalation ladder swept by ``mediaworm disaster``
DEFAULT_SEVERITIES = ("none", "link", "switch", "pod")

#: routing modes compared, one series each per topology
CAMPAIGN_MODES = (RoutingMode.ADAPTIVE, RoutingMode.STATIC)

#: campaign topologies (name -> severities it supports)
CAMPAIGN_TOPOLOGIES: Dict[str, Tuple[str, ...]] = {
    "fat-tree": ("none", "link", "switch", "pod"),
    "butterfly": ("none", "link", "switch"),
}

#: campaign operating point: moderate load, the paper's 80:20 mix
CAMPAIGN_LOAD = 0.6
CAMPAIGN_MIX = (80, 20)

#: fat tree shape: k=8 (80 switches), 2 hosts per leaf = 64 hosts —
#: the smallest tree where a pod kill leaves 3/4 of the fabric healthy
CAMPAIGN_K = 8
CAMPAIGN_HOSTS_PER_LEAF = 2

#: butterfly shape: 2-ary 3-tree, 2 hosts per leaf
CAMPAIGN_ARITY = 2
CAMPAIGN_LEVELS = 3


def _first_uplink_windows(
    topology, onset: int
) -> Tuple[LinkDownWindow, ...]:
    """Permanent down windows severing leaf 0's first up-adjacency.

    Both directions die (a severed wire), chosen deterministically as
    the lowest-labelled channel pair between leaf 0 and its first
    parent so fingerprints are stable.
    """
    overlay = topology.route_program.overlay
    # leaves only wire upward, so every adjacency neighbour is a parent
    parent = min(nbr for (rid, nbr) in overlay.adjacency if rid == 0)
    labels = sorted(
        f"ch:{src}.{sp}->{dst}.{dp}"
        for src, sp, dst, dp in topology.channels
        if (src, dst) in ((0, parent), (parent, 0))
    )
    return tuple(LinkDownWindow(label, start=onset) for label in labels)


def _severity_plan(base, kind: str, severity: str, onset: int) -> FaultPlan:
    """Lower one severity rung into a fault plan for ``base``, a ``kind``."""
    if severity not in CAMPAIGN_TOPOLOGIES[kind]:
        raise ConfigurationError(
            f"severity {severity!r} is not defined for {kind} "
            f"(choose from {', '.join(CAMPAIGN_TOPOLOGIES[kind])})"
        )
    if severity == "none":
        return FaultPlan()
    if severity == "link":
        return FaultPlan(
            down_windows=_first_uplink_windows(topology_of(base), onset)
        )
    if severity == "switch":
        if kind == "fat-tree":
            rid = 0  # the first ToR: its hosts are a deliberate sacrifice
        else:
            # a middle-stage switch: no hosts attached, the overlay
            # must keep every pair routable
            rid = CAMPAIGN_ARITY ** (CAMPAIGN_LEVELS - 1)
        return FaultPlan(
            domains=(DomainDownWindow(f"switch:{rid}", start=onset),)
        )
    # pod (fat tree only, enforced above)
    return FaultPlan(domains=(DomainDownWindow("pod:0", start=onset),))


def _campaign_experiment(profile, kind: str, mode: str, severity: str):
    """One campaign point: tree/butterfly + domain failure + failover."""
    base_kwargs = dict(
        load=CAMPAIGN_LOAD,
        mix=CAMPAIGN_MIX,
        vcs_per_pc=16,
        **_base_kwargs(profile),
    )
    if kind == "fat-tree":
        base = FatTree3Experiment(
            k=CAMPAIGN_K,
            hosts_per_leaf=CAMPAIGN_HOSTS_PER_LEAF,
            **base_kwargs,
        )
    else:
        base = ButterflyExperiment(
            arity=CAMPAIGN_ARITY,
            levels=CAMPAIGN_LEVELS,
            hosts_per_leaf=CAMPAIGN_HOSTS_PER_LEAF,
            **base_kwargs,
        )
    interval = base.workload_config().frame_interval_cycles
    # The disaster lands at the end of warmup: detection, failover and
    # every recovery interval sit inside the measurement window.
    onset = base.warmup_cycles
    return dataclasses.replace(
        base,
        faults=_severity_plan(base, kind, severity, onset),
        recovery=RecoveryConfig.scaled(
            interval, max_retries=8, qos_deadline=2 * interval
        ),
        health=HealthConfig(),
        routing_mode=mode,
        # a crashed switch stalls progress until detection converges;
        # give the watchdog four intervals unless the profile overrides
        watchdog_window=profile.watchdog_window or 4 * interval,
    )


def _check_severity(severity: str) -> None:
    if severity not in DEFAULT_SEVERITIES:
        raise ConfigurationError(
            f"unknown severity {severity!r} (choose from "
            f"{', '.join(DEFAULT_SEVERITIES)})"
        )


def _series_experiment(profile, series: str, severity: str):
    kind, mode = series.split("/")
    return _campaign_experiment(profile, kind, mode, severity)


def _defined(series: str, severity: str) -> bool:
    """Severities a topology does not define (``pod`` on the butterfly)
    are skipped for its series."""
    return severity in CAMPAIGN_TOPOLOGIES[series.split("/")[0]]


CAMPAIGN = Campaign(
    name="disaster",
    help="switch/pod failures and datacenter failover on trees",
    series=tuple(
        f"{kind}/{mode}"
        for kind in CAMPAIGN_TOPOLOGIES
        for mode in CAMPAIGN_MODES
    ),
    axis=Axis(
        flag="--severities",
        metavar="S1,S2,...",
        help="comma-separated severity names from none,link,switch,pod "
        "(default: all; pod is skipped on the butterfly)",
        defaults=DEFAULT_SEVERITIES,
        parse=str,
        check=_check_severity,
    ),
    experiment=_series_experiment,
    title=(
        "Datacenter failover under switch/domain failures "
        f"(fat_tree3 k={CAMPAIGN_K} + butterfly, 80:20 mix, "
        f"load {CAMPAIGN_LOAD})"
    ),
    xlabel="failure severity (none < link < switch < pod)",
    notes="disaster at end of warmup; health monitoring on in both "
    "modes, switch-level failover (overlay masks + session "
    "shedding) only in adaptive",
    series_column=("series", 19),
    columns=(
        Column("severity", 8, "x"),
        Column("reach frac", 10, "qos_reachable_fraction", ".4f", 1.0),
        Column("qos frac", 9, "qos_delivered_fraction", ".4f", 1.0),
        Column("isolated", 8, "health.hosts_isolated"),
        Column("downtime", 9, "health.host_downtime_cycles"),
        Column("sw downs", 8, "health.switch_downs"),
        Column(
            "ttr", 8, "health.mean_switch_time_to_recover_cycles", ".0f", 0.0
        ),
        Column("shed", 5, "health.streams_shed"),
        Column("abandoned", 9, "qos_abandoned"),
    ),
    defined=_defined,
)
