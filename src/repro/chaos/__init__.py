"""Chaos harness: randomized differential fault campaigns.

Draws seeded random scenarios over the simulator's whole configuration
space (topology, router config, traffic mix, fault plan, routing mode,
health monitoring), runs each under the invariant checker and deadlock
watchdog, judges it with differential oracles (fused-vs-legacy loop
parity, health-monitoring no-op, conservation accounting), and shrinks
every failure to a minimal replayable JSON repro.  Scenarios run as
the points of a campaign spec through the shared sweep layer
(:func:`repro.experiments.campaign.run_plans`), checkpointed under
their content keys, and repro files go through the shared dataclass
codec (:mod:`repro.plain`).

Entry points: ``mediaworm chaos`` (CLI), :func:`run_campaign`,
:func:`replay`, :func:`selftest`.
"""

from repro.chaos.campaign import (
    REPRO_FORMAT,
    load_repro,
    replay,
    run_campaign,
    run_scenario,
    sabotage_scenario,
    selftest,
    shrink,
    write_repro,
)
from repro.chaos.oracles import (
    ORACLES,
    canonical_metrics,
    check_accounting,
    classify_error,
    metrics_digest,
)
from repro.chaos.scenario import (
    SABOTAGES,
    Scenario,
    ScenarioSpace,
    generate,
)

__all__ = [
    "ORACLES",
    "REPRO_FORMAT",
    "SABOTAGES",
    "Scenario",
    "ScenarioSpace",
    "canonical_metrics",
    "check_accounting",
    "classify_error",
    "generate",
    "load_repro",
    "metrics_digest",
    "replay",
    "run_campaign",
    "run_scenario",
    "sabotage_scenario",
    "selftest",
    "shrink",
    "write_repro",
]
