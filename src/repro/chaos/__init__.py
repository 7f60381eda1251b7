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

Entry points: ``mediaworm chaos`` (CLI);
:func:`repro.chaos.campaign.run_campaign`, ``replay`` and ``selftest``.
"""
