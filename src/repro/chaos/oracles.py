"""Verdict oracles for chaos scenarios.

A chaos run produces either an exception or an
:class:`~repro.experiments.runner.ExperimentResult`; the oracles here
turn both into a *verdict* — pass, or fail under a named oracle.  The
names are the harness's failure taxonomy:

============== =====================================================
oracle          what it caught
============== =====================================================
``invariant``   the riding :class:`InvariantChecker` (credit drift,
                conservation ledger, stalled worm progress)
``deadlock``    the network progress watchdog fired
``timeout``     the scenario blew its wall-clock budget
``flow-control`` buffer over/underflow inside a router
``routing``     an impossible routing decision
``config``      the scenario assembled an invalid experiment (a
                generator bug, not a simulator bug)
``simulation``  any other typed simulator error
``crash``       an exception outside the simulator's taxonomy
``conservation`` result-level accounting broke (flits, transport or
                degradation bookkeeping) without tripping a checker
``parity``      cycle-loop vs legacy full-scan metrics (or fault
                accounting) diverged
``health-noop`` passive health monitoring changed zero-fault metrics
============== =====================================================

The last three are *differential*: they need a finished result (or a
twin run) rather than an exception, and they are what makes the
campaign a differential tester instead of a crash fuzzer.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    FlowControlError,
    InvariantViolation,
    PointTimeoutError,
    RoutingError,
    SimulationError,
)
from repro.metrics.collector import canonical, canonical_metrics

#: every oracle name a verdict may carry, for docs and validation
ORACLES = (
    "invariant",
    "deadlock",
    "timeout",
    "flow-control",
    "routing",
    "config",
    "simulation",
    "crash",
    "conservation",
    "parity",
    "health-noop",
)


def classify_error(exc: BaseException) -> str:
    """Name the oracle an exception falls under (most specific first)."""
    if isinstance(exc, InvariantViolation):
        return "invariant"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, PointTimeoutError):
        return "timeout"
    if isinstance(exc, FlowControlError):
        return "flow-control"
    if isinstance(exc, RoutingError):
        return "routing"
    if isinstance(exc, ConfigurationError):
        return "config"
    if isinstance(exc, SimulationError):
        return "simulation"
    return "crash"


def canonical_run(result) -> tuple:
    """Metrics plus fault/recovery accounting: the parity surface."""
    return canonical_metrics(result), canonical(result.fault_stats)


def metrics_digest(result) -> dict:
    """A small fingerprint of a run, pinned into repro files.

    Replaying a repro re-derives this digest; a mismatch means the
    simulator's behaviour on the scenario changed since the repro was
    recorded (fixed — or differently broken).
    """
    metrics = result.metrics
    return canonical(
        {
            "cycles_run": result.cycles_run,
            "flits_injected": result.flits_injected,
            "flits_ejected": result.flits_ejected,
            "mean_delivery_interval_ms": metrics.mean_delivery_interval_ms,
            "frames_delivered": metrics.frames_delivered,
            "be_latency_us": metrics.be_latency_us,
            "be_message_count": metrics.be_message_count,
        }
    )


def check_accounting(result) -> Optional[str]:
    """Result-level conservation/bookkeeping audit.

    Catches breakage that slips past the in-run checkers because it
    lives in the *summaries*: flit counts that do not add up, transport
    per-class splits that disagree with their totals, or QoS
    degradation reported on a fabric whose health monitor saw no
    symptoms.  Returns a failure detail string, or ``None`` when the
    books balance.
    """
    injected = result.flits_injected
    ejected = result.flits_ejected
    stats = result.fault_stats or {}
    lost = stats.get("flits_lost", 0)
    if ejected + lost > injected:
        return (
            f"flit books don't balance: ejected {ejected} + lost {lost} "
            f"> injected {injected}"
        )

    if "delivered" in stats:
        detail = _check_transport(stats)
        if detail is not None:
            return detail

    health = stats.get("health")
    if health is not None:
        detail = _check_degradation(health)
        if detail is not None:
            return detail
    return None


def _check_transport(stats: dict) -> Optional[str]:
    """Per-class transport splits must agree with their totals."""
    delivered = stats["delivered"]
    split = stats["qos_delivered"] + stats["be_delivered"]
    if split != delivered:
        return (
            f"transport class split broken: qos {stats['qos_delivered']} "
            f"+ be {stats['be_delivered']} != delivered {delivered}"
        )
    abandoned = stats["abandoned"]
    split = stats["qos_abandoned"] + stats["be_abandoned"]
    if split != abandoned:
        return (
            f"transport class split broken: qos {stats['qos_abandoned']} "
            f"+ be {stats['be_abandoned']} != abandoned {abandoned}"
        )
    if stats["qos_deadline_misses"] > stats["qos_delivered"]:
        return (
            f"more QoS deadline misses ({stats['qos_deadline_misses']}) "
            f"than QoS deliveries ({stats['qos_delivered']})"
        )
    for name in ("delivered_fraction", "qos_delivered_fraction"):
        fraction = stats[name]
        if not 0.0 <= fraction <= 1.0:
            return f"{name} out of range: {fraction}"
    return None


def _check_degradation(health: dict) -> Optional[str]:
    """QoS degradation must be monotone in observed symptoms.

    The failover stack degrades service (sheds streams, pauses
    best-effort) only in response to link-health symptoms, so a summary
    reporting shedding with zero observed link downs means the monitor
    degraded a healthy fabric.
    """
    if health.get("link_downs", 0) == 0:
        for counter in ("streams_shed", "be_messages_shed"):
            shed = health.get(counter, 0)
            if shed:
                return (
                    f"degradation without symptoms: {counter}={shed} "
                    f"but link_downs=0"
                )
    readmitted = health.get("streams_readmitted", 0)
    shed = health.get("streams_shed", 0)
    if readmitted > shed:
        return (
            f"readmitted {readmitted} streams but only {shed} were shed"
        )
    return None
