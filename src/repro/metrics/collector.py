"""Metric collection facade wired into the network's delivery callback."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.analysis.jitter import is_jitter_free_point
from repro.metrics.delivery import FrameDeliveryTracker
from repro.metrics.latency import LatencyTracker
from repro.router.flit import Message
from repro.sim.units import TimeBase


class MetricsCollector:
    """Dispatches delivered messages to the right tracker.

    Attach via ``Network(..., on_message=collector.on_message)`` or by
    passing the collector to the experiment runner.  ``warmup`` is in
    cycles; deliveries before it are ignored (delivery intervals need
    one pre-warmup completion per stream to anchor the first interval,
    which the tracker handles internally).
    """

    def __init__(self, timebase: TimeBase, warmup: int = 0) -> None:
        self.timebase = timebase
        self.warmup = warmup
        self.delivery = FrameDeliveryTracker(warmup=warmup)
        self.latency = LatencyTracker(warmup=warmup)
        self._health_monitor = None

    def attach_health(self, monitor) -> None:
        """Fold a LinkHealthMonitor's counters into snapshots."""
        self._health_monitor = monitor

    def on_message(self, msg: Message, clock: int) -> None:
        """Network delivery callback."""
        if msg.is_real_time:
            self.delivery.on_message(msg, clock)
        else:
            self.latency.on_message(msg, clock)

    def snapshot(self) -> "RunMetrics":
        """Freeze the current statistics into a result record."""
        tb = self.timebase
        raw_us = tb.link.cycles_to_us  # no workload unscaling (see below)
        health = {}
        if self._health_monitor is not None:
            summary = self._health_monitor.summary()
            health = dict(
                link_downs=summary["link_downs"],
                link_flaps=summary["link_flaps"],
                link_recoveries=summary["link_recoveries"],
                mean_time_to_recovery_cycles=summary[
                    "mean_time_to_recovery_cycles"
                ],
                reroutes=summary["reroutes"],
                detours=summary["detours"],
                worms_requeued=summary["worms_requeued"],
                streams_shed=summary["streams_shed"],
                be_messages_shed=summary["be_messages_shed"],
                switch_downs=summary["switch_downs"],
                switch_recoveries=summary["switch_recoveries"],
                mean_switch_time_to_recover_cycles=summary[
                    "mean_switch_time_to_recover_cycles"
                ],
                hosts_isolated=summary["hosts_isolated"],
                host_downtime_cycles=summary["host_downtime_cycles"],
                availability=list(summary["availability"]),
            )
        return RunMetrics(
            mean_delivery_interval_ms=tb.report_ms(self.delivery.mean_interval),
            std_delivery_interval_ms=tb.report_ms(self.delivery.std_interval),
            frames_delivered=self.delivery.frames_delivered,
            interval_count=self.delivery.interval_count,
            be_latency_us=raw_us(self.latency.mean_latency),
            be_latency_us_paper_equivalent=tb.report_us(
                self.latency.mean_latency
            ),
            be_latency_std_us=raw_us(self.latency.std_latency),
            be_message_count=self.latency.count,
            **health,
        )


@dataclass(frozen=True)
class RunMetrics:
    """One run's headline numbers, in the paper's units.

    Delivery intervals are reported in *paper-equivalent* milliseconds:
    measured cycles are multiplied by the workload scale factor before
    converting, so a jitter-free run reports ~33 ms at any scale.

    Best-effort latency is reported two ways: ``be_latency_us`` converts
    measured cycles directly (the 20-flit message itself is not scaled),
    while ``be_latency_us_paper_equivalent`` applies the workload scale,
    which upper-bounds the queueing component at paper timescales.
    """

    mean_delivery_interval_ms: float
    std_delivery_interval_ms: float
    frames_delivered: int
    interval_count: int
    be_latency_us: float
    be_latency_us_paper_equivalent: float
    be_latency_std_us: float
    be_message_count: int
    # Failover counters, defaulted because a run without a health
    # monitor passes none (``MetricsCollector.snapshot``).
    link_downs: int = 0
    link_flaps: int = 0
    link_recoveries: int = 0
    mean_time_to_recovery_cycles: float = 0.0
    reroutes: int = 0
    detours: int = 0
    worms_requeued: int = 0
    streams_shed: int = 0
    be_messages_shed: int = 0
    # Switch-level failover counters, defaulted for the same reason.
    switch_downs: int = 0
    switch_recoveries: int = 0
    mean_switch_time_to_recover_cycles: float = 0.0
    #: hosts the failover layer ever declared unreachable
    hosts_isolated: int = 0
    #: summed cycles hosts spent isolated (open intervals run to the
    #: end of the run)
    host_downtime_cycles: int = 0
    #: per-host reachability timeline: ``{"cycle", "host", "event"}``
    #: dicts with event "isolated" or "restored", in detection order
    availability: list = field(default_factory=list)

    @property
    def d(self) -> float:
        """The paper's ``d`` (mean delivery interval, ms)."""
        return self.mean_delivery_interval_ms

    @property
    def sigma_d(self) -> float:
        """The paper's ``sigma_d`` (delivery-interval std, ms)."""
        return self.std_delivery_interval_ms

    def is_jitter_free(self) -> bool:
        """The paper's jitter-free criterion (d ~ 33 ms, sigma_d ~ 0),
        as :func:`repro.analysis.jitter.is_jitter_free_point` defines it."""
        return is_jitter_free_point(self.d, self.sigma_d)


def canonical(value):
    """Make metrics comparable: NaN != NaN, so map it to a sentinel.

    Latency stats are NaN when a class saw no traffic (e.g. a 100/0 mix
    has no best-effort frames); two runs that both produce that NaN
    must count as identical.
    """
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def canonical_metrics(result) -> dict:
    """A result's full metrics record in NaN-safe comparable form.

    This is the bit-identity surface of the scale campaign's digests
    and of the chaos harness's health-no-op oracle (and, with the fault
    accounting, of its parity oracle): two runs agree exactly when
    these dicts are equal.
    """
    return canonical(asdict(result.metrics))
