"""Best-effort message latency tracking (paper Table 2 / Fig. 9c).

Latency is measured from injection (the message is offered to the NI)
to the tail flit's arrival at the destination — the end-to-end figure a
best-effort application observes, including source queueing caused by
real-time traffic holding the link.
"""

from __future__ import annotations

from repro.metrics.stats import RunningStats
from repro.router.flit import Message


class LatencyTracker:
    """Aggregates end-to-end best-effort message latency."""

    def __init__(self, warmup: int = 0) -> None:
        self.warmup = warmup
        self._stats = RunningStats()

    def on_message(self, msg: Message, clock: int) -> None:
        """Record one delivered best-effort message."""
        if clock < self.warmup:
            return
        if msg.inject_time < 0:
            return
        self._stats.add(float(clock - msg.inject_time))

    @property
    def mean_latency(self) -> float:
        """Mean latency in cycles (nan when no message was recorded)."""
        if self._stats.n == 0:
            return float("nan")
        return self._stats.mean

    @property
    def std_latency(self) -> float:
        """Latency standard deviation in cycles."""
        if self._stats.n == 0:
            return float("nan")
        return self._stats.std

    @property
    def max_latency(self) -> float:
        """Largest observed latency in cycles."""
        if self._stats.n == 0:
            return float("nan")
        return self._stats.max

    @property
    def count(self) -> int:
        """Messages recorded after warmup."""
        return self._stats.n
