"""Best-effort traffic sources (paper section 4.2.2).

Each node emits fixed-length (20-flit) messages at a constant injection
rate; destinations are drawn uniformly over the other nodes, and the
source and destination VCs are drawn uniformly over the VCs allocated
to the best-effort class.  Best-effort messages carry the "infinite"
Vtick, so a Virtual Clock scheduler always defers them to real-time
flits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.virtual_clock import BEST_EFFORT_VTICK
from repro.errors import ConfigurationError
from repro.router.flit import Message, TrafficClass


@dataclass
class BestEffortConfig:
    """Static description of one node's best-effort source."""

    src_node: int
    dst_nodes: Sequence[int]
    vcs: Sequence[int]
    message_size: int
    #: fraction of the input link's bandwidth this source offers
    rate_fraction: float
    phase: int = 0

    def __post_init__(self) -> None:
        if not self.dst_nodes:
            raise ConfigurationError("best-effort source needs destinations")
        if not self.vcs:
            raise ConfigurationError("best-effort source needs at least one VC")
        if self.message_size < 1:
            raise ConfigurationError(
                f"message size must be >= 1 flit, got {self.message_size}"
            )
        if not 0 < self.rate_fraction <= 1:
            raise ConfigurationError(
                f"rate fraction must be in (0, 1], got {self.rate_fraction}"
            )
        if self.phase < 0:
            raise ConfigurationError(f"phase must be >= 0, got {self.phase}")

    @property
    def mean_interval(self) -> float:
        """Mean cycles between message injections."""
        return self.message_size / self.rate_fraction


class BestEffortSource:
    """Self-scheduling best-effort message source for one node."""

    def __init__(self, config: BestEffortConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self.messages_emitted = 0
        #: messages suppressed while paused (graceful degradation)
        self.messages_shed = 0
        #: set by the link-health monitor while capacity is lost
        self.paused = False
        self._network = None
        self._next_time = 0.0

    def start(self, network) -> None:
        """Register with ``network`` and schedule the first message."""
        self._network = network
        self._next_time = float(network.clock + self.config.phase)
        network.schedule_call(int(self._next_time), self._emit)

    def pause(self) -> None:
        """Shed offered load: emissions are counted, not injected."""
        self.paused = True

    def resume(self) -> None:
        """Resume injecting at the configured rate."""
        self.paused = False

    def _emit(self) -> None:
        network = self._network
        cfg = self.config
        rng = self.rng
        if self.paused:
            # Keep the emission clock ticking so the source resumes on
            # its own schedule, but shed the message itself.
            self.messages_shed += 1
            self._next_time = max(self._next_time, float(network.clock))
            self._next_time += cfg.mean_interval
            network.schedule_call(
                max(network.clock + 1, int(self._next_time)), self._emit
            )
            return
        dst = rng.choice(cfg.dst_nodes)
        msg = Message(
            src_node=cfg.src_node,
            dst_node=dst,
            size=cfg.message_size,
            vtick=BEST_EFFORT_VTICK,
            traffic_class=TrafficClass.BEST_EFFORT,
            src_vc=rng.choice(cfg.vcs),
            dst_vc=rng.choice(cfg.vcs),
        )
        network.inject_now(msg)
        self.messages_emitted += 1
        # Track fractional spacing exactly so the long-run rate matches
        # the configured fraction even for non-integer intervals.
        self._next_time = max(self._next_time, float(network.clock))
        self._next_time += cfg.mean_interval
        network.schedule_call(
            max(network.clock + 1, int(self._next_time)), self._emit
        )
