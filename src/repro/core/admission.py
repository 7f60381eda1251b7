"""Admission control for real-time streams.

The paper's conclusion sketches the scheme: "Admission control criteria
... have to consider (for an expected traffic pattern) what is the
maximum load and proportion of VBR to best-effort traffic that will
provide statistically acceptable QoS."  The single-switch results put
that boundary at 70-80% of physical-channel bandwidth for the real-time
component.

:class:`AdmissionController` implements the utilisation-based test: it
tracks the reserved rate on every physical channel a stream's path
crosses (source input link, every inter-router hop, destination output
link) and admits a stream only if each stays at or below the jitter-safe
threshold.  It also enforces the VC-capacity constraint of section 4.2.3
(at most ``threshold / stream_fraction`` concurrent streams per link,
since a VC's bandwidth must cover the sum of its streams' demands).

**Degraded mode** (the failover extension): when the link-health
monitor declares a channel's capacity lost, :meth:`degrade` recomputes
the channel's budget against the surviving fraction and sheds admitted
streams — VBR before CBR, mirroring the shed order best-effort → VBR →
CBR (best-effort never holds reservations; the monitor pauses those
sources directly) — until the survivors fit.  Shed streams are parked,
and :meth:`recover` re-admits as many as the restored capacity allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import AdmissionError, ConfigurationError

#: the paper's empirical jitter-free operating point (section 6)
DEFAULT_RT_THRESHOLD = 0.75

ChannelId = Tuple[str, int, int]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of offering one stream to the controller."""

    admitted: bool
    #: channel that rejected the stream (None when admitted)
    bottleneck: Tuple[ChannelId, float] = None

    def __bool__(self) -> bool:
        return self.admitted


@dataclass
class AdmissionController:
    """Utilisation-based admission control over named channels.

    A *channel* is any bandwidth resource identified by a hashable id —
    the experiment runner uses ``("host-in", node, 0)``,
    ``("host-out", node, 0)`` and ``("link", router, port)``.  Rates are
    fractions of channel bandwidth.
    """

    threshold: float = DEFAULT_RT_THRESHOLD
    _reserved: Dict[ChannelId, float] = field(default_factory=dict)
    _streams: Dict[int, Tuple[float, Tuple[ChannelId, ...], str]] = field(
        default_factory=dict
    )
    #: ids of the admitted streams crossing each channel, so shedding
    #: walks one channel's streams instead of every stream's path
    _on_channel: Dict[ChannelId, Set[int]] = field(default_factory=dict)
    #: surviving capacity fraction per channel (absent = 1.0, healthy)
    _capacity: Dict[ChannelId, float] = field(default_factory=dict)
    #: streams shed by degrade(), parked for re-admission on recovery
    _parked: Dict[int, Tuple[float, Tuple[ChannelId, ...], str]] = field(
        default_factory=dict
    )
    streams_shed: int = 0
    streams_readmitted: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ConfigurationError(
                f"admission threshold must be in (0, 1], got {self.threshold}"
            )

    def reserved(self, channel: ChannelId) -> float:
        """Current reserved fraction on ``channel``."""
        return self._reserved.get(channel, 0.0)

    def would_admit(
        self, rate_fraction: float, path: Sequence[ChannelId]
    ) -> AdmissionDecision:
        """Check a stream without committing it."""
        if rate_fraction <= 0:
            raise ConfigurationError(
                f"stream rate must be positive, got {rate_fraction}"
            )
        for channel in path:
            after = self._reserved.get(channel, 0.0) + rate_fraction
            limit = self.threshold * self._capacity.get(channel, 1.0)
            if after > limit + 1e-12:
                return AdmissionDecision(False, (channel, after))
        return AdmissionDecision(True)

    def admit(
        self,
        stream_id: int,
        rate_fraction: float,
        path: Sequence[ChannelId],
        traffic_class: str = "cbr",
    ) -> AdmissionDecision:
        """Admit a stream, reserving its rate on every path channel.

        ``traffic_class`` orders degraded-mode shedding: VBR streams
        are shed before CBR when capacity is lost.
        """
        if stream_id in self._streams:
            raise AdmissionError(f"stream {stream_id} already admitted")
        decision = self.would_admit(rate_fraction, path)
        if decision:
            self._reserve(stream_id, rate_fraction, tuple(path), traffic_class)
        return decision

    def _reserve(
        self,
        stream_id: int,
        rate: float,
        path: Tuple[ChannelId, ...],
        traffic_class: str,
    ) -> None:
        """Commit an admitted stream: rates, record, channel index."""
        for channel in path:
            self._reserved[channel] = self._reserved.get(channel, 0.0) + rate
            self._on_channel.setdefault(channel, set()).add(stream_id)
        self._streams[stream_id] = (rate, path, traffic_class)

    def release(self, stream_id: int) -> None:
        """Release a previously admitted stream's reservations."""
        try:
            rate, path, _ = self._streams.pop(stream_id)
        except KeyError:
            raise AdmissionError(f"stream {stream_id} was not admitted") from None
        for channel in path:
            remaining = self._reserved.get(channel, 0.0) - rate
            if remaining <= 1e-12:
                self._reserved.pop(channel, None)
            else:
                self._reserved[channel] = remaining
            crossing = self._on_channel.get(channel)
            if crossing is not None:  # None: the path's second crossing
                crossing.discard(stream_id)
                if not crossing:
                    del self._on_channel[channel]

    # -- degraded mode (failover) --------------------------------------

    def degrade(self, channel: ChannelId, capacity: float) -> List[int]:
        """Capacity on ``channel`` dropped to ``capacity`` (fraction).

        Sheds admitted streams crossing the channel — VBR before CBR,
        newest reservation first within a class — until the survivors
        fit the reduced budget.  Returns the shed stream ids; they stay
        parked for :meth:`recover`.
        """
        if not 0.0 <= capacity <= 1.0:
            raise ConfigurationError(
                f"channel capacity must be in [0, 1], got {capacity}"
            )
        self._capacity[channel] = capacity
        limit = self.threshold * capacity
        shed: List[int] = []
        while self._reserved.get(channel, 0.0) > limit + 1e-12:
            victim = self._pick_victim(channel)
            if victim is None:
                break
            self._parked[victim] = self._streams[victim]
            self.release(victim)
            shed.append(victim)
        self.streams_shed += len(shed)
        return shed

    def _pick_victim(self, channel: ChannelId) -> "int | None":
        """Next stream to shed from ``channel``: VBR first, then CBR."""
        streams = self._streams
        # (is_cbr, -id): all VBR before any CBR, newest-admitted first
        # within a class so long-held guarantees survive.  The key is
        # unique per stream, so the set's iteration order cannot show.
        return min(
            self._on_channel.get(channel, ()),
            key=lambda stream_id: (streams[stream_id][2] == "cbr", -stream_id),
            default=None,
        )

    def recover(self, channel: ChannelId) -> List[int]:
        """``channel`` is healthy again: restore its full budget.

        Re-admits parked streams that now fit (CBR first, then VBR, in
        admission order); streams blocked by capacity still lost
        elsewhere stay parked.  Returns the re-admitted stream ids.
        """
        self._capacity.pop(channel, None)
        readmitted: List[int] = []
        order = sorted(
            self._parked,
            key=lambda s: (self._parked[s][2] != "cbr", s),
        )
        for stream_id in order:
            rate, path, tclass = self._parked[stream_id]
            if self.would_admit(rate, path):
                self._reserve(stream_id, rate, path, tclass)
                readmitted.append(stream_id)
        for stream_id in readmitted:
            del self._parked[stream_id]
        self.streams_readmitted += len(readmitted)
        return readmitted

    @property
    def shed_streams(self) -> List[int]:
        """Ids of streams currently shed (degraded mode), sorted."""
        return sorted(self._parked)

    @property
    def admitted_streams(self) -> List[int]:
        """Ids of currently admitted streams."""
        return list(self._streams)

    def utilization(self) -> Dict[ChannelId, float]:
        """Snapshot of reserved fractions per channel."""
        return dict(self._reserved)
