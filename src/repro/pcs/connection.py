"""PCS connection setup: per-channel VC pools, probes, and accounting.

A circuit needs one free VC on every physical channel of its path.  The
manager holds a pool of free VC indices per channel and implements the
probe semantics: reserve hop by hop; on the first hop with no free VC,
release what was taken and report failure (NACK).  Deterministic
routing means a NACKed probe cannot backtrack (footnote 2 of the
paper), so failures are frequent near saturation — Table 3's "dropped
connections".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError

ChannelId = Hashable


@dataclass
class ConnectionStats:
    """Table 3 accounting: attempts = established + dropped."""

    attempts: int = 0
    established: int = 0
    dropped: int = 0
    #: streams that exhausted their retries and gave up entirely
    abandoned_streams: int = 0
    #: circuits torn down again (stream ended / released)
    released: int = 0
    #: streams the workload offered (each makes one or more attempts)
    offered: int = 0

    def check(self) -> None:
        """Raise unless the Table 3 identity holds."""
        if self.attempts != self.established + self.dropped:
            raise SimulationError(
                f"connection accounting broken: attempts={self.attempts} "
                f"!= established={self.established} + dropped={self.dropped}"
            )


class ConnectionManager:
    """Free-VC pools per physical channel, with circuit bookkeeping."""

    def __init__(self) -> None:
        self._free: Dict[ChannelId, List[int]] = {}
        self._capacity: Dict[ChannelId, int] = {}
        self._circuits: Dict[int, Tuple[Tuple[ChannelId, int], ...]] = {}
        self.stats = ConnectionStats()

    def add_channel(self, channel: ChannelId, vcs: int) -> None:
        """Register a physical channel with ``vcs`` reservable VCs."""
        if vcs < 1:
            raise ConfigurationError(f"channel {channel!r} needs >= 1 VC")
        if channel in self._free:
            raise ConfigurationError(f"channel {channel!r} registered twice")
        # Lower indices handed out first, mirroring a priority encoder.
        self._free[channel] = list(range(vcs - 1, -1, -1))
        self._capacity[channel] = vcs

    def free_vcs(self, channel: ChannelId) -> int:
        """Number of currently free VCs on ``channel``."""
        try:
            return len(self._free[channel])
        except KeyError:
            raise ConfigurationError(f"unknown channel {channel!r}") from None

    def capacity(self, channel: ChannelId) -> int:
        """Total VCs on ``channel``."""
        try:
            return self._capacity[channel]
        except KeyError:
            raise ConfigurationError(f"unknown channel {channel!r}") from None

    def probe(
        self, circuit_id: int, path: Sequence[ChannelId]
    ) -> Optional[Dict[ChannelId, int]]:
        """Attempt to establish a circuit along ``path``.

        Returns the channel -> VC assignment on success; ``None`` on a
        NACK (the attempt is counted as dropped and any partial
        reservations are released, as the probe's release signal would).
        """
        if circuit_id in self._circuits:
            raise SimulationError(f"circuit {circuit_id} already established")
        if not path:
            raise ConfigurationError("circuit path must be non-empty")
        # Validate before counting or reserving: a malformed path is a
        # programming error, not a dropped connection, and must not leak
        # partial reservations or break the attempts identity.
        for channel in path:
            if channel not in self._free:
                raise ConfigurationError(f"unknown channel {channel!r}")
        self.stats.attempts += 1
        taken: List[Tuple[ChannelId, int]] = []
        for channel in path:
            free = self._free[channel]
            if not free:
                for ch, vc in taken:
                    self._free[ch].append(vc)
                self.stats.dropped += 1
                return None
            taken.append((channel, free.pop()))
        self._circuits[circuit_id] = tuple(taken)
        self.stats.established += 1
        return dict(taken)

    def probe_specific(
        self, circuit_id: int, requests: Sequence[Tuple[ChannelId, int]]
    ) -> Optional[Dict[ChannelId, int]]:
        """Attempt to establish a circuit on *specific* VCs.

        The paper's workload draws the source and destination VC from a
        uniform distribution (section 4.2.1); the probe asks for exactly
        those VCs and is NACKed if any is already held — the dominant
        source of Table 3's dropped connections (two streams colliding
        on a drawn VC), which a retry re-draws.
        """
        if circuit_id in self._circuits:
            raise SimulationError(f"circuit {circuit_id} already established")
        if not requests:
            raise ConfigurationError("circuit path must be non-empty")
        # Same pre-validation as probe(): raise on malformed requests
        # before any attempt is counted or any VC is taken.
        for channel, vc in requests:
            if channel not in self._free:
                raise ConfigurationError(f"unknown channel {channel!r}")
            if not 0 <= vc < self._capacity[channel]:
                raise ConfigurationError(
                    f"VC {vc} out of range on channel {channel!r}"
                )
        self.stats.attempts += 1
        taken: List[Tuple[ChannelId, int]] = []
        for channel, vc in requests:
            free = self._free[channel]
            if vc not in free:
                for ch, held in taken:
                    self._free[ch].append(held)
                self.stats.dropped += 1
                return None
            free.remove(vc)
            taken.append((channel, vc))
        self._circuits[circuit_id] = tuple(taken)
        self.stats.established += 1
        return dict(taken)

    def release(self, circuit_id: int) -> None:
        """Tear down an established circuit, freeing its VCs."""
        try:
            taken = self._circuits.pop(circuit_id)
        except KeyError:
            raise SimulationError(
                f"circuit {circuit_id} is not established"
            ) from None
        for channel, vc in taken:
            self._free[channel].append(vc)
        self.stats.released += 1

    @property
    def established_circuits(self) -> int:
        """Circuits currently holding VCs."""
        return len(self._circuits)

    def assignment(self, circuit_id: int) -> Dict[ChannelId, int]:
        """The channel -> VC map of an established circuit."""
        try:
            return dict(self._circuits[circuit_id])
        except KeyError:
            raise SimulationError(
                f"circuit {circuit_id} is not established"
            ) from None
