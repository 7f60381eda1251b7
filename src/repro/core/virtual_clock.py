"""Per-connection Virtual Clock state (Zhang, 1991; paper section 3.3).

Virtual Clock regulates each connection's bandwidth share by keeping two
variables per connection, ``auxVC`` and ``Vtick``.  On every arrival::

    auxVC = max(Clock, auxVC)
    auxVC = auxVC + Vtick

and the arrival is stamped with the new ``auxVC``; the scheduler serves
stamps in increasing order.  ``Vtick`` is the negotiated inter-service
interval — the reciprocal of the connection's flit rate — so a stream
that reserved 1% of a link gets a stamp every 100 cycles and cannot
monopolise the multiplexer even when it bursts.

In a wormhole router there is no explicit connection setup: *each
message acts as a connection and each flit as the scheduled unit*.  The
header flit carries ``Vtick``; the state is discarded when the tail flit
leaves the router.

Best-effort traffic has "infinite" slack.  We use a finite but
astronomically large ``Vtick`` (:data:`BEST_EFFORT_VTICK`) so best-effort
flits always lose to real-time flits yet still have a total order among
themselves (earlier arrivals first, approximately round-robin across
messages), which is what an implementation with a saturating timestamp
register would do.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Vtick assigned to best-effort messages ("infinity" in the paper).
#: Any simulated run is far shorter than 1e12 cycles, so a single
#: best-effort stamp always exceeds every real-time stamp.
BEST_EFFORT_VTICK = 1.0e12


def vtick_for_fraction(bandwidth_fraction: float) -> float:
    """Vtick for a stream reserving ``bandwidth_fraction`` of a PC.

    A PC moves one flit per cycle, so a stream holding fraction ``f`` of
    the link is entitled to one flit every ``1/f`` cycles.
    """
    if not 0 < bandwidth_fraction <= 1:
        raise ConfigurationError(
            f"bandwidth fraction must be in (0, 1], got {bandwidth_fraction}"
        )
    return 1.0 / bandwidth_fraction


class VirtualClockState:
    """Mutable Virtual Clock register pair for one connection (message).

    The state is embedded in each buffer that feeds a scheduled
    multiplexer.  ``open()`` corresponds to connection setup (header
    acceptance); ``stamp_arrival()`` implements the two-line update
    above; ``close()`` corresponds to the tail flit leaving, after which
    the paper says the Vtick information is discarded.
    """

    __slots__ = ("auxvc", "vtick", "is_open")

    def __init__(self) -> None:
        self.auxvc = 0.0
        self.vtick = BEST_EFFORT_VTICK
        self.is_open = False

    def open(self, clock: float, vtick: float) -> None:
        """Initialise the connection at time ``clock`` with the given Vtick."""
        if vtick <= 0:
            raise ConfigurationError(f"Vtick must be positive, got {vtick}")
        self.auxvc = float(clock)
        self.vtick = vtick
        self.is_open = True

    def stamp_arrival(self, clock: float) -> float:
        """Advance the virtual clock for one arrival and return its stamp."""
        auxvc = self.auxvc
        if clock > auxvc:
            auxvc = clock
        auxvc += self.vtick
        self.auxvc = auxvc
        return auxvc

    def close(self) -> None:
        """Discard the connection state (tail flit departed)."""
        self.is_open = False
        self.auxvc = 0.0
        self.vtick = BEST_EFFORT_VTICK
