"""Multiplexer scheduling policies: Virtual Clock, FIFO, round-robin.

Every shared resource in the router pipeline — the crossbar input
multiplexer of a multiplexed crossbar (contention point A in Fig. 2 of
the paper), the output virtual-channel multiplexer (point C), and the
host interface's injection link — is a *multiplexer* choosing one flit
per cycle among the virtual channels that have one ready.

A policy does two things:

* **stamp** a flit when it arrives at the multiplexer's buffer, and
* **select** among the head-of-line flits of the candidate VCs.

Virtual Clock and FIFO both select the minimum stamp; they differ only
in how stamps are computed (rate-paced virtual time vs wall-clock
arrival time).  Round-robin ignores stamps and rotates priority — it is
the other "rate agnostic" baseline the paper's conclusion mentions.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.virtual_clock import VirtualClockState
from repro.errors import ConfigurationError


class SchedulingPolicy:
    """String constants naming the available policies."""

    VIRTUAL_CLOCK = "virtual_clock"
    FIFO = "fifo"
    ROUND_ROBIN = "round_robin"

    ALL = (VIRTUAL_CLOCK, FIFO, ROUND_ROBIN)


class MuxScheduler:
    """Base class: FIFO stamping with minimum-stamp selection."""

    #: policy name, overridden by subclasses
    policy = SchedulingPolicy.FIFO
    #: True when select() carries no state between calls, so one
    #: instance may serve every multiplexer of a router.  Round-robin
    #: remembers its last grant and needs an instance per multiplexer.
    stateless_select = True

    def stamp(self, clock: int, state: VirtualClockState) -> float:
        """Stamp an arriving flit.  FIFO stamps with the arrival time."""
        return float(clock)

    def select(self, candidates: Sequence[Tuple[float, int]]) -> int:
        """Pick a VC index from ``(head_stamp, vc_index)`` candidates.

        Ties break toward the lower VC index, which keeps runs
        deterministic.  ``candidates`` must be non-empty.
        """
        return min(candidates)[1]


class FifoScheduler(MuxScheduler):
    """First-come-first-served over head-of-line flits.

    This is the conventional wormhole router's scheduler: the flit that
    has waited longest at the multiplexer goes first, regardless of any
    bandwidth reservation.  Under bursty VBR arrivals one stream's burst
    can monopolise the mux, which is exactly the jitter source the
    paper's Fig. 3 exposes.
    """

    policy = SchedulingPolicy.FIFO


class VirtualClockScheduler(MuxScheduler):
    """Rate-based scheduling: serve the smallest virtual-clock stamp.

    Arriving flits advance their message's :class:`VirtualClockState`
    and take the resulting stamp, so each message is paced at its
    reserved rate in *virtual* time even when it arrives in a burst.
    """

    policy = SchedulingPolicy.VIRTUAL_CLOCK

    def stamp(self, clock: int, state: VirtualClockState) -> float:
        return state.stamp_arrival(clock)


class RoundRobinScheduler(MuxScheduler):
    """Rotating-priority selection; stamps are ignored.

    Rate agnostic like FIFO, but fair across VCs at flit granularity.
    The lowest candidate index above the last grant wins, and the
    lowest index overall when none is above it: the minimum of
    ``(index <= last, index)``.  The fused cycle loop's scans rank
    candidates by that pair and read and write :attr:`last` directly,
    so a network can be handed between the loops mid-run.
    """

    policy = SchedulingPolicy.ROUND_ROBIN
    stateless_select = False

    def __init__(self) -> None:
        #: index of the last grant (-1 before the first)
        self.last = -1

    def select(self, candidates: Sequence[Tuple[float, int]]) -> int:
        last = self.last
        chosen = min((vc <= last, vc) for _, vc in candidates)[1]
        self.last = chosen
        return chosen


def make_scheduler(policy: str) -> MuxScheduler:
    """A new scheduler instance for a policy name.

    Every call returns a fresh instance.  FIFO and Virtual Clock
    select without state (``stateless_select``), so a router's ports
    may share one; round-robin remembers its last grant, so each of
    its multiplexers needs its own.
    """
    if policy == SchedulingPolicy.VIRTUAL_CLOCK:
        return VirtualClockScheduler()
    if policy == SchedulingPolicy.FIFO:
        return FifoScheduler()
    if policy == SchedulingPolicy.ROUND_ROBIN:
        return RoundRobinScheduler()
    raise ConfigurationError(
        f"unknown scheduling policy {policy!r}; expected one of "
        f"{SchedulingPolicy.ALL}"
    )
