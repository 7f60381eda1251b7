"""Physical channels between router stages.

A link carries at most one flit per cycle (that is the definition of a
router cycle) with a fixed pipeline latency.  The default latency of
two cycles models the wire plus the downstream stage-1 synchroniser /
decoder of the PROUD pipeline, giving the paper's per-hop costs: five
stages for a header flit, three for a body flit (which bypasses routing
and arbitration).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.errors import FlowControlError
from repro.faults import FATE_LOST, FATE_OK
from repro.router.flit import Message

#: default link pipeline latency in cycles (wire + stage-1 sync/decode)
DEFAULT_LINK_LATENCY = 2


class Link:
    """Unidirectional flit pipeline from an output port to a consumer.

    The consumer is either a router input port (``dest_router`` +
    ``dest_port``) or a host sink (ejection).  ``deliver_due`` is called
    once per cycle by the network loop before routers step, so a flit
    sent at cycle ``t`` becomes visible downstream at ``t + latency``.

    With :attr:`faults` installed, every due flit gets a fate.  The
    draw belongs to ``LinkFaultState.fate`` (``deliver_due`` calls it;
    the fused cycle loop inlines the same tests, in the same order, on
    the same RNG for an untraced link outside its down windows);
    applying a lost or corrupted fate belongs to :meth:`apply_fate`,
    whoever drew it.
    """

    __slots__ = (
        "latency",
        "dest_router",
        "dest_port",
        "sink",
        "pending",
        "label",
        "faults",
        "health",
        "src_router",
        "src_port",
        "on_wake",
        "trace",
        "index",
    )

    def __init__(
        self,
        dest_router=None,
        dest_port: int = -1,
        sink=None,
        latency: int = DEFAULT_LINK_LATENCY,
        label: str = "",
    ) -> None:
        if (dest_router is None) == (sink is None):
            raise FlowControlError(
                "a link needs exactly one consumer: a router port or a sink"
            )
        if latency < 1:
            raise FlowControlError(f"link latency must be >= 1, got {latency}")
        self.latency = latency
        self.dest_router = dest_router
        self.dest_port = dest_port
        self.sink = sink
        #: stable name used by fault plans to address this link
        self.label = label
        #: optional LinkFaultState installed by repro.faults
        self.faults = None
        #: optional LinkHealth record installed by repro.network.health
        self.health = None
        #: sending router + output port (wired by the network; None for
        #: host-injection links, whose sender is an NI)
        self.src_router = None
        self.src_port = -1
        #: in-flight flits: (arrival_cycle, msg, flit_index, vc_index)
        self.pending: Deque[Tuple[int, Message, int, int]] = deque()
        #: hook(arrival) fired when the wire transitions from empty to
        #: non-empty, with the arrival cycle of that first flit;
        #: installed by the cycle loop so it starts visiting this link
        #: and knows its head arrival (None when the link is driven
        #: manually).  Firing only on the transition — not per flit —
        #: keeps a streaming worm's sends hook-free.
        self.on_wake = None
        #: trace sink installed by repro.obs.install_tracing
        self.trace = None
        #: position in ``Network.links`` (the link's activation id and
        #: head-mirror slot); -1 while the link is driven by hand
        self.index = -1

    def send(self, clock: int, msg: Message, flit_index: int, vc_index: int) -> None:
        """Put one flit on the wire at cycle ``clock``."""
        arrival = clock + self.latency
        pending = self.pending
        if not pending and self.on_wake is not None:
            self.on_wake(arrival)
        pending.append((arrival, msg, flit_index, vc_index))
        if self.trace is not None:
            self.trace.on_event(
                "link_tx",
                clock,
                {
                    "link": self.label,
                    "msg": msg.msg_id,
                    "flit": flit_index,
                    "vc": vc_index,
                    "arrive": arrival,
                },
            )

    def deliver_due(self, clock: int) -> int:
        """Hand over every flit whose latency has elapsed.

        Returns the number of flits delivered.
        """
        if self.faults is not None:
            return self._deliver_due_faulty(clock)
        delivered = 0
        pending = self.pending
        router = self.dest_router
        if router is not None:
            port = self.dest_port
            while pending and pending[0][0] <= clock:
                _, msg, flit_index, vc_index = pending.popleft()
                router.accept_flit(clock, port, vc_index, msg, flit_index)
                delivered += 1
        else:
            sink = self.sink
            while pending and pending[0][0] <= clock:
                _, msg, flit_index, vc_index = pending.popleft()
                sink.eject(clock, msg, flit_index)
                delivered += 1
        if delivered and self.health is not None:
            # Delivery heartbeat: a no-op while the link is UP, streak
            # progress while it is SUSPECT or on PROBATION.
            self.health.on_ok(clock, delivered)
        return delivered

    def _deliver_due_faulty(self, clock: int) -> int:
        """Delivery loop with the installed fault state applied.

        Draws each due flit's fate (:meth:`LinkFaultState.fate`, one
        ``down`` lookup per call) and hands the clean ones straight to
        the consumer; a lost or corrupted flit goes through
        :meth:`apply_fate`.  See :mod:`repro.faults` for the semantics.
        """
        faults = self.faults
        health = self.health
        delivered = 0
        pending = self.pending
        router = self.dest_router
        down = faults.down(clock)
        while pending and pending[0][0] <= clock:
            _, msg, flit_index, vc_index = pending.popleft()
            fate = faults.fate(msg, flit_index, down)
            if fate == FATE_OK:
                if router is not None:
                    router.accept_flit(
                        clock, self.dest_port, vc_index, msg, flit_index
                    )
                else:
                    self.sink.eject(clock, msg, flit_index)
                delivered += 1
                if health is not None:
                    health.on_ok(clock)
            else:
                delivered += self.apply_fate(
                    clock, msg, flit_index, vc_index, fate, down
                )
                # The teardowns inside (loss recovery, and a health
                # transition's kill-and-requeue) may purge this link and
                # rebuild self.pending; re-fetch so we keep draining the
                # live deque, not the pre-purge snapshot.
                pending = self.pending
        return delivered

    def apply_fate(
        self,
        clock: int,
        msg: Message,
        flit_index: int,
        vc_index: int,
        fate: int,
        down: bool,
    ) -> int:
        """Apply a non-OK ``fate`` to one flit already popped off the wire.

        The single implementation of loss and corruption handling: the
        object delivery loop above and the fused cycle loop's inlined
        delivery kernels (which draw the fate themselves) both call it.
        Returns the number of flits handed to the consumer — 0 for a
        lost flit, 1 for a corrupted one.

        A lost flit on a router-bound wire returns its credit to the
        sender immediately (faults lose data, not flow-control
        capacity), is reported to recovery and counts as a health miss;
        a corrupted flit is delivered but taints its message.  Either
        can tear worms down (``report_loss``, a health transition's
        kill-and-requeue) and rebuild :attr:`pending`, so the caller
        must re-read it afterwards.
        """
        faults = self.faults
        health = self.health
        router = self.dest_router
        if fate == FATE_LOST:
            if router is not None:
                sender = router.inputs[self.dest_port][vc_index].credit_sink
                if sender is not None:
                    sender.credits += 1
            faults.account_lost()
            if self.trace is not None:
                self.trace.on_event(
                    "flit_lost",
                    clock,
                    {
                        "link": self.label,
                        "msg": msg.msg_id,
                        "flit": flit_index,
                        "down": down,
                    },
                )
            faults.report_loss(msg)
            if health is not None:
                health.on_miss(clock)
            return 0
        msg.corrupted = True
        faults.account_corrupted()
        if router is not None:
            router.accept_flit(clock, self.dest_port, vc_index, msg, flit_index)
        else:
            self.sink.eject(clock, msg, flit_index)
        if self.trace is not None:
            # Emitted only after the flit landed: an event sink may
            # audit credits on any event (InvariantChecker's periodic
            # check), and between the wire pop and accept/eject the
            # flit is in neither ledger.
            self.trace.on_event(
                "flit_corrupt",
                clock,
                {
                    "link": self.label,
                    "msg": msg.msg_id,
                    "flit": flit_index,
                },
            )
        if health is not None:
            health.on_corrupt(clock)
        return 1

    def is_available(self, clock: int) -> bool:
        """False while the link sits inside a fault down window."""
        return self.faults is None or not self.faults.down(clock)

    @property
    def in_flight(self) -> int:
        """Flits currently on the wire."""
        return len(self.pending)

    def purge_message(self, msg: Message) -> "list[int]":
        """Drop a killed message's in-flight flits (preemption support).

        Returns the VC index of every dropped flit, so the caller can
        hand the credits they consumed back to the sender.  A wire that
        carries none of the message keeps its deque: :attr:`pending` is
        rebuilt (and the cycle loop's head mirror made stale) only when
        a flit is actually dropped.
        """
        if self.faults is not None:
            self.faults.forget(msg)
        dropped_vcs = [entry[3] for entry in self.pending if entry[1] is msg]
        if dropped_vcs:
            self.pending = deque(
                entry for entry in self.pending if entry[1] is not msg
            )
        return dropped_vcs
