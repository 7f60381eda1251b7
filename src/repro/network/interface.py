"""Host network interfaces: injection multiplexer and ejection sink.

The paper's "input link load" is offered on the physical channel between
a host and its router port.  That link is a scheduled resource exactly
like a router's output PC: the NI holds a per-VC queue of messages and a
VC multiplexer (same policy as the router under test — Virtual Clock in
MediaWorm, FIFO in the vanilla router) chooses which VC sends its next
flit, subject to credit flow control into the router's input buffers.

The ejection side (:class:`HostSink`) consumes flits at link rate and
reports message/frame completions to the metrics collector.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.core.schedulers import MuxScheduler, make_scheduler
from repro.core.virtual_clock import VirtualClockState
from repro.errors import FlowControlError
from repro.network.link import Link
from repro.router.flit import Message


class _NIVC:
    """One virtual channel of the host-to-router link."""

    __slots__ = ("index", "queue", "sent", "credits", "vstate", "head_stamp")

    def __init__(self, index: int, credits: int) -> None:
        self.index = index
        #: messages queued on this VC, head first
        self.queue: Deque[Message] = deque()
        #: flits of the head message already sent
        self.sent = 0
        #: free slots in the router's matching input VC buffer
        self.credits = credits
        self.vstate = VirtualClockState()
        #: lazily computed stamp of the next flit to send (None = compute)
        self.head_stamp: Optional[float] = None


class HostInterface:
    """Traffic injection point for one host (endpoint) node."""

    __slots__ = (
        "node_id",
        "link",
        "vcs",
        "scheduler",
        "_stateless",
        "_active",
        "flits_injected",
        "messages_injected",
        "on_start",
        "on_activated",
        "trace",
    )

    def __init__(
        self,
        node_id: int,
        vcs_per_pc: int,
        buffer_depth: int,
        policy: str,
        link: Link,
    ) -> None:
        self.node_id = node_id
        self.link = link
        self.vcs: List[_NIVC] = [
            _NIVC(i, buffer_depth) for i in range(vcs_per_pc)
        ]
        self.scheduler: MuxScheduler = make_scheduler(policy)
        #: True when the mux policy's select() carries no state, which
        #: allows the single-backlogged-VC fast path in :meth:`step`
        #: (round-robin must rotate even with one candidate)
        self._stateless = self.scheduler.stateless_select
        self._active: set = set()
        #: total flits accepted for injection (metrics/audit)
        self.flits_injected = 0
        self.messages_injected = 0
        #: fired when a message's header flit leaves for the wire; the
        #: recovery transport arms its delivery timeout here so NI
        #: queueing (frame bursts paced at stream rate) doesn't count
        #: against the timeout
        self.on_start: Optional[Callable[[Message, int], None]] = None
        #: activation hook fired when this NI gains backlog; installed
        #: by the network so the active-set loop starts stepping it
        self.on_activated: Optional[Callable[[], None]] = None
        #: trace sink installed by repro.obs.sinks.install_tracing
        self.trace = None

    def inject(self, clock: int, msg: Message) -> None:
        """Queue a message for transmission on its source VC.

        All flits of the message "arrive at the scheduler" at injection
        time, so Virtual Clock stamps pace them at the message's
        reserved rate while FIFO stamps them all with the arrival time.
        """
        if not 0 <= msg.src_vc < len(self.vcs):
            raise FlowControlError(
                f"node {self.node_id}: message source VC {msg.src_vc} out of "
                f"range (have {len(self.vcs)} VCs)"
            )
        msg.inject_time = clock
        vc = self.vcs[msg.src_vc]
        vc.queue.append(msg)
        if len(vc.queue) == 1:
            self._open_head(vc)
        self._active.add(msg.src_vc)
        self.flits_injected += msg.size
        self.messages_injected += 1
        if self.on_activated is not None:
            self.on_activated()

    def _open_head(self, vc: _NIVC) -> None:
        """Start serving a new head message on ``vc``."""
        msg = vc.queue[0]
        vc.sent = 0
        vc.vstate.open(msg.inject_time, msg.vtick)
        vc.head_stamp = None

    def _ensure_stamp(self, vc: _NIVC) -> float:
        """Lazily stamp the next flit of the head message."""
        if vc.head_stamp is None:
            msg = vc.queue[0]
            vc.head_stamp = self.scheduler.stamp(msg.inject_time, vc.vstate)
        return vc.head_stamp

    def step(self, clock: int) -> int:
        """Send at most one flit onto the host link.

        Returns the NI's activity — non-zero while messages remain
        queued, zero once the backlog drained (the cycle loop then
        drops the NI from the active set until :meth:`inject` fires
        ``on_activated`` again).  An NI with backlog must be stepped
        every cycle: whether it can send depends on credits, which it
        cannot predict.
        """
        active = self._active
        if not active:
            return 0
        vcs = self.vcs
        if len(active) == 1 and self._stateless:
            # One backlogged VC and a stateless selector: nothing to
            # arbitrate.  The stamp is still computed (lazily, once per
            # flit) because Virtual Clock stamping advances the VC's
            # auxVC register.
            chosen = next(iter(active))
            vc = vcs[chosen]
            if vc.credits <= 0:
                return 1
            self._ensure_stamp(vc)
        else:
            candidates = []
            for index in active:
                vc = vcs[index]
                if vc.credits > 0:
                    candidates.append((self._ensure_stamp(vc), index))
            if not candidates:
                return 1
            chosen = self.scheduler.select(candidates)
            vc = vcs[chosen]
        msg = vc.queue[0]
        flit_index = vc.sent
        vc.credits -= 1
        vc.sent += 1
        vc.head_stamp = None
        self.link.send(clock, msg, flit_index, chosen)
        if self.trace is not None:
            self.trace.on_event(
                "flit_inject",
                clock,
                {
                    "node": self.node_id,
                    "vc": chosen,
                    "msg": msg.msg_id,
                    "flit": flit_index,
                    "size": msg.size,
                    "cls": msg.traffic_class,
                },
            )
        if flit_index == 0 and self.on_start is not None:
            self.on_start(msg, clock)
        if flit_index == msg.last_flit:
            vc.queue.popleft()
            vc.vstate.close()
            if vc.queue:
                self._open_head(vc)
            else:
                active.discard(chosen)
        return 1 if active else 0

    def purge_message(self, msg: Message) -> int:
        """Drop a killed message's untransmitted flits (preemption).

        Returns the number of flits that never reached the link.
        """
        vc = self.vcs[msg.src_vc]
        removed = 0
        if vc.queue and vc.queue[0] is msg:
            removed = msg.size - vc.sent
            vc.queue.popleft()
            vc.vstate.close()
            if vc.queue:
                self._open_head(vc)
        else:
            for index, queued in enumerate(vc.queue):
                if queued is msg:
                    del vc.queue[index]
                    removed = msg.size
                    break
        if not vc.queue:
            self._active.discard(msg.src_vc)
        return removed

    @property
    def backlog_flits(self) -> int:
        """Flits queued at this NI not yet put on the link (audit)."""
        total = 0
        for vc in self.vcs:
            for position, msg in enumerate(vc.queue):
                total += msg.size - (vc.sent if position == 0 else 0)
        return total

    @property
    def has_backlog(self) -> bool:
        return bool(self._active)


class HostSink:
    """Flit consumer at a destination host.

    Flits are consumed at link rate (the stage-5 multiplexer upstream
    already enforces one flit per cycle); the sink only accounts for
    them and reports tail-flit deliveries.  It is passive — driven by
    its ejection link's delivery, never stepped by a cycle loop.
    """

    __slots__ = (
        "node_id",
        "on_message",
        "on_flit",
        "on_corrupt",
        "flits_ejected",
        "messages_ejected",
        "messages_corrupt",
        "trace",
    )

    def __init__(
        self,
        node_id: int,
        on_message: Optional[Callable[[Message, int], None]] = None,
        on_flit: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.on_message = on_message
        self.on_flit = on_flit
        #: end-to-end checksum handler: when set, a message whose flits
        #: were corrupted in transit is rejected at its tail instead of
        #: being reported delivered (repro.faults.install_recovery)
        self.on_corrupt: Optional[Callable[[Message, int], None]] = None
        self.flits_ejected = 0
        self.messages_ejected = 0
        self.messages_corrupt = 0
        #: trace sink installed by repro.obs.sinks.install_tracing
        self.trace = None

    def eject(self, clock: int, msg: Message, flit_index: int) -> None:
        """Consume one flit; fire callbacks on tails."""
        self.flits_ejected += 1
        tail = flit_index == msg.last_flit
        if self.trace is not None:
            self.trace.on_event(
                "flit_eject",
                clock,
                {
                    "node": self.node_id,
                    "msg": msg.msg_id,
                    "flit": flit_index,
                    "tail": tail,
                },
            )
        if self.on_flit is not None:
            self.on_flit(1)
        if tail:
            if msg.dst_node != self.node_id:
                raise FlowControlError(
                    f"message {msg.msg_id} for node {msg.dst_node} ejected "
                    f"at node {self.node_id}"
                )
            if msg.corrupted and self.on_corrupt is not None:
                # checksum failure: the payload arrived but is garbage;
                # don't report delivery — the transport decides whether
                # to retransmit
                self.messages_corrupt += 1
                self.on_corrupt(msg, clock)
                return
            msg.deliver_time = clock
            self.messages_ejected += 1
            if self.on_message is not None:
                self.on_message(msg, clock)
