"""Virtual-channel buffers and credit-based flow control.

Two buffering points exist along a router pipe (Fig. 2 of the paper):

* :class:`InputVC` — the per-VC flit buffer at the input port (stage 1
  writes into it, the crossbar drains it).  The buffer is a FIFO of
  flits that may span *several* messages: the upstream multiplexer
  serialises messages on a VC, so a new header can sit behind the
  previous message's tail.  Routing/arbitration state always refers to
  the message at the front; it is released when that tail traverses the
  crossbar.
* :class:`OutputVC` — the small per-VC staging buffer between the
  crossbar and the output physical-channel multiplexer (stage 5).  It
  tracks *credits*: the number of free slots in the downstream router's
  matching :class:`InputVC`.

Flits are never materialised as objects; buffers store per-message
arrival/served counters plus a deque of scheduler stamps (one per
buffered flit).  The head of a buffer is the front message's
``served``-th flit — flit indices are implicit because wormhole flow
control delivers them in order.

A VC owns no deques until it carries a flit (at 1024 hosts 92 % never
do): its buffers start as :data:`NO_FLITS`, which reads as empty, and
the first header or grant swaps in deques that the VC then keeps.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.virtual_clock import VirtualClockState
from repro.errors import FlowControlError
from repro.router.flit import Message


NO_FLITS: tuple = ()  #: a never-used VC's buffers: shared, empty, immutable


class _MessageRecord:
    """Per-message bookkeeping inside an input VC buffer."""

    __slots__ = ("msg", "arrived", "served", "header_time")

    def __init__(self, msg: Message, header_time: int) -> None:
        self.msg = msg
        self.arrived = 0
        self.served = 0
        self.header_time = header_time


#: freelist of retired _MessageRecord instances.  One record is created
#: per message per hop (header arrival) and retired when the tail
#: crosses the crossbar (or the message is purged) — recycling them
#: keeps the steady-state flit path allocation-free.  The pool's size is
#: naturally bounded by the high-water mark of concurrently buffered
#: messages, so it never needs trimming.
_record_pool: list = []


def acquire_record(msg: Message, header_time: int) -> _MessageRecord:
    """A fresh or recycled record, fully reinitialised.

    Public because both code paths share the pool: the object path
    calls it from :meth:`InputVC.accept_new_message`, the fused cycle
    loop from its inlined header-arrival kernel — one freelist either
    way.
    """
    if _record_pool:
        record = _record_pool.pop()
        record.msg = msg
        record.arrived = 0
        record.served = 0
        record.header_time = header_time
        return record
    return _MessageRecord(msg, header_time)


def release_record(record: _MessageRecord) -> None:
    """Retire a record to the pool, dropping its Message reference."""
    record.msg = None
    _record_pool.append(record)


class InputVC:
    """One virtual-channel flit buffer at a router input port."""

    __slots__ = (
        "port",
        "index",
        "capacity",
        "messages",
        "stamps",
        "buffered",
        "head_arrival",
        "route_port",
        "route_vc",
        "ready_at",
        "credit_sink",
        "vstate",
        "wait_epoch",
    )

    def __init__(self, port: int, index: int, capacity: int) -> None:
        self.port = port
        self.index = index
        self.capacity = capacity
        #: messages with flits in (or expected into) this buffer, front first
        self.messages: Deque[_MessageRecord] = NO_FLITS
        #: scheduler stamps of buffered flits, head first (arrival order)
        self.stamps: Deque[float] = NO_FLITS
        #: total flits currently buffered, across messages
        self.buffered = 0
        #: cycle the *front* message's header arrived (stage-2/3 timing)
        self.head_arrival = 0
        #: routed output port of the front message (-1 while unrouted)
        self.route_port = -1
        #: granted output VC of the front message (None until arbitration)
        self.route_vc: Optional["OutputVC"] = None
        #: earliest cycle the front message may use the crossbar
        self.ready_at = 0
        #: upstream object whose ``credits`` we replenish when draining
        self.credit_sink = None
        #: Virtual Clock registers for the arriving message's stamps
        self.vstate = VirtualClockState()
        #: the cycle loop's memo of a failed grant: ``route_port``'s
        #: release epoch when the routed header last found no output VC
        #: (-1: none); the attempt is not repeated until the epoch moves
        self.wait_epoch = -1

    # -- state queries --------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of flits currently buffered."""
        return self.buffered

    @property
    def is_free(self) -> bool:
        """True when no message occupies this VC."""
        return not self.messages

    @property
    def msg(self) -> Optional[Message]:
        """The front (in-service) message, or ``None``."""
        return self.messages[0].msg if self.messages else None

    @property
    def front_has_flit(self) -> bool:
        """True when the front message has a buffered, unserved flit."""
        if not self.messages:
            return False
        front = self.messages[0]
        return front.arrived > front.served

    # -- arrivals -------------------------------------------------------

    def accept_new_message(self, clock: int, msg: Message) -> None:
        """A header flit arrived: start a new message record."""
        if self.messages is NO_FLITS:
            self.messages, self.stamps = deque(), deque()
        self.messages.append(acquire_record(msg, clock))
        if len(self.messages) == 1:
            self.head_arrival = clock
            self.route_port = -1
            self.route_vc = None
        # Arrivals are serialised per message by the upstream mux, so a
        # single arrival-side Virtual Clock register pair suffices.
        self.vstate.open(clock, msg.vtick)

    def accept_flit(self, stamp: float) -> None:
        """Buffer one flit (header included) carrying a scheduler stamp."""
        if self.buffered >= self.capacity:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}) overflow: upstream sent "
                f"a flit without credit"
            )
        if not self.messages:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}) got a flit without a "
                f"header"
            )
        self.messages[-1].arrived += 1
        self.buffered += 1
        self.stamps.append(stamp)

    # -- service --------------------------------------------------------

    def head_stamp(self) -> float:
        """Stamp of the head-of-line flit (caller ensures occupancy > 0)."""
        return self.stamps[0]

    def pop_head(self) -> Tuple[Message, int]:
        """Drain the front message's next flit toward the crossbar."""
        if not self.front_has_flit:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}) drained with no "
                f"serviceable flit"
            )
        front = self.messages[0]
        self.stamps.popleft()
        self.buffered -= 1
        flit_index = front.served
        front.served += 1
        return front.msg, flit_index

    def release_front(self) -> bool:
        """Retire the front message after its tail crossed the crossbar.

        Returns True when another message is waiting behind it (its
        header must then go through routing/arbitration again).
        """
        if not self.messages:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}) released while free"
            )
        front = self.messages.popleft()
        if front.served != front.msg.size:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}) released message "
                f"{front.msg.msg_id} before its tail was served"
            )
        release_record(front)
        self.route_port = -1
        self.route_vc = None
        if self.messages:
            self.head_arrival = self.messages[0].header_time
            return True
        return False

    def purge_message(self, msg: Message) -> int:
        """Remove a killed message's unserved flits (preemption support).

        Returns the number of flits removed.  Works for the front
        message (its routing/grant state is cleared by the router) and
        for queued messages alike; the caller owns credit accounting
        and scheduler-set maintenance.
        """
        offset = 0
        position = None
        for index, record in enumerate(self.messages):
            pending = record.arrived - record.served
            if record.msg is msg:
                position = index
                removed = pending
                break
            offset += pending
        else:
            return 0
        stamps = list(self.stamps)
        del stamps[offset : offset + removed]
        self.stamps = deque(stamps)
        self.buffered -= removed
        release_record(self.messages[position])
        del self.messages[position]
        if position == 0:
            self.route_port = -1
            self.route_vc = None
            if self.messages:
                self.head_arrival = self.messages[0].header_time
        return removed

    def check_invariants(self) -> None:
        """Raise if the buffer's bookkeeping is inconsistent (test hook)."""
        if self.buffered != len(self.stamps):
            raise FlowControlError(
                f"input VC ({self.port},{self.index}): buffered "
                f"{self.buffered} != stamps {len(self.stamps)}"
            )
        if self.buffered > self.capacity:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}): over capacity"
            )
        per_message = sum(rec.arrived - rec.served for rec in self.messages)
        if per_message != self.buffered:
            raise FlowControlError(
                f"input VC ({self.port},{self.index}): per-message counters "
                f"disagree with total"
            )
        for rec in list(self.messages)[1:]:
            if rec.served:
                raise FlowControlError(
                    f"input VC ({self.port},{self.index}): non-front message "
                    f"was served"
                )


class OutputVC:
    """One virtual channel on an output physical channel."""

    __slots__ = (
        "port",
        "index",
        "capacity",
        "owner",
        "queue",
        "stamps",
        "credits",
        "downstream",
        "vstate",
    )

    def __init__(self, port: int, index: int, capacity: int) -> None:
        self.port = port
        self.index = index
        self.capacity = capacity
        #: message holding this output VC (arbitration grant), or None
        self.owner: Optional[Message] = None
        #: staged flits awaiting the stage-5 multiplexer: (msg, flit_index)
        self.queue: Deque = NO_FLITS
        #: scheduler stamps parallel to ``queue``
        self.stamps: Deque[float] = NO_FLITS
        #: free slots in the downstream input VC (set when wired to a link)
        self.credits = 0
        #: downstream InputVC, or None when the port ejects to a host
        self.downstream: Optional[InputVC] = None
        #: Virtual Clock registers for the VC multiplexer (point C)
        self.vstate = VirtualClockState()

    @property
    def is_free(self) -> bool:
        """True when no message holds the VC."""
        return self.owner is None

    @property
    def has_space(self) -> bool:
        """True when the staging buffer can accept another flit."""
        return len(self.queue) < self.capacity

    def grant(self, clock: int, msg: Message) -> None:
        """Arbitration grant: ``msg`` now owns this output VC."""
        if self.owner is not None:
            raise FlowControlError(
                f"output VC ({self.port},{self.index}) granted while owned"
            )
        self.owner = msg
        if self.queue is NO_FLITS:
            self.queue, self.stamps = deque(), deque()
        self.vstate.open(clock, msg.vtick)

    def push(self, msg: Message, flit_index: int, stamp: float) -> None:
        """Stage one flit from the crossbar."""
        if not self.has_space:
            raise FlowControlError(
                f"output VC ({self.port},{self.index}) staging overflow"
            )
        if self.queue is NO_FLITS:  # hand-driven: staged without a grant
            self.queue, self.stamps = deque(), deque()
        self.queue.append((msg, flit_index))
        self.stamps.append(stamp)

    def head_stamp(self) -> float:
        """Stamp of the head-of-line staged flit."""
        return self.stamps[0]

    def pop_head(self):
        """Remove and return the head staged flit as ``(msg, flit_index)``."""
        if not self.queue:
            raise FlowControlError(
                f"output VC ({self.port},{self.index}) drained while empty"
            )
        self.stamps.popleft()
        return self.queue.popleft()

    def release(self) -> None:
        """Free the VC after its tail flit left on the link."""
        self.owner = None
        self.vstate.close()

    def purge_owner(self, msg: Message) -> int:
        """Drop a killed owner's staged flits and free the VC.

        Returns the number of staged flits removed (the grant's
        exclusivity guarantees every staged flit belongs to the owner).
        """
        if self.owner is not msg:
            return 0
        removed = len(self.queue)
        if removed:
            self.queue.clear()
            self.stamps.clear()
        self.release()
        return removed

    def check_invariants(self) -> None:
        """Raise if the buffer's bookkeeping is inconsistent (test hook)."""
        if len(self.queue) != len(self.stamps):
            raise FlowControlError(
                f"output VC ({self.port},{self.index}): queue/stamp mismatch"
            )
        if len(self.queue) > self.capacity:
            raise FlowControlError(
                f"output VC ({self.port},{self.index}): over capacity"
            )
        if self.credits < 0:
            raise FlowControlError(
                f"output VC ({self.port},{self.index}): negative credits"
            )
