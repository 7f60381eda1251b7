"""Messages, flit indexing, and frame packetisation.

A wormhole **message** is a sequence of flits: one header flit carrying
routing information and the message's bandwidth requirement (its Vtick),
followed by body flits and a tail flit.  Because all flits of a message
are identical except for their position, the simulator never allocates
per-flit objects: a flit in flight is the pair ``(message, flit_index)``
and buffered flits are counted, with only their scheduler stamps stored.

Frames (the unit the video workload cares about) are *packetised* into
fixed-size messages per section 4.2.1: a frame of ``F`` flits becomes
``ceil(F / message_size)`` messages, all of ``message_size`` flits except
possibly the last.  The network services each message independently.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

_message_ids = itertools.count()


class TrafficClass:
    """Traffic classes from the ATM taxonomy the paper adopts."""

    VBR = "vbr"
    CBR = "cbr"
    BEST_EFFORT = "best_effort"

    REAL_TIME = (VBR, CBR)
    ALL = (VBR, CBR, BEST_EFFORT)

    @staticmethod
    def is_real_time(traffic_class: str) -> bool:
        """True for the classes that carry a bandwidth reservation."""
        return traffic_class in TrafficClass.REAL_TIME


class Message:
    """One wormhole message (or, for PCS, one data burst on a circuit).

    Attributes double as the header-flit contents: destination
    (``dst_node`` plus the stream's pre-chosen destination VC), the
    Vtick bandwidth requirement, and the traffic class that selects the
    VC partition.  Bookkeeping fields (stream/frame identity, injection
    and delivery times) exist for the metrics layer.
    """

    __slots__ = (
        "msg_id",
        "src_node",
        "dst_node",
        "size",
        "last_flit",
        "vtick",
        "traffic_class",
        "stream_id",
        "frame_id",
        "frame_messages",
        "src_vc",
        "dst_vc",
        "inject_time",
        "deliver_time",
        "killed",
        "corrupted",
        "detoured",
        "trail",
    )

    def __init__(
        self,
        src_node: int,
        dst_node: int,
        size: int,
        vtick: float,
        traffic_class: str,
        stream_id: int = -1,
        frame_id: int = -1,
        frame_messages: int = 1,
        src_vc: int = 0,
        dst_vc: Optional[int] = None,
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"message size must be >= 1 flit, got {size}")
        if vtick <= 0:
            raise ConfigurationError(f"Vtick must be positive, got {vtick}")
        if traffic_class not in TrafficClass.ALL:
            raise ConfigurationError(f"unknown traffic class {traffic_class!r}")
        self.msg_id = next(_message_ids)
        self.src_node = src_node
        self.dst_node = dst_node
        self.size = size
        #: index of the tail flit, precomputed so the per-flit hot paths
        #: compare against an attribute instead of calling is_tail()
        self.last_flit = size - 1
        self.vtick = vtick
        self.traffic_class = traffic_class
        self.stream_id = stream_id
        self.frame_id = frame_id
        self.frame_messages = frame_messages
        self.src_vc = src_vc
        self.dst_vc = dst_vc
        self.inject_time = -1
        self.deliver_time = -1
        #: set by preemption: the message's remaining flits are being
        #: purged and it will be retransmitted as a fresh message
        self.killed = False
        #: set by fault injection when a flit was corrupted in transit;
        #: a sink with the end-to-end checksum enabled rejects the
        #: message at its tail flit
        self.corrupted = False
        #: adaptive-routing detour flavour (None, "xy", or "yx"): set
        #: when a header escapes a fully masked fat group, sticky for
        #: the rest of the journey, and reset by clone() so a
        #: retransmission re-routes from scratch
        self.detoured = None
        #: ids of the routers this message's header has entered, in
        #: arrival order (a detour may revisit one); every undelivered
        #: flit sits at the source NI, on its host link, in one of these
        #: routers or on one of their outgoing links, which is all
        #: ``Network.kill_message`` searches.  A tuple, extended per hop:
        #: a message that has gone nowhere (and a clone()) shares ``()``.
        self.trail: Tuple[int, ...] = ()

    @property
    def is_real_time(self) -> bool:
        """True for VBR/CBR messages."""
        return self.traffic_class in TrafficClass.REAL_TIME

    def clone(self) -> "Message":
        """A fresh copy for retransmission (preemption or recovery).

        The clone keeps the routing and stream/frame identity so the
        metrics layer attributes its delivery to the same frame, but
        gets a new message id and clean injection/delivery state.
        """
        return Message(
            src_node=self.src_node,
            dst_node=self.dst_node,
            size=self.size,
            vtick=self.vtick,
            traffic_class=self.traffic_class,
            stream_id=self.stream_id,
            frame_id=self.frame_id,
            frame_messages=self.frame_messages,
            src_vc=self.src_vc,
            dst_vc=self.dst_vc,
        )

    def is_tail(self, flit_index: int) -> bool:
        """True if ``flit_index`` names this message's tail flit."""
        return flit_index == self.last_flit

    def is_header(self, flit_index: int) -> bool:
        """True if ``flit_index`` names this message's header flit."""
        return flit_index == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(id={self.msg_id}, {self.src_node}->{self.dst_node}, "
            f"size={self.size}, class={self.traffic_class}, "
            f"stream={self.stream_id}, frame={self.frame_id})"
        )


def messages_for_frame(
    frame_flits: int,
    message_size: int,
    src_node: int,
    dst_node: int,
    vtick: float,
    traffic_class: str,
    stream_id: int,
    frame_id: int,
    src_vc: int,
    dst_vc: Optional[int],
    header_flits: int = 0,
) -> List[Message]:
    """Packetise one frame into messages (section 4.2.1).

    All messages are ``message_size`` flits except possibly the last,
    which carries the remainder.  Every message is tagged with its frame
    so the delivery tracker can detect frame completion.

    ``header_flits`` models the per-message header overhead the paper's
    Fig. 7 discusses ("1 header flit in a message size of 20 flits
    consumes 5% of the stream bandwidth"): each message carries
    ``message_size - header_flits`` flits of frame payload, and the
    header flits ride on the wire on top of the frame's payload.
    """
    if frame_flits < 1:
        raise ConfigurationError(f"frame must have >= 1 flit, got {frame_flits}")
    if message_size < 1:
        raise ConfigurationError(
            f"message size must be >= 1 flit, got {message_size}"
        )
    if not 0 <= header_flits < message_size:
        raise ConfigurationError(
            f"header flits must be in [0, message_size), got {header_flits}"
        )
    payload_per_message = message_size - header_flits
    count = math.ceil(frame_flits / payload_per_message)
    messages = []
    remaining = frame_flits
    for _ in range(count):
        payload = min(payload_per_message, remaining)
        remaining -= payload
        size = payload + header_flits
        messages.append(
            Message(
                src_node=src_node,
                dst_node=dst_node,
                size=size,
                vtick=vtick,
                traffic_class=traffic_class,
                stream_id=stream_id,
                frame_id=frame_id,
                frame_messages=count,
                src_vc=src_vc,
                dst_vc=dst_vc,
            )
        )
    return messages
