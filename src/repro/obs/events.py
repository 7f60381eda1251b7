"""Typed trace-event taxonomy for the observability layer.

Every instrumentation point in the simulator emits one of the event
kinds below.  An event is a flat record — ``kind``, ``cycle``, plus the
kind's fixed field set — so a JSONL stream of them is trivially
greppable/jq-able and the schema can be validated mechanically
(:func:`validate_event`, used by ``mediaworm trace`` and the test
suite).

The taxonomy follows the flit lifecycle through the PROUD pipeline:

========== ==========================================================
kind        emitted when
========== ==========================================================
flit_inject an NI puts one flit on its host-injection link
route       a header flit's routing decision completes (stage 2)
vc_alloc    an output VC is granted to a message (stage 3)
sched       a multiplexer scheduler picks among >=1 candidate VCs
            (``point`` ``A`` = crossbar input mux, ``C`` = output VC
            mux; carries the policy so Virtual Clock ticks and FIFO
            picks are distinguishable)
xbar        one flit crosses the crossbar into its output VC (stage 4)
link_tx     one flit leaves a router output port onto a link (stage 5)
vc_release  a tail flit frees its output VC
flit_eject  a destination host sink consumes one flit
flit_lost   a link fault (or down window) destroyed an in-flight flit
flit_corrupt a link fault corrupted a delivered flit
purge       ``Network.kill_message`` dropped a message's live flits
retransmit  the end-to-end transport retried (or abandoned) a message
health      a link-health record changed state (up/suspect/down/...)
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, InvariantViolation

FLIT_INJECT = "flit_inject"
FLIT_EJECT = "flit_eject"
ROUTE = "route"
VC_ALLOC = "vc_alloc"
VC_RELEASE = "vc_release"
SCHED = "sched"
XBAR = "xbar"
LINK_TX = "link_tx"
FLIT_LOST = "flit_lost"
FLIT_CORRUPT = "flit_corrupt"
PURGE = "purge"
RETRANSMIT = "retransmit"
HEALTH = "health"

#: field name -> accepted python types, per event kind.  ``bool`` is
#: listed explicitly where meant (bool is an int subclass, so int
#: fields accept it implicitly — but not the reverse).
EVENT_SCHEMA: Dict[str, Dict[str, tuple]] = {
    FLIT_INJECT: {
        "node": (int,),
        "vc": (int,),
        "msg": (int,),
        "flit": (int,),
        "size": (int,),
        "cls": (str,),
    },
    FLIT_EJECT: {
        "node": (int,),
        "msg": (int,),
        "flit": (int,),
        "tail": (bool,),
    },
    ROUTE: {
        "router": (int,),
        "port": (int,),
        "vc": (int,),
        "msg": (int,),
        "out": (int,),
    },
    VC_ALLOC: {
        "router": (int,),
        "port": (int,),
        "vc": (int,),
        "msg": (int,),
    },
    VC_RELEASE: {
        "router": (int,),
        "port": (int,),
        "vc": (int,),
        "msg": (int,),
    },
    SCHED: {
        "router": (int,),
        "point": (str,),
        "port": (int,),
        "policy": (str,),
        "vc": (int,),
        "stamp": (int, float),
        "cands": (int,),
    },
    XBAR: {
        "router": (int,),
        "port": (int,),
        "vc": (int,),
        "out_port": (int,),
        "out_vc": (int,),
        "msg": (int,),
        "flit": (int,),
    },
    LINK_TX: {
        "link": (str,),
        "msg": (int,),
        "flit": (int,),
        "vc": (int,),
        "arrive": (int,),
    },
    FLIT_LOST: {
        "link": (str,),
        "msg": (int,),
        "flit": (int,),
        "down": (bool,),
    },
    FLIT_CORRUPT: {
        "link": (str,),
        "msg": (int,),
        "flit": (int,),
    },
    PURGE: {
        "msg": (int,),
        "dropped": (int,),
        "ni": (int,),
    },
    RETRANSMIT: {
        "msg": (int,),
        "clone": (int,),
        "retries": (int,),
        "delay": (int,),
        "abandoned": (bool,),
    },
    HEALTH: {
        "link": (str,),
        "state": (str,),
        "prev": (str,),
    },
}

ALL_EVENTS: Tuple[str, ...] = tuple(sorted(EVENT_SCHEMA))


def check_event_names(names) -> Tuple[str, ...]:
    """Validate a collection of event-kind names; return it as a tuple."""
    names = tuple(names)
    unknown = [name for name in names if name not in EVENT_SCHEMA]
    if unknown:
        raise ConfigurationError(
            f"unknown trace event kind(s) {unknown!r}; "
            f"known kinds: {', '.join(ALL_EVENTS)}"
        )
    return names


def validate_event(record: dict) -> None:
    """Raise :class:`InvariantViolation` unless ``record`` fits the schema.

    A record is the flat JSONL form: ``kind``, a non-negative integer
    ``cycle``, and exactly the kind's field set with the right types.
    """
    kind = record.get("kind")
    schema = EVENT_SCHEMA.get(kind)
    if schema is None:
        raise InvariantViolation(f"unknown trace event kind {kind!r}")
    cycle = record.get("cycle")
    if type(cycle) is not int or cycle < 0:
        raise InvariantViolation(
            f"{kind}: cycle must be a non-negative int, got {cycle!r}"
        )
    expected = set(schema)
    actual = set(record) - {"kind", "cycle"}
    if actual != expected:
        raise InvariantViolation(
            f"{kind}: field set mismatch: missing {sorted(expected - actual)}, "
            f"unexpected {sorted(actual - expected)}"
        )
    for name, types in schema.items():
        value = record[name]
        if bool not in types and isinstance(value, bool):
            raise InvariantViolation(
                f"{kind}.{name}: expected {types}, got bool {value!r}"
            )
        if not isinstance(value, types):
            raise InvariantViolation(
                f"{kind}.{name}: expected {types}, got {type(value).__name__} "
                f"{value!r}"
            )


@dataclass(frozen=True)
class TraceSpec:
    """Experiment-level tracing request (picklable, sweep-safe).

    ``path`` — JSONL event stream destination (``None`` = no file).
    ``events`` — event kinds to record (``None`` = all).  Filtering
    happens in the file/ring sinks, never in the emission hooks, so an
    :class:`~repro.obs.invariants.InvariantChecker` riding the same run
    always sees the full stream.
    ``chrome_path`` — also export a Chrome-trace/Perfetto JSON timeline.
    ``check`` — ride an :class:`~repro.obs.invariants.InvariantChecker`
    on the run and audit the conservation ledger when it finishes.
    """

    path: Optional[str] = None
    events: Optional[Tuple[str, ...]] = None
    chrome_path: Optional[str] = None
    check: bool = False

    def __post_init__(self) -> None:
        if self.events is not None:
            object.__setattr__(
                self, "events", check_event_names(self.events)
            )
