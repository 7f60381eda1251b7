"""Router configuration (the knobs of Table 1 plus design options)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError


#: flits each output VC stages between the crossbar and its link
OUTPUT_BUFFER_DEPTH = 2

#: cycles a preempted message waits before its retransmission is
#: injected again (kill-and-retransmit backoff)
PREEMPTION_BACKOFF = 64


class QosPlacement:
    """Where the QoS scheduler runs (the paper's section 3.3 analysis).

    * ``AUTO`` — the paper's choice: contention point A (crossbar input
      multiplexer) for a multiplexed crossbar, point C (the output VC
      multiplexer) for a full crossbar.
    * ``INPUT_MUX`` — force point A only.
    * ``VC_MUX`` — force point C only (the placement the paper argues
      is weak for a multiplexed crossbar, since at most one VC of an
      output PC receives a flit per cycle there).
    * ``BOTH`` — points A and C simultaneously.
    * ``NONE`` — FIFO everywhere regardless of ``qos_policy`` (a
      placement-level ablation control).
    """

    AUTO = "auto"
    INPUT_MUX = "input_mux"
    VC_MUX = "vc_mux"
    BOTH = "both"
    NONE = "none"

    ALL = (AUTO, INPUT_MUX, VC_MUX, BOTH, NONE)


class CrossbarKind:
    """Crossbar design options from section 3.2 of the paper.

    * ``MULTIPLEXED`` — ``n x n`` crossbar; the VCs of each input PC
      share one crossbar input port through a multiplexer (contention
      point A), and the QoS scheduler runs there.
    * ``FULL`` — ``(n*m) x (n*m)`` crossbar; every VC has a dedicated
      crossbar port, so the only shared resource is the output physical
      channel and the QoS scheduler runs at the VC multiplexer
      (contention point C).
    """

    MULTIPLEXED = "multiplexed"
    FULL = "full"

    ALL = (MULTIPLEXED, FULL)


class RoutingMode:
    """How routing reacts to link failures.

    * ``ORACLE`` — the PR-1 behaviour (and the default, so existing
      runs stay bit-identical): port selection consults
      ``Link.is_available``, i.e. the ground-truth fault windows.  Fat
      groups dodge a down sibling instantly, but with perfect
      knowledge no real router has.
    * ``STATIC`` — no fault awareness at all.  Routing ignores link
      state; a failed link is a black hole until end-to-end recovery
      retries (and retries re-roll the same route).  The honest
      baseline for the failover campaign.
    * ``ADAPTIVE`` — symptom-based: the link-health monitor
      (:mod:`repro.network.health`) masks ports it infers down from
      observable evidence, routing falls back to detour tables on the
      escape VC when a fat group empties, and worms stuck on a newly
      masked port are killed and requeued.
    """

    ORACLE = "oracle"
    STATIC = "static"
    ADAPTIVE = "adaptive"

    ALL = (ORACLE, STATIC, ADAPTIVE)


@dataclass
class RouterConfig:
    """Static configuration of one wormhole router.

    Defaults follow Table 1: an 8-port switch with 32-bit flits, 20-flit
    messages, and a variable number of VCs per PC (16 in most studies).

    ``rt_vc_count`` implements the paper's static VC partitioning: VCs
    ``0 .. rt_vc_count-1`` of every PC are reserved for real-time (VBR /
    CBR) messages and the rest serve best-effort.  ``None`` means all
    VCs are available to every class (used by single-class studies).
    """

    num_ports: int = 8
    vcs_per_pc: int = 16
    flit_buffer_depth: int = 8
    crossbar: str = CrossbarKind.MULTIPLEXED
    qos_policy: str = SchedulingPolicy.VIRTUAL_CLOCK
    qos_placement: str = QosPlacement.AUTO
    rt_vc_count: Optional[int] = None
    #: cycles spent in the routing-decision stage (stage 2)
    routing_delay: int = 1
    #: additional cycles for a successful arbitration (stage 3)
    arbitration_delay: int = 1
    #: when True, best-effort messages may claim an idle real-time VC
    #: (dynamic partitioning — a future-work extension, off by default)
    dynamic_partitioning: bool = False
    #: when True, a best-effort message waits for exactly the output VC
    #: it drew at the destination port instead of falling back to any
    #: free best-effort VC; real-time streams always bind (connection
    #: semantics)
    be_dst_vc_binding: bool = False
    #: when True, a real-time header that finds every real-time VC busy
    #: may preempt a best-effort message that borrowed one (kill and
    #: retransmit) — the paper's future-work item for dynamic mixes;
    #: meaningful together with ``dynamic_partitioning``; the victim
    #: is re-injected after :data:`PREEMPTION_BACKOFF` cycles
    preemption: bool = False
    #: how port selection reacts to link failures (see RoutingMode)
    routing_mode: str = RoutingMode.ORACLE

    def __post_init__(self) -> None:
        if self.num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {self.num_ports}")
        if self.vcs_per_pc < 1:
            raise ConfigurationError(
                f"vcs_per_pc must be >= 1, got {self.vcs_per_pc}"
            )
        if self.flit_buffer_depth < 1:
            raise ConfigurationError(
                f"flit_buffer_depth must be >= 1, got {self.flit_buffer_depth}"
            )
        if self.crossbar not in CrossbarKind.ALL:
            raise ConfigurationError(
                f"crossbar must be one of {CrossbarKind.ALL}, got {self.crossbar!r}"
            )
        if self.qos_policy not in SchedulingPolicy.ALL:
            raise ConfigurationError(
                f"qos_policy must be one of {SchedulingPolicy.ALL}, "
                f"got {self.qos_policy!r}"
            )
        if self.qos_placement not in QosPlacement.ALL:
            raise ConfigurationError(
                f"qos_placement must be one of {QosPlacement.ALL}, "
                f"got {self.qos_placement!r}"
            )
        if self.rt_vc_count is not None and not (
            0 <= self.rt_vc_count <= self.vcs_per_pc
        ):
            raise ConfigurationError(
                f"rt_vc_count must be in [0, {self.vcs_per_pc}], "
                f"got {self.rt_vc_count}"
            )
        if self.routing_delay < 0 or self.arbitration_delay < 0:
            raise ConfigurationError("pipeline delays must be non-negative")
        if self.routing_mode not in RoutingMode.ALL:
            raise ConfigurationError(
                f"routing_mode must be one of {RoutingMode.ALL}, "
                f"got {self.routing_mode!r}"
            )

    def vc_range_for_class(self, is_real_time: bool) -> range:
        """VC indices a message of the given class may be assigned to."""
        if self.rt_vc_count is None:
            return range(self.vcs_per_pc)
        if is_real_time:
            return range(self.rt_vc_count)
        return range(self.rt_vc_count, self.vcs_per_pc)

    @property
    def header_pipeline_delay(self) -> int:
        """Cycles a header spends in stages 2-3 before the crossbar."""
        return self.routing_delay + self.arbitration_delay

    def resolve_mux_policies(self) -> "tuple[str, str]":
        """Effective ``(input_mux, vc_mux)`` scheduling policies.

        Applies the ``qos_placement`` rule to ``qos_policy``; the
        non-QoS point always falls back to FIFO, the conventional
        wormhole multiplexer.
        """
        fifo = SchedulingPolicy.FIFO
        placement = self.qos_placement
        if placement == QosPlacement.AUTO:
            if self.crossbar == CrossbarKind.MULTIPLEXED:
                return self.qos_policy, fifo
            return fifo, self.qos_policy
        if placement == QosPlacement.INPUT_MUX:
            return self.qos_policy, fifo
        if placement == QosPlacement.VC_MUX:
            return fifo, self.qos_policy
        if placement == QosPlacement.BOTH:
            return self.qos_policy, self.qos_policy
        return fifo, fifo

    @property
    def ni_policy(self) -> str:
        """Scheduler for the host interface's injection multiplexer.

        The NI link mux is the upstream counterpart of a router's VC
        multiplexer; it follows the QoS policy unless placement is
        ``NONE`` (the all-FIFO ablation).
        """
        if self.qos_placement == QosPlacement.NONE:
            return SchedulingPolicy.FIFO
        return self.qos_policy
