"""The pipelined wormhole router (PROUD model, paper Figs. 1 and 2).

Each cycle the router executes its stages in downstream-to-upstream
order so a flit advances at most one stage per cycle:

5. **Output VC multiplexer** — per output PC, pick one staged flit among
   the VCs with a flit and a downstream credit (contention point C) and
   put it on the link.
4. **Crossbar** — *multiplexed* crossbar: per input PC, the crossbar
   input multiplexer (contention point A, where MediaWorm runs Virtual
   Clock) picks one routed VC whose head flit can move; at most one flit
   per crossbar output port per cycle (contention point B).  *Full*
   crossbar: every routed VC with a flit and staging space moves one
   flit — its crossbar port is dedicated and the output VC is owned by a
   single message, so there is nothing to arbitrate.
3./2. **Arbitration / routing** — header flits at the head of an input
   VC compute their output port (after the routing delay) and then
   retry every cycle for a free output VC in their class partition.
1. **Sync / demux / buffer / decode** — modelled by the link latency;
   arriving flits are stamped for the crossbar-input scheduler and
   buffered (:meth:`WormholeRouter.accept_flit` is called by the link).

Activity sets (``_pending_arb``, ``_sendable``, ``_out_active``) and
the port worklists built on them (``_in_ports``, ``_out_ports``) keep
the per-cycle cost proportional to the number of busy VCs/ports rather
than the router's total VC count; :meth:`WormholeRouter.step` reports
quiescence so the network's active-set loop stops visiting an idle
router entirely until a flit arrival re-activates it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.core.schedulers import (
    MuxScheduler,
    make_scheduler,
)
from repro.errors import FlowControlError
from repro.router.buffers import NO_FLITS, InputVC, OutputVC
from repro.router.config import (
    OUTPUT_BUFFER_DEPTH,
    CrossbarKind,
    RouterConfig,
    RoutingMode,
)
from repro.router.flit import Message
from repro.router.routeprog import RouterRouteView


class WormholeRouter:
    """One wormhole-switched router instance."""

    def __init__(
        self,
        router_id: int,
        config: RouterConfig,
        route_view: RouterRouteView,
    ) -> None:
        self.router_id = router_id
        self.config = config
        #: per-router routing handle: candidate lookups without the
        #: router-id indirection, and the thin mask overlay adaptive
        #: failover mutates for this router
        self._route_view = route_view
        n = config.num_ports
        #: per-port VC lists, empty while the port is closed (see
        #: :meth:`open_output` / :meth:`open_input`) and filled in place
        #: when it opens, so bindings of a port's list stay valid
        self.inputs: List[List[InputVC]] = [[] for _ in range(n)]
        self.outputs: List[List[OutputVC]] = [[] for _ in range(n)]
        #: outgoing link per output port (wired by the network; None until then)
        self.out_links: List[Optional[object]] = [None] * n
        #: True for ports whose link ejects to a host (set when wired)
        self.is_host_port: List[bool] = [False] * n
        #: routing-mode flags (see RoutingMode): oracle consults
        #: ground-truth fault windows, adaptive consults the symptom
        #: mask and may detour over the escape VC
        self._oracle = config.routing_mode == RoutingMode.ORACLE
        self._adaptive = config.routing_mode == RoutingMode.ADAPTIVE

        multiplexed = config.crossbar == CrossbarKind.MULTIPLEXED
        # Scheduler placement per section 3.3 (point A for a multiplexed
        # crossbar, point C for a full one), overridable for ablations
        # via config.qos_placement.
        in_policy, out_policy = config.resolve_mux_policies()
        self._in_policy: MuxScheduler = make_scheduler(in_policy)
        self._out_policy: MuxScheduler = (
            self._in_policy
            if out_policy == in_policy
            else make_scheduler(out_policy)
        )
        #: per-port selectors at point A and stage 5: FIFO and Virtual
        #: Clock select without state, so every port shares the policy
        #: instance; round-robin rotation stays per multiplexer
        self._in_selectors: List[MuxScheduler] = self._selectors(
            self._in_policy, n
        )
        self._out_selectors: List[MuxScheduler] = self._selectors(
            self._out_policy, n
        )
        self._multiplexed = multiplexed
        #: flits put on each output link (utilisation probe)
        self.out_flits: List[int] = [0] * n

        # Hot-path lookup tables derived from the (immutable) config:
        # per-class VC index tuples, whether each class partition can
        # spare an escape VC, and the per-cycle stage delays.
        self._class_vcs = (
            tuple(config.vc_range_for_class(False)),
            tuple(config.vc_range_for_class(True)),
        )
        self._multi_vc = (
            len(self._class_vcs[0]) >= 2,
            len(self._class_vcs[1]) >= 2,
        )
        self._routing_delay = config.routing_delay
        self._arb_delay = config.arbitration_delay
        #: the two partition tables (inter-router port, host port) and
        #: each port's: _part[port][is_real_time] is the (normal,
        #: escape_only) pair of VC index tuples.  wire_output picks a
        #: port's table, since the escape reservation depends on
        #: is_host_port, which is only known at wiring time.
        self._partitions = (self._partition(False), self._partition(True))
        self._part = [self._partitions[False]] * n

        # Activity sets; a closed port's are the shared empty NO_FLITS.
        self._pending_arb: List[InputVC] = []
        self._sendable: List[Set[int]] = [NO_FLITS] * n
        self._out_active: List[Set[int]] = [NO_FLITS] * n
        # Port worklists: ports whose _sendable / _out_active set is
        # nonempty, so the crossbar and stage-5 loops visit only busy
        # ports instead of scanning all n every cycle.
        self._in_ports: Set[int] = set()
        self._out_ports: Set[int] = set()
        self._work = 0  # total busy indicators, for fast idle skip
        self._arb_rotate = 0
        #: activation hook fired when a flit arrival gives an idle
        #: router work; installed by the network so the cycle loop
        #: resumes stepping it
        self.on_activated: Optional[Callable[[], None]] = None
        #: trace sink installed by repro.obs.sinks.install_tracing
        self.trace = None

    # ------------------------------------------------------------------
    # wiring helpers (used by the network builder)

    def wire_output(self, port: int, link, host: bool) -> None:
        """Attach ``link`` to ``port``; ``host`` marks an ejection port."""
        self.out_links[port] = link
        self.is_host_port[port] = host
        self._part[port] = self._partitions[host]

    # ------------------------------------------------------------------
    # opening ports: a port's VCs exist once traffic needs them

    def open_output(self, port: int) -> List[OutputVC]:
        """Build output ``port``'s VCs, and the input port at the far
        end of its link, credited by them; returns the output VCs.

        Both loops call it when a header is routed to ``port``, before
        arbitration.  A port that was never opened reads as a port
        with no VCs, and an opened port is idle until a grant, which is
        what an unopened port is: opening has no simulated effect.
        Idempotent.
        """
        ovcs = self.outputs[port]
        if ovcs:
            return ovcs
        ovcs.extend(
            OutputVC(port, v, OUTPUT_BUFFER_DEPTH)
            for v in range(self.config.vcs_per_pc)
        )
        self._out_active[port] = set()
        link = self.out_links[port]
        if link is not None and link.dest_router is not None:
            ivcs = link.dest_router.open_input(link.dest_port, ovcs)
            for ovc, ivc in zip(ovcs, ivcs):
                ovc.downstream = ivc
                ovc.credits = ivc.capacity
        return ovcs

    def open_input(self, port: int, senders) -> List[InputVC]:
        """Build input ``port``'s VCs, VC ``i`` returning its credits
        to ``senders[i]`` (the upstream output VCs, or the NI's VCs on
        a host injection port); returns the input VCs.  Idempotent.
        """
        ivcs = self.inputs[port]
        if not ivcs:
            depth = self.config.flit_buffer_depth
            for sender in senders:
                ivc = InputVC(port, len(ivcs), depth)
                ivc.credit_sink = sender
                ivcs.append(ivc)
            self._sendable[port] = set()
        return ivcs

    @staticmethod
    def _selectors(policy: MuxScheduler, n: int) -> List[MuxScheduler]:
        """One selector per port: ``policy`` itself when its select
        carries no state, else a fresh instance each."""
        if policy.stateless_select:
            return [policy] * n
        return [make_scheduler(policy.policy) for _ in range(n)]

    def _partition(self, host: bool):
        """Precompute a port's (normal, escape_only) VC tuples per class.

        In adaptive mode the last VC of every multi-VC partition on a
        non-host port is reserved as the *escape* VC: only detoured
        messages may claim it (``escape_only``), and they may claim
        nothing else.  Keeping normal worms off the escape VC means a
        detoured worm can never be blocked behind traffic that is
        itself waiting on the dead dimension — the standard escape-
        channel deadlock-freedom argument.  Single-VC partitions have
        nothing to spare; detours are refused there at routing time.

        The table hoists that decision out of the arbitration loop,
        which indexes ``_part[port][is_real_time][escape_only]`` (bools
        index as 0/1).
        """
        entry = []
        for indices in self._class_vcs:
            if not self._adaptive or host or len(indices) < 2:
                entry.append((indices, indices))
            else:
                entry.append((indices[:-1], indices[-1:]))
        return tuple(entry)

    # ------------------------------------------------------------------
    # flit ingress (called by links and host interfaces)

    def accept_flit(
        self, clock: int, port: int, vc_index: int, msg: Message, flit_index: int
    ) -> None:
        """Stage-1 arrival: buffer and stamp one flit."""
        vc = self.inputs[port][vc_index]
        was_idle = not self._work
        if flit_index == 0:
            msg.trail += (self.router_id,)
            vc.accept_new_message(clock, msg)
            if len(vc.messages) == 1:
                self._pending_arb.append(vc)
                self._work += 1
        stamp = self._in_policy.stamp(clock, vc.vstate)
        vc.accept_flit(stamp)
        if vc.route_vc is not None and vc.front_has_flit:
            sendable = self._sendable[port]
            if vc_index not in sendable:
                sendable.add(vc_index)
                self._in_ports.add(port)
                self._work += 1
        if was_idle and self._work and self.on_activated is not None:
            self.on_activated()

    # ------------------------------------------------------------------
    # main per-cycle step

    def step(self, clock: int) -> int:
        """Advance every pipeline stage by one cycle.

        Returns the router's remaining activity — non-zero while any
        stage holds work, zero once quiescent (the cycle loop then
        stops stepping it until a flit arrival fires
        :attr:`on_activated`).  A busy router must step every cycle.
        """
        if self._work:
            self._stage5_output(clock)
            self._stage4_crossbar(clock)
            self._stage23_route_arbitrate(clock)
        return self._work

    @property
    def quiescent(self) -> bool:
        """True when no pipeline stage holds work."""
        return not self._work

    # -- stage 5: output VC multiplexer + link ------------------------

    def _stage5_output(self, clock: int) -> None:
        out_ports = self._out_ports
        out_active = self._out_active
        outputs = self.outputs
        trace = self.trace
        # sorted() both fixes the service order (determinism) and copies
        # the worklist, which is mutated below
        for port in sorted(out_ports):
            active = out_active[port]
            ovcs = outputs[port]
            candidates = []
            for index in active:
                ovc = ovcs[index]
                if ovc.downstream is None or ovc.credits > 0:
                    candidates.append((ovc.stamps[0], index))
            if not candidates:
                continue
            chosen = self._out_selectors[port].select(candidates)
            ovc = ovcs[chosen]
            if trace is not None:
                trace.on_event(
                    "sched",
                    clock,
                    {
                        "router": self.router_id,
                        "point": "C",
                        "port": port,
                        "policy": self._out_policy.policy,
                        "vc": chosen,
                        "stamp": ovc.stamps[0],
                        "cands": len(candidates),
                    },
                )
            msg, flit_index = ovc.pop_head()
            if ovc.downstream is not None:
                ovc.credits -= 1
            link = self.out_links[port]
            if link is None:
                raise FlowControlError(
                    f"router {self.router_id} port {port} has staged flits "
                    f"but no outgoing link"
                )
            link.send(clock, msg, flit_index, chosen)
            self.out_flits[port] += 1
            if not ovc.queue:
                active.discard(chosen)
                if not active:
                    out_ports.discard(port)
                self._work -= 1
            if flit_index == msg.last_flit:
                ovc.release()
                if trace is not None:
                    trace.on_event(
                        "vc_release",
                        clock,
                        {
                            "router": self.router_id,
                            "port": port,
                            "vc": chosen,
                            "msg": msg.msg_id,
                        },
                    )

    # -- stage 4: crossbar ---------------------------------------------

    def _stage4_crossbar(self, clock: int) -> None:
        if self._multiplexed:
            self._crossbar_multiplexed(clock)
        else:
            self._crossbar_full(clock)

    def _crossbar_multiplexed(self, clock: int) -> None:
        """Crossbar input multiplexer (contention point A).

        Per input PC, the multiplexer forwards the scheduler-preferred
        flit — at most one per cycle — into its granted output VC's
        staging buffer.  The crossbar fabric itself is modelled as
        non-blocking: commercial pipelined routers clock the fabric
        faster than the link, and the paper's router sustains loads up
        to 0.96 jitter-free, which rules out fabric matching losses.
        Bandwidth is enforced where it physically binds: one flit per
        cycle per input PC here (the mux), one flit per cycle per
        output PC at the stage-5 VC multiplexer, and back-pressure via
        the finite per-VC staging space (contention point B's queue).
        """
        inputs = self.inputs
        in_ports = self._in_ports
        sendable_sets = self._sendable
        trace = self.trace
        for port in sorted(in_ports):
            sendable = sendable_sets[port]
            if not sendable:
                continue
            port_vcs = inputs[port]
            candidates = []
            for index in sendable:
                vc = port_vcs[index]
                if vc.ready_at > clock:
                    continue
                ovc = vc.route_vc
                if len(ovc.queue) >= ovc.capacity:
                    continue
                candidates.append((vc.stamps[0], index))
            if not candidates:
                continue
            chosen = self._in_selectors[port].select(candidates)
            if trace is not None:
                trace.on_event(
                    "sched",
                    clock,
                    {
                        "router": self.router_id,
                        "point": "A",
                        "port": port,
                        "policy": self._in_policy.policy,
                        "vc": chosen,
                        "stamp": port_vcs[chosen].stamps[0],
                        "cands": len(candidates),
                    },
                )
            self._move_through_crossbar(clock, port_vcs[chosen])

    def _crossbar_full(self, clock: int) -> None:
        inputs = self.inputs
        in_ports = self._in_ports
        for port in sorted(in_ports):
            sendable = self._sendable[port]
            if not sendable:
                continue
            port_vcs = inputs[port]
            for index in list(sendable):
                vc = port_vcs[index]
                if vc.ready_at > clock:
                    continue
                ovc = vc.route_vc
                if len(ovc.queue) >= ovc.capacity:
                    continue
                self._move_through_crossbar(clock, vc)

    def _move_through_crossbar(self, clock: int, vc: InputVC) -> None:
        """Move the head flit of ``vc`` into its granted output VC."""
        ovc = vc.route_vc
        msg, flit_index = vc.pop_head()
        sink = vc.credit_sink
        if sink is not None:
            sink.credits += 1
        stamp = self._out_policy.stamp(clock, ovc.vstate)
        ovc.push(msg, flit_index, stamp)
        out_active = self._out_active[ovc.port]
        if ovc.index not in out_active:
            out_active.add(ovc.index)
            self._out_ports.add(ovc.port)
            self._work += 1
        if self.trace is not None:
            self.trace.on_event(
                "xbar",
                clock,
                {
                    "router": self.router_id,
                    "port": vc.port,
                    "vc": vc.index,
                    "out_port": ovc.port,
                    "out_vc": ovc.index,
                    "msg": msg.msg_id,
                    "flit": flit_index,
                },
            )
        if flit_index == msg.last_flit:
            self._drop_sendable(vc)
            self._work -= 1
            if vc.release_front():
                # Another message is queued behind the tail; its header
                # re-enters routing/arbitration (stages 2-3).
                self._pending_arb.append(vc)
                self._work += 1
        elif not vc.front_has_flit:
            self._drop_sendable(vc)
            self._work -= 1

    def _drop_sendable(self, vc: InputVC) -> None:
        """Remove ``vc`` from its port's crossbar worklist."""
        sendable = self._sendable[vc.port]
        sendable.discard(vc.index)
        if not sendable:
            self._in_ports.discard(vc.port)

    # -- stages 2 and 3: routing decision + output VC arbitration ------

    def _stage23_route_arbitrate(self, clock: int) -> None:
        pending = self._pending_arb
        if not pending:
            return
        # Rotate the service order so no input VC is structurally favoured
        # when several headers contend for the same output VC.
        rotate = self._arb_rotate % len(pending)
        self._arb_rotate += 1
        ordered = pending[rotate:] + pending[:rotate]
        # Re-entrant additions (a preemption freeing a VC whose next
        # message must re-arbitrate) land in the fresh list and survive.
        self._pending_arb = []
        still_waiting: List[InputVC] = []
        for vc in ordered:
            if not self._try_route_and_arbitrate(clock, vc):
                still_waiting.append(vc)
        self._pending_arb.extend(still_waiting)

    def _try_route_and_arbitrate(self, clock: int, vc: InputVC) -> bool:
        msg = vc.msg
        if msg is None:  # defensive: released while pending
            self._work -= 1
            return True
        if clock < vc.head_arrival + self._routing_delay:
            return False
        if vc.route_port < 0:
            if self._adaptive:
                ports = self._adaptive_candidates(msg)
            else:
                ports = self._route_view.candidates(msg.dst_node)
            vc.route_port = self._select_output_port(clock, ports)
            self.open_output(vc.route_port)
            if self.trace is not None:
                self.trace.on_event(
                    "route",
                    clock,
                    {
                        "router": self.router_id,
                        "port": vc.port,
                        "vc": vc.index,
                        "msg": msg.msg_id,
                        "out": vc.route_port,
                    },
                )
        escape_only = (
            self._adaptive
            and msg.detoured is not None
            and not self.is_host_port[vc.route_port]
        )
        ovc = self._arbitrate_output_vc(clock, vc.route_port, msg, escape_only)
        if ovc is None:
            return False
        if self.trace is not None:
            self.trace.on_event(
                "vc_alloc",
                clock,
                {
                    "router": self.router_id,
                    "port": ovc.port,
                    "vc": ovc.index,
                    "msg": msg.msg_id,
                },
            )
        vc.route_vc = ovc
        vc.ready_at = clock + self._arb_delay
        if vc.front_has_flit:
            sendable = self._sendable[vc.port]
            if vc.index not in sendable:
                sendable.add(vc.index)
                self._in_ports.add(vc.port)
                self._work += 1
        self._work -= 1  # leaves pending_arb
        return True

    def _adaptive_candidates(self, msg: Message):
        """Mask-aware candidate ports for ``msg`` (adaptive routing).

        Marks the message detoured when the symptom mask forces it off
        its primary route.  Shared by :meth:`step` and the fused cycle
        loop's stage 2/3, so the detour rule has one implementation.
        """
        ports, flavor = self._route_view.route_adaptive(
            msg.dst_node, msg.detoured
        )
        if flavor != msg.detoured:
            # Entering a detour needs an escape VC; a partition with a
            # single VC cannot spare one, so the worm stays on the
            # (masked) primary route and the recovery layer owns its
            # fate.
            if not self._multi_vc[msg.is_real_time]:
                ports = self._route_view.candidates(msg.dst_node)
            else:
                msg.detoured = flavor
        return ports

    def _select_output_port(self, clock: int, ports) -> int:
        """Pick among fat-link candidates by current load (section 3.4).

        Candidates whose link sits in a fault down window (a permanent
        one is a dead port) are skipped — the surviving sibling of a fat
        group absorbs the traffic.  A message whose *only* candidate is
        faulted still takes it (and its flits are lost on the dead
        wire); end-to-end recovery, not routing, owns that case.
        """
        if len(ports) == 1:
            return ports[0]
        # Oracle mode only: consult the ground-truth fault state.
        # Static mode stays blind; adaptive mode already shrank the
        # group via the symptom mask in route_adaptive.
        oracle = self._oracle
        outputs = self.outputs
        best_port = faulted_port = -1
        best_load = faulted_load = 0
        for port in ports:
            load = 0
            for ovc in outputs[port]:
                load += len(ovc.queue)
                if ovc.owner is not None:
                    load += 1
            if oracle:
                link = self.out_links[port]
                if (
                    link is not None
                    and link.faults is not None
                    and not link.is_available(clock)
                ):
                    # competes only if no sibling survives
                    if faulted_port < 0 or load < faulted_load:
                        faulted_load = load
                        faulted_port = port
                    continue
            if not load:
                # first minimum wins ties: nothing later can beat zero
                return port
            if best_port < 0 or load < best_load:
                best_load = load
                best_port = port
        return best_port if best_port >= 0 else faulted_port

    def _arbitrate_output_vc(
        self, clock: int, port: int, msg: Message, escape_only: bool = False
    ) -> Optional[OutputVC]:
        """Grant an output VC on ``port`` to ``msg``, if any.

        The destination VC chosen by the stream (section 4.2.1) is
        binding at the final hop (the host port); elsewhere any free VC
        in the message's class partition may be used.  With dynamic
        partitioning enabled, best-effort messages may also borrow a
        free real-time VC when their own partition is exhausted.  A
        real-time header of a preempting router that finds none takes
        the VC :meth:`_preempt_borrower` frees.
        """
        ovc = self._free_output_vc(port, msg, escape_only)
        if ovc is None and self.config.preemption and msg.is_real_time and not escape_only:
            ovc = self._preempt_borrower(port, msg)
        if ovc is not None:
            ovc.grant(clock, msg)
        return ovc

    def _free_output_vc(self, port: int, msg: Message, escape_only: bool) -> Optional[OutputVC]:
        """The unowned output VC of ``port`` that ``msg`` may take, if any."""
        ovcs = self.outputs[port]
        if self.is_host_port[port] and msg.dst_vc is not None:
            ovc = ovcs[msg.dst_vc]
            if ovc.is_free:
                return ovc
            # Real-time streams keep connection semantics: every message
            # of the stream uses the stream's destination VC, so they
            # serialise there (the paper's streams-per-VC capacity).
            # Best-effort messages have no connection to preserve; their
            # drawn VC is a preference, and head-of-line waiting for a
            # busy VC while sibling VCs idle would only waste grants
            # (see DESIGN.md, model fidelity notes).
            if msg.is_real_time or self.config.be_dst_vc_binding:
                return None
        for index in self._part[port][msg.is_real_time][escape_only]:
            if ovcs[index].owner is None:
                return ovcs[index]
        # A detoured worm waits for its escape VC; borrowing or
        # preempting a normal VC would defeat the reservation.
        if self.config.dynamic_partitioning and not (
            msg.is_real_time or escape_only
        ):
            for index in self._part[port][True][False]:
                if ovcs[index].owner is None:
                    return ovcs[index]
        return None

    def _preempt_borrower(self, port: int, msg: Message) -> Optional[OutputVC]:
        """Kill a best-effort borrower for real-time ``msg`` on ``port``;
        the output VC ``msg`` takes afterwards, or None (nothing killed).

        The one kill rule, called by :meth:`_arbitrate_output_vc` and
        the fused loop's stage 2/3 for a real-time, non-detoured header
        of a preempting router that found no VC it may take.

        * A header bound to its destination VC on a host port may kill
          only that VC's owner, and takes that VC.  Stream traffic
          always binds its destination VC, so this is the dominant case.
        * Otherwise the victim is the first best-effort owner of a
          real-time VC of the port (dynamic partitioning lets
          best-effort borrow them), and the header takes the first free
          VC of the port's real-time partition after the kill.

        ``on_preempt`` kills the victim network-wide (dropping its
        remaining flits everywhere) and schedules its retransmission,
        which frees the victim's VC here.
        """
        ovcs = self.outputs[port]
        if self.is_host_port[port] and msg.dst_vc is not None:
            owned = takes = (msg.dst_vc,)
        else:
            owned = self._class_vcs[True]
            takes = self._part[port][True][False]
        for index in owned:
            victim = ovcs[index].owner
            if victim is not None and not victim.is_real_time:
                break
        else:
            return None
        self.on_preempt(victim)
        for index in takes:
            if ovcs[index].owner is None:
                return ovcs[index]
        return None

    # ------------------------------------------------------------------
    # preemption support

    def purge_message(self, msg: Message) -> int:
        """Remove every trace of a killed message from this router.

        Returns the number of flits dropped (input buffers + staging).
        Credits consumed by dropped input-buffer flits are returned to
        the upstream sender; scheduler activity sets are repaired.
        """
        dropped = 0
        for port, port_vcs in enumerate(self.inputs):
            for vc in port_vcs:
                if not any(rec.msg is msg for rec in vc.messages):
                    continue
                was_front = vc.messages[0].msg is msg
                had_grant = was_front and vc.route_vc is not None
                removed = vc.purge_message(msg)
                dropped += removed
                if vc.credit_sink is not None:
                    vc.credit_sink.credits += removed
                if had_grant:
                    if vc.index in self._sendable[port]:
                        self._drop_sendable(vc)
                        self._work -= 1
                if was_front:
                    if vc in self._pending_arb:
                        self._pending_arb.remove(vc)
                        self._work -= 1
                    if vc.messages:
                        # the next message's header re-enters stage 2/3
                        self._pending_arb.append(vc)
                        self._work += 1
        for port_ovcs in self.outputs:
            for ovc in port_ovcs:
                if ovc.owner is msg:
                    staged = ovc.purge_owner(msg)
                    dropped += staged
                    if staged == 0 or not ovc.queue:
                        active = self._out_active[ovc.port]
                        if ovc.index in active:
                            active.discard(ovc.index)
                            if not active:
                                self._out_ports.discard(ovc.port)
                            self._work -= 1
        return dropped

    #: hook(msg) -> None installed by a network whose config sets
    #: ``preemption``: kills and retransmits a preemption victim
    on_preempt: Optional[Callable[[Message], None]] = None

    # ------------------------------------------------------------------
    # introspection / audit helpers

    def buffered_flits(self) -> int:
        """Total flits held in this router's buffers (audit hook)."""
        total = 0
        for port_vcs in self.inputs:
            for vc in port_vcs:
                total += vc.occupancy
        for port_ovcs in self.outputs:
            for ovc in port_ovcs:
                total += len(ovc.queue)
        return total

    def check_invariants(self) -> None:
        """Validate every buffer's bookkeeping (test hook)."""
        for port_vcs in self.inputs:
            for vc in port_vcs:
                vc.check_invariants()
        for port_ovcs in self.outputs:
            for ovc in port_ovcs:
                ovc.check_invariants()
        in_ports = {p for p, vcs in enumerate(self._sendable) if vcs}
        out_ports = {p for p, vcs in enumerate(self._out_active) if vcs}
        if self._in_ports != in_ports or self._out_ports != out_ports:
            raise FlowControlError(
                f"router {self.router_id} port worklists drifted: "
                f"in {sorted(self._in_ports)} vs {sorted(in_ports)}, "
                f"out {sorted(self._out_ports)} vs {sorted(out_ports)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WormholeRouter(id={self.router_id}, ports={self.config.num_ports}, "
            f"vcs={self.config.vcs_per_pc}, xbar={self.config.crossbar})"
        )
