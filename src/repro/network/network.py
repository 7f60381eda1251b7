"""The network simulator: wired routers + hosts + the cycle loop.

``Network`` owns everything that moves flits: routers, links, host
interfaces and sinks, the injection event heap, and the global cycle
counter.  The cycle loop (:class:`repro.sim.fused.FusedLoop`) visits
only the *active* set each cycle — links with in-flight flits due, NIs
with backlog, routers with busy stages — and jumps the clock to the
next component wake time (or injection event) whenever nothing is
runnable, so simulation cost tracks activity, not topology size or
wall-clock span.

That is the only loop a network owns.  The full scan it must stay
bit-identical to lives outside, as a function of a network
(:func:`repro.sim.reference.run_reference`; see
``docs/simulator-internals.md`` and the parity suite in
``tests/test_engine.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    InvariantViolation,
    PortCountError,
    SimulationError,
)
from repro.network.health import UP
from repro.network.interface import HostInterface, HostSink
from repro.network.link import DEFAULT_LINK_LATENCY, Link
from repro.network.topology import Topology
from repro.router.buffers import NO_FLITS
from repro.router.config import PREEMPTION_BACKOFF, RouterConfig
from repro.router.flit import Message
from repro.router.routeprog import CompiledRouting
from repro.router.router import WormholeRouter
from repro.sim.activation import ActivationScheduler
from repro.sim.events import EventHeap
from repro.sim.fused import PHASES, FusedLoop
from repro.sim.gcquiet import gc_quiet


class Network:
    """A wormhole network instance ready to simulate."""

    def __init__(
        self,
        topology: Topology,
        config: RouterConfig,
        on_message: Optional[Callable[[Message, int], None]] = None,
        watchdog_window: Optional[int] = None,
    ) -> None:
        self.topology = topology
        if config.num_ports != topology.ports_per_router:
            raise PortCountError(
                f"config.num_ports={config.num_ports} does not match the "
                f"topology's ports_per_router={topology.ports_per_router}; "
                f"build the config with "
                f"num_ports={topology.ports_per_router}"
            )
        self.config = config
        self.clock = 0
        #: cycles the loop actually executed; ``clock - cycles_executed``
        #: is the number it jumped over
        self.cycles_executed = 0
        #: wall seconds the cycle loop spent in each phase call, keyed
        #: by ``repro.sim.fused.PHASES``; banked with ``cycles_executed``
        #: (the reference stepper leaves it at zero)
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self.events = EventHeap()
        self._flits_in_flight = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.flits_dropped = 0
        #: flits lost to injected link faults (subset of flits_dropped)
        self.flits_lost = 0
        #: flits delivered with fault-injected corruption
        self.flits_corrupted = 0
        self.messages_delivered = 0
        self.preemptions = 0
        #: progress watchdog: raise DeadlockError when no flit is
        #: delivered for this many cycles while flits are in flight
        #: (None disables the check)
        if watchdog_window is not None and watchdog_window < 1:
            raise ConfigurationError(
                f"watchdog_window must be >= 1 cycle, got {watchdog_window}"
            )
        self.watchdog_window = watchdog_window
        self._stall_clock = 0
        #: FaultInjector installed by repro.faults.install_faults
        self.fault_injector = None
        #: EndToEndTransport installed by repro.faults.install_recovery
        self.transport = None
        #: LinkHealthMonitor installed by repro.network.health
        self.health_monitor = None
        #: host nodes the failover layer has declared unreachable
        #: (sessions shed; transport charges their abandons separately)
        self.isolated_hosts: "set[int]" = set()
        #: trace sink installed by repro.obs.sinks.install_tracing (purge events)
        self.trace = None
        self._on_message = on_message

        #: this network's private routing state: shares the topology's
        #: compiled route program but owns its mask overlays and
        #: reroute/detour counters, so topologies cached across runs
        #: (sweep workers, repeat digests) never leak failover state
        #: between networks
        self.routing = CompiledRouting(topology.route_program)
        self.routers: List[WormholeRouter] = [
            WormholeRouter(rid, config, self.routing.router_view(rid))
            for rid in range(topology.num_routers)
        ]
        self.links: List[Link] = []
        self.interfaces: Dict[int, HostInterface] = {}
        self.sinks: Dict[int, HostSink] = {}

        self._wire_hosts()
        self._wire_channels()
        self._check_wiring()
        if config.preemption:
            for router in self.routers:
                router.on_preempt = self._preempt

        #: the fused cycle loop's bindings, built at the first
        #: :meth:`run` so construction cost stays out of setup and a
        #: network only ever driven by the reference stepper never
        #: pays it
        self._loop: Optional[FusedLoop] = None
        # Activation schedulers, one per component kind — kept separate
        # because the dispatch order (links, then NIs, then routers)
        # must let a link delivery activate its destination router
        # within the same cycle.  Registration ids follow the reference
        # stepper's iteration order (link list index, NI wiring order,
        # router id) so sorted active subsets replay the full scan's
        # order exactly — the bit-identical contract.  NI and router
        # activation hooks are bound ``activate`` calls; link wake hooks
        # also feed the cycle loop's head mirror, so it installs them;
        # sinks are passive (driven by their ejection link) and never
        # register.
        self._link_sched = ActivationScheduler()
        self._ni_sched = ActivationScheduler()
        self._router_sched = ActivationScheduler()
        self._ni_list: List[HostInterface] = list(self.interfaces.values())
        #: NI activation id by host node, for the kill path's repair
        self._ni_ids: Dict[int, int] = {}
        for link in self.links:
            link.index = self._link_sched.register(link)
        for ni in self._ni_list:
            cid = self._ni_sched.register(ni)
            ni.on_activated = partial(self._ni_sched.activate, cid)
            self._ni_ids[ni.node_id] = cid
        for router in self.routers:
            cid = self._router_sched.register(router)
            router.on_activated = partial(self._router_sched.activate, cid)

    # ------------------------------------------------------------------
    # construction

    def _wire_hosts(self) -> None:
        depth = self.config.flit_buffer_depth
        for node, rid, port in self.topology.hosts:
            router = self.routers[rid]
            # Injection: NI -> router input port.
            in_link = Link(
                dest_router=router,
                dest_port=port,
                latency=DEFAULT_LINK_LATENCY,
                label=f"host{node}:inject",
            )
            ni = HostInterface(
                node_id=node,
                vcs_per_pc=self.config.vcs_per_pc,
                buffer_depth=depth,
                policy=self.config.ni_policy,
                link=in_link,
            )
            # Ejection: router output port -> host sink.
            sink = HostSink(
                node_id=node,
                on_message=self._message_delivered,
                on_flit=self._flit_ejected,
            )
            out_link = Link(sink=sink, latency=DEFAULT_LINK_LATENCY, label=f"host{node}:eject")
            out_link.src_router = router
            out_link.src_port = port
            router.wire_output(port, out_link, host=True)
            # Host ports have no downstream router buffer; the sink
            # consumes at link rate, so output VCs are never credit
            # limited there (downstream stays None).
            self.links.extend((in_link, out_link))
            self.interfaces[node] = ni
            self.sinks[node] = sink

    def _wire_channels(self) -> None:
        for src_r, src_p, dst_r, dst_p in self.topology.channels:
            src = self.routers[src_r]
            dst = self.routers[dst_r]
            link = Link(
                dest_router=dst,
                dest_port=dst_p,
                latency=DEFAULT_LINK_LATENCY,
                label=f"ch:{src_r}.{src_p}->{dst_r}.{dst_p}",
            )
            link.src_router = src
            link.src_port = src_p
            src.wire_output(src_p, link, host=False)
            self.links.append(link)

    def _check_wiring(self) -> None:
        host_ports = {(rid, port) for _, rid, port in self.topology.hosts}
        channel_out = {(r, p) for r, p, _, _ in self.topology.channels}
        for router in self.routers:
            for port, link in enumerate(router.out_links):
                wired = (router.router_id, port) in host_ports or (
                    router.router_id,
                    port,
                ) in channel_out
                if wired and link is None:
                    raise ConfigurationError(
                        f"router {router.router_id} port {port} left unwired"
                    )

    # ------------------------------------------------------------------
    # injection API

    def inject_now(self, msg: Message) -> None:
        """Hand a message to its source NI at the current cycle."""
        ni = self.interfaces.get(msg.src_node)
        if ni is None:
            raise ConfigurationError(f"unknown source node {msg.src_node}")
        if msg.dst_node not in self.sinks:
            raise ConfigurationError(f"unknown destination node {msg.dst_node}")
        ni.inject(self.clock, msg)
        self._flits_in_flight += msg.size
        self.flits_injected += msg.size
        if self.transport is not None:
            self.transport.on_inject(msg)

    def schedule_message(self, time: int, msg: Message) -> None:
        """Schedule a message injection at an absolute cycle."""
        if time < self.clock:
            raise SimulationError(
                f"cannot schedule at {time}; clock is already {self.clock}"
            )
        self.events.schedule(time, lambda m=msg: self.inject_now(m))

    def schedule_call(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule an arbitrary callback (used by traffic sources)."""
        if time < self.clock:
            raise SimulationError(
                f"cannot schedule at {time}; clock is already {self.clock}"
            )
        self.events.schedule(time, fn)

    # ------------------------------------------------------------------
    # preemption (kill and retransmit)

    def kill_message(self, msg: Message) -> int:
        """Purge a message's undelivered flits everywhere it may live.

        Returns the number of flits dropped.  The message is marked
        ``killed`` so nothing re-buffers it; the caller decides whether
        to retransmit (see :meth:`_preempt`).
        """
        if msg.killed:
            raise SimulationError(f"message {msg.msg_id} already killed")
        if msg.deliver_time >= 0:
            raise SimulationError(
                f"message {msg.msg_id} was already delivered"
            )
        msg.killed = True
        # A flit of the worm can be in three places only: still queued
        # at the source NI (or on its host link), buffered in a router
        # its header has entered, or on a wire leaving one of those
        # routers.  ``msg.trail`` names the routers, so the purge costs
        # what the worm touched, whatever the size of the fabric.
        dropped = ni_dropped = 0
        links: List[Link] = []
        ni = self.interfaces.get(msg.src_node)
        if ni is not None:
            dropped = ni_dropped = ni.purge_message(msg)
            links.append(ni.link)
        # dict.fromkeys: a detoured worm's trail may revisit a router
        routers = [self.routers[rid] for rid in dict.fromkeys(msg.trail)]
        for router in routers:
            links.extend(link for link in router.out_links if link is not None)
        for link in links:
            dropped_vcs = link.purge_message(msg)
            dropped += len(dropped_vcs)
            # flits on a router-bound wire consumed a credit they will
            # never occupy; hand each back to the sender-side VC (the
            # NI VC for host links, the upstream OutputVC for
            # inter-router wires — both are the input VC's credit sink)
            if dropped_vcs and link.dest_router is not None:
                for vc_index in dropped_vcs:
                    sender = link.dest_router.inputs[link.dest_port][
                        vc_index
                    ].credit_sink
                    if sender is not None:
                        sender.credits += 1
        for router in routers:
            dropped += router.purge_message(msg)
        self._flits_in_flight -= dropped
        self.flits_dropped += dropped
        if self.trace is not None:
            self.trace.on_event(
                "purge",
                self.clock,
                {"msg": msg.msg_id, "dropped": dropped, "ni": ni_dropped},
            )
        # A purge can both quiesce components (emptied buffers) and
        # create work (a queued message re-entering arbitration), so
        # re-derive the activation records of what it touched.  Kills
        # are not rare on a faulted fabric (one per lost worm, 17 426
        # in a switch-kill campaign), which is why this is per worm too.
        if ni is not None:
            cid = self._ni_ids[msg.src_node]
            if ni.has_backlog:
                self._ni_sched.activate(cid)
            else:
                self._ni_sched.deactivate(cid)
        for router in routers:
            if router.quiescent:
                self._router_sched.deactivate(router.router_id)
            else:
                self._router_sched.activate(router.router_id)
        if self._loop is not None:
            # The purge edited wires and released output VCs behind the
            # cycle loop's head mirror, link active set and free-VC
            # counts (the link side of activity belongs to the loop).
            self._loop.resync(links, routers)
        return dropped

    def _kill_and_requeue(self, msg: Message) -> None:
        """Kill ``msg`` and schedule a clone's injection after the backoff."""
        self.kill_message(msg)
        clone = msg.clone()
        self.events.schedule(
            self.clock + PREEMPTION_BACKOFF,
            lambda m=clone: self.inject_now(m),
        )

    def _preempt(self, victim: Message) -> None:
        """Router hook: kill ``victim`` and schedule its retransmission."""
        self._kill_and_requeue(victim)
        self.preemptions += 1

    def requeue_stuck_worms(self, router, port: int, link=None) -> int:
        """Kill-and-requeue every worm wedged on a newly masked port.

        Called by the health monitor when adaptive routing marks
        ``router``'s output ``port`` down.  Worms already granted the
        port (output-VC owners, flits on the dead wire) would otherwise
        block their input VCs until the watchdog fires; killing them
        frees the buffers and the retransmission path redelivers the
        clone over a healthy route.  Headers that were routed to the
        port but not yet granted are simply re-routed: clearing
        ``route_port`` makes the next arbitration pass consult the
        (now masked) routing function again.
        """
        victims: "list[Message]" = []
        seen: "set[int]" = set()
        for ovc in router.outputs[port]:
            owner = ovc.owner
            if owner is not None and owner.msg_id not in seen:
                seen.add(owner.msg_id)
                victims.append(owner)
        if link is not None:
            for entry in link.pending:
                msg = entry[1]
                if msg.msg_id not in seen:
                    seen.add(msg.msg_id)
                    victims.append(msg)
        for vcs in router.inputs:
            for vc in vcs:
                if vc.route_port == port and vc.route_vc is None:
                    vc.route_port = -1
                    if vc.msg is not None:
                        vc.msg.detoured = None
        requeued = 0
        for msg in victims:
            if msg.killed or msg.deliver_time >= 0:
                continue
            if self.transport is not None:
                # End-to-end recovery owns the retry budget and stats.
                self.transport.on_loss(msg)
            else:
                self._kill_and_requeue(msg)
            requeued += 1
        return requeued

    # ------------------------------------------------------------------
    # bookkeeping callbacks

    def _flit_ejected(self, count: int) -> None:
        self._flits_in_flight -= count
        self.flits_ejected += count

    def _flit_lost(self, count: int) -> None:
        """A link fault destroyed ``count`` in-flight flits."""
        self._flits_in_flight -= count
        self.flits_dropped += count
        self.flits_lost += count

    def _flit_corrupted(self, count: int) -> None:
        """A link fault corrupted ``count`` delivered flits."""
        self.flits_corrupted += count

    def _message_delivered(self, msg: Message, clock: int) -> None:
        self.messages_delivered += 1
        if self.transport is not None:
            self.transport.on_delivered(msg)
        if self._on_message is not None:
            self._on_message(msg, clock)

    # ------------------------------------------------------------------
    # the cycle loop

    def run(self, until: int) -> None:
        """Advance the simulation to cycle ``until``.

        Visits, per executed cycle, only the links with a delivery due,
        the NIs with backlog, and the routers with busy stages — in the
        full-scan order, so results are bit-identical to
        :func:`repro.sim.reference.run_reference`.  When nothing is
        runnable the clock jumps to the earliest wake time (link
        arrival or scheduled event); :attr:`cycles_executed` counts the
        cycles that were not jumped over.

        With :attr:`watchdog_window` set, the loop tracks delivery
        progress (flits handed over by links) and raises
        :class:`DeadlockError` when flits are in flight but nothing has
        been delivered for a full window — a wedged network (credit
        starvation, a worm broken by a link fault, a routing cycle)
        fails fast with a diagnostic dump instead of spinning to the
        horizon.  Clock jumps are capped at ``stall_clock +
        watchdog_window`` so the error fires at exactly the cycle the
        full scan would have raised it.
        """
        if self._loop is None:
            # The bindings live as long as the network: no collector
            # pass over the (already large) graph while they are built.
            with gc_quiet():
                self._loop = FusedLoop(self)
        self._loop.run(until)

    def _watchdog_fire(self, clock: int, stall_clock: int, watchdog: int):
        """Persist loop state and raise the no-progress DeadlockError."""
        self._stall_clock = stall_clock
        self.clock = clock
        raise DeadlockError(
            f"no flit delivered for {clock - stall_clock} cycles "
            f"(watchdog window {watchdog}) at cycle {clock} with "
            f"{self._flits_in_flight} flits in flight\n"
            + self.stall_report()
        )

    def run_until_drained(
        self, max_extra: int = 10_000_000, drain_events: bool = False
    ) -> None:
        """Run until no flit remains in the network (bounded).

        By default pending *future* events (e.g. a stream's next frame)
        do not count as undrained — the criterion is that every flit
        already offered has reached its destination.  With
        ``drain_events=True`` the clock also chases scheduled events
        until the heap is empty, which is only sensible for workloads
        with a finite injection schedule.
        """
        deadline = self.clock + max_extra
        while self.clock < deadline:
            if self._flits_in_flight == 0:
                next_event = self.events.next_time() if drain_events else None
                if next_event is None:
                    return
                self.run(min(deadline, next_event + 1))
                continue
            self.run(min(deadline, self.clock + 4096))
        raise SimulationError(
            f"network failed to drain within {max_extra} extra cycles "
            f"({self._flits_in_flight} flits still in flight)"
        )

    # ------------------------------------------------------------------
    # audit helpers

    @property
    def faults_active(self) -> "list[str]":
        """Labels of links currently inside a fault down window."""
        if self.fault_injector is None:
            return []
        return self.fault_injector.links_down(self.clock)

    def stall_report(self, max_lines: int = 40) -> str:
        """Per-router dump of every occupied VC (watchdog diagnostics).

        One line per occupied input VC (front message, routed port,
        grant state) and per busy output VC (owner, staged flits,
        credits), so a :class:`DeadlockError` names the wedged
        routers/VCs without a debugger attached.
        """
        lines: "list[str]" = []
        for router in self.routers:
            for port, vcs in enumerate(router.inputs):
                for vc in vcs:
                    if vc.is_free and not vc.buffered:
                        continue
                    msg = vc.msg
                    grant = (
                        f"granted ovc {vc.route_vc.index}"
                        if vc.route_vc is not None
                        else "no grant"
                    )
                    lines.append(
                        f"router {router.router_id} in ({port},{vc.index}): "
                        f"{vc.buffered} flits, msg "
                        f"{msg.msg_id if msg else '?'} "
                        f"-> port {vc.route_port}, {grant}"
                    )
            for port, vcs in enumerate(router.outputs):
                for ovc in vcs:
                    if ovc.owner is None and not ovc.queue:
                        continue
                    owner = ovc.owner.msg_id if ovc.owner else "?"
                    lines.append(
                        f"router {router.router_id} out ({port},{ovc.index}): "
                        f"owner {owner}, {len(ovc.queue)} staged, "
                        f"{ovc.credits} credits"
                    )
        for node, ni in self.interfaces.items():
            backlog = ni.backlog_flits
            if backlog:
                lines.append(f"host {node} NI: {backlog} flits queued")
        down = self.faults_active
        if down:
            lines.append(f"links down: {', '.join(sorted(down))}")
        if self.health_monitor is not None:
            suspected = self.health_monitor.suspected()
            if suspected:
                lines.append(
                    "suspected unhealthy links/switches: "
                    + ", ".join(suspected)
                )
        if self.isolated_hosts:
            lines.append(
                "isolated hosts: "
                + ", ".join(str(n) for n in sorted(self.isolated_hosts))
            )
        if len(lines) > max_lines:
            extra = len(lines) - max_lines
            lines = lines[:max_lines] + [f"... {extra} more lines elided"]
        return "\n".join(lines) if lines else "(no occupied buffers)"

    @property
    def flits_in_flight(self) -> int:
        """Flits injected but not yet ejected."""
        return self._flits_in_flight

    def buffered_flits(self) -> int:
        """Flits held anywhere in the system right now (audit)."""
        total = sum(r.buffered_flits() for r in self.routers)
        total += sum(link.in_flight for link in self.links)
        total += sum(ni.backlog_flits for ni in self.interfaces.values())
        return total

    def buffered_vcs(self) -> "tuple[int, int]":
        """``(in_use, total)`` router VCs; in use = has carried a flit
        (a header arrived or a grant landed; its buffers may have gone
        back since); total = every VC the config gives the fabric,
        built or not."""
        in_use = sum(
            vc.carried
            for r in self.routers
            for port in r.inputs + r.outputs
            for vc in port
        )
        config = self.config
        return in_use, 2 * len(self.routers) * config.num_ports * config.vcs_per_pc

    def built_vcs(self) -> int:
        """Router VC objects that exist: those of the opened ports."""
        return sum(
            len(port) for r in self.routers for port in r.inputs + r.outputs
        )

    def held_deques(self) -> int:
        """Deques the flit FIFOs hold right now: router VCs' buffers,
        wires and NI VC queues (every other FIFO is ``NO_FLITS``)."""
        held = sum(
            (vc.messages is not NO_FLITS) + (vc.stamps is not NO_FLITS)
            for r in self.routers
            for port in r.inputs
            for vc in port
        )
        held += sum(
            (vc.queue is not NO_FLITS) + (vc.stamps is not NO_FLITS)
            for r in self.routers
            for port in r.outputs
            for vc in port
        )
        held += sum(link.pending is not NO_FLITS for link in self.links)
        held += sum(
            vc.queue is not NO_FLITS
            for ni in self._ni_list
            for vc in ni.vcs
        )
        return held

    def check_conservation(self) -> None:
        """Raise unless injected == ejected + buffered + dropped."""
        buffered = self.buffered_flits()
        if self.flits_injected != (
            self.flits_ejected + buffered + self.flits_dropped
        ):
            raise SimulationError(
                f"flit conservation violated: injected={self.flits_injected} "
                f"ejected={self.flits_ejected} buffered={buffered} "
                f"dropped={self.flits_dropped}"
            )
        if self._flits_in_flight != buffered:
            raise SimulationError(
                f"in-flight counter drifted: counter={self._flits_in_flight} "
                f"actual={buffered}"
            )

    def check_invariants(self) -> None:
        """Validate router buffer bookkeeping everywhere (test hook),
        flit conservation, the FIFO lifecycle of wires and NI VCs (each
        holds a deque only while flits (messages) are on it), and that
        a link without faults is UP: a link leaves UP only through
        ``Link.apply_fate``, so both loops send such a link no
        heartbeat."""
        for router in self.routers:
            router.check_invariants()
        for link in self.links:
            if link.pending is not NO_FLITS and not link.pending:
                raise SimulationError(
                    f"link {link.label}: empty wire still holds its deque"
                )
            health = link.health
            if link.faults is None and health is not None and health.state != UP:
                raise InvariantViolation(
                    f"link {link.label}: health {health.state} without faults"
                )
        for ni in self._ni_list:
            for vc in ni.vcs:
                if vc.queue is not NO_FLITS and not vc.queue:
                    raise SimulationError(
                        f"NI {ni.node_id} vc {vc.index}: no message queued "
                        f"but still holds its deque"
                    )
        self.check_conservation()
