"""The cycle loop: a short sequencer over one kernel per phase.

Stepping every component through its own ``step()`` spends the dense
operating points (every VC busy every cycle) almost entirely on Python
call dispatch: one call per component plus one method call per flit
per pipeline stage.  :class:`FusedLoop` runs the same four phases per
cycle with one call per phase instead.  :meth:`FusedLoop.run` is the
sequencer — the idle jump, ``events.fire_due``, the phase calls and
the watchdog — and each phase is a *kernel* that walks its active set
with every per-flit helper (``Link.send``, the mux stamp/select
methods, the buffer push/pop methods, ...) inlined over the
components' *shared* state.  It is what
:meth:`repro.network.network.Network.run` executes for every run;
:func:`repro.sim.reference.run_reference` is the parity reference.

Phases and kernels
------------------

Per executed cycle, in this exact order (the bit-identical contract
with the reference stepper):

1. event heap — ``EventHeap.fire_due`` itself: injections, transport
   timeouts;
2. link delivery, ascending link id — :meth:`FusedLoop._delivery`,
   twin of ``Link.deliver_due`` + ``WormholeRouter.accept_flit`` /
   ``HostSink.eject``;
3. NI injection, ascending NI id — :meth:`FusedLoop._injection`, twin
   of ``HostInterface.step``;
4. routers, ascending router id, each through its stages
   downstream-to-upstream: stage 5 (:meth:`FusedLoop._stage5`, twin of
   ``WormholeRouter._stage5_output``), stage 4
   (:meth:`FusedLoop._stage4`, ``_stage4_crossbar``), stages 2/3
   (:meth:`FusedLoop._stage23`, ``_stage23_route_arbitrate``).

:meth:`FusedLoop._phases` starts the kernels once per ``run()`` call;
every run has the same phases.  A kernel is a generator: it binds
that call's state — the trace sink, the fault bindings, the tables
below — as plain locals, then loops on ``yield``, and its ``send`` is
the phase callable (:func:`_resumable`).  A phase call thus resumes a
frame whose locals are already bound, where a plain function would
copy default-bound bindings in and clear its ≈ 40 locals again on
every call (≈ 0.1 µs per call on CPython 3.11, several calls per
cycle), or read closure-bound ones through cells.  Each kernel
visits what its twin visits, in its twin's order, and has one path
whatever observes the run.  The sequencer stamps ``perf_counter``
between the phase calls of every executed cycle and banks the four
sums into ``Network.phase_seconds`` (keys :data:`PHASES`) wherever it
settles ``Network.cycles_executed``, so every run reports where its
wall time went without a timed variant of any phase.

State layout
------------

The loop does not fork the simulation state.  All authoritative
datapath state — VC occupancy and head-flit cursors, credit counters,
NI queues, activity sets — stays in the slotted component objects, so
cold paths (message kills, transport timeouts, conservation audits)
observe exactly what the per-object methods would.  The first piece of
derived hot state is the *head mirror*: ``_link_head[i]`` equals
``links[i].pending[0][0]``, or the far sentinel while the wire is
empty.  Whoever puts the first flit on an empty wire stores its
arrival — the inlined send kernels directly, object code through the
``Link.on_wake(index, arrival)`` hook, one bound method this class
installs on every link — and whoever drains
a wire stores the new head.  ``Network.kill_message`` calls
:meth:`FusedLoop.resync` with the links and routers its purge touched —
the message's *trail* (``Message.trail``: the ids of the routers its
header has entered, extended by the inlined header arrival and by
``WormholeRouter.accept_flit``), those routers' outgoing links and the
source host link — to rebuild their mirror slots, because a purge that
drops flits replaces ``pending`` wholesale.

Two more derived tables serve stages 2/3, one row per router and one
entry per output port: ``_free_out`` counts the port's unowned output
VCs (zero: every attempt on the port blocks), and ``_release_epoch``
counts its releases — stage 5's tail release and :meth:`resync`, which
recounts a port and so must assume it changed, bump it.  A routed
header that finds no VC (port full, bound VC owned, partition scan
empty) stores the port's epoch in its ``InputVC.wait_epoch``; while
the two are equal nothing it could be granted has been freed, and the
rounds that follow re-queue it on one compare, in its turn — rotation
order and ``_arb_rotate`` are those of the full attempt.  A new front
message or a re-route (``route_port`` -1) takes the full path again.

The memo also holds for a real-time header of a preempting network
(``RouterConfig.preemption``), which may kill a best-effort *borrower*
of a real-time VC (``WormholeRouter._preempt_borrower``).  Its attempt
fails only when the VCs it could kill for — its bound VC, or every
real-time VC of the port — are all owned by real-time traffic (a
best-effort worm never owns the real-time escape VC).  Only a release
hands an owned VC to a new owner, so no best-effort message can take
one of those VCs until a VC of the port is released, and every release
bumps the epoch: stage 5's tail release, or :meth:`resync` after a
kill.  Only the free-port shortcut is off in a preempting network: a
port whose VCs are all owned may still hold a borrower to kill.

A flit FIFO holds a deque only while a worm uses it, and is the shared
``buffers.NO_FLITS`` otherwise: the inlined header arrival and grant
allocate an input / output VC's deques (one identity test per message
per hop), the inlined sends a wire's; the inlined ``release_front``,
the stage-5 tail release, the NI's last tail and a drained delivery
give them back, at the same events as their object twins, so both
loops hold the same deques at every cycle.  ``carried`` marks the VCs
a first use reached (``Network.buffered_vcs``).

Object-method visits
--------------------

Every run executes these kernels, traced or not: with a sink installed
(``install_tracing`` sets ``Network.trace``, which :meth:`_phases`
reads once) the kernels emit the events of the object methods they
inline — ``flit_inject``, ``link_tx``, ``flit_eject``, ``sched``,
``xbar``, ``route``, ``vc_alloc`` and ``vc_release`` — each behind one
``is not None`` test on a kernel local, which is the only test of
the sink a kernel makes.  Stage-5 and crossbar ports are visited in
ascending order, as the object code visits them, and a ``sched``
event counts its mux's candidates at the emission site, so the stream
is byte-identical to the reference stepper's.  One scan
serves every policy: it keeps the running minimum of ``(rank,
index)``, the rank being the head stamp or, for round-robin, ``index
<= last`` (``RoundRobinScheduler``).  The other event kinds come from
object code the loop calls (``Link.apply_fate``,
``Network.kill_message``, the transport, the health monitor).  The loop honours no per-instance or
subclass override of a router method;
:func:`repro.sim.reference.run_reference` does.  Rules with one
implementation stay router methods that stage 2/3 calls: the
mask-aware ``_adaptive_candidates`` for adaptive routing (the kernel
applies the escape-VC partition rule), and ``_preempt_borrower``, the
preemption kill, for a real-time header of a preempting network that
finds no VC.

One visit goes through an object method by design: a lost or
corrupted flit goes through ``Link.apply_fate``, the one
implementation of loss/corruption handling (the delivery kernel's
fate gate, inside a link's down windows as outside them).

Cold events stay on object code by construction: event callbacks
(injection, transport teardown) run the ordinary network API, and
purges resynchronise what they touched through :meth:`resync`.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

from repro.core.schedulers import SchedulingPolicy
from repro.core.virtual_clock import BEST_EFFORT_VTICK
from repro.errors import FlowControlError, SimulationError
from repro.faultplan import FATE_OK
from repro.network.healthconfig import UP
from repro.router.buffers import NO_FLITS, acquire_record, release_record
from repro.router.config import OUTPUT_BUFFER_DEPTH, RoutingMode
from repro.router.flit import TrafficClass

#: the four phase calls of a cycle, in call order: the keys of
#: ``Network.phase_seconds`` and ``ExperimentResult.phase_seconds``
PHASES = ("events", "links", "nis", "routers")

#: sentinel arrival for idle links — far beyond any simulated horizon
_FAR = 1 << 62

#: the muxes' running minima of ``(rank, index)`` start above every
#: pair, so the first candidate always replaces them (``_NO_VC`` stays
#: a one-digit int: its compares keep specialising)
_INF = float("inf")
_NO_VC = 1 << 29


def _bank(seconds, *spent) -> None:
    """Add one ``run`` call's per-phase sums into ``seconds``."""
    for phase, value in zip(PHASES, spent):
        seconds[phase] += value


def _resumable(kernel):
    """Prime a kernel generator; its ``send`` is the phase callable.

    A kernel runs up to its first ``yield`` here, with every per-run
    binding a plain local of its suspended frame; each call resumes
    that frame, so it neither copies the bindings in nor clears them.
    """
    next(kernel)
    return kernel.send


class FusedLoop:
    """Per-cycle sequencer over phase kernels on the network's hot state."""

    def __init__(self, network) -> None:
        self._net = network
        config = network.config
        # Global datapath flags — one RouterConfig serves every router,
        # so the stamp/select specialisation is network-wide.
        router0 = network.routers[0] if network.routers else None
        if router0 is not None:
            self._in_vc = (
                router0._in_policy.policy == SchedulingPolicy.VIRTUAL_CLOCK
            )
            self._out_vc = (
                router0._out_policy.policy == SchedulingPolicy.VIRTUAL_CLOCK
            )
            self._multiplexed = router0._multiplexed
            self._routing_delay = router0._routing_delay
            self._arb_delay = router0._arb_delay
            #: the ``policy`` field of the ``sched`` events
            self._in_policy = router0._in_policy.policy
            self._out_policy = router0._out_policy.policy
        self._dyn_part = config.dynamic_partitioning
        self._be_bind = config.be_dst_vc_binding
        self._preempt = config.preemption
        self._adaptive = config.routing_mode == RoutingMode.ADAPTIVE

        # The tuples below bind only containers both code paths mutate
        # in place and immutable tables.  What object code *reassigns* —
        # a router's ``_work``, ``_pending_arb``, ``_arb_rotate``;
        # every flit FIFO (released to ``NO_FLITS`` when it empties,
        # ``Link.purge_message`` rebuilds a wire); an NI's per-VC
        # scalars — the kernels read through its owner, so both paths
        # see one source of truth.

        #: per-link consumer bindings, indexed by link id:
        #: (link, input_vcs, dest_router, dest_rid, dest_port,
        #:  dest_in_ports, sink)
        info = []
        for link in network.links:
            dest = link.dest_router
            if dest is not None:
                info.append(
                    (
                        link,
                        dest.inputs[link.dest_port],
                        dest,
                        dest.router_id,
                        link.dest_port,
                        dest._in_ports,
                        None,
                    )
                )
            else:
                info.append((link, None, None, -1, -1, None, link.sink))
        self._link_info = info

        #: per-NI bindings, indexed by NI scheduler id:
        #: (ni, vcs, active_set, scheduler, link, link_id, latency)
        ni_info = []
        for ni in network._ni_list:
            ni_info.append(
                (
                    ni,
                    ni.vcs,
                    ni._active,
                    ni.scheduler,
                    ni.link,
                    ni.link.index,
                    ni.link.latency,
                )
            )
            #: the NIs' policy (one per network)
            self._ni_policy = ni.scheduler.policy
        self._ni_info = ni_info

        #: mirror of every link's head arrival (see the module
        #: docstring's state-layout section), kept exact across object
        #: code by the one wake hook every link calls
        self._link_head = [_FAR] * len(network.links)
        wake = self._wake
        for link in network.links:
            link.on_wake = wake

        #: per-router per-port count of unowned output VCs.  When a
        #: port has none, every arbitration attempt on it resolves to
        #: still-waiting (the bound-VC and both partition scans can
        #: only find owned VCs), so stages 2/3 skip the O(VCs) scans.
        #: Rebuilt on every run entry and by :meth:`resync`; maintained
        #: inline at grant (stage 2/3) and release (stage 5).
        self._free_out = [
            [0] * len(router.outputs) for router in network.routers
        ]
        #: per-router per-port release epoch, bumped wherever an output
        #: VC of the port is released; stage 2/3's memo of failed grant
        #: attempts hangs on it (module docstring, state layout)
        self._release_epoch = [
            [0] * len(router.outputs) for router in network.routers
        ]

    def _wake(self, idx: int, arrival: int) -> None:
        """``Link.on_wake``: the first flit on link ``idx``'s empty wire."""
        self._link_head[idx] = arrival
        self._net._link_sched.activate(idx)

    # ------------------------------------------------------------------
    # consistency hooks

    def resync(self, links, routers) -> None:
        """Rebuild the derived hot state of ``links`` and ``routers``.

        That is the head mirror with the link active set (exactly the
        links whose wire holds flits), the free output-VC counts and
        the release epochs.  Every run starts with all of them (object
        code may have moved flits since the last one, and the reference
        stepper keeps neither count nor epoch);
        ``Network.kill_message`` passes what its purge touched, whose
        wires it edited and output VCs it released behind the kernels'
        back.
        """
        head = self._link_head
        link_sched = self._net._link_sched
        for link in links:
            idx = link.index
            pending = link.pending
            if pending:
                head[idx] = pending[0][0]
                link_sched.activate(idx)
            else:
                head[idx] = _FAR
                link_sched.deactivate(idx)
        for router in routers:
            rid = router.router_id
            counts = self._free_out[rid]
            epochs = self._release_epoch[rid]
            for port, ovcs in enumerate(router.outputs):
                free = 0
                for ovc in ovcs:
                    if ovc.owner is None:
                        free += 1
                counts[port] = free
                epochs[port] += 1

    # ------------------------------------------------------------------
    # the sequencer

    def run(self, until: int) -> None:
        """Advance the network to cycle ``until`` (body of ``Network.run``).

        Per executed cycle: the due events, then the phase kernels
        :meth:`_phases` built for this call — link delivery, NI
        injection, the router phase — each timed, then the watchdog.
        While no NI or router is active the clock jumps to the next
        event or link arrival instead.
        """
        net = self._net
        self.resync(net.links, net.routers)
        fire, deliver, inject, route = self._phases()
        heap = net.events._heap
        link_sched = net._link_sched
        link_head = self._link_head
        ni_active_set = net._ni_sched._active
        router_active_set = net._router_sched._active
        watchdog = net.watchdog_window
        clock = net.clock
        stall_clock = max(net._stall_clock, clock - 1)
        #: executed cycles = clock advance minus the cycles jumped over
        start = clock
        jumped = 0
        #: wall seconds per phase over this call's executed cycles
        events_s = links_s = nis_s = routers_s = 0.0
        while clock < until:
            if not (ni_active_set or router_active_set):
                # Idle-phase jump: earliest scheduled event or link head
                # arrival.  The head mirror holds every active link's
                # next arrival (the sentinel for one that just
                # drained), so the walk touches no link object.
                nxt = heap[0][0] if heap else None
                arrival = _FAR
                for index in link_sched._list:
                    head_val = link_head[index]
                    if head_val < arrival:
                        arrival = head_val
                if arrival < _FAR and (nxt is None or arrival < nxt):
                    nxt = arrival
                if nxt is None:
                    if net._flits_in_flight == 0:
                        jumped += until - clock
                        clock = until
                        break
                    # Defensive backstop: flits are alive but no wake is
                    # armed — activity tracking must have been bypassed
                    # (e.g. hand-driven components).  Fail rather than
                    # mis-simulate.
                    net._stall_clock = stall_clock
                    net.clock = clock
                    net.cycles_executed += clock - start - jumped
                    _bank(
                        net.phase_seconds, events_s, links_s, nis_s, routers_s
                    )
                    raise SimulationError(
                        f"active-set tracking lost {net._flits_in_flight} "
                        f"in-flight flits at cycle {clock}: no component "
                        f"is active and no wake is armed"
                    )
                if nxt > clock:
                    if watchdog is not None and net._flits_in_flight:
                        # Never jump past the cycle the full scan
                        # would raise the watchdog at.
                        cap = stall_clock + watchdog
                        if cap < nxt:
                            nxt = cap
                    if nxt > until:
                        nxt = until
                    jumped += nxt - clock
                    clock = nxt
                    if net._flits_in_flight == 0:
                        stall_clock = clock
                    if clock >= until:
                        break
            net.clock = clock
            started = perf_counter()
            if heap and heap[0][0] <= clock:
                fire(clock)
            fired = perf_counter()
            progress = deliver(clock)
            delivered = perf_counter()
            inject(clock)
            injected = perf_counter()
            route(clock)
            routed = perf_counter()
            events_s += fired - started
            links_s += delivered - fired
            nis_s += injected - delivered
            routers_s += routed - injected
            if watchdog is not None:
                if progress or not net._flits_in_flight:
                    stall_clock = clock
                elif clock - stall_clock >= watchdog:
                    net.cycles_executed += clock + 1 - start - jumped
                    _bank(
                        net.phase_seconds, events_s, links_s, nis_s, routers_s
                    )
                    net._watchdog_fire(clock, stall_clock, watchdog)
            clock += 1
        net._stall_clock = stall_clock
        net.clock = clock
        net.cycles_executed += clock - start - jumped
        _bank(net.phase_seconds, events_s, links_s, nis_s, routers_s)

    def _phases(self):
        """This run's phase callables ``(fire, deliver, inject, route)``.

        Reads the trace sink once; every run has the same three
        kernels, and :meth:`run` times each call.
        """
        net = self._net
        emit = None if net.trace is None else net.trace.on_event
        return (
            net.events.fire_due,
            _resumable(self._delivery(emit)),
            _resumable(self._injection(emit)),
            _resumable(self._router_stages(emit)),
        )

    # ------------------------------------------------------------------
    # phase 2: link delivery

    def _fault_bindings(self):
        """Per-link fault binding, a list parallel to ``_link_info``.

        ``None`` for a link without ``faults`` (inlined delivery,
        nothing else to do: its ``health``, if any, only ever hears
        ``on_ok``, a no-op in the UP state it never leaves); for a
        faulted link the tuple ``(faults, fate, health, windowed)`` the
        delivery kernel gates each flit on (``fate`` is
        ``faults.fate``; ``windowed`` says whether the link has down
        windows at all).
        """
        bindings = []
        for link in self._net.links:
            faults = link.faults
            if faults is None:
                bindings.append(None)
            else:
                bindings.append(
                    (faults, faults.fate, link.health, bool(faults.windows))
                )
        return bindings

    def _delivery(self, emit):
        """The link-delivery kernel, ``deliver(clock) -> flits handed over``.

        Twin of ``Link.deliver_due`` on every due link, ascending link
        id, with its consumer inlined in one flit loop that branches on
        it: ``WormholeRouter.accept_flit`` into a router's input VCs,
        ``HostSink.eject`` at a host (with the ``Network._flit_ejected``
        / ``_message_delivered`` reports every sink makes).  The head
        mirror is exact, so an active link with nothing due costs one
        list index; a drained link is deactivated one visit late, by
        the first visit that finds its slot still holding the sentinel,
        because dense traffic refills a wire within the cycle and the
        deactivate/activate pair would cost two copy-on-write edits of
        the active list.

        A faulted link (see :meth:`_fault_bindings`) looks its down
        windows up once per visit and gates each popped flit on
        ``LinkFaultState.fate`` with that verdict — its draws on the
        link's own RNG, in its order; inside a window every flit is
        lost without a draw — and a clean flit falls straight into the
        inlined consumer, followed by its health heartbeat (``on_ok``
        is called only while the link is not UP).  A lost or corrupted
        flit goes through ``Link.apply_fate``, after which the kernel
        re-reads ``link.pending``, which a loss teardown may have
        rebuilt.  The same flit loop serves every visit, inside a down
        window or outside one.
        """
        net = self._net
        modes = self._fault_bindings()
        link_sched = net._link_sched
        link_deactivate = link_sched.deactivate
        link_due = link_sched.due
        router_activate = net._router_sched.activate
        link_info = self._link_info
        link_head = self._link_head
        in_vc = self._in_vc
        transport = net.transport
        progress = 0
        while True:
            clock = yield progress
            progress = 0
            for index in link_due(clock):
                head_val = link_head[index]
                if head_val > clock:
                    if head_val == _FAR:
                        # drained on an earlier visit and not refilled
                        link_deactivate(index)
                    continue
                mode = modes[index]
                if mode is None:
                    fate_of = None
                else:
                    faults, fate_of, health, windowed = mode
                    down = windowed and faults.down(clock)
                link, ivcs, router, rid, port, in_ports, sink = link_info[index]
                pending = link.pending
                popleft = pending.popleft
                delivered = 0
                if ivcs is not None:
                    sendable = router._sendable[port]
                    # Activation is idempotent, so one batched check
                    # after the drain replaces the per-flit transition
                    # test the object path performs inside accept_flit.
                    was_idle = not router._work
                else:
                    node = sink.node_id
                # do-while: the guard above proved the head flit is due,
                # so pop before re-testing.
                while True:
                    _, msg, flit_index, vc_index = popleft()
                    if fate_of is not None:
                        fate = fate_of(msg, flit_index, down)
                        if fate != FATE_OK:
                            delivered += link.apply_fate(
                                clock, msg, flit_index, vc_index, fate, down
                            )
                            # A teardown inside may have purged this link
                            # (new deque, resynced mirror) and idled or
                            # re-activated the router.
                            pending = link.pending
                            if ivcs is not None:
                                was_idle = not router._work
                            if not pending:
                                head_val = _FAR
                                break
                            popleft = pending.popleft
                            head_val = pending[0][0]
                            if head_val > clock:
                                break
                            continue
                    delivered += 1
                    if ivcs is not None:
                        # ---- inlined WormholeRouter.accept_flit ----
                        vc = ivcs[vc_index]
                        vst = vc.vstate
                        messages = vc.messages
                        if flit_index == 0:
                            msg.trail += (rid,)
                            if messages is NO_FLITS:
                                messages = vc.messages = deque()
                                vc.stamps = deque()
                                vc.carried = True
                            messages.append(acquire_record(msg, clock))
                            if len(messages) == 1:
                                vc.head_arrival = clock
                                vc.route_port = -1
                                vc.route_vc = None
                                router._pending_arb.append(vc)
                                router._work += 1
                            vst.auxvc = float(clock)
                            vst.vtick = msg.vtick
                            vst.is_open = True
                        elif not messages:
                            raise FlowControlError(
                                f"input VC ({vc.port},{vc.index}) got a flit "
                                f"without a header"
                            )
                        if in_vc:
                            stamp = vst.auxvc
                            if clock > stamp:
                                stamp = clock
                            stamp += vst.vtick
                            vst.auxvc = stamp
                        else:
                            stamp = float(clock)
                        if vc.buffered >= vc.capacity:
                            raise FlowControlError(
                                f"input VC ({vc.port},{vc.index}) overflow: "
                                f"upstream sent a flit without credit"
                            )
                        messages[-1].arrived += 1
                        vc.buffered += 1
                        vc.stamps.append(stamp)
                        if vc.route_vc is not None:
                            front = messages[0]
                            if front.arrived > front.served:
                                if vc_index not in sendable:
                                    sendable.add(vc_index)
                                    in_ports.add(port)
                                    router._work += 1
                    else:
                        # ---- inlined HostSink.eject ----
                        if emit is not None:
                            emit(
                                "flit_eject",
                                clock,
                                {
                                    "node": node,
                                    "msg": msg.msg_id,
                                    "flit": flit_index,
                                    "tail": flit_index == msg.last_flit,
                                },
                            )
                        sink.flits_ejected += 1
                        net._flits_in_flight -= 1
                        net.flits_ejected += 1
                        if flit_index == msg.last_flit:
                            if msg.dst_node != node:
                                raise FlowControlError(
                                    f"message {msg.msg_id} for node "
                                    f"{msg.dst_node} ejected at node {node}"
                                )
                            if msg.corrupted and sink.on_corrupt is not None:
                                sink.messages_corrupt += 1
                                sink.on_corrupt(msg, clock)
                            else:
                                msg.deliver_time = clock
                                sink.messages_ejected += 1
                                net.messages_delivered += 1
                                if transport is not None:
                                    transport.on_delivered(msg)
                                if net._on_message is not None:
                                    net._on_message(msg, clock)
                    if (
                        fate_of is not None
                        and health is not None
                        and health.state != UP
                    ):
                        # heartbeat once the flit has landed (the object
                        # path's order); a no-op while UP
                        health.on_ok(clock)
                    if not pending:
                        head_val = _FAR
                        break
                    head_val = pending[0][0]
                    if head_val > clock:
                        break
                if ivcs is not None and was_idle and router._work:
                    router_activate(rid)
                progress += delivered
                if head_val == _FAR:
                    # drained: the wire gives its deque back
                    link.pending = NO_FLITS
                link_head[index] = head_val

    # ------------------------------------------------------------------
    # phase 3: NI injection

    def _injection(self, emit):
        """The NI-injection kernel, ``inject(clock)``.

        Twin of ``HostInterface.step`` on every due NI, ascending NI
        id: the mux, with lazy Virtual Clock stamping, then the inlined
        ``Link.send`` onto the host wire.  The mux takes a single
        backlogged VC without arbitration, and otherwise keeps a
        running minimum of ``(rank, index)`` over the VCs with credit,
        every one stamped as the object path stamps its candidates: the
        rank is the stamp, or for round-robin ``index <= last`` (see
        ``RoundRobinScheduler``), whose ``last`` records every grant.
        """
        ni_sched = self._net._ni_sched
        ni_deactivate = ni_sched.deactivate
        ni_due = ni_sched.due
        link_activate = self._net._link_sched.activate
        ni_info = self._ni_info
        link_head = self._link_head
        ni_vc = self._ni_policy == SchedulingPolicy.VIRTUAL_CLOCK
        ni_rr = self._ni_policy == SchedulingPolicy.ROUND_ROBIN
        while True:
            clock = yield
            for index in ni_due(clock):
                (
                    ni,
                    vcs,
                    active,
                    scheduler,
                    link,
                    link_id,
                    latency,
                ) = ni_info[index]
                if not active:
                    ni_deactivate(index)
                    continue
                if len(active) == 1:
                    for chosen in active:
                        break
                    vc = vcs[chosen]
                    if vc.credits <= 0:
                        continue
                    if vc.head_stamp is None:
                        msg = vc.queue[0]
                        if ni_vc:
                            vst = vc.vstate
                            stamp = vst.auxvc
                            inject_time = msg.inject_time
                            if inject_time > stamp:
                                stamp = inject_time
                            stamp += vst.vtick
                            vst.auxvc = stamp
                            vc.head_stamp = stamp
                        else:
                            vc.head_stamp = float(msg.inject_time)
                else:
                    if ni_rr:
                        last = scheduler.last
                    best = _INF
                    chosen = _NO_VC
                    for vc_index in active:
                        vc = vcs[vc_index]
                        if vc.credits > 0:
                            rank = vc.head_stamp
                            if rank is None:
                                msg = vc.queue[0]
                                if ni_vc:
                                    vst = vc.vstate
                                    rank = vst.auxvc
                                    inject_time = msg.inject_time
                                    if inject_time > rank:
                                        rank = inject_time
                                    rank += vst.vtick
                                    vst.auxvc = rank
                                else:
                                    rank = float(msg.inject_time)
                                vc.head_stamp = rank
                            if ni_rr:
                                rank = vc_index <= last
                            if rank < best or (
                                rank == best and vc_index < chosen
                            ):
                                best = rank
                                chosen = vc_index
                    if chosen == _NO_VC:
                        continue
                    vc = vcs[chosen]
                if ni_rr:
                    scheduler.last = chosen
                msg = vc.queue[0]
                flit_index = vc.sent
                vc.credits -= 1
                vc.sent = flit_index + 1
                vc.head_stamp = None
                # ---- inlined Link.send onto the host wire ----
                arrival = clock + latency
                pending = link.pending
                if not pending:
                    if pending is NO_FLITS:
                        pending = link.pending = deque()
                    link_activate(link_id)
                    link_head[link_id] = arrival
                pending.append((arrival, msg, flit_index, chosen))
                if emit is not None:
                    emit(
                        "link_tx",
                        clock,
                        {
                            "link": link.label,
                            "msg": msg.msg_id,
                            "flit": flit_index,
                            "vc": chosen,
                            "arrive": arrival,
                        },
                    )
                    emit(
                        "flit_inject",
                        clock,
                        {
                            "node": ni.node_id,
                            "vc": chosen,
                            "msg": msg.msg_id,
                            "flit": flit_index,
                            "size": msg.size,
                            "cls": msg.traffic_class,
                        },
                    )
                if flit_index == 0 and ni.on_start is not None:
                    ni.on_start(msg, clock)
                if flit_index == msg.last_flit:
                    queue = vc.queue
                    queue.popleft()
                    vst = vc.vstate
                    if queue:
                        head = queue[0]
                        vc.sent = 0
                        vst.auxvc = float(head.inject_time)
                        vst.vtick = head.vtick
                        vst.is_open = True
                    else:
                        vc.queue = NO_FLITS
                        vst.is_open = False
                        vst.auxvc = 0.0
                        vst.vtick = BEST_EFFORT_VTICK
                        active.discard(chosen)
                        if not active:
                            ni_deactivate(index)

    # ------------------------------------------------------------------
    # phase 4: routers

    def _router_stages(self, emit):
        """The router phase, ``route(clock)``: every due router,
        ascending id, through :meth:`_stage5`, :meth:`_stage4` and
        :meth:`_stage23` — twin of ``WormholeRouter.step`` — each called
        only while its worklist holds something.
        """
        router_sched = self._net._router_sched
        rows = [
            (router, router._out_ports, router._in_ports)
            for router in self._net.routers
        ]
        router_deactivate = router_sched.deactivate
        router_due = router_sched.due
        stage5 = _resumable(self._stage5(emit))
        stage4 = _resumable(self._stage4(emit))
        stage23 = _resumable(self._stage23(emit))
        while True:
            clock = yield
            for rid in router_due(clock):
                router, out_ports, in_ports = rows[rid]
                if not router._work:
                    router_deactivate(rid)
                    continue
                if out_ports:
                    stage5((clock, rid, router))
                if in_ports:
                    stage4((clock, rid, router))
                if router._pending_arb:
                    stage23((clock, rid, router))
                if not router._work:
                    router_deactivate(rid)

    def _stage5(self, emit):
        """Stage 5, ``stage5((clock, rid, router))``: output VC mux + link send.

        Twin of ``WormholeRouter._stage5_output``, with ``Link.send``
        and ``OutputVC.release`` inlined; ports are visited in ascending
        order, as there.  The mux takes a single staged VC without
        arbitration, and otherwise keeps a running minimum of ``(rank,
        index)`` over the VCs with credit: the rank is the head stamp,
        or for round-robin ``index <= last`` (see
        ``RoundRobinScheduler``), whose ``last`` records every grant.
        """
        free_out = self._free_out
        release_epoch = self._release_epoch
        #: per router: its stage-5 containers and free/epoch rows
        rows = [
            (r.outputs, r._out_active, r._out_ports, r.out_links, r.out_flits,
             r._out_selectors, free_out[rid], release_epoch[rid])
            for rid, r in enumerate(self._net.routers)
        ]
        link_activate = self._net._link_sched.activate
        link_head = self._link_head
        out_policy = self._out_policy
        out_rr = out_policy == SchedulingPolicy.ROUND_ROBIN
        while True:
            clock, rid, router = yield
            (outputs, out_active, out_ports, out_links, out_flits,
             out_selectors, free_ports, epochs) = rows[rid]
            for port in sorted(out_ports):
                active5 = out_active[port]
                ovcs = outputs[port]
                if len(active5) == 1:
                    for chosen in active5:
                        break
                    ovc = ovcs[chosen]
                    if ovc.downstream is not None and ovc.credits <= 0:
                        continue
                else:
                    if out_rr:
                        last = out_selectors[port].last
                    best = _INF
                    chosen = _NO_VC
                    for vc_index in active5:
                        ovc = ovcs[vc_index]
                        if ovc.downstream is None or ovc.credits > 0:
                            rank = vc_index <= last if out_rr else ovc.stamps[0]
                            if rank < best or (
                                rank == best and vc_index < chosen
                            ):
                                best = rank
                                chosen = vc_index
                    if chosen == _NO_VC:
                        continue
                    ovc = ovcs[chosen]
                if out_rr:
                    out_selectors[port].last = chosen
                if emit is not None:
                    # the mux's candidates: the VCs with credit
                    cands = 0
                    for vc_index in active5:
                        other = ovcs[vc_index]
                        if other.downstream is None or other.credits > 0:
                            cands += 1
                    emit(
                        "sched",
                        clock,
                        {
                            "router": rid,
                            "point": "C",
                            "port": port,
                            "policy": out_policy,
                            "vc": chosen,
                            "stamp": ovc.stamps[0],
                            "cands": cands,
                        },
                    )
                queue = ovc.queue
                ovc.stamps.popleft()
                msg, flit_index = queue.popleft()
                if ovc.downstream is not None:
                    ovc.credits -= 1
                link = out_links[port]
                if link is None:
                    raise FlowControlError(
                        f"router {rid} port {port} has staged flits "
                        f"but no outgoing link"
                    )
                # ---- inlined Link.send ----
                arrival = clock + link.latency
                pending = link.pending
                if not pending:
                    if pending is NO_FLITS:
                        pending = link.pending = deque()
                    link_activate(link.index)
                    link_head[link.index] = arrival
                pending.append((arrival, msg, flit_index, chosen))
                if emit is not None:
                    emit(
                        "link_tx",
                        clock,
                        {
                            "link": link.label,
                            "msg": msg.msg_id,
                            "flit": flit_index,
                            "vc": chosen,
                            "arrive": arrival,
                        },
                    )
                out_flits[port] += 1
                if not queue:
                    active5.discard(chosen)
                    if not active5:
                        out_ports.discard(port)
                    router._work -= 1
                if flit_index == msg.last_flit:
                    # the grant's exclusivity: the owner's tail leaves
                    # an empty staging queue, whose deques go back
                    ovc.owner = None
                    ovc.queue = ovc.stamps = NO_FLITS
                    free_ports[port] += 1
                    epochs[port] += 1
                    vst = ovc.vstate
                    vst.is_open = False
                    vst.auxvc = 0.0
                    vst.vtick = BEST_EFFORT_VTICK
                    if emit is not None:
                        emit(
                            "vc_release",
                            clock,
                            {
                                "router": rid,
                                "port": port,
                                "vc": chosen,
                                "msg": msg.msg_id,
                            },
                        )

    def _stage4(self, emit):
        """Stage 4, ``stage4((clock, rid, router))``: the crossbar.

        Twin of ``WormholeRouter._stage4_crossbar`` (input mux at
        contention point A, or the full crossbar), with
        ``_move_through_crossbar`` and ``InputVC.release_front``
        inlined; ports are visited in ascending order, as there, so a
        tail whose input VC holds a next message appends that VC to
        ``_pending_arb`` in the object path's order.  The input mux
        selects as stage 5's does, over the routed VCs whose head flit
        may move.
        """
        #: per router: the containers the crossbar reads and edits
        rows = [
            (r.inputs, r._out_active, r._out_ports, r._in_ports, r._sendable,
             r._in_selectors)
            for r in self._net.routers
        ]
        in_policy = self._in_policy
        in_rr = in_policy == SchedulingPolicy.ROUND_ROBIN
        multiplexed = self._multiplexed
        out_vc = self._out_vc
        out_cap = OUTPUT_BUFFER_DEPTH
        while True:
            clock, rid, router = yield
            (inputs, out_active, out_ports, in_ports, sendable_sets,
             in_selectors) = rows[rid]
            for port in sorted(in_ports):
                sendable = sendable_sets[port]
                if not sendable:
                    continue
                port_vcs = inputs[port]
                if multiplexed:
                    if len(sendable) == 1:
                        for chosen in sendable:
                            break
                        vc = port_vcs[chosen]
                        if vc.ready_at > clock:
                            continue
                        if len(vc.route_vc.queue) >= out_cap:
                            continue
                    else:
                        if in_rr:
                            last = in_selectors[port].last
                        best = _INF
                        chosen = _NO_VC
                        for vc_index in sendable:
                            vc = port_vcs[vc_index]
                            if vc.ready_at > clock:
                                continue
                            if len(vc.route_vc.queue) >= out_cap:
                                continue
                            rank = vc_index <= last if in_rr else vc.stamps[0]
                            if rank < best or (
                                rank == best and vc_index < chosen
                            ):
                                best = rank
                                chosen = vc_index
                        if chosen == _NO_VC:
                            continue
                        vc = port_vcs[chosen]
                    if in_rr:
                        in_selectors[port].last = chosen
                    if emit is not None:
                        # the mux's candidates: the routed VCs whose
                        # head flit may move
                        cands = 0
                        for vc_index in sendable:
                            other = port_vcs[vc_index]
                            if (
                                other.ready_at <= clock
                                and len(other.route_vc.queue) < out_cap
                            ):
                                cands += 1
                        emit(
                            "sched",
                            clock,
                            {
                                "router": rid,
                                "point": "A",
                                "port": port,
                                "policy": in_policy,
                                "vc": chosen,
                                "stamp": vc.stamps[0],
                                "cands": cands,
                            },
                        )
                    moves = (vc,)
                else:
                    moves = []
                    for vc_index in list(sendable):
                        vc = port_vcs[vc_index]
                        if vc.ready_at > clock:
                            continue
                        if len(vc.route_vc.queue) >= out_cap:
                            continue
                        moves.append(vc)
                for vc in moves:
                    # ---- inlined _move_through_crossbar ----
                    ovc = vc.route_vc
                    messages = vc.messages
                    front = messages[0]
                    if front.arrived <= front.served:
                        raise FlowControlError(
                            f"input VC ({vc.port},{vc.index}) "
                            f"drained with no serviceable flit"
                        )
                    vc.stamps.popleft()
                    vc.buffered -= 1
                    flit_index = front.served
                    front.served = flit_index + 1
                    msg = front.msg
                    sink = vc.credit_sink
                    if sink is not None:
                        sink.credits += 1
                    if out_vc:
                        vst = ovc.vstate
                        stamp = vst.auxvc
                        if clock > stamp:
                            stamp = clock
                        stamp += vst.vtick
                        vst.auxvc = stamp
                    else:
                        stamp = float(clock)
                    out_queue = ovc.queue
                    if not out_queue:
                        # Stage 5 discards the VC from the active set
                        # exactly when its staging queue drains, so
                        # empty-queue is the activation edge.
                        out_port = ovc.port
                        out_active[out_port].add(ovc.index)
                        out_ports.add(out_port)
                        router._work += 1
                    out_queue.append((msg, flit_index))
                    ovc.stamps.append(stamp)
                    if emit is not None:
                        emit(
                            "xbar",
                            clock,
                            {
                                "router": rid,
                                "port": port,
                                "vc": vc.index,
                                "out_port": ovc.port,
                                "out_vc": ovc.index,
                                "msg": msg.msg_id,
                                "flit": flit_index,
                            },
                        )
                    if flit_index == msg.last_flit:
                        sendable.discard(vc.index)
                        if not sendable:
                            in_ports.discard(port)
                        router._work -= 1
                        # ---- inlined release_front ----
                        messages.popleft()
                        if front.served != msg.size:
                            raise FlowControlError(
                                f"input VC ({vc.port},{vc.index}) "
                                f"released message {msg.msg_id} "
                                f"before its tail was served"
                            )
                        release_record(front)
                        vc.route_port = -1
                        vc.route_vc = None
                        if messages:
                            # the next message's header re-enters
                            # stages 2/3
                            vc.head_arrival = messages[0].header_time
                            router._pending_arb.append(vc)
                            router._work += 1
                        else:
                            vc.messages = vc.stamps = NO_FLITS
                    elif front.arrived <= front.served:
                        sendable.discard(vc.index)
                        if not sendable:
                            in_ports.discard(port)
                        router._work -= 1

    def _stage23(self, emit):
        """Stages 2/3, ``stage23((clock, rid, router))``: routing + output VC
        arbitration.

        Twin of ``WormholeRouter._stage23_route_arbitrate`` — rotation
        of ``_pending_arb``, then ``_try_route_and_arbitrate`` per
        header with ``OutputVC.grant`` inlined — plus the free-port
        shortcut and the release-epoch memo of the module docstring's
        state layout.  The port's first header opens it
        (``WormholeRouter.open_output``); a real-time header of a
        preempting network that finds no VC calls
        ``WormholeRouter._preempt_borrower``, whose kill resyncs this
        router through ``Network.kill_message`` before the grant.
        """
        free_out = self._free_out
        release_epoch = self._release_epoch
        #: per router: what routing and arbitration read and edit
        rows = [
            (r.outputs, free_out[rid], release_epoch[rid], r.is_host_port,
             r._part, r._sendable, r._in_ports, r._route_view.candidates)
            for rid, r in enumerate(self._net.routers)
        ]
        routing_delay = self._routing_delay
        arb_delay = self._arb_delay
        dyn_part = self._dyn_part
        be_bind = self._be_bind
        preempt = self._preempt
        adaptive = self._adaptive
        #: Message.is_real_time inlined: membership in the RT classes
        rt_classes = TrafficClass.REAL_TIME
        while True:
            clock, rid, router = yield
            (outputs, free_ports, epochs, is_host_port, part_of, sendable_sets,
             in_ports, candidates_of) = rows[rid]
            pending_arb = router._pending_arb
            rotate = router._arb_rotate % len(pending_arb)
            router._arb_rotate += 1
            if rotate:
                ordered = pending_arb[rotate:] + pending_arb[:rotate]
            else:
                ordered = pending_arb
            router._pending_arb = []
            still_waiting = []
            for vc in ordered:
                messages = vc.messages
                if not messages:  # defensive: released mid-queue
                    router._work -= 1
                    continue
                port = vc.route_port
                if port >= 0 and vc.wait_epoch == epochs[port]:
                    # No output VC of the port was released since this
                    # header's attempt failed.  (A new front message or
                    # a re-route starts at route_port -1 and, below,
                    # ends this visit granted or with a verdict of its
                    # own.)
                    still_waiting.append(vc)
                    continue
                if clock < vc.head_arrival + routing_delay:
                    still_waiting.append(vc)
                    continue
                msg = messages[0].msg
                if port < 0:
                    if adaptive:
                        route_ports = router._adaptive_candidates(msg)
                    else:
                        route_ports = candidates_of(msg.dst_node)
                    if len(route_ports) == 1:
                        port = route_ports[0]
                    else:
                        port = router._select_output_port(clock, route_ports)
                    vc.route_port = port
                    if not outputs[port]:
                        # the port's first header opens it
                        free_ports[port] = len(router.open_output(port))
                    if emit is not None:
                        emit(
                            "route",
                            clock,
                            {
                                "router": rid,
                                "port": vc.port,
                                "vc": vc.index,
                                "msg": msg.msg_id,
                                "out": port,
                            },
                        )
                if not free_ports[port] and not preempt:
                    # Every output VC is owned: the bound-VC check and
                    # both partition scans can only come up empty, so
                    # the attempt blocks.  (A preempting network's full
                    # port may still hold a borrower to kill.)
                    vc.wait_epoch = epochs[port]
                    still_waiting.append(vc)
                    continue
                real_time = msg.traffic_class in rt_classes
                ovcs = outputs[port]
                ovc = None
                #: a detoured worm may claim only the escape VC
                escape = False
                if is_host_port[port]:
                    if msg.dst_vc is not None:
                        bound = ovcs[msg.dst_vc]
                        if bound.owner is None:
                            ovc = bound
                        elif preempt and real_time:
                            ovc = router._preempt_borrower(port, msg)
                            if ovc is None:
                                vc.wait_epoch = epochs[port]
                                still_waiting.append(vc)
                                continue
                        elif real_time or be_bind:
                            vc.wait_epoch = epochs[port]
                            still_waiting.append(vc)
                            continue
                elif adaptive and msg.detoured is not None:
                    escape = True
                if ovc is None:
                    part = part_of[port]
                    for vc_index in part[real_time][escape]:
                        candidate = ovcs[vc_index]
                        if candidate.owner is None:
                            ovc = candidate
                            break
                    else:
                        if dyn_part and not (real_time or escape):
                            for vc_index in part[True][0]:
                                candidate = ovcs[vc_index]
                                if candidate.owner is None:
                                    ovc = candidate
                                    break
                        elif preempt and real_time and not escape:
                            ovc = router._preempt_borrower(port, msg)
                if ovc is None:
                    vc.wait_epoch = epochs[port]
                    still_waiting.append(vc)
                    continue
                # ---- inlined OutputVC.grant ----
                ovc.owner = msg
                if ovc.queue is NO_FLITS:
                    ovc.queue, ovc.stamps = deque(), deque()
                    ovc.carried = True
                free_ports[ovc.port] -= 1
                vst = ovc.vstate
                vst.auxvc = float(clock)
                vst.vtick = msg.vtick
                vst.is_open = True
                if emit is not None:
                    emit(
                        "vc_alloc",
                        clock,
                        {
                            "router": rid,
                            "port": ovc.port,
                            "vc": ovc.index,
                            "msg": msg.msg_id,
                        },
                    )
                vc.route_vc = ovc
                vc.ready_at = clock + arb_delay
                front = messages[0]
                if front.arrived > front.served:
                    sendable = sendable_sets[vc.port]
                    if vc.index not in sendable:
                        sendable.add(vc.index)
                        in_ports.add(vc.port)
                        router._work += 1
                router._work -= 1
            router._pending_arb.extend(still_waiting)
