"""The cycle loop: one fused interpreter frame per ``Network.run`` call.

Stepping every component through its own ``step()`` spends the dense
operating points (every VC busy every cycle) almost entirely on Python
call dispatch: one call per component plus one method call per flit
per pipeline stage.  :class:`FusedLoop` executes the same four phases
per cycle — events, link delivery, NI injection, router stages
5 → 4 → 2/3 — in **one frame**, with every per-flit helper
(``Link.send``/``deliver_due``, ``HostInterface.step``,
``WormholeRouter.accept_flit``, the mux stamp/select methods, the
buffer push/pop methods) inlined over the components' *shared* state.
It is what :meth:`repro.network.network.Network.run` executes for every
run; :func:`repro.sim.reference.run_reference` is the parity reference.

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
``Link.on_wake(arrival)`` hook this class installs — and whoever drains
a wire stores the new head.  ``Network.kill_message`` calls
:meth:`FusedLoop.resync` with the links and routers its purge touched —
the message's *trail* (``Message.trail``: the ids of the routers its
header has entered, extended by the inlined header arrival below and by
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

A VC's deques exist from its first message on (``buffers.NO_FLITS``
until then): the inlined header arrival and the inlined grant create
them, one identity test per message per hop; all else reads or follows.

A drained link is deactivated one delivery-phase visit late — by the
first visit that finds its slot still holding the sentinel — because
dense traffic refills a wire within the cycle, and the
deactivate/activate pair that would cost is two copy-on-write edits of
the active list.

Phase order
-----------

Per executed cycle, in this exact order (the bit-identical contract
with the reference stepper):

1. event heap (``fire_due``) — injections, transport timeouts;
2. link delivery, ascending link id — inlined ``accept_flit`` into
   router input VCs, inlined sink ejection at hosts;
3. NI injection, ascending NI id — inlined single-VC fast path and
   candidate scan, lazy Virtual Clock stamping;
4. routers, ascending router id, stages downstream-to-upstream:
   stage 5 (output VC mux + link send), stage 4 (crossbar), stages
   2/3 (routing + output VC arbitration with rotation).

Within a phase the kernels are free to visit per-component work in any
order that is unobservable through shared state, and exploit that to
skip sorting: stage-5 output ports drain in set order (distinct links,
VCs, and commutative counters), and the crossbar also iterates its
input ports unsorted but *defers* its one order-observable side effect
— tail-release appends to the router's shared ``_pending_arb``
worklist — into a buffer flushed in sorted-port order before stages
2/3 consume it.

Call-outs
---------

The inlined kernels implement the untraced datapath.  A component
using a cold feature is instead driven through its own object method,
*that component only*, decided once per ``run()`` call (so tracing
installed between two runs takes effect at the next one):

* a link with ``trace`` set (or a traced sink) delivers through
  ``Link.deliver_due``;
* an untraced link with ``faults`` set delivers inline behind a
  per-flit *fate gate*: the delivery kernels run
  ``LinkFaultState.fate``'s tests on each popped flit — no draw for
  the rest of a broken worm (``fate()`` is asked), else the loss draw,
  then the corruption draw, on the link's own RNG substream in exactly
  that order — and a clean flit falls straight into the inlined
  ``accept_flit`` / sink eject, followed by its health heartbeat
  (``on_ok`` is called only while the link is not UP).  Only a lost or
  corrupted flit leaves the frame, for ``Link.apply_fate``, the one
  implementation of loss/corruption handling (the object loop calls
  the same method); the kernel then re-reads ``link.pending``, which a
  loss teardown may have rebuilt.  A visit inside one of the link's
  down windows goes through ``Link.deliver_due`` whole — every due
  flit is lost there.  A link with ``health`` only keeps the inlined
  path and the object path's one batched ``on_ok`` per visit;
* an NI with a trace sink, or feeding a traced link, goes through
  ``HostInterface.step``;
* a router with a trace sink, an ``on_crossbar`` hook, a traced
  outgoing link, preemption enabled, or a method overridden on the
  instance or in a subclass goes through its ``step``;
* adaptive routing stays inline: stage 2/3 asks the router's
  mask-aware ``_adaptive_candidates`` for the port group and applies
  the escape-VC partition rule;
* ``LoopProfiler`` timers sit in the loop skeleton behind an
  ``is None`` guard.

Cold events stay on object code by construction: event callbacks
(injection, transport teardown) run the ordinary network API, and
purges resynchronise what they touched through :meth:`resync`.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from time import perf_counter

from repro.core.schedulers import SchedulingPolicy
from repro.core.virtual_clock import BEST_EFFORT_VTICK
from repro.errors import FlowControlError, SimulationError
from repro.faults import FATE_CORRUPT, FATE_LOST, FATE_OK
from repro.network.health import UP
from repro.router.buffers import NO_FLITS, acquire_record, release_record
from repro.router.config import RoutingMode
from repro.router.flit import TrafficClass
from repro.router.router import WormholeRouter

#: sentinel arrival for idle links — far beyond any simulated horizon
_FAR = 1 << 62

#: sort key for the crossbar's deferred ``_pending_arb`` appends
_by_port = itemgetter(0)

#: per-run delivery mode of a link driven through ``Link.deliver_due``
#: on every visit (see :meth:`FusedLoop._call_outs`)
_CALL_OUT = object()

#: the router methods the loop inlines or calls; a router instance that
#: shadows one (a test spy, a subclass) must run through its own step()
_ROUTER_METHODS = frozenset(
    name for name, value in vars(WormholeRouter).items() if callable(value)
)


class FusedLoop:
    """Fused per-cycle interpreter over the network's shared hot state."""

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
            self._in_stateless = router0._in_stateless
            self._out_stateless = router0._out_stateless
            self._multiplexed = router0._multiplexed
            self._routing_delay = router0._routing_delay
            self._arb_delay = router0._arb_delay
        self._dyn_part = config.dynamic_partitioning
        self._be_bind = config.be_dst_vc_binding
        self._adaptive = config.routing_mode == RoutingMode.ADAPTIVE
        #: one RouterConfig serves every router, so the output staging
        #: capacity is a network-wide constant the kernels can hoist
        self._out_cap = config.output_buffer_depth

        # The tuples below bind only containers both code paths mutate
        # in place and immutable tables.  What object code *reassigns* —
        # a router's ``_work``, ``_pending_arb``, ``_arb_rotate``;
        # ``link.pending`` (``Link.purge_message`` rebuilds it); an NI's
        # per-VC scalars — :meth:`run` reads through its owner, so both
        # paths see one source of truth.

        #: per-link consumer bindings, indexed by link id:
        #: (link, input_vcs, dest_router, dest_rid, sink,
        #:  sink_counts_inline, sink_delivers_inline)
        link_index = {}
        info = []
        for idx, link in enumerate(network.links):
            link_index[id(link)] = idx
            dest = link.dest_router
            if dest is not None:
                info.append(
                    (
                        link,
                        dest.inputs[link.dest_port],
                        dest,
                        dest.router_id,
                        None,
                        False,
                        False,
                    )
                )
            else:
                sink = link.sink
                info.append(
                    (
                        link,
                        None,
                        None,
                        -1,
                        sink,
                        sink.on_flit == network._flit_ejected,
                        sink.on_message == network._message_delivered,
                    )
                )
        self._link_info = info

        #: per-NI bindings, indexed by NI scheduler id:
        #: (ni, vcs, active_set, scheduler, stateless, link, link_id,
        #:  latency)
        ni_info = []
        for ni in network._ni_list:
            ni_info.append(
                (
                    ni,
                    ni.vcs,
                    ni._active,
                    ni.scheduler,
                    ni._stateless,
                    ni.link,
                    link_index[id(ni.link)],
                    ni.link.latency,
                )
            )
            self._ni_vc = (
                ni.scheduler.policy == SchedulingPolicy.VIRTUAL_CLOCK
            )
        self._ni_info = ni_info

        #: mirror of every link's head arrival (see the module
        #: docstring's state-layout section), kept exact across object
        #: code by the wake hooks installed here
        self._link_head = [_FAR] * len(network.links)
        for idx, link in enumerate(network.links):
            link.on_wake = self._wake_hook(idx)

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

        #: everything the router phases touch, one tuple per router —
        #: a single index + unpack per router per cycle instead of a
        #: dozen attribute loads on the router.  The last three entries
        #: serve the inlined stage-5 send: per-port outgoing link ids
        #: (−1 where unwired), latencies, and the links themselves.
        self._router_hot = [
            (
                router,
                router.inputs,
                router.outputs,
                router._out_active,
                router._out_ports,
                router.out_flits,
                router._out_selectors,
                router._in_ports,
                router._sendable,
                router._in_selectors,
                router._part,
                router.is_host_port,
                router._route_view.candidates,
                [
                    -1 if link is None else link_index[id(link)]
                    for link in router.out_links
                ],
                [
                    0 if link is None else link.latency
                    for link in router.out_links
                ],
                list(router.out_links),
            )
            for router in network.routers
        ]

    def _wake_hook(self, idx: int):
        """``Link.on_wake`` for link ``idx``: first flit on an empty wire."""
        head = self._link_head
        activate = self._net._link_sched.activate

        def wake(arrival: int) -> None:
            head[idx] = arrival
            activate(idx)

        return wake

    # ------------------------------------------------------------------
    # consistency hooks

    def resync(self, links, routers) -> None:
        """Rebuild the derived hot state of ``links`` and ``routers``.

        That is the head mirror with the link active set (exactly the
        links whose wire holds flits), the free output-VC counts and
        the release epochs.  Every run starts with all of them (object
        code may have moved flits since the last one, and a router
        driven through its ``step`` keeps neither count nor epoch);
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

    def _call_outs(self):
        """Which components this run drives through their object methods.

        Returns ``(links, nis, routers)``; see the module docstring's
        call-out rules.  ``nis`` and ``routers`` are sets of scheduler
        ids.  ``links`` is a list parallel to ``_link_info`` holding
        each link's delivery mode: ``None`` for a clean link (inlined
        delivery, nothing else to do), ``_CALL_OUT`` for a traced link
        or sink (``Link.deliver_due`` on every visit), and for an
        untraced link carrying fault or health state the binding
        ``(faults, health, loss_prob, corrupt_prob, draw, broken,
        windowed)`` the inlined kernels gate each flit on (``faults``
        is ``None``, and the rest unused, on a health-only link).  A
        traced link makes its sender cold too, because ``link_tx`` is
        emitted by ``Link.send``.
        """
        net = self._net
        links = []
        for entry in self._link_info:
            link, sink = entry[0], entry[4]
            faults = link.faults
            if link.trace is not None or (
                sink is not None and sink.trace is not None
            ):
                links.append(_CALL_OUT)
            elif faults is not None:
                links.append(
                    (
                        faults,
                        link.health,
                        faults.loss_prob,
                        faults.corrupt_prob,
                        faults.rng.random,
                        faults.broken,
                        bool(faults.windows),
                    )
                )
            elif link.health is not None:
                links.append((None, link.health, 0.0, 0.0, None, None, False))
            else:
                links.append(None)
        nis = set()
        for idx, entry in enumerate(self._ni_info):
            ni, host_link = entry[0], entry[5]
            if ni.trace is not None or host_link.trace is not None:
                nis.add(idx)
        preemption = net.config.preemption
        routers = set()
        for rid, entry in enumerate(self._router_hot):
            router, out_links = entry[0], entry[15]
            if (
                preemption
                or router.trace is not None
                or router.on_crossbar is not None
                or type(router) is not WormholeRouter
                or not _ROUTER_METHODS.isdisjoint(vars(router))
                or any(
                    link is not None and link.trace is not None
                    for link in out_links
                )
            ):
                routers.add(rid)
        return links, nis, routers

    # ------------------------------------------------------------------
    # the run loop

    def run(self, until: int) -> None:
        """Advance the network to cycle ``until`` (body of ``Network.run``)."""
        net = self._net
        self.resync(net.links, net.routers)
        link_modes, cold_nis, cold_routers = self._call_outs()
        clock = net.clock
        events = net.events
        heap = events._heap
        link_sched = net._link_sched
        ni_sched = net._ni_sched
        router_sched = net._router_sched
        link_activate = link_sched.activate
        link_deactivate = link_sched.deactivate
        link_due = link_sched.due
        link_times = link_sched._times
        ni_deactivate = ni_sched.deactivate
        ni_due = ni_sched.due
        ni_times = ni_sched._times
        router_activate = router_sched.activate
        router_deactivate = router_sched.deactivate
        router_due = router_sched.due
        router_times = router_sched._times
        ni_active_set = ni_sched._active
        router_active_set = router_sched._active
        link_info = self._link_info
        ni_info = self._ni_info
        router_hot = self._router_hot
        link_head = self._link_head
        free_out = self._free_out
        release_epoch = self._release_epoch
        out_cap = self._out_cap
        watchdog = net.watchdog_window
        transport = net.transport
        profiler = net.profiler

        in_vc = self._in_vc
        out_vc = self._out_vc
        in_stateless = self._in_stateless
        out_stateless = self._out_stateless
        multiplexed = self._multiplexed
        routing_delay = self._routing_delay
        #: reusable buffer for the crossbar's deferred _pending_arb
        #: appends — always empty outside the crossbar block
        arb_buf = []
        arb_delay = self._arb_delay
        dyn_part = self._dyn_part
        be_bind = self._be_bind
        adaptive = self._adaptive
        ni_vc = self._ni_vc
        record_pool_append = release_record
        #: Message.is_real_time inlined: membership in the RT classes
        rt_classes = TrafficClass.REAL_TIME

        stall_clock = max(net._stall_clock, clock - 1)
        #: executed cycles = clock advance minus the cycles jumped over
        start = clock
        jumped = 0
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
            if profiler is not None:
                t0 = perf_counter()
            if heap and heap[0][0] <= clock:
                events.fire_due(clock)
            if profiler is not None:
                t1 = perf_counter()
                profiler.events_s += t1 - t0
            progress = 0

            # -- phase 1: link delivery (inlined Link.deliver_due) ------
            if link_times and link_times[0] <= clock:
                due_ids = link_due(clock)
            else:
                # Inlined ActivationScheduler.due steady-state path:
                # loan the maintained ascending active list.
                link_sched._loaned = True
                due_ids = link_sched._list
            for index in due_ids:
                # The head mirror is exact (module docstring), so an
                # active link with nothing due this cycle costs one list
                # index instead of an unpack plus a deque peek, and one
                # that passes is known to hold a due flit.
                head_val = link_head[index]
                if head_val > clock:
                    if head_val == _FAR:
                        # drained on an earlier visit and not refilled
                        link_deactivate(index)
                    continue
                mode = link_modes[index]
                if mode is None:
                    faults = None
                elif mode is _CALL_OUT or (mode[6] and mode[0].down(clock)):
                    # Object delivery: a traced link or sink, or a
                    # faulted link inside a down window (every due flit
                    # is lost there — that *is* the slow path).
                    link = link_info[index][0]
                    progress += link.deliver_due(clock)
                    # re-read: a loss teardown inside may have purged
                    # this link and rebuilt its deque
                    pending = link.pending
                    link_head[index] = pending[0][0] if pending else _FAR
                    continue
                else:
                    (
                        faults,
                        health,
                        loss_prob,
                        corrupt_prob,
                        draw,
                        broken,
                        _,
                    ) = mode
                (
                    link,
                    ivcs,
                    router,
                    rid,
                    sink,
                    flit_inline,
                    msg_inline,
                ) = link_info[index]
                pending = link.pending
                delivered = 0
                if ivcs is not None:
                    port = ivcs[0].port
                    popleft = pending.popleft
                    sendable = router._sendable[port]
                    router_in_ports = router._in_ports
                    # Activation is idempotent, so one batched check
                    # after the drain replaces the per-flit transition
                    # test the object path performs inside accept_flit.
                    was_idle = not router._work
                    # do-while: the outer guard already proved the head
                    # flit is due, so pop before re-testing.
                    while True:
                        _, msg, flit_index, vc_index = popleft()
                        if faults is not None:
                            # ---- inlined LinkFaultState.fate, outside
                            # a down window: its draws, in its order ----
                            if broken and msg.msg_id in broken:
                                # rest of a broken worm: no draw
                                fate = faults.fate(msg, flit_index, False)
                            elif loss_prob > 0.0 and draw() < loss_prob:
                                if flit_index != msg.last_flit:
                                    broken.add(msg.msg_id)
                                fate = FATE_LOST
                            elif corrupt_prob > 0.0 and draw() < corrupt_prob:
                                fate = FATE_CORRUPT
                            else:
                                fate = FATE_OK
                            if fate != FATE_OK:
                                delivered += link.apply_fate(
                                    clock, msg, flit_index, vc_index, fate, False
                                )
                                # A teardown inside may have purged this
                                # link (new deque, resynced mirror) and
                                # idled or re-activated the router.
                                pending = link.pending
                                popleft = pending.popleft
                                was_idle = not router._work
                                if not pending:
                                    head_val = _FAR
                                    break
                                head_val = pending[0][0]
                                if head_val > clock:
                                    break
                                continue
                        delivered += 1
                        # ---- inlined WormholeRouter.accept_flit ----
                        vc = ivcs[vc_index]
                        vst = vc.vstate
                        messages = vc.messages
                        if flit_index == 0:
                            msg.trail += (rid,)
                            if messages is NO_FLITS:
                                messages = vc.messages = deque()
                                vc.stamps = deque()
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
                                    router_in_ports.add(port)
                                    router._work += 1
                        if (
                            faults is not None
                            and health is not None
                            and health.state != UP
                        ):
                            # heartbeat once the flit has landed (the
                            # object path's order); a no-op while UP
                            health.on_ok(clock)
                        if not pending:
                            head_val = _FAR
                            break
                        head_val = pending[0][0]
                        if head_val > clock:
                            break
                    if was_idle and router._work:
                        router_activate(rid)
                else:
                    node = sink.node_id
                    popleft = pending.popleft
                    # With the standard inline wiring, flit counters
                    # batch into a local and flush before any callback
                    # runs, so callbacks observe the same counts the
                    # per-flit object path shows.  Custom on_flit sinks
                    # keep the per-flit updates.
                    ejected = 0
                    # do-while; see the router branch above.
                    while True:
                        _, msg, flit_index, vc_index = popleft()
                        if faults is not None:
                            # ---- inlined LinkFaultState.fate; see the
                            # router branch above ----
                            if broken and msg.msg_id in broken:
                                fate = faults.fate(msg, flit_index, False)
                            elif loss_prob > 0.0 and draw() < loss_prob:
                                if flit_index != msg.last_flit:
                                    broken.add(msg.msg_id)
                                fate = FATE_LOST
                            elif corrupt_prob > 0.0 and draw() < corrupt_prob:
                                fate = FATE_CORRUPT
                            else:
                                fate = FATE_OK
                            if fate != FATE_OK:
                                if ejected:
                                    sink.flits_ejected += ejected
                                    net._flits_in_flight -= ejected
                                    net.flits_ejected += ejected
                                    ejected = 0
                                delivered += link.apply_fate(
                                    clock, msg, flit_index, vc_index, fate, False
                                )
                                pending = link.pending
                                popleft = pending.popleft
                                if not pending:
                                    head_val = _FAR
                                    break
                                head_val = pending[0][0]
                                if head_val > clock:
                                    break
                                continue
                        delivered += 1
                        # ---- inlined HostSink.eject ----
                        if flit_inline:
                            ejected += 1
                        else:
                            sink.flits_ejected += 1
                            if sink.on_flit is not None:
                                sink.on_flit(1)
                        if flit_index == msg.last_flit:
                            if ejected:
                                sink.flits_ejected += ejected
                                net._flits_in_flight -= ejected
                                net.flits_ejected += ejected
                                ejected = 0
                            if msg.dst_node != node:
                                raise FlowControlError(
                                    f"message {msg.msg_id} for node "
                                    f"{msg.dst_node} ejected at node {node}"
                                )
                            if (
                                msg.corrupted
                                and sink.on_corrupt is not None
                            ):
                                sink.messages_corrupt += 1
                                sink.on_corrupt(msg, clock)
                            else:
                                msg.deliver_time = clock
                                sink.messages_ejected += 1
                                if msg_inline:
                                    net.messages_delivered += 1
                                    if transport is not None:
                                        transport.on_delivered(msg)
                                    if net._on_message is not None:
                                        net._on_message(msg, clock)
                                elif sink.on_message is not None:
                                    sink.on_message(msg, clock)
                        if (
                            faults is not None
                            and health is not None
                            and health.state != UP
                        ):
                            health.on_ok(clock)
                        if not pending:
                            head_val = _FAR
                            break
                        head_val = pending[0][0]
                        if head_val > clock:
                            break
                    if ejected:
                        sink.flits_ejected += ejected
                        net._flits_in_flight -= ejected
                        net.flits_ejected += ejected
                progress += delivered
                if mode is not None and faults is None and health.state != UP:
                    # health-only link: the fault-free object path's
                    # one batched heartbeat per visit
                    health.on_ok(clock, delivered)
                link_head[index] = head_val
            if profiler is not None:
                t2 = perf_counter()
                profiler.links_s += t2 - t1

            # -- phase 2: NI injection (inlined HostInterface.step) -----
            if ni_times and ni_times[0] <= clock:
                due_ids = ni_due(clock)
            else:
                ni_sched._loaned = True
                due_ids = ni_sched._list
            for index in due_ids:
                (
                    ni,
                    vcs,
                    active,
                    scheduler,
                    stateless,
                    link,
                    link_id,
                    latency,
                ) = ni_info[index]
                if cold_nis and index in cold_nis:
                    if not ni.step(clock):
                        ni_deactivate(index)
                    continue
                if not active:
                    ni_deactivate(index)
                    continue
                if len(active) == 1 and stateless:
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
                elif stateless:
                    # Stateless policies pick min((stamp, index)); track
                    # the running minimum instead of building the
                    # candidate list (ties go to the lowest index, and
                    # the minimum is iteration-order independent).
                    best = None
                    chosen = -1
                    for vc_index in active:
                        vc = vcs[vc_index]
                        if vc.credits > 0:
                            stamp = vc.head_stamp
                            if stamp is None:
                                msg = vc.queue[0]
                                if ni_vc:
                                    vst = vc.vstate
                                    stamp = vst.auxvc
                                    inject_time = msg.inject_time
                                    if inject_time > stamp:
                                        stamp = inject_time
                                    stamp += vst.vtick
                                    vst.auxvc = stamp
                                else:
                                    stamp = float(msg.inject_time)
                                vc.head_stamp = stamp
                            if best is None or stamp < best or (
                                stamp == best and vc_index < chosen
                            ):
                                best = stamp
                                chosen = vc_index
                    if chosen < 0:
                        continue
                    vc = vcs[chosen]
                else:
                    candidates = []
                    for vc_index in active:
                        vc = vcs[vc_index]
                        if vc.credits > 0:
                            stamp = vc.head_stamp
                            if stamp is None:
                                msg = vc.queue[0]
                                if ni_vc:
                                    vst = vc.vstate
                                    stamp = vst.auxvc
                                    inject_time = msg.inject_time
                                    if inject_time > stamp:
                                        stamp = inject_time
                                    stamp += vst.vtick
                                    vst.auxvc = stamp
                                else:
                                    stamp = float(msg.inject_time)
                                vc.head_stamp = stamp
                            candidates.append((stamp, vc_index))
                    if not candidates:
                        continue
                    chosen = scheduler.select(candidates)
                    vc = vcs[chosen]
                msg = vc.queue[0]
                flit_index = vc.sent
                vc.credits -= 1
                vc.sent = flit_index + 1
                vc.head_stamp = None
                # ---- inlined Link.send onto the host wire ----
                arrival = clock + latency
                pending = link.pending
                if not pending:
                    link_activate(link_id)
                    link_head[link_id] = arrival
                pending.append((arrival, msg, flit_index, chosen))
                if flit_index == 0 and ni.on_start is not None:
                    ni.on_start(msg, clock)
                if flit_index == msg.last_flit:
                    vc.queue.popleft()
                    vst = vc.vstate
                    if vc.queue:
                        head = vc.queue[0]
                        vc.sent = 0
                        vst.auxvc = float(head.inject_time)
                        vst.vtick = head.vtick
                        vst.is_open = True
                    else:
                        vst.is_open = False
                        vst.auxvc = 0.0
                        vst.vtick = BEST_EFFORT_VTICK
                        active.discard(chosen)
                        if not active:
                            ni_deactivate(index)

            if profiler is not None:
                t3 = perf_counter()
                profiler.nis_s += t3 - t2

            # -- phases 3-5: routers, stages 5 -> 4 -> 2/3 --------------
            if router_times and router_times[0] <= clock:
                due_ids = router_due(clock)
            else:
                router_sched._loaned = True
                due_ids = router_sched._list
            for rid in due_ids:
                (
                    router,
                    inputs,
                    outputs,
                    out_active,
                    out_ports,
                    out_flits,
                    out_selectors,
                    in_ports,
                    sendable_sets,
                    in_selectors,
                    part,
                    is_host_port,
                    candidates_of,
                    link_ids,
                    latencies,
                    links_of,
                ) = router_hot[rid]
                if cold_routers and rid in cold_routers:
                    if not router.step(clock):
                        router_deactivate(rid)
                    continue
                if not router._work:
                    router_deactivate(rid)
                    continue
                free_ports = free_out[rid]
                epochs = release_epoch[rid]

                # ---- stage 5: output VC mux + link send ----
                if out_ports:
                    # Stage-5 ports are independent — distinct links,
                    # VCs, and commutative counters, and (unlike the
                    # crossbar) no appends to a shared worklist — so the
                    # drain order across ports is unobservable; an
                    # unsorted copy avoids the per-cycle sort while
                    # keeping mutation-safety.
                    ports = list(out_ports)
                    for port in ports:
                        active5 = out_active[port]
                        ovcs = outputs[port]
                        if len(active5) == 1 and out_stateless:
                            for chosen in active5:
                                break
                            ovc = ovcs[chosen]
                            if ovc.downstream is not None and ovc.credits <= 0:
                                continue
                        elif out_stateless:
                            # Running min((stamp, index)) — see phase 2.
                            best = None
                            chosen = -1
                            for vc_index in active5:
                                ovc = ovcs[vc_index]
                                if ovc.downstream is None or ovc.credits > 0:
                                    stamp = ovc.stamps[0]
                                    if best is None or stamp < best or (
                                        stamp == best and vc_index < chosen
                                    ):
                                        best = stamp
                                        chosen = vc_index
                            if chosen < 0:
                                continue
                            ovc = ovcs[chosen]
                        else:
                            candidates = []
                            for vc_index in active5:
                                ovc = ovcs[vc_index]
                                if ovc.downstream is None or ovc.credits > 0:
                                    candidates.append(
                                        (ovc.stamps[0], vc_index)
                                    )
                            if not candidates:
                                continue
                            chosen = out_selectors[port].select(
                                candidates
                            )
                            ovc = ovcs[chosen]
                        queue = ovc.queue
                        ovc.stamps.popleft()
                        msg, flit_index = queue.popleft()
                        if ovc.downstream is not None:
                            ovc.credits -= 1
                        link_id = link_ids[port]
                        if link_id < 0:
                            raise FlowControlError(
                                f"router {rid} port {port} has staged flits "
                                f"but no outgoing link"
                            )
                        # ---- inlined Link.send ----
                        arrival = clock + latencies[port]
                        pending = links_of[port].pending
                        if not pending:
                            link_activate(link_id)
                            link_head[link_id] = arrival
                        pending.append((arrival, msg, flit_index, chosen))
                        out_flits[port] += 1
                        if not queue:
                            active5.discard(chosen)
                            if not active5:
                                out_ports.discard(port)
                            router._work -= 1
                        if flit_index == msg.last_flit:
                            ovc.owner = None
                            free_ports[port] += 1
                            epochs[port] += 1
                            vst = ovc.vstate
                            vst.is_open = False
                            vst.auxvc = 0.0
                            vst.vtick = BEST_EFFORT_VTICK

                # ---- stage 4: crossbar ----
                if in_ports:
                    # Unlike stage 5, crossbar port order is observable
                    # through exactly one side effect: a tail flit whose
                    # input VC holds a buffered next message appends
                    # that VC to the shared _pending_arb worklist, and
                    # stage 2/3 serves it in append order.  Iterate the
                    # ports unsorted (saving the per-cycle sort) but
                    # defer those appends and flush them in the object
                    # path's sorted-port order below.
                    ports = list(in_ports)
                    for port in ports:
                        sendable = sendable_sets[port]
                        if not sendable:
                            continue
                        port_vcs = inputs[port]
                        if multiplexed:
                            if len(sendable) == 1 and in_stateless:
                                for chosen in sendable:
                                    break
                                vc = port_vcs[chosen]
                                if vc.ready_at > clock:
                                    continue
                                ovc = vc.route_vc
                                if len(ovc.queue) >= out_cap:
                                    continue
                                moves = (vc,)
                            elif in_stateless:
                                # Running min((stamp, index)) — see
                                # phase 2.
                                best = None
                                chosen = -1
                                for vc_index in sendable:
                                    vc = port_vcs[vc_index]
                                    if vc.ready_at > clock:
                                        continue
                                    ovc = vc.route_vc
                                    if len(ovc.queue) >= out_cap:
                                        continue
                                    stamp = vc.stamps[0]
                                    if best is None or stamp < best or (
                                        stamp == best and vc_index < chosen
                                    ):
                                        best = stamp
                                        chosen = vc_index
                                if chosen < 0:
                                    continue
                                moves = (port_vcs[chosen],)
                            else:
                                candidates = []
                                for vc_index in sendable:
                                    vc = port_vcs[vc_index]
                                    if vc.ready_at > clock:
                                        continue
                                    ovc = vc.route_vc
                                    if len(ovc.queue) >= out_cap:
                                        continue
                                    candidates.append(
                                        (vc.stamps[0], vc_index)
                                    )
                                if not candidates:
                                    continue
                                chosen = in_selectors[port].select(
                                    candidates
                                )
                                moves = (port_vcs[chosen],)
                        else:
                            moves = []
                            for vc_index in list(sendable):
                                vc = port_vcs[vc_index]
                                if vc.ready_at > clock:
                                    continue
                                ovc = vc.route_vc
                                if len(ovc.queue) >= out_cap:
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
                                # Stage 5 discards the VC from the
                                # active set exactly when its staging
                                # queue drains, so empty-queue is the
                                # activation edge.
                                out_port = ovc.port
                                out_active[out_port].add(ovc.index)
                                out_ports.add(out_port)
                                router._work += 1
                            out_queue.append((msg, flit_index))
                            ovc.stamps.append(stamp)
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
                                record_pool_append(front)
                                vc.route_port = -1
                                vc.route_vc = None
                                if messages:
                                    vc.head_arrival = messages[
                                        0
                                    ].header_time
                                    arb_buf.append((port, vc))
                                    router._work += 1
                            elif front.arrived <= front.served:
                                sendable.discard(vc.index)
                                if not sendable:
                                    in_ports.discard(port)
                                router._work -= 1
                    if arb_buf:
                        # Flush in sorted-port order (stable: within a
                        # port the full crossbar keeps its move order).
                        if len(arb_buf) > 1:
                            arb_buf.sort(key=_by_port)
                        pending_arb = router._pending_arb
                        for _, vc in arb_buf:
                            pending_arb.append(vc)
                        del arb_buf[:]

                # ---- stages 2/3: routing + output VC arbitration ----
                pending_arb = router._pending_arb
                if pending_arb:
                    rotate = router._arb_rotate % len(pending_arb)
                    router._arb_rotate += 1
                    if rotate:
                        ordered = (
                            pending_arb[rotate:] + pending_arb[:rotate]
                        )
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
                            # No output VC of the port was released
                            # since this header's attempt failed.  (A
                            # new front message or a re-route starts at
                            # route_port -1 and, below, ends this visit
                            # granted or with a verdict of its own.)
                            still_waiting.append(vc)
                            continue
                        if clock < vc.head_arrival + routing_delay:
                            still_waiting.append(vc)
                            continue
                        msg = messages[0].msg
                        if port < 0:
                            if adaptive:
                                route_ports = router._adaptive_candidates(
                                    msg
                                )
                            else:
                                route_ports = candidates_of(msg.dst_node)
                            if len(route_ports) == 1:
                                port = route_ports[0]
                            else:
                                port = router._select_output_port(
                                    clock, route_ports
                                )
                            vc.route_port = port
                        if not free_ports[port]:
                            # Every output VC is owned: the bound-VC
                            # check and both partition scans can only
                            # come up empty, so the attempt blocks.
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
                                elif real_time or be_bind:
                                    vc.wait_epoch = epochs[port]
                                    still_waiting.append(vc)
                                    continue
                        elif adaptive and msg.detoured is not None:
                            escape = True
                        if ovc is None:
                            for vc_index in part[port][real_time][escape]:
                                candidate = ovcs[vc_index]
                                if candidate.owner is None:
                                    ovc = candidate
                                    break
                            else:
                                if dyn_part and not (real_time or escape):
                                    for vc_index in part[port][True][0]:
                                        candidate = ovcs[vc_index]
                                        if candidate.owner is None:
                                            ovc = candidate
                                            break
                        if ovc is None:
                            vc.wait_epoch = epochs[port]
                            still_waiting.append(vc)
                            continue
                        # ---- inlined OutputVC.grant ----
                        ovc.owner = msg
                        if ovc.queue is NO_FLITS:
                            ovc.queue, ovc.stamps = deque(), deque()
                        free_ports[ovc.port] -= 1
                        vst = ovc.vstate
                        vst.auxvc = float(clock)
                        vst.vtick = msg.vtick
                        vst.is_open = True
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

                if not router._work:
                    router_deactivate(rid)
            if profiler is not None:
                profiler.routers_s += perf_counter() - t3
                profiler.cycles += 1

            if watchdog is not None:
                if progress or not net._flits_in_flight:
                    stall_clock = clock
                elif clock - stall_clock >= watchdog:
                    net.cycles_executed += clock + 1 - start - jumped
                    net._watchdog_fire(clock, stall_clock, watchdog)
            clock += 1
        net._stall_clock = stall_clock
        net.clock = clock
        net.cycles_executed += clock - start - jumped
