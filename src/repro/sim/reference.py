"""The reference stepper: every component, every executed cycle.

:func:`run_reference` is the readable spec of one simulated cycle —
events, then links, then NIs, then routers — written as a plain full
scan over the component objects.  The production loop
(:class:`repro.sim.fused.FusedLoop`, behind ``Network.run``) must be
bit-identical to it; the parity suites pass it wherever a loop is an
argument (``simulate(experiment, loop=run_reference)``), and
``mediaworm scale`` and the chaos parity twin run it as their second
opinion.  Nothing on the production run path imports this module.
"""

from __future__ import annotations


def run_reference(network, until: int) -> None:
    """Advance ``network`` to cycle ``until`` by stepping everything.

    Same signature as the unbound ``Network.run``, so either can be
    passed where a loop is expected, and one network may be handed back
    and forth between them.  Per executed cycle, in this order — the
    bit-identical contract with the fused loop:

    1. ``events.fire_due`` — injections, transport timeouts;
    2. ``Link.deliver_due`` on every link holding flits, in
       ``network.links`` order;
    3. ``HostInterface.step`` on every NI, in wiring order;
    4. ``WormholeRouter.step`` on every router, ascending id (each
       runs its stages downstream-to-upstream: 5, 4, 2/3).

    The step contract this relies on, and that the fused loop's active
    sets exploit:

    * ``step(clock)`` advances a component one cycle and returns its
      *activity*: zero means it did nothing **and** holds no work,
      non-zero that it is still part of the working set (an NI with
      backlog, a router's busy-VC count).  ``deliver_due`` returns the
      flits it handed over, the watchdog's progress signal.  The scan
      ignores the step values — it visits everything anyway; the fused
      loop drops a component from its active set on zero.
    * A spurious step is a no-op: a component stepped with nothing to
      do changes nothing and reports itself idle.  That is why visiting
      only the non-idle subset cannot change a result.
    * Id order is wiring order: the activation schedulers hand out ids
      in the order of the lists scanned here, so the fused loop's
      ascending-id visits replay this scan restricted to the active
      subset.

    The clock jumps only over an empty network (to the next scheduled
    event, or the horizon); ``network.cycles_executed`` counts the
    cycles stepped.  With ``watchdog_window`` set, a full window without
    a delivery while flits are in flight raises ``DeadlockError`` — at
    the same cycle as the fused loop, which caps its jumps to match.
    """
    clock = network.clock
    events = network.events
    links = network.links
    interfaces = network._ni_list
    routers = network.routers
    watchdog = network.watchdog_window
    stall_clock = max(network._stall_clock, clock - 1)
    start = clock
    jumped = 0
    while clock < until:
        if network._flits_in_flight == 0:
            nxt = events.next_time()
            if nxt is None:
                jumped += until - clock
                clock = until
                break
            if nxt > clock:
                nxt = min(nxt, until)
                jumped += nxt - clock
                clock = nxt
                stall_clock = clock
                if clock >= until:
                    break
        network.clock = clock
        events.fire_due(clock)
        progress = 0
        for link in links:
            if link.pending:
                progress += link.deliver_due(clock)
        for ni in interfaces:
            ni.step(clock)
        for router in routers:
            router.step(clock)
        if watchdog is not None:
            if progress or not network._flits_in_flight:
                stall_clock = clock
            elif clock - stall_clock >= watchdog:
                network.cycles_executed += clock + 1 - start - jumped
                network._watchdog_fire(clock, stall_clock, watchdog)
        clock += 1
    network._stall_clock = stall_clock
    network.clock = clock
    network.cycles_executed += clock - start - jumped
