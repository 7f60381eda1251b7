"""Stage 2/3's release-epoch memo must be unobservable.

A routed header whose grant attempt finds no output VC stores its
port's release epoch (``InputVC.wait_epoch``) and is re-queued on one
compare until a VC of that port is released.  Every test here runs the
same script on the fused loop and on the reference stepper (which has
no memo) and compares cycle-level state — grant cycles, the rotation
counter, the arbitration worklist's order.
"""

from conftest import (
    attach_workload,
    make_mesh_network,
    make_message,
    make_network,
)
from repro.network.network import Network
from repro.obs.sinks import RingBufferSink, install_tracing, uninstall_tracing
from repro.router.config import RoutingMode
from repro.sim.reference import run_reference


def _both_loops(build):
    return build(Network.run), build(run_reference)


def _arb_state(network):
    """Per router: the rotation counter and the worklist, in order."""
    return [
        (
            router._arb_rotate,
            [(vc.port, vc.index, vc.route_port) for vc in router._pending_arb],
        )
        for router in network.routers
    ]


def _memo_hits(network):
    """Input VCs whose stored verdict is current (fused loop only)."""
    loop = network._loop
    return sum(
        vc.route_port >= 0
        and vc.wait_epoch == loop._release_epoch[router.router_id][vc.route_port]
        for router in network.routers
        for vc in router._pending_arb
    )


def _saturated_mesh(delivered):
    """Adaptive 2x2 fat mesh, one member of the 0->1 pair dead, load 0.95."""
    network, topology = make_mesh_network(
        routing_mode=RoutingMode.ADAPTIVE,
        on_message=lambda msg, clock: delivered.append(
            (msg.src_node, msg.dst_node, msg.size, clock)
        ),
    )
    dead = next(
        src_p for src_r, src_p, dst_r, _ in topology.channels
        if (src_r, dst_r) == (0, 1)
    )
    network.routing.mask_port(0, dead)
    attach_workload(network, load=0.95)
    return network


def test_saturated_adaptive_mesh_is_bit_identical_down_to_the_worklist():
    hits = []

    def build(run):
        delivered = []
        network = _saturated_mesh(delivered)
        run(network, 3000)
        if run is Network.run:
            hits.append(_memo_hits(network))
        mid = _arb_state(network)
        run(network, 9000)
        network.check_invariants()
        return delivered, mid, _arb_state(network), network.flits_ejected

    default, reference = _both_loops(build)
    assert default == reference
    assert hits[0] > 0, "no header was waiting on a stored verdict"
    assert any(rotate > 1000 for rotate, _ in default[2])


def test_tracing_between_two_runs_leaves_no_stale_verdict():
    """Hot, then cold (traced routers step through object code, which
    keeps neither counts nor epochs), then hot again on one network."""

    def build(run):
        delivered = []
        network = _saturated_mesh(delivered)
        run(network, 3000)
        install_tracing(network, RingBufferSink())
        run(network, 5000)
        uninstall_tracing(network)
        states = []
        for until in (5001, 5002, 5010, 8000):
            run(network, until)
            states.append(_arb_state(network))
        network.check_invariants()
        return delivered, states, network.flits_ejected

    default, reference = _both_loops(build)
    assert default == reference


def _blocked_header(run, act):
    """A long worm owns the only normal real-time VC of router 0's east
    port (its fat-pair sibling masked), a second header waits behind it
    for 300 cycles; ``act(network, owner, east)`` runs as an event
    at cycle 400.  Returns the waiter's per-cycle routing state over
    cycles 390..430, read by events inside the one ``run`` call (a
    second ``run`` would flush every verdict at its entry).
    """
    network, topology = make_mesh_network(routing_mode=RoutingMode.ADAPTIVE)
    east = [
        src_p for src_r, src_p, dst_r, _ in topology.channels
        if (src_r, dst_r) == (0, 1)
    ]
    network.routing.mask_port(0, east[1])
    owner = make_message(src=0, dst=1, size=2000, src_vc=0, dst_vc=0)
    waiter = make_message(src=0, dst=1, size=8, src_vc=1, dst_vc=1)
    network.schedule_message(0, owner)
    network.schedule_message(100, waiter)
    waiter_vc = network.routers[0].inputs[0][1]
    seen = []

    def watch():
        granted = waiter_vc.route_vc
        seen.append(
            (
                network.clock,
                waiter_vc.msg is waiter,
                waiter_vc.route_port,
                None if granted is None else (granted.port, granted.index),
            )
        )

    for cycle in range(390, 431):
        network.schedule_call(cycle, watch)
    network.schedule_call(400, lambda: act(network, owner, east))
    run(network, 440)
    network.check_invariants()
    return seen, network


def test_a_purge_that_releases_the_output_vc_wakes_its_waiter_that_cycle():
    def act(network, owner, east):
        network.kill_message(owner)

    def build(run):
        seen, network = _blocked_header(run, act)
        return seen

    default, reference = _both_loops(build)
    assert default == reference
    by_cycle = {cycle: rest for cycle, *rest in default}
    # blocked (routed, no grant) up to the kill at 400, granted by the
    # stage 2/3 of that very cycle
    assert by_cycle[400] == [True, 1, None]
    assert by_cycle[401] == [True, 1, (1, 0)]


def test_requeue_on_a_masked_port_reroutes_the_waiter_that_cycle():
    def act(network, owner, east):
        # the health monitor's move: mask the port the worms sit on,
        # open its sibling, kill-and-requeue what is wedged there
        router = network.routers[0]
        network.routing.unmask_port(0, east[1])
        network.routing.mask_port(0, east[0])
        network.requeue_stuck_worms(router, east[0], router.out_links[east[0]])

    def build(run):
        seen, network = _blocked_header(run, act)
        return seen, network.flits_dropped

    default, reference = _both_loops(build)
    assert default == reference
    by_cycle = {cycle: rest for cycle, *rest in default[0]}
    assert by_cycle[400] == [True, 1, None]
    assert by_cycle[401] == [True, 2, (2, 0)]


def test_a_new_front_message_never_inherits_a_verdict():
    """Release epochs are per port, so a verdict stored for one port can
    equal another port's epoch: ``first`` waits on port 1 at epoch 1,
    and the message queued behind it on the same input VC routes to
    port 2, whose epoch is still 1 and whose VCs are free.  It starts at
    ``route_port`` -1, so the stored value is never looked at."""

    def build(run):
        network = make_network()
        owner = make_message(src=2, dst=1, size=100, dst_vc=0)
        first = make_message(src=0, dst=1, size=4, dst_vc=0)
        second = make_message(src=0, dst=2, size=4, dst_vc=0)
        network.schedule_message(0, owner)
        network.schedule_message(20, first)
        network.schedule_message(20, second)
        run(network, 1000)
        network.check_invariants()
        return [msg.deliver_time for msg in (owner, first, second)]

    default, reference = _both_loops(build)
    assert default == reference
    assert min(default) > 0
