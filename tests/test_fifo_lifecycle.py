"""A flit FIFO holds a deque only while a worm uses it.

Input VCs, output VCs, wires and NI VCs start as the shared
``NO_FLITS`` and go back to it when their worm leaves, on both loops
at the same cycle; every purge that empties one gives it back too.
``Network.buffered_vcs`` still counts the VCs a worm ever used.
"""

from collections import deque

import pytest

from conftest import make_mesh_network, make_message, make_network
from killcheck import audit_kill
from repro.errors import FlowControlError, SimulationError
from repro.network.network import Network
from repro.network.topology import fat_tree3
from repro.router.buffers import NO_FLITS, InputVC, OutputVC
from repro.router.config import RouterConfig
from repro.sim.reference import run_reference


def _fifos(network):
    """``(where, holder, slot)`` for every flit FIFO of ``network``."""
    for router in network.routers:
        for vcs in router.inputs:
            for vc in vcs:
                where = ("in", router.router_id, vc.port, vc.index)
                yield where, vc, "messages"
                yield where, vc, "stamps"
        for ovcs in router.outputs:
            for ovc in ovcs:
                where = ("out", router.router_id, ovc.port, ovc.index)
                yield where, ovc, "queue"
                yield where, ovc, "stamps"
    for link in network.links:
        yield ("wire", link.label), link, "pending"
    for node, ni in network.interfaces.items():
        for vc in ni.vcs:
            yield ("ni", node, vc.index), vc, "queue"


def _held(network):
    """The FIFOs holding a deque, as ``(where, slot)`` pairs."""
    held = set()
    for where, holder, slot in _fifos(network):
        buffer = getattr(holder, slot)
        if buffer is not NO_FLITS:
            assert isinstance(buffer, deque), (where, slot)
            held.add((where, slot))
    assert len(held) == network.held_deques()
    return held


def _single_switch():
    return make_network(ports=4, vcs=4), make_message(src=0, dst=3, size=9)


def _fat_tree():
    topology = fat_tree3(k=4)
    config = RouterConfig(num_ports=topology.ports_per_router, vcs_per_pc=4)
    # host 0 to the last host crosses the core: five routers
    msg = make_message(src=0, dst=topology.num_hosts - 1, size=9)
    return Network(topology, config), msg


@pytest.mark.parametrize(
    "build", [_single_switch, _fat_tree], ids=["single-switch", "fat-tree3-k4"]
)
class TestOneWorm:
    def test_both_loops_hold_the_same_deques_every_cycle(self, build):
        """Stepped side by side, the fused loop and the reference
        stepper hold deques in the same FIFOs at every cycle, and the
        audit passes at every cycle."""
        (fused, msg), (reference, twin) = build(), build()
        fused.inject_now(msg)
        reference.inject_now(twin)
        peak = 0
        while fused.flits_in_flight or reference.flits_in_flight:
            until = fused.clock + 1
            assert until < 500, "the worm never drained"
            fused.run(until)
            run_reference(reference, until)
            held = _held(fused)
            assert held == _held(reference), until
            peak = max(peak, len(held))
            fused.check_invariants()
            reference.check_invariants()
        assert peak > 0
        assert msg.deliver_time == twin.deliver_time > 0

    @pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
    def test_afterwards_every_fifo_is_released(self, build, reference_loop):
        network, msg = build()
        network.inject_now(msg)
        network.run_until_drained(max_extra=10_000)
        assert msg.deliver_time > 0
        assert _held(network) == set() and network.held_deques() == 0
        # one input VC and one output VC per router the worm crossed
        assert network.buffered_vcs()[0] == 2 * len(msg.trail)
        network.check_invariants()


class TestKillReleases:
    """``Network.kill_message`` on the only worm: the NI queue, the
    wires, the input VCs (``InputVC.purge_message``) and the output VCs
    (``OutputVC.purge_owner``) it held all go back to ``NO_FLITS``."""

    @pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
    @pytest.mark.parametrize("cut", [6, 12, 20])
    def test_every_purge_path_gives_its_fifo_back(self, reference_loop, cut):
        network, _ = make_mesh_network()
        msg = make_message(src=0, dst=3, size=40)
        network.inject_now(msg)
        network.run(cut)
        kinds = {where[0] for where, _ in _held(network)}
        assert {"ni", "wire", "in"} <= kinds
        if cut > 6:
            assert "out" in kinds
        network.kill_message(msg)
        audit_kill(network, msg)
        assert _held(network) == set()
        network.check_invariants()
        # the released FIFOs serve the next worm as if never used
        follower = make_message(src=0, dst=3, size=6)
        network.inject_now(follower)
        network.run_until_drained(max_extra=10_000)
        assert follower.deliver_time > 0 and _held(network) == set()


class TestPurgeKeepsWhatIsStillUsed:
    """A purge gives a FIFO back only when it leaves it empty."""

    def test_input_vc(self):
        vc = InputVC(0, 0, 8)
        first, second = make_message(size=2), make_message(size=2)
        for msg in (first, second):
            vc.accept_new_message(0, msg)
            vc.accept_flit(1.0)
        assert vc.purge_message(first) == 1
        assert isinstance(vc.messages, deque) and list(vc.stamps) == [1.0]
        vc.check_invariants()
        assert vc.purge_message(second) == 1
        assert vc.messages is NO_FLITS and vc.stamps is NO_FLITS
        vc.check_invariants()

    def test_output_vc_release(self):
        ovc = OutputVC(0, 0, 2)
        msg = make_message(size=1)
        ovc.grant(0, msg)
        ovc.push(msg, 0, 0.0)
        ovc.pop_head()
        ovc.release()
        assert ovc.queue is NO_FLITS and ovc.stamps is NO_FLITS
        ovc.check_invariants()

    def test_wire(self):
        network, _ = make_mesh_network()
        first = make_message(src=0, size=8, src_vc=0)
        second = make_message(src=0, size=8, src_vc=1)
        network.inject_now(first)
        network.inject_now(second)
        network.run(2)
        link = network.interfaces[0].link
        assert {entry[1] for entry in link.pending} == {first, second}
        assert link.purge_message(second)
        assert {entry[1] for entry in link.pending} == {first}
        assert link.purge_message(first)
        assert link.pending is NO_FLITS

    def test_ni_queue(self):
        network, _ = make_mesh_network()
        first = make_message(src=0, size=8)
        second = make_message(src=0, size=8)
        network.inject_now(first)
        network.inject_now(second)
        ni = network.interfaces[0]
        assert ni.purge_message(second) == 8
        assert list(ni.vcs[0].queue) == [first]
        assert ni.purge_message(first) == 8
        assert ni.vcs[0].queue is NO_FLITS and not ni.has_backlog


class TestTheAuditCatchesALeak:
    """A FIFO kept past its worm fails ``check_invariants``."""

    def _drained(self):
        network, _ = make_mesh_network()
        msg = make_message(src=0, dst=3, size=4)
        network.inject_now(msg)
        network.run_until_drained(max_extra=10_000)
        network.check_invariants()
        return network, msg

    def test_input_vc(self):
        network, msg = self._drained()
        vc = network.routers[msg.trail[0]].inputs[0][0]
        assert vc.carried
        vc.messages, vc.stamps = deque(), deque()
        with pytest.raises(FlowControlError, match="still holds its deques"):
            network.check_invariants()

    def test_output_vc(self):
        network, msg = self._drained()
        router = network.routers[msg.trail[0]]
        ovc = next(ovc for ovcs in router.outputs for ovc in ovcs if ovc.carried)
        ovc.queue, ovc.stamps = deque(), deque()
        with pytest.raises(FlowControlError, match="still holds its deques"):
            network.check_invariants()

    def test_never_used_vcs(self):
        """The rule binds before a VC's first use as well."""
        vc, ovc = InputVC(0, 0, 4), OutputVC(0, 0, 2)
        assert not vc.carried and not ovc.carried
        vc.messages, vc.stamps = deque(), deque()
        ovc.queue, ovc.stamps = deque(), deque()
        for buffer in (vc, ovc):
            with pytest.raises(FlowControlError, match="still holds its deques"):
                buffer.check_invariants()

    def test_wire(self):
        network, _ = self._drained()
        network.links[0].pending = deque()
        with pytest.raises(SimulationError, match="still holds its deque"):
            network.check_invariants()

    def test_ni_queue(self):
        network, _ = self._drained()
        network.interfaces[0].vcs[0].queue = deque()
        with pytest.raises(SimulationError, match="still holds its deque"):
            network.check_invariants()
