"""Input/output VC buffers and credit bookkeeping."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowControlError
from repro.experiments.config import FatTree3Experiment
from repro.experiments.runner import simulate
from repro.router.buffers import NO_FLITS, InputVC, OutputVC
from repro.router.flit import Message, TrafficClass
from repro.sim.reference import run_reference


def _msg(size=4, vtick=50.0):
    return Message(0, 1, size, vtick, TrafficClass.VBR)


class TestInputVC:
    def test_starts_free(self):
        vc = InputVC(port=0, index=1, capacity=4)
        assert vc.is_free
        assert vc.occupancy == 0
        assert vc.msg is None
        assert not vc.front_has_flit

    def test_accept_message_and_flits(self):
        vc = InputVC(0, 0, capacity=4)
        msg = _msg(size=3)
        vc.accept_new_message(10, msg)
        for stamp in (1.0, 2.0, 3.0):
            vc.accept_flit(stamp)
        assert vc.occupancy == 3
        assert vc.msg is msg
        assert vc.head_stamp() == 1.0
        assert vc.head_arrival == 10

    def test_pop_returns_flit_indices_in_order(self):
        vc = InputVC(0, 0, capacity=4)
        msg = _msg(size=3)
        vc.accept_new_message(0, msg)
        for stamp in (1.0, 2.0, 3.0):
            vc.accept_flit(stamp)
        assert vc.pop_head() == (msg, 0)
        assert vc.pop_head() == (msg, 1)
        assert vc.pop_head() == (msg, 2)
        assert vc.occupancy == 0

    def test_overflow_raises(self):
        vc = InputVC(0, 0, capacity=2)
        vc.accept_new_message(0, _msg(size=5))
        vc.accept_flit(1.0)
        vc.accept_flit(2.0)
        with pytest.raises(FlowControlError):
            vc.accept_flit(3.0)

    def test_flit_without_header_raises(self):
        vc = InputVC(0, 0, capacity=2)
        with pytest.raises(FlowControlError):
            vc.accept_flit(1.0)

    def test_pop_empty_raises(self):
        vc = InputVC(0, 0, capacity=2)
        vc.accept_new_message(0, _msg())
        with pytest.raises(FlowControlError):
            vc.pop_head()

    def test_second_message_queues_behind_tail(self):
        vc = InputVC(0, 0, capacity=8)
        first, second = _msg(size=2), _msg(size=2)
        vc.accept_new_message(0, first)
        vc.accept_flit(1.0)
        vc.accept_flit(2.0)
        vc.accept_new_message(5, second)
        vc.accept_flit(3.0)
        assert vc.msg is first
        assert len(vc.messages) == 2
        assert vc.occupancy == 3

    def test_front_has_flit_tracks_front_only(self):
        vc = InputVC(0, 0, capacity=8)
        first, second = _msg(size=1), _msg(size=1)
        vc.accept_new_message(0, first)
        vc.accept_flit(1.0)
        vc.pop_head()
        # front drained, second message's flit arrives
        vc.accept_new_message(3, second)
        vc.accept_flit(2.0)
        assert not vc.front_has_flit  # front (first) fully served
        assert vc.release_front()  # second waits behind
        assert vc.front_has_flit

    def test_release_front_restores_header_time(self):
        vc = InputVC(0, 0, capacity=8)
        vc.accept_new_message(0, _msg(size=1))
        vc.accept_flit(1.0)
        vc.accept_new_message(42, _msg(size=1))
        vc.accept_flit(2.0)
        vc.pop_head()
        assert vc.release_front()
        assert vc.head_arrival == 42

    def test_release_without_full_service_raises(self):
        vc = InputVC(0, 0, capacity=8)
        vc.accept_new_message(0, _msg(size=3))
        vc.accept_flit(1.0)
        vc.pop_head()
        with pytest.raises(FlowControlError):
            vc.release_front()

    def test_release_when_free_raises(self):
        with pytest.raises(FlowControlError):
            InputVC(0, 0, 2).release_front()

    def test_release_last_message_frees_vc(self):
        vc = InputVC(0, 0, capacity=8)
        vc.accept_new_message(0, _msg(size=1))
        vc.accept_flit(1.0)
        vc.pop_head()
        assert not vc.release_front()
        assert vc.is_free
        assert vc.route_port == -1 and vc.route_vc is None

    def test_invariants_pass_for_consistent_state(self):
        vc = InputVC(0, 0, capacity=4)
        vc.accept_new_message(0, _msg(size=2))
        vc.accept_flit(1.0)
        vc.check_invariants()


class TestOutputVC:
    def test_starts_free_with_space(self):
        ovc = OutputVC(port=1, index=2, capacity=2)
        assert ovc.is_free
        assert ovc.has_space

    def test_grant_and_release(self):
        ovc = OutputVC(0, 0, 2)
        msg = _msg()
        ovc.grant(5, msg)
        assert not ovc.is_free
        assert ovc.owner is msg
        ovc.release()
        assert ovc.is_free

    def test_double_grant_raises(self):
        ovc = OutputVC(0, 0, 2)
        ovc.grant(0, _msg())
        with pytest.raises(FlowControlError):
            ovc.grant(1, _msg())

    def test_push_pop_fifo_order(self):
        ovc = OutputVC(0, 0, 4)
        msg = _msg(size=3)
        ovc.grant(0, msg)
        for i in range(3):
            ovc.push(msg, i, float(i))
        assert ovc.head_stamp() == 0.0
        assert ovc.pop_head() == (msg, 0)
        assert ovc.pop_head() == (msg, 1)

    def test_staging_overflow_raises(self):
        ovc = OutputVC(0, 0, 1)
        msg = _msg()
        ovc.grant(0, msg)
        ovc.push(msg, 0, 0.0)
        assert not ovc.has_space
        with pytest.raises(FlowControlError):
            ovc.push(msg, 1, 1.0)

    def test_pop_empty_raises(self):
        with pytest.raises(FlowControlError):
            OutputVC(0, 0, 2).pop_head()

    def test_credit_invariant_checked(self):
        ovc = OutputVC(0, 0, 2)
        ovc.credits = -1
        with pytest.raises(FlowControlError):
            ovc.check_invariants()

    def test_vstate_opens_on_grant(self):
        ovc = OutputVC(0, 0, 2)
        ovc.grant(7, _msg(vtick=33.0))
        assert ovc.vstate.is_open
        assert ovc.vstate.vtick == 33.0


class TestInputVCPurge:
    def test_purge_front_message(self):
        vc = InputVC(0, 0, capacity=8)
        msg = _msg(size=4)
        vc.accept_new_message(0, msg)
        for stamp in (1.0, 2.0, 3.0):
            vc.accept_flit(stamp)
        removed = vc.purge_message(msg)
        assert removed == 3
        assert vc.is_free
        assert vc.occupancy == 0
        vc.check_invariants()

    def test_purge_partially_served_front(self):
        vc = InputVC(0, 0, capacity=8)
        msg = _msg(size=4)
        vc.accept_new_message(0, msg)
        for stamp in (1.0, 2.0, 3.0):
            vc.accept_flit(stamp)
        vc.pop_head()
        assert vc.purge_message(msg) == 2
        assert vc.is_free

    def test_purge_queued_message_keeps_front_stamps(self):
        vc = InputVC(0, 0, capacity=8)
        front, queued = _msg(size=2), _msg(size=2)
        vc.accept_new_message(0, front)
        vc.accept_flit(1.0)
        vc.accept_flit(2.0)
        vc.accept_new_message(5, queued)
        vc.accept_flit(9.0)
        assert vc.purge_message(queued) == 1
        assert list(vc.stamps) == [1.0, 2.0]
        assert vc.msg is front
        vc.check_invariants()

    def test_purge_front_promotes_next(self):
        vc = InputVC(0, 0, capacity=8)
        front, queued = _msg(size=1), _msg(size=1)
        vc.accept_new_message(0, front)
        vc.accept_flit(1.0)
        vc.accept_new_message(7, queued)
        vc.accept_flit(2.0)
        vc.route_port = 3
        assert vc.purge_message(front) == 1
        assert vc.msg is queued
        assert vc.head_arrival == 7
        assert vc.route_port == -1  # next message must re-route
        assert list(vc.stamps) == [2.0]

    def test_purge_absent_message_is_noop(self):
        vc = InputVC(0, 0, capacity=8)
        vc.accept_new_message(0, _msg(size=2))
        vc.accept_flit(1.0)
        assert vc.purge_message(_msg(size=2)) == 0
        assert vc.occupancy == 1


class TestOutputVCPurge:
    def test_purge_owner_clears_staging(self):
        ovc = OutputVC(0, 0, 4)
        msg = _msg(size=3)
        ovc.grant(0, msg)
        ovc.push(msg, 0, 0.0)
        ovc.push(msg, 1, 1.0)
        assert ovc.purge_owner(msg) == 2
        assert ovc.is_free
        assert not ovc.queue
        ovc.check_invariants()

    def test_purge_non_owner_is_noop(self):
        ovc = OutputVC(0, 0, 4)
        msg = _msg()
        ovc.grant(0, msg)
        assert ovc.purge_owner(_msg()) == 0
        assert ovc.owner is msg


class TestNeverUsedVC:
    """A VC owns no deques until its first flit; every method copes."""

    def test_fresh_vcs_share_one_empty_tuple(self):
        vc, ovc = InputVC(0, 0, 4), OutputVC(0, 0, 2)
        assert vc.messages is vc.stamps is ovc.queue is ovc.stamps is NO_FLITS
        assert NO_FLITS == () and type(NO_FLITS) is tuple

    def test_input_vc_methods(self):
        vc = InputVC(0, 0, 4)
        assert vc.is_free and vc.msg is None and not vc.front_has_flit
        assert vc.purge_message(_msg()) == 0
        vc.check_invariants()
        with pytest.raises(FlowControlError, match="no serviceable flit"):
            vc.pop_head()
        with pytest.raises(FlowControlError, match="released while free"):
            vc.release_front()
        with pytest.raises(FlowControlError, match="without a header"):
            vc.accept_flit(1.0)
        # reads and refusals allocate nothing
        assert vc.messages is NO_FLITS and vc.stamps is NO_FLITS

    def test_output_vc_methods(self):
        ovc = OutputVC(0, 0, 2)
        assert ovc.is_free and ovc.has_space
        assert ovc.purge_owner(_msg()) == 0
        assert ovc.purge_owner(None) == 0  # "owner" of an unowned VC
        ovc.release()
        ovc.check_invariants()
        with pytest.raises(FlowControlError, match="drained while empty"):
            ovc.pop_head()
        assert ovc.queue is NO_FLITS and ovc.stamps is NO_FLITS

    def test_first_header_allocates_and_the_vc_keeps_its_deques(self):
        vc = InputVC(0, 0, 4)
        msg = _msg(size=1)
        vc.accept_new_message(0, msg)
        messages, stamps = vc.messages, vc.stamps
        assert isinstance(messages, deque) and isinstance(stamps, deque)
        vc.accept_flit(1.0)
        vc.pop_head()
        vc.release_front()
        vc.accept_new_message(5, _msg())
        assert vc.messages is messages and vc.stamps is stamps

    def test_first_grant_allocates_and_purge_keeps_the_deques(self):
        ovc = OutputVC(0, 0, 2)
        msg = _msg()
        ovc.grant(0, msg)
        queue, stamps = ovc.queue, ovc.stamps
        assert isinstance(queue, deque) and isinstance(stamps, deque)
        ovc.push(msg, 0, 0.0)
        assert ovc.purge_owner(msg) == 1
        ovc.grant(1, _msg())
        assert ovc.queue is queue and ovc.stamps is stamps

    def test_push_without_a_grant_allocates_too(self):
        ovc = OutputVC(0, 0, 2)
        ovc.push(_msg(), 0, 3.0)
        assert ovc.head_stamp() == 3.0
        ovc.check_invariants()


def _state(vc):
    """Everything observable about a VC, buffers as plain lists."""
    state = {
        name: getattr(vc, name)
        for name in type(vc).__slots__
        if name not in ("messages", "stamps", "queue", "vstate")
    }
    state["stamps"] = list(vc.stamps)
    state["vstate"] = (vc.vstate.auxvc, vc.vstate.vtick, vc.vstate.is_open)
    if isinstance(vc, InputVC):
        state["messages"] = [
            (rec.msg, rec.arrived, rec.served, rec.header_time)
            for rec in vc.messages
        ]
    else:
        state["queue"] = list(vc.queue)
    return state


def _attempt(call, *args):
    try:
        return call(*args)
    except FlowControlError as exc:
        return str(exc)


def _scripts(*methods):
    """Lists of (method, argument) steps; the argument picks a message
    or a stamp where the method takes one."""
    return st.lists(
        st.tuples(
            st.sampled_from(methods), st.integers(min_value=0, max_value=3)
        ),
        max_size=40,
    )


def _run_twins(lazy, eager, script, arguments):
    """Apply ``script`` to both VCs; results, refusals and state must agree."""
    msgs = [_msg(size=size) for size in (1, 2, 3, 4)]
    for clock, (op, arg) in enumerate(script):
        args = arguments(clock, arg, msgs[arg]).get(op, ())
        assert _attempt(getattr(lazy, op), *args) == _attempt(
            getattr(eager, op), *args
        )
        assert _state(lazy) == _state(eager)


class TestLazyEqualsEager:
    """Any script leaves a lazily built VC and a pre-touched twin equal."""

    @settings(max_examples=200, deadline=None)
    @given(
        script=_scripts(
            "accept_new_message", "accept_flit", "pop_head",
            "release_front", "purge_message", "check_invariants",
        )
    )
    def test_input_vc(self, script):
        lazy, eager = InputVC(0, 0, 4), InputVC(0, 0, 4)
        eager.messages, eager.stamps = deque(), deque()
        _run_twins(
            lazy,
            eager,
            script,
            lambda clock, arg, msg: {
                "accept_new_message": (clock, msg),
                "accept_flit": (float(arg),),
                "purge_message": (msg,),
            },
        )

    @settings(max_examples=200, deadline=None)
    @given(
        script=_scripts(
            "grant", "push", "pop_head", "release", "purge_owner",
            "check_invariants",
        )
    )
    def test_output_vc(self, script):
        lazy, eager = OutputVC(0, 0, 2), OutputVC(0, 0, 2)
        eager.queue, eager.stamps = deque(), deque()
        _run_twins(
            lazy,
            eager,
            script,
            lambda clock, arg, msg: {
                "grant": (clock, msg),
                "push": (msg, arg, float(clock)),
                "purge_owner": (msg,),
            },
        )


class TestBothLoopsAllocateAlike:
    """The fused kernels and the object path touch the same channels."""

    def test_k8_fat_tree_same_vcs_on_both_loops(self):
        touched = []

        def run(loop):
            networks = []
            result = simulate(
                FatTree3Experiment(
                    k=8, load=0.01, mix=(100, 0), vcs_per_pc=4, scale=100.0,
                    warmup_frames=1, measure_frames=2, seed=1,
                    network_hook=networks.append,
                ),
                loop=loop,
            )
            (network,) = networks
            network.check_invariants()
            touched.append(
                {
                    (kind, router.router_id, vc.port, vc.index)
                    for router in network.routers
                    for kind, ports, attr in (
                        ("in", router.inputs, "messages"),
                        ("out", router.outputs, "queue"),
                    )
                    for vcs in ports
                    for vc in vcs
                    if getattr(vc, attr) is not NO_FLITS
                }
            )
            assert network.buffered_vcs() == (len(touched[-1]), 2 * 80 * 8 * 4)
            return result.flits_ejected

        assert run(None) == run(run_reference) > 0
        assert touched[0] == touched[1]
        assert 0 < len(touched[0]) < 80 * 8 * 4
        # the shared sentinel cannot have been written to: still the
        # same empty tuple every fresh VC starts from
        assert NO_FLITS == () and InputVC(0, 0, 1).messages is NO_FLITS
