"""The kill path: ``Network.kill_message`` purges along ``msg.trail``.

A kill searches the source NI, its host link, the routers the header
has entered and their outgoing links — nowhere else.  These tests hold
it against the whole-fabric scan it replaced (``killcheck``), after
every kill of faulted, switch-kill, preemption and scripted runs.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY, make_mesh_network, make_message, make_network
from killcheck import audit_every_kill, audit_kill, fabric_residue
from repro.experiments.config import FatMeshExperiment
from repro.experiments.runner import simulate
from repro.faults import FaultPlan, LinkDownWindow, RecoveryConfig
from repro.network.health import HealthConfig
from repro.network.network import Network
from repro.router.config import RoutingMode
from repro.router.flit import Message, TrafficClass
from repro.router.router import WormholeRouter
from test_disaster import _tree_disaster


@pytest.fixture
def killed(monkeypatch):
    """Every kill of the test is audited; the killed messages, in order."""
    return audit_every_kill(monkeypatch)


def _faulted_fat_mesh():
    """The benchmark's ``faulted_fatmesh`` workload at the TINY scale."""
    base = FatMeshExperiment(load=0.6, mix=(80, 20), vcs_per_pc=16, **TINY)
    interval = base.workload_config().frame_interval_cycles
    dead = tuple(
        LinkDownWindow(label, start=base.warmup_cycles, end=None)
        for label in ("ch:0.4->1.4", "ch:1.4->0.4")
    )
    return dataclasses.replace(
        base,
        faults=FaultPlan(flit_loss_prob=0.0005, down_windows=dead),
        recovery=RecoveryConfig(
            timeout=max(512, interval // 2),
            max_retries=8,
            backoff_base=max(16, interval // 256),
            backoff_cap=max(64, interval // 16),
            qos_deadline=2 * interval,
        ),
        health=HealthConfig(),
        routing_mode="adaptive",
        watchdog_window=4 * interval,
    )


class TestEveryKillLeavesNothing:
    @pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
    def test_faulted_fat_mesh(self, reference_loop, killed):
        result = simulate(_faulted_fat_mesh())
        assert len(killed) > 100
        assert result.fault_stats["retransmissions"] > 0

    def test_tor_kill_touches_only_the_trail(self, killed, monkeypatch):
        """The k=8 ToR kill: per-kill work is bounded by the worm's own
        trail, not by the 80-router fabric — at most one router purge
        per distinct trail router."""
        purges = []
        purge_message = WormholeRouter.purge_message

        def counted(router, msg):
            purges.append(msg)
            return purge_message(router, msg)

        monkeypatch.setattr(WormholeRouter, "purge_message", counted)
        result = simulate(
            _tree_disaster(
                RoutingMode.ADAPTIVE,
                k=8,
                load=0.1,
                measure_frames=1,
                vcs_per_pc=4,
            )
        )
        assert result.fault_stats["health"]["hosts_isolated"] == 4
        assert len(killed) > 500
        per_kill = {}
        for msg in purges:
            per_kill[msg.msg_id] = per_kill.get(msg.msg_id, 0) + 1
        for msg in killed:
            assert per_kill.get(msg.msg_id, 0) <= len(set(msg.trail)) <= 5

    def test_preemption_kills(self, killed):
        net = make_network(
            vcs=2, rt_vc_count=2, dynamic_partitioning=True, preemption=True
        )
        # two long best-effort worms borrow both real-time VCs of port 1;
        # each real-time header that follows must preempt one of them
        for src, src_vc in ((0, 0), (2, 1)):
            net.inject_now(
                Message(
                    src_node=src,
                    dst_node=1,
                    size=60,
                    vtick=1e12,
                    traffic_class=TrafficClass.BEST_EFFORT,
                    src_vc=src_vc,
                )
            )
        net.run(12)
        net.inject_now(make_message(src=3, dst=1, size=6, dst_vc=None))
        net.run(40)
        net.inject_now(make_message(src=3, dst=1, size=6, src_vc=1, dst_vc=None))
        net.run(5000)
        assert net.preemptions == len(killed) > 0
        assert net.flits_in_flight == 0
        net.check_invariants()


_ops = st.one_of(
    st.tuples(
        st.just("inject"),
        st.integers(0, 3),  # source host
        st.integers(1, 3),  # destination offset
        st.integers(1, 24),  # size
        st.integers(0, 3),  # source VC
    ),
    st.tuples(st.just("advance"), st.integers(1, 40)),
    st.tuples(st.just("kill"), st.integers(0, 1 << 16)),
)


class TestScriptedKills:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=st.lists(_ops, min_size=1, max_size=40))
    def test_inject_advance_kill(self, script):
        net, _ = make_mesh_network()
        live = []
        for op in script:
            if op[0] == "inject":
                _, src, offset, size, src_vc = op
                msg = make_message(
                    src=src, dst=(src + offset) % 4, size=size,
                    src_vc=src_vc, dst_vc=src_vc,
                )
                net.inject_now(msg)
                live.append(msg)
            elif op[0] == "advance":
                net.run(net.clock + op[1])
            else:
                live = [msg for msg in live if msg.deliver_time < 0]
                if live:
                    msg = live.pop(op[1] % len(live))
                    net.kill_message(msg)
                    audit_kill(net, msg)
        net.run_until_drained(max_extra=100_000)
        net.check_invariants()
        assert all(msg.deliver_time >= 0 for msg in live)


def _wire_carrying(net, msg):
    for link in net.links:
        if any(entry[1] is msg for entry in link.pending):
            return link
    return None


class TestWhereAWormCanBe:
    @pytest.mark.parametrize("wire", ["inject", "ch:", "eject"])
    def test_single_flit_message_killed_on_a_wire(self, wire):
        """Its only flit is on a wire: no buffer anywhere knows the
        message, the trail (or the host link) must lead to it."""
        net, _ = make_mesh_network()
        msg = make_message(src=0, dst=3, size=1)
        net.inject_now(msg)
        for _ in range(60):
            link = _wire_carrying(net, msg)
            if link is not None and wire in link.label:
                break
            net.run(net.clock + 1)
        else:
            pytest.fail(f"the flit never rode a {wire!r} wire")
        assert net.buffered_flits() == 1
        assert net.kill_message(msg) == 1
        audit_kill(net, msg)
        follower = make_message(src=0, dst=3, size=6)
        net.inject_now(follower)
        net.run_until_drained(max_extra=10_000)
        assert follower.deliver_time > 0 and msg.deliver_time < 0
        net.check_invariants()

    def test_detoured_worm_revisits_a_router(self):
        """Both 0->1 members and both 2->3 members masked: the detour
        bounces 0 -> 2 -> 0 and the worm ends up blocked on itself."""
        net, topology = make_mesh_network(routing_mode=RoutingMode.ADAPTIVE)
        for src_r, src_p, dst_r, _ in topology.channels:
            if (src_r, dst_r) in ((0, 1), (2, 3)):
                net.routing.mask_port(src_r, src_p)
        msg = make_message(src=0, dst=1, size=40)
        net.inject_now(msg)
        net.run(200)
        assert msg.detoured is not None
        assert len(msg.trail) > len(set(msg.trail)) == 2
        assert net.kill_message(msg) == 40
        audit_kill(net, msg)
        net.check_invariants()
        assert all(router.quiescent for router in net.routers)

    def test_a_clone_starts_with_an_empty_trail(self):
        net, _ = make_mesh_network()
        msg = make_message(src=0, dst=3, size=4)
        net.inject_now(msg)
        net.run_until_drained(max_extra=10_000)
        assert msg.trail == (0, 1, 3)
        assert msg.clone().trail == ()

    def test_the_oracle_sees_what_a_short_trail_would_miss(self):
        net, _ = make_mesh_network()
        msg = make_message(src=0, dst=3, size=30)
        net.inject_now(msg)
        net.run(12)
        msg.trail = msg.trail[:1]  # sabotage: forget every router but the first
        net.kill_message(msg)
        assert any("router 1" in where for where in fabric_residue(net, msg))


class TestLinkPurge:
    def test_a_wire_without_the_message_keeps_its_deque(self):
        net, _ = make_mesh_network()
        bystander = make_message(src=0, dst=3, size=8)
        net.inject_now(bystander)
        net.run(3)
        link = _wire_carrying(net, bystander)
        pending = link.pending
        assert link.purge_message(make_message()) == []
        assert link.pending is pending and len(pending) > 0
        dropped = link.purge_message(bystander)
        assert dropped and link.pending is not pending and not link.pending


def test_kill_message_has_one_implementation():
    """No whole-fabric fallback left in the source: the scan lives in
    ``killcheck`` only."""
    import inspect

    source = inspect.getsource(Network.kill_message)
    assert "self.links" not in source
    assert "in self.routers" not in source
