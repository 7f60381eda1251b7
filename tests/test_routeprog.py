"""Compiled route programs: construction counts, overlays, properties.

The contract of the route-program layer:

* every generator, the single switch included, compiles one program,
  exactly once, no matter how many networks or sweep points reuse it;
* mask overlays are per-router and per-network — masking a port on one
  router (or one network) never shows through anywhere else;
* the generated fat-tree/butterfly tables are full-reachability,
  up*/down*-ordered (no up edge after a down edge), and provably
  detour-free.
"""

import dataclasses

import pytest

from repro.chaos.scenario import ScenarioSpace, generate
from repro.errors import RoutingError
from repro.experiments import disaster, failover, runner
from repro.experiments.campaign import experiment_key, get_profile
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    FatTreeExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import (
    _cached_topology,
    simulate,
    simulate_fat_tree3,
    topology_of,
)
from repro.experiments.topo import TOPOLOGY_KINDS, build_topology
from repro.network.network import Network
from repro.network.topology import butterfly, fat_mesh_2x2, fat_tree3
from repro.router import routeprog
from repro.router.config import RouterConfig
from repro.router.routeprog import (
    CompiledRouting,
    RouteProgram,
    RouterRouteView,
    compile_routes,
)


# ----------------------------------------------------------------------
# program compilation


class TestCompileRoutes:
    def test_preserves_entries_exactly(self):
        table = {
            (0, 0): (1, 2),
            (0, 1): (2, 1),
            (1, 0): (0,),
            (1, 1): (3,),
        }
        program = compile_routes(table, name="t")
        for (rid, node), ports in table.items():
            assert program.candidates(rid, node) == ports

    def test_interns_duplicate_groups(self):
        table = {(r, n): (5, 6) for r in range(8) for n in range(8)}
        program = compile_routes(table)
        assert len(program.groups) == 1
        assert program.stats()["entries"] == 64

    def test_dense_slots_for_contiguous_nodes(self):
        program = compile_routes({(0, n): (n,) for n in range(4)})
        assert program.dense
        assert program.slot_of(3) == 3
        assert program.slot_of(9) == -1

    def test_sparse_nodes_still_resolve(self):
        program = compile_routes({(0, 10): (1,), (0, 20): (2,)})
        assert not program.dense
        assert program.candidates(0, 20) == (2,)

    def test_missing_entry_raises(self):
        program = compile_routes({(0, 0): (1,)})
        with pytest.raises(RoutingError, match="no route to node 7"):
            program.candidates(0, 7)

    def test_empty_entry_rejected(self):
        with pytest.raises(RoutingError, match="empty routing entry"):
            compile_routes({(0, 0): ()})


class TestCompileOnce:
    def test_topology_build_compiles_exactly_once(self):
        before = routeprog.compile_count()
        topology = fat_tree3(k=4)
        assert routeprog.compile_count() - before == 1
        # downstream reuse never compiles again
        CompiledRouting(topology.route_program).router_view(0)
        Network(topology, RouterConfig(num_ports=topology.ports_per_router))
        assert routeprog.compile_count() - before == 1

    def test_runner_cache_shares_programs_across_points(self):
        experiment = FatTree3Experiment(
            k=4,
            hosts_per_leaf=1,
            load=0.01,
            mix=(100.0, 0.0),
            vcs_per_pc=4,
            warmup_frames=1,
            measure_frames=1,
            scale=200.0,
            seed=5,
        )
        simulate_fat_tree3(experiment)  # prime the cache
        before = routeprog.compile_count()
        first = simulate_fat_tree3(experiment)
        second = simulate_fat_tree3(
            dataclasses.replace(experiment, seed=6)
        )
        assert routeprog.compile_count() == before
        assert first.flits_injected > 0
        assert second.flits_injected > 0

    def test_cached_topology_is_same_object(self):
        a = _cached_topology(fat_tree3, k=4, hosts_per_leaf=1, fat_width=1)
        b = _cached_topology(fat_tree3, k=4, hosts_per_leaf=1, fat_width=1)
        assert a is b

    def test_topology_of_reads_only_the_shape(self):
        experiment = FatTree3Experiment(k=4, hosts_per_leaf=1)
        assert topology_of(experiment) is _cached_topology(
            fat_tree3, k=4, hosts_per_leaf=1, fat_width=1
        )
        assert topology_of(experiment) is topology_of(
            dataclasses.replace(experiment, load=0.3, seed=9)
        )


def _counted(build):
    """``build()``, and how many topology builds and route compiles it cost."""
    builds, compiles = runner.TOPOLOGY_BUILDS, routeprog.compile_count()
    value = build()
    return (
        value,
        runner.TOPOLOGY_BUILDS - builds,
        routeprog.compile_count() - compiles,
    )


def _quiet_run_builds_nothing(experiment, **changes):
    """The point's shape is the cache key its builder already filled;
    load is cut because only the shape matters here."""
    quiet = dataclasses.replace(experiment, load=0.05, **changes)
    assert _counted(lambda: simulate(quiet))[1:] == (0, 0)


class TestSharedTopologies:
    """Campaign point builders and the chaos generator read the
    runner's cached topology, so a whole campaign costs one build per
    distinct shape."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        """Start from an empty cache: shapes earlier tests left in it
        sit ahead of this test's in the eviction order."""
        monkeypatch.setattr(runner, "_TOPOLOGY_CACHE", {})

    @pytest.mark.parametrize(
        "spec, shapes",
        [(disaster.CAMPAIGN, 2), (failover.CAMPAIGN, 1)],
        ids=["disaster", "failover"],
    )
    def test_default_campaign_points_build_each_shape_once(self, spec, shapes):
        profile = get_profile("smoke")
        points, builds, compiles = _counted(
            lambda: [
                spec.experiment(profile, series, x)
                for series in spec.series
                for x in spec.axis.defaults
                if spec.defined(series, x)
            ]
        )
        assert builds <= shapes and compiles <= shapes
        _quiet_run_builds_nothing(points[-1])

    def test_chaos_generation_builds_each_drawn_shape_once(self):
        scenarios, builds, compiles = _counted(
            lambda: generate(ScenarioSpace(scale=100.0), 7, 25)
        )
        fabrics = [
            scenario.to_experiment()
            for scenario in scenarios
            if scenario.topology != "single"
        ]
        shapes = {(type(e), tuple(e.shape().items())) for e in fabrics}
        assert builds <= len(shapes) and compiles <= len(shapes)
        windowed = next(
            e
            for e in fabrics
            if e.faults is not None and e.faults.down_windows
        )
        _quiet_run_builds_nothing(windowed, trace=None)


# ----------------------------------------------------------------------
# mask overlays


class TestMaskOverlays:
    def test_masks_are_per_router(self):
        routing = CompiledRouting(fat_tree3(k=4).route_program)
        routing.mask_port(0, 2)
        assert routing.router_view(0).masked_ports == {2}
        assert routing.router_view(1).masked_ports == set()

    def test_networks_share_program_not_masks(self):
        topology = fat_tree3(k=4)
        config = RouterConfig(num_ports=topology.ports_per_router)
        a = Network(topology, config).routing
        b = Network(topology, config).routing
        assert a.program is b.program is topology.route_program
        a.mask_port(3, 1)
        assert b.router_view(3).masked_ports == set()

    def test_unmask_restores_and_counters_are_per_fork(self):
        """Each network's CompiledRouting owns its counters."""
        topology = fat_mesh_2x2()
        routing = CompiledRouting(topology.route_program)
        other = CompiledRouting(topology.route_program)
        view = routing.router_view(0)
        port = view.candidates(4)[0]
        routing.mask_port(0, port)
        ports, _ = view.route_adaptive(4, None)
        assert port not in ports
        assert routing.reroutes + routing.detours_taken >= 1
        routing.unmask_port(0, port)
        assert view.masked_ports == set()
        assert other.reroutes == other.detours_taken == 0

    @pytest.mark.parametrize("kind", sorted(TOPOLOGY_KINDS))
    def test_every_kind_hands_routers_a_route_view(self, kind):
        """One routing representation: every generator compiles a
        program, and every router of its network holds a view of it."""
        topology = build_topology(kind)
        assert isinstance(topology.route_program, RouteProgram)
        network = Network(
            topology, RouterConfig(num_ports=topology.ports_per_router)
        )
        for router in network.routers:
            view = router._route_view
            assert isinstance(view, RouterRouteView)
            assert view is network.routing.router_view(router.router_id)


# ----------------------------------------------------------------------
# generated-table properties


def _levelled_edges(topology):
    """(src, dst) -> +1 for an up edge, -1 for a down edge."""
    levels = topology.extras["levels"]
    direction = {}
    for src, sp, dst, _dp in topology.channels:
        direction[(src, sp)] = (
            1 if levels[dst] > levels[src] else -1,
            dst,
        )
    return direction


TREE_CASES = [
    fat_tree3(k=4),
    fat_tree3(k=4, hosts_per_leaf=1, fat_width=2),
    butterfly(arity=2, levels=3),
    butterfly(arity=4, levels=2, hosts_per_leaf=3, fat_width=2),
]


@pytest.mark.parametrize(
    "topology", TREE_CASES, ids=lambda t: t.extras["generator"]
)
class TestTreeProperties:
    def test_full_reachability_over_every_candidate(self, topology):
        """Any candidate choice at any hop still reaches the destination."""
        direction = _levelled_edges(topology)
        host_rid = {node: rid for node, rid, _ in topology.hosts}
        routing = topology.route_program
        for dst in topology.node_ids:
            target = host_rid[dst]
            for src in topology.node_ids:
                frontier = {host_rid[src]}
                seen = set()
                reached = host_rid[src] == target
                while frontier:
                    rid = frontier.pop()
                    if rid == target:
                        reached = True
                        continue
                    if rid in seen:
                        continue
                    seen.add(rid)
                    for port in routing.candidates(rid, dst):
                        frontier.add(direction[(rid, port)][1])
                assert reached, f"{src}->{dst} never reaches router {target}"

    def test_no_up_edge_after_down_edge(self, topology):
        """up*/down*: every routed port sequence is ups then downs."""
        direction = _levelled_edges(topology)
        host_rid = {node: rid for node, rid, _ in topology.hosts}
        routing = topology.route_program
        host_ports = {
            (rid, port) for _node, rid, port in topology.hosts
        }
        for dst in topology.node_ids:
            # walk every (router, been_down) state reachable toward dst
            stack = [(host_rid[src], False) for src in topology.node_ids]
            seen = set()
            while stack:
                state = stack.pop()
                if state in seen:
                    continue
                seen.add(state)
                rid, been_down = state
                if rid == host_rid[dst]:
                    continue
                for port in routing.candidates(rid, dst):
                    if (rid, port) in host_ports:
                        continue
                    step, nxt = direction[(rid, port)]
                    assert not (been_down and step > 0), (
                        f"down->up at router {rid} toward {dst}"
                    )
                    stack.append((nxt, been_down or step < 0))

    def test_trees_have_no_detours_by_construction(self, topology):
        """Down paths are unique in a folded Clos, so the detour table
        is empty by theorem — failures are owned by mask shrink on the
        up groups plus end-to-end recovery."""
        program = topology.route_program
        assert program.detours == {}
        assert program.alt is None

    def test_every_table_int_is_a_real_group(self, topology):
        program = topology.route_program
        for row in program.primary:
            for gid in row:
                assert gid >= 0
                assert len(program.groups[gid]) >= 1


class TestScaleShapes:
    def test_1024_host_shape(self):
        topology = _cached_topology(
            fat_tree3, k=16, hosts_per_leaf=None, fat_width=1
        )
        assert topology.num_hosts == 1024
        assert topology.num_routers == 320
        assert topology.ports_per_router == 16
        stats = topology.route_program.stats()
        assert stats["table_ints"] == 320 * 1024
        assert stats["dense_nodes"]

    def test_butterfly_shape(self):
        topology = butterfly(arity=8, levels=3)
        assert topology.num_hosts == 512
        assert topology.num_routers == 192


# ----------------------------------------------------------------------
# sweep keys: the shape fields are part of the experiment's content key

#: the key of each experiment below, by its off-default shape
PINNED = {
    "": "SingleSwitchExperiment-225ee41d5b2fd5ba",
    "num_ports=4": "SingleSwitchExperiment-fbdda1bb8c3a53eb",
    "rows=3|fat_width=1": "FatMeshExperiment-11a3d5e44be98b52",
    "leaves=8|hosts_per_leaf=4": "FatTreeExperiment-89614520eac9c9b3",
    "k=8|hosts_per_leaf=2|mode=adaptive": "FatTree3Experiment-17f4042cf31ae5c0",
    "arity=4|levels=2|fat_width=2": "ButterflyExperiment-ad773b71f9f3a6b8",
    "PCS num_ports=4": "PCSExperiment-835b3c562ce9b7ec",
}


class TestTopologyFingerprint:
    def test_defaults_differ_by_type(self):
        keys = {
            experiment_key(kind())
            for kind in (
                SingleSwitchExperiment,
                FatMeshExperiment,
                FatTree3Experiment,
                ButterflyExperiment,
            )
        }
        assert len(keys) == 4

    @pytest.mark.parametrize(
        "experiment, expected",
        [
            (SingleSwitchExperiment(), ""),
            (SingleSwitchExperiment(num_ports=4), "num_ports=4"),
            (FatMeshExperiment(rows=3, fat_width=1), "rows=3|fat_width=1"),
            (
                FatTreeExperiment(leaves=8, hosts_per_leaf=4),
                "leaves=8|hosts_per_leaf=4",
            ),
            (
                FatTree3Experiment(
                    k=8, hosts_per_leaf=2, routing_mode="adaptive"
                ),
                "k=8|hosts_per_leaf=2|mode=adaptive",
            ),
            (
                ButterflyExperiment(arity=4, levels=2, fat_width=2),
                "arity=4|levels=2|fat_width=2",
            ),
            (PCSExperiment(num_ports=4), "num_ports=4"),
        ],
    )
    def test_literals_written_into_checkpoints(self, experiment, expected):
        """Keys are checkpoint keys, so each is pinned: a checkpoint
        keeps restoring across processes and commits.  The off-default
        shape ``expected`` names is what sets a key apart from its
        type's default, and a hook is part of the experiment too."""
        pcs = isinstance(experiment, PCSExperiment)
        pinned = PINNED[f"PCS {expected}" if pcs else expected]
        assert experiment_key(experiment) == pinned
        default = experiment_key(type(experiment)())
        assert (experiment_key(experiment) == default) == (expected == "")
        hooked = dataclasses.replace(experiment, network_hook=print)
        assert experiment_key(hooked) != pinned

    def test_off_default_shape_is_encoded(self):
        for experiment in (
            FatTree3Experiment(k=8),
            SingleSwitchExperiment(num_ports=4),
            ButterflyExperiment(arity=4, levels=2),
        ):
            default = type(experiment)()
            assert experiment_key(experiment) != experiment_key(default)

    def test_shape_parts_compose_with_mode(self):
        from repro.router.config import RoutingMode

        keys = {
            experiment_key(FatTree3Experiment(k=k, routing_mode=mode))
            for k in (4, 8)
            for mode in (RoutingMode.ORACLE, RoutingMode.ADAPTIVE)
        }
        assert len(keys) == 4

    def test_distinct_shapes_get_distinct_keys(self):
        assert experiment_key(FatTree3Experiment(k=8)) != experiment_key(
            FatTree3Experiment(k=16)
        )
