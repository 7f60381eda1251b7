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
from repro.errors import ConfigurationError, RoutingError
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
from repro.network.topology import (
    _updown_tables,
    butterfly,
    fat_mesh_2x2,
    fat_tree3,
)
from repro.router import routeprog
from repro.router.config import RouterConfig
from repro.router.routeprog import (
    CompiledRouting,
    RouteProgram,
    RouterRouteView,
    compile_routes,
    compile_rows,
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
        # a single switch's host labels come from its topology too
        fabrics = [scenario.to_experiment() for scenario in scenarios]
        shapes = {(type(e), tuple(e.shape().items())) for e in fabrics}
        assert builds <= len(shapes) and compiles <= len(shapes)
        windowed = next(
            e
            for e in fabrics
            if type(e) is not SingleSwitchExperiment
            and e.faults is not None
            and e.faults.down_windows
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
# row-compiled up*/down* routes: exact against a per-destination oracle


def _oracle_updown_table(num_routers, levels, adjacency, host_router, host_port):
    """The per-``(router, node)`` up*/down* table, written out entry by
    entry: up over every parent group unless the host is below, down
    over the group(s) of each child holding it, in child-id order."""
    children = {r: [] for r in range(num_routers)}
    parents = {r: [] for r in range(num_routers)}
    for rid, nbr in sorted(adjacency):
        if levels[nbr] == levels[rid] - 1:
            children[rid].append(nbr)
        elif levels[nbr] == levels[rid] + 1:
            parents[rid].append(nbr)
    up_ports = {
        rid: tuple(port for nbr in parents[rid] for port in adjacency[(rid, nbr)])
        for rid in range(num_routers)
    }
    hosts_via = {r: {} for r in range(num_routers)}
    below = {r: set() for r in range(num_routers)}
    for node, rid in host_router.items():
        below[rid].add(node)
    for rid in sorted(range(num_routers), key=lambda r: (levels[r], r)):
        for child in children[rid]:
            for node in below[child]:
                below[rid].add(node)
                hosts_via[rid].setdefault(node, []).append(child)
    table = {}
    for node, dst_rid in host_router.items():
        for rid in range(num_routers):
            if rid == dst_rid:
                table[(rid, node)] = (host_port[node],)
            elif node in below[rid]:
                table[(rid, node)] = tuple(
                    port
                    for child in hosts_via[rid][node]
                    for port in adjacency[(rid, child)]
                )
            else:
                if not up_ports[rid]:
                    raise ConfigurationError(
                        f"router {rid} (level {levels[rid]}) cannot reach "
                        f"node {node}: not below and no parents"
                    )
                table[(rid, node)] = up_ports[rid]
    return table


def _levelled_inputs(topology):
    """A generated tree's levels, adjacency groups and host attachment,
    read back off its description."""
    adjacency = {}
    for src_r, src_p, dst_r, _ in topology.channels:
        adjacency.setdefault((src_r, dst_r), []).append(src_p)
    return (
        topology.num_routers,
        list(topology.extras["levels"]),
        {pair: tuple(sorted(ports)) for pair, ports in adjacency.items()},
        {node: rid for node, rid, _ in topology.hosts},
        {node: port for node, _, port in topology.hosts},
    )


def _assert_same_program(program, oracle, routers, nodes):
    for rid in range(routers):
        for node in nodes:
            assert program.candidates(rid, node) == oracle.candidates(rid, node)
    stats, expected = program.stats(), oracle.stats()
    for key in ("entries", "unique_groups", "table_ints"):
        assert stats[key] == expected[key], key


#: every tree shape off its default host count, on fat links
ROW_CASES = [
    ("fat_tree3", dict(k=k, hosts_per_leaf=k // 2 + 1, fat_width=2))
    for k in (2, 4, 8, 16)
] + [
    ("butterfly", dict(arity=a, levels=n, hosts_per_leaf=a + 1, fat_width=2))
    for a in (2, 3, 4)
    for n in (2, 3, 4)
]


class TestRowCompiledUpDown:
    @pytest.mark.parametrize(
        "generator,shape",
        ROW_CASES,
        ids=[f"{g}-{'-'.join(map(str, s.values()))}" for g, s in ROW_CASES],
    )
    def test_rows_match_the_oracle_on_every_pair(self, generator, shape):
        build = {"fat_tree3": fat_tree3, "butterfly": butterfly}[generator]
        before = routeprog.compile_count()
        topology = build(**shape)
        assert routeprog.compile_count() - before == 1
        oracle = compile_routes(
            _oracle_updown_table(*_levelled_inputs(topology)),
            num_routers=topology.num_routers,
        )
        _assert_same_program(
            topology.route_program,
            oracle,
            topology.num_routers,
            topology.node_ids,
        )

    def test_hosts_below_several_children_concatenate_in_child_order(self):
        """A diamond: both leaves hang off both middle routers, and the
        top reaches every host through either — so its down candidates
        are both children's groups, in child-id order, and the middle
        routers (whose subtree is every host) never use their up group."""
        levels = [0, 0, 1, 1, 2]
        adjacency = {}
        for leaf in (0, 1):
            for m, mid in enumerate((2, 3)):
                adjacency[(leaf, mid)] = (1 + m,)
                adjacency[(mid, leaf)] = (leaf,)
        for m, mid in enumerate((2, 3)):
            adjacency[(mid, 4)] = (2,)
            adjacency[(4, mid)] = (2 * m, 2 * m + 1)
        host_router = {0: 0, 1: 1}
        host_port = {0: 0, 1: 0}
        args = (5, levels, adjacency, host_router, host_port)
        nodes = sorted(host_router)
        program = compile_rows(nodes, _updown_tables(*args))
        assert program.candidates(4, 0) == (0, 1, 2, 3)
        _assert_same_program(
            program, compile_routes(_oracle_updown_table(*args)), 5, nodes
        )

    def test_unreachable_node_names_the_oracles_pair(self):
        """Two trees with no common root: the first (node, router) pair
        the entry-by-entry table would fail on is the one named."""
        levels = [0, 0, 1, 1]
        adjacency = {(0, 2): (1,), (2, 0): (0,), (1, 3): (1,), (3, 1): (0,)}
        args = (4, levels, adjacency, {0: 0, 1: 1}, {0: 0, 1: 0})
        with pytest.raises(ConfigurationError) as expected:
            _oracle_updown_table(*args)
        with pytest.raises(
            ConfigurationError, match="not below and no parents"
        ) as raised:
            _updown_tables(*args)
        assert str(raised.value) == str(expected.value)


# ----------------------------------------------------------------------
# sweep keys: the shape fields are part of the experiment's content key

#: the key of each experiment below, by its off-default shape
PINNED = {
    "": "SingleSwitchExperiment-414b65a34a53a1c5",
    "num_ports=4": "SingleSwitchExperiment-db5fbaf93fb12783",
    "rows=3|fat_width=1": "FatMeshExperiment-8cbc82683cede1d7",
    "leaves=8|hosts_per_leaf=4": "FatTreeExperiment-e9a9dd80a8f8aaaa",
    "k=8|hosts_per_leaf=2|mode=adaptive": "FatTree3Experiment-58fc7498d7a5a944",
    "arity=4|levels=2|fat_width=2": "ButterflyExperiment-d35199276b894bdb",
    "PCS num_ports=4": "PCSExperiment-3be9168998698463",
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
        """Keys are result-store keys, so each is pinned: every process
        computes the same one for an equal experiment.  The off-default
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
