"""Topology construction: single switch and fat meshes."""

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import (
    Topology,
    fat_mesh,
    fat_mesh_2x2,
    single_switch,
)
from repro.router.routeprog import compile_routes


class TestSingleSwitch:
    def test_default_eight_ports(self):
        topo = single_switch()
        assert topo.num_routers == 1
        assert topo.ports_per_router == 8
        assert topo.num_hosts == 8
        assert not topo.channels

    def test_hosts_map_to_their_port(self):
        topo = single_switch(4)
        assert topo.hosts == [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3)]

    def test_routing_reaches_every_host(self):
        topo = single_switch(5)
        for node in topo.node_ids:
            assert topo.route_program.candidates(0, node) == (node,)

    def test_rejects_single_port(self):
        with pytest.raises(ConfigurationError):
            single_switch(1)


class TestFatMesh2x2:
    def test_paper_shape(self):
        topo = fat_mesh_2x2()
        assert topo.num_routers == 4
        assert topo.ports_per_router == 8  # 4 hosts + 2 neighbours x 2 links
        assert topo.num_hosts == 16

    def test_two_links_between_each_neighbour_pair(self):
        topo = fat_mesh_2x2()
        pair_counts = {}
        for src_r, _, dst_r, _ in topo.channels:
            key = (src_r, dst_r)
            pair_counts[key] = pair_counts.get(key, 0) + 1
        # 2x2 mesh: 4 undirected neighbour pairs, 2 links each direction
        assert len(pair_counts) == 8
        assert all(count == 2 for count in pair_counts.values())

    def test_channels_are_symmetric(self):
        topo = fat_mesh_2x2()
        wires = {(s, sp, d, dp) for s, sp, d, dp in topo.channels}
        for s, sp, d, dp in wires:
            assert (d, dp, s, sp) in wires

    def test_local_hosts_route_to_host_port(self):
        topo = fat_mesh_2x2()
        # node 5 = router 1, local port 1
        assert topo.route_program.candidates(1, 5) == (1,)

    def test_remote_hosts_route_to_fat_group(self):
        topo = fat_mesh_2x2()
        # router 0 -> a host on router 1 (x neighbour): 2 candidate ports
        ports = topo.route_program.candidates(0, 4)
        assert len(ports) == 2
        assert all(p >= 4 for p in ports)

    def test_dimension_order_x_before_y(self):
        topo = fat_mesh_2x2()
        # router 0 (0,0) -> host on router 3 (1,1): must go +X first,
        # which is the same group as going to router 1.
        to_diag = topo.route_program.candidates(0, 12)
        to_x = topo.route_program.candidates(0, 4)
        assert to_diag == to_x

    def test_every_router_reaches_every_host(self):
        topo = fat_mesh_2x2()
        for router in range(topo.num_routers):
            for node in topo.node_ids:
                assert topo.route_program.candidates(router, node)


class TestGeneralFatMesh:
    def test_1xn_chain(self):
        topo = fat_mesh(rows=1, cols=3, hosts_per_router=2, fat_width=1)
        assert topo.num_routers == 3
        # middle router has 2 neighbours, so ports = 2 hosts + 2 links
        assert topo.ports_per_router == 4

    def test_3x3_interior_router_ports(self):
        topo = fat_mesh(rows=3, cols=3, hosts_per_router=2, fat_width=2)
        # interior router: 4 neighbours x 2 links + 2 hosts = 10 ports
        assert topo.ports_per_router == 10

    def test_multi_hop_routes_move_closer(self):
        topo = fat_mesh(rows=1, cols=3, hosts_per_router=1, fat_width=1)
        # router 0 -> host at router 2 must exit toward router 1
        ports = topo.route_program.candidates(0, 2)
        channels = {
            (s, sp): d for s, sp, d, _ in topo.channels
        }
        assert all(channels[(0, p)] == 1 for p in ports)

    def test_rejects_single_router(self):
        with pytest.raises(ConfigurationError):
            fat_mesh(rows=1, cols=1)

    def test_rejects_zero_hosts(self):
        with pytest.raises(ConfigurationError):
            fat_mesh(hosts_per_router=0)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            fat_mesh(fat_width=0)


class TestTopologyValidation:
    def test_rejects_duplicate_host_port(self):
        with pytest.raises(ConfigurationError):
            Topology(
                name="bad",
                num_routers=1,
                ports_per_router=2,
                hosts=[(0, 0, 0), (1, 0, 0)],
                channels=[],
                route_program=compile_routes({(0, 0): (0,), (0, 1): (0,)}),
            )

    def test_rejects_host_port_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Topology(
                name="bad",
                num_routers=1,
                ports_per_router=2,
                hosts=[(0, 0, 5)],
                channels=[],
                route_program=compile_routes({(0, 0): (5,)}),
            )

    def test_rejects_channel_on_host_port(self):
        with pytest.raises(ConfigurationError):
            Topology(
                name="bad",
                num_routers=2,
                ports_per_router=2,
                hosts=[(0, 0, 0), (1, 1, 0)],
                channels=[(0, 0, 1, 1)],  # port (0,0) is a host port
                route_program=compile_routes({(0, 0): (0,)}),
            )


class TestFatTree:
    def test_shape(self):
        from repro.network.topology import fat_tree

        topo = fat_tree(leaves=4, spines=2, hosts_per_leaf=2, fat_width=1)
        assert topo.num_routers == 6
        assert topo.num_hosts == 8
        # leaf needs 2 hosts + 2 spines x 1 link = 4 ports;
        # spine needs 4 leaves x 1 link = 4 ports
        assert topo.ports_per_router == 4

    def test_every_leaf_spine_pair_wired_both_ways(self):
        from repro.network.topology import fat_tree

        topo = fat_tree(leaves=3, spines=2, hosts_per_leaf=1, fat_width=2)
        wires = {(s, sp, d, dp) for s, sp, d, dp in topo.channels}
        for s, sp, d, dp in wires:
            assert (d, dp, s, sp) in wires
        pairs = {(min(s, d), max(s, d)) for s, _, d, _ in topo.channels}
        assert len(pairs) == 3 * 2  # every leaf-spine pair

    def test_local_delivery_uses_host_port(self):
        from repro.network.topology import fat_tree

        topo = fat_tree(leaves=4, spines=2, hosts_per_leaf=2)
        # node 3 = leaf 1, local port 1
        assert topo.route_program.candidates(1, 3) == (1,)

    def test_up_routing_offers_every_spine_link(self):
        from repro.network.topology import fat_tree

        topo = fat_tree(leaves=4, spines=2, hosts_per_leaf=2, fat_width=1)
        # remote destination: both up-links are candidates
        ports = topo.route_program.candidates(0, 7)  # node 7 is on leaf 3
        assert len(ports) == 2

    def test_down_routing_is_unique_group(self):
        from repro.network.topology import fat_tree

        topo = fat_tree(leaves=4, spines=2, hosts_per_leaf=2, fat_width=2)
        # spine router 4 routing down to node 5 (leaf 2)
        ports = topo.route_program.candidates(4, 5)
        assert ports == (4, 5)  # leaf 2's fat group at the spine

    def test_end_to_end_delivery(self):
        from repro.network.network import Network
        from repro.network.topology import fat_tree
        from repro.router.config import RouterConfig
        from conftest import deliver_all, make_message

        topo = fat_tree(leaves=4, spines=2, hosts_per_leaf=2)
        net = Network(
            topo,
            RouterConfig(num_ports=topo.ports_per_router, vcs_per_pc=2),
        )
        msg = make_message(src=0, dst=7, size=6, src_vc=0, dst_vc=1)
        net.inject_now(msg)
        deliver_all(net)
        assert msg.deliver_time > 0
        net.check_conservation()

    def test_validation(self):
        from repro.network.topology import fat_tree
        import pytest as _pytest

        with _pytest.raises(ConfigurationError):
            fat_tree(leaves=1)
        with _pytest.raises(ConfigurationError):
            fat_tree(spines=0)
        with _pytest.raises(ConfigurationError):
            fat_tree(hosts_per_leaf=0)
        with _pytest.raises(ConfigurationError):
            fat_tree(fat_width=0)
