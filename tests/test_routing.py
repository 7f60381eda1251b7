"""Route lookups on compiled route programs."""

import pytest

from repro.errors import RoutingError
from repro.network.topology import fat_mesh_2x2, single_switch
from repro.router.routeprog import CompiledRouting, RouteProgram, compile_routes


class TestSingleSwitchRouting:
    def test_maps_host_to_port(self):
        program = single_switch(3).route_program
        assert program.candidates(0, 2) == (2,)

    def test_non_identity_mapping(self):
        """Node ids that are neither 0.. nor the port numbers."""
        program = compile_routes({(0, 10): (3,), (0, 11): (0,)})
        assert program.candidates(0, 10) == (3,)
        assert program.candidates(0, 11) == (0,)

    def test_unknown_destination_raises(self):
        program = single_switch(2).route_program
        with pytest.raises(RoutingError):
            program.candidates(0, 99)


class TestTableRouting:
    def test_lookup(self):
        program = compile_routes({(0, 5): (2, 3), (1, 5): (0,)})
        assert program.candidates(0, 5) == (2, 3)
        assert program.candidates(1, 5) == (0,)

    def test_missing_entry_raises(self):
        program = compile_routes({(0, 5): (2,)})
        with pytest.raises(RoutingError):
            program.candidates(0, 6)
        with pytest.raises(RoutingError):
            program.candidates(2, 5)
        with pytest.raises(RoutingError):
            CompiledRouting(program).router_view(2).candidates(5)

    def test_empty_entry_rejected_at_construction(self):
        with pytest.raises(RoutingError):
            compile_routes({(0, 1): ()})

    def test_fat_mesh_routing_is_table_routing(self):
        assert isinstance(fat_mesh_2x2().route_program, RouteProgram)
        program = compile_routes({(0, 1): (4, 5)})
        assert program.candidates(0, 1) == (4, 5)
