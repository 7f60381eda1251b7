"""Public API surface and error hierarchy."""

import pytest

import repro
from repro import errors


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.core
        import repro.metrics
        import repro.network
        import repro.pcs
        import repro.router
        import repro.sim
        import repro.traffic

        for module in (
            repro.analysis,
            repro.core,
            repro.metrics,
            repro.network,
            repro.pcs,
            repro.router,
            repro.sim,
            repro.traffic,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__}.__all__ lists missing {name}"
                )

    def test_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) == 3

    def test_headline_entry_points_are_callable(self):
        assert callable(repro.simulate_single_switch)
        assert callable(repro.simulate_fat_mesh)
        assert callable(repro.simulate)
        assert callable(repro.build_workload)

    def test_every_public_item_has_a_docstring(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"
            elif isinstance(obj, type) and not issubclass(obj, Exception):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.SimulationError,
            errors.RoutingError,
            errors.FlowControlError,
            errors.AdmissionError,
            errors.DeadlockError,
            errors.FaultConfigError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_routing_and_flow_control_are_simulation_errors(self):
        assert issubclass(errors.RoutingError, errors.SimulationError)
        assert issubclass(errors.FlowControlError, errors.SimulationError)

    def test_fault_errors_slot_into_the_hierarchy(self):
        # a watchdog trip is a simulation failure; a bad fault plan is
        # a configuration mistake — both catchable at the usual levels
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.FaultConfigError, errors.ConfigurationError)

    def test_fault_api_exported_at_top_level(self):
        import repro

        for name in (
            "DeadlockError",
            "FaultConfigError",
            "FaultPlan",
            "LinkDownWindow",
            "RecoveryConfig",
            "install_faults",
            "install_recovery",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.FlowControlError("x")

    def test_library_raises_its_own_errors(self):
        from repro import LinkSpec

        with pytest.raises(errors.ReproError):
            LinkSpec(bandwidth_mbps=-1)
