"""The collect-then-pause rule around run construction (``gc_quiet``)."""

import gc
import weakref
from types import SimpleNamespace

import pytest

import repro.experiments.runner as runner
import repro.network.network as network_module
from repro.experiments.config import FatTree3Experiment
from repro.experiments.runner import simulate_fat_tree3
from repro.router.config import RouterConfig
from repro.sim.gcquiet import gc_quiet

K8 = dict(
    k=8,
    load=0.01,
    mix=(100, 0),
    vcs_per_pc=4,
    scale=100.0,
    warmup_frames=1,
    measure_frames=2,
    seed=1,
)


@pytest.fixture
def collector_state():
    """Hand the test an enabled collector and put back what it found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def passes():
    """Every collector pass while the fixture is live, as generations."""
    seen = []

    def on_gc(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(on_gc)
    yield seen
    gc.callbacks.remove(on_gc)


class TestCollectorState:
    def test_pauses_and_restores_on_normal_exit(self, collector_state):
        with gc_quiet():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self, collector_state):
        with pytest.raises(KeyError):
            with gc_quiet(collect=True):
                assert not gc.isenabled()
                raise KeyError("boom")
        assert gc.isenabled()

    def test_nested_block_leaves_the_outer_pause_alone(self, collector_state):
        with gc_quiet(collect=True):
            with gc_quiet(collect=True):
                assert not gc.isenabled()
            # the inner exit must not switch the collector back on
            assert not gc.isenabled()
            with pytest.raises(ValueError):
                with gc_quiet():
                    raise ValueError
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, collector_state):
        gc.disable()
        with gc_quiet(collect=True):
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_collects_once_on_entry_only_when_asked(
        self, collector_state, passes
    ):
        with gc_quiet():
            pass
        assert passes == []
        with gc_quiet(collect=True):
            assert passes == [2]
            # nested: already quiet, nothing to collect or pause
            with gc_quiet(collect=True):
                pass
        assert passes == [2]

    def test_caller_disabled_collector_is_not_collected(
        self, collector_state, passes
    ):
        gc.disable()
        with gc_quiet(collect=True):
            pass
        assert passes == []


@pytest.fixture
def quiet_k8(monkeypatch):
    """Build the (cheap) k=8 tree the way the 1024-host one is built."""
    monkeypatch.setattr(runner, "_QUIET_BUILD_MIN_VCS", 0)


class TestSizeGate:
    """Only a construction big enough to repay the entry pass is paused."""

    @staticmethod
    def _enabled_inside(routers, ports, vcs):
        topology = SimpleNamespace(num_routers=routers)
        config = RouterConfig(num_ports=ports, vcs_per_pc=vcs)
        with runner._construction_gc(topology, config):
            return gc.isenabled()

    def test_1024_host_tree_is_built_quiet(self, collector_state):
        assert not self._enabled_inside(routers=320, ports=16, vcs=4)
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "routers, ports, vcs",
        [(1, 8, 16), (4, 8, 16), (12, 4, 8), (80, 8, 4)],
        ids=["dense-switch", "fat-mesh", "butterfly-8", "ft3-128"],
    )
    def test_small_networks_keep_the_collector(
        self, collector_state, passes, routers, ports, vcs
    ):
        assert self._enabled_inside(routers, ports, vcs)
        assert passes == [], "no entry collection either"


class TestQuietConstruction:
    def test_no_collector_pass_while_a_k8_run_is_built(
        self, collector_state, passes, monkeypatch, quiet_k8
    ):
        """Network, workload and cycle-loop build see no pass at all."""
        during = []
        last_before = {}

        def watched(label, build):
            def wrapper(*args, **kwargs):
                before = len(passes)
                last_before[label] = passes[-1] if passes else None
                try:
                    return build(*args, **kwargs)
                finally:
                    during.append((label, passes[before:]))

            return wrapper

        monkeypatch.setattr(
            runner, "Network", watched("network", runner.Network)
        )
        monkeypatch.setattr(
            runner, "build_workload", watched("workload", runner.build_workload)
        )
        monkeypatch.setattr(
            network_module,
            "FusedLoop",
            watched("loop", network_module.FusedLoop),
        )
        result = simulate_fat_tree3(FatTree3Experiment(**K8))
        assert result.flits_ejected > 0
        assert during == [("network", []), ("workload", []), ("loop", [])]
        # the run's one full pass came right before the network was built
        assert last_before["network"] == 2
        assert gc.isenabled()

    def test_setup_seconds_is_the_part_before_the_loop(self, collector_state):
        result = simulate_fat_tree3(FatTree3Experiment(**K8))
        assert result.setup_seconds > 0.0
        assert result.wall_seconds > 0.0
        portable = result.portable()
        assert portable.setup_seconds == result.setup_seconds

    def test_back_to_back_runs_do_not_pile_up_networks(
        self, collector_state, monkeypatch, quiet_k8
    ):
        """A finished run's network is gone before the next is allocated.

        With a pause but no collection on entry, every dropped result
        would leave its (cyclic) network alive under the next one.
        """
        born = []
        alive_at_start = []

        class Counted(runner.Network):
            def __init__(self, *args, **kwargs):
                alive_at_start.append(
                    sum(1 for ref in born if ref() is not None)
                )
                super().__init__(*args, **kwargs)
                born.append(weakref.ref(self))

        monkeypatch.setattr(runner, "Network", Counted)
        experiment = FatTree3Experiment(**K8)
        for _ in range(4):
            simulate_fat_tree3(experiment)  # result dropped on the floor
        assert len(alive_at_start) == 4
        assert max(alive_at_start) <= 1
