"""The collect-then-pause rule around run construction (``gc_quiet``)."""

import gc
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.experiments.runner as runner
import repro.network.network as network_module
from repro.errors import DeadlockError
from repro.experiments.config import FatTree3Experiment
from repro.experiments.runner import simulate_fat_tree3
from repro.router.config import RouterConfig
from repro.sim.gcquiet import gc_quiet

SRC = Path(__file__).resolve().parents[1] / "src"

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


def _fabric(network):
    """The network, its routers and every router VC."""
    parts = [network, *network.routers]
    for router in network.routers:
        for vcs in router.inputs + router.outputs:
            parts.extend(vcs)
    return parts


class TestAgedConstruction:
    """The built graph leaves the pause already in the oldest generation."""

    def test_fabric_is_old_at_cycle_0_after_one_entry_pass(
        self, collector_state, passes, monkeypatch, quiet_k8
    ):
        seen = {}
        regime = runner._construction_gc

        def entered(*args):
            seen["mark"] = len(passes)
            return regime(*args)

        def at_cycle_0(network):
            assert network.clock == 0
            seen["passes"] = passes[seen["mark"]:]
            fabric = _fabric(network)
            assert all(gc.is_tracked(part) for part in fabric)
            young = {
                id(obj)
                for generation in (0, 1)
                for obj in gc.get_objects(generation=generation)
            }
            seen["young"] = sum(id(part) in young for part in fabric)
            seen["fabric"] = len(fabric)

        monkeypatch.setattr(runner, "_construction_gc", entered)
        simulate_fat_tree3(
            FatTree3Experiment(**K8, network_hook=at_cycle_0)
        )
        assert seen["fabric"] == 1 + 80 + 2 * 80 * 8 * 4
        assert seen["young"] == 0
        # the entry collection, and no promotion pass after it
        assert seen["passes"] == [2]

    def test_unaged_control_is_young(self, collector_state):
        """What the assertion above would see without the ageing."""
        with gc_quiet():
            built = [[index] for index in range(10)]
        young = {id(obj) for obj in gc.get_objects(generation=0)}
        assert all(id(item) in young for item in built)
        with gc_quiet(collect=True):
            built = [[index] for index in range(10)]
        young = {id(obj) for obj in gc.get_objects(generation=0)}
        assert not any(id(item) in young for item in built)

    def test_nothing_stays_frozen(self, collector_state, quiet_k8):
        assert gc.get_freeze_count() == 0
        simulate_fat_tree3(FatTree3Experiment(**K8))
        assert gc.get_freeze_count() == 0
        with pytest.raises(DeadlockError):
            simulate_fat_tree3(FatTree3Experiment(**K8, watchdog_window=1))
        assert gc.get_freeze_count() == 0
        with pytest.raises(KeyError):
            with gc_quiet(collect=True):
                raise KeyError("construction failed")
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    def test_a_callers_freeze_is_left_alone(self, collector_state):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with gc_quiet(collect=True):
                built = [[index] for index in range(10)]
            # neither released (unfreeze is all or nothing) nor grown
            assert gc.get_freeze_count() == frozen
            young = {id(obj) for obj in gc.get_objects(generation=0)}
            assert all(id(item) in young for item in built)
        finally:
            gc.unfreeze()

    def test_small_networks_are_never_aged(self):
        """30 back-to-back 8-port runs never call ``freeze`` and pile
        up no more dead networks than before the ageing existed: 10 on
        either side of this change, where an ageing step with no entry
        collection to free what it made old keeps all 29 alive.  (A
        fresh interpreter: the full-pass cadence depends on how many
        old objects the process holds; the bound leaves two networks
        of slack for another interpreter's allocation counts.)
        """
        probe = (
            "import gc, weakref\n"
            "import repro.experiments.runner as runner\n"
            "from repro.experiments.config import SingleSwitchExperiment\n"
            "born, alive, freezes = [], [], []\n"
            "class Counted(runner.Network):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        alive.append(sum(ref() is not None for ref in born))\n"
            "        super().__init__(*args, **kwargs)\n"
            "        born.append(weakref.ref(self))\n"
            "runner.Network = Counted\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: (freezes.append(1), freeze())\n"
            "experiment = SingleSwitchExperiment(\n"
            "    load=0.1, mix=(80, 20), vcs_per_pc=16, scale=100.0,\n"
            "    warmup_frames=1, measure_frames=2)\n"
            "gc.collect()\n"
            "for _ in range(30):\n"
            "    runner.simulate(experiment)\n"
            "print(max(alive), len(freezes))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={"PYTHONPATH": str(SRC), "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        piled, freezes = map(int, done.stdout.split())
        assert freezes == 0
        assert piled <= 12
