"""The activation scheduler and the active-set/reference golden runs."""

import dataclasses

import pytest

from repro.errors import DeadlockError
from repro.experiments.config import FatMeshExperiment, SingleSwitchExperiment
from repro.experiments.runner import simulate_fat_mesh, simulate_single_switch
from repro.faults import FaultPlan, RecoveryConfig
from repro.sim.activation import ActivationScheduler
from repro.sim.reference import run_reference

TINY = dict(scale=100.0, warmup_frames=1, measure_frames=2, seed=7)


class TestActivationScheduler:
    def test_activate_orders_and_dedups(self):
        sched = ActivationScheduler()
        sched.activate(3)
        sched.activate(1)
        sched.activate(3)
        assert list(sched.due(0)) == [1, 3]
        # the persistent set survives across cycles
        assert list(sched.due(5)) == [1, 3]

    def test_deactivate_is_idempotent(self):
        sched = ActivationScheduler()
        sched.activate(2)
        sched.deactivate(2)
        sched.deactivate(2)
        sched.deactivate(9)  # never activated
        assert list(sched.due(0)) == []

    def test_wake_fires_once_at_its_time(self):
        sched = ActivationScheduler()
        sched.wake_at(4, 10)
        assert list(sched.due(9)) == []
        assert list(sched.due(10)) == [4]
        # a wake is one-shot: consumed by the due() that returns it
        assert list(sched.due(11)) == []

    def test_earlier_wake_supersedes_later(self):
        sched = ActivationScheduler()
        sched.wake_at(1, 20)
        sched.wake_at(1, 5)
        assert sched.next_time() == 5
        assert list(sched.due(5)) == [1]
        # the stale heap entry for cycle 20 must not resurface
        assert list(sched.due(20)) == []

    def test_later_wake_request_is_ignored_while_armed(self):
        sched = ActivationScheduler()
        sched.wake_at(1, 5)
        sched.wake_at(1, 20)  # already armed earlier; no-op
        assert sched.next_time() == 5
        assert list(sched.due(5)) == [1]
        assert sched.next_time() is None

    def test_due_merges_active_and_expired_wakes_sorted(self):
        sched = ActivationScheduler()
        sched.activate(7)
        sched.activate(2)
        sched.wake_at(5, 3)
        sched.wake_at(9, 4)
        assert list(sched.due(3)) == [2, 5, 7]
        assert list(sched.due(4)) == [2, 7, 9]

    def test_next_time_skips_stale_entries(self):
        sched = ActivationScheduler()
        sched.wake_at(1, 30)
        sched.wake_at(1, 10)
        assert sched.next_time() == 10
        list(sched.due(10))
        assert sched.next_time() is None


def _metrics(result):
    return dataclasses.asdict(result.metrics)


class TestGoldenRuns:
    """Active-set loop vs the reference stepper, bit-identical."""

    @pytest.mark.parametrize("load", [0.6, 0.9])
    def test_single_switch_matches_legacy(self, load):
        experiment = SingleSwitchExperiment(load=load, mix=(80, 20), **TINY)
        active = simulate_single_switch(experiment)
        legacy = simulate_single_switch(experiment, loop=run_reference)
        assert _metrics(active) == _metrics(legacy)

    def test_fat_mesh_with_faults_matches_legacy(self):
        """Faults + recovery + watchdog exercise every wake path."""
        experiment = FatMeshExperiment(
            load=0.7,
            mix=(80, 20),
            faults=FaultPlan(flit_loss_prob=0.01),
            recovery=RecoveryConfig(timeout=2048, max_retries=4),
            watchdog_window=200_000,
            **TINY,
        )
        active = simulate_fat_mesh(experiment)
        legacy = simulate_fat_mesh(experiment, loop=run_reference)
        assert _metrics(active) == _metrics(legacy)
        assert active.fault_stats == legacy.fault_stats

    def test_watchdog_fires_at_identical_cycle(self):
        """A too-tight watchdog must trip both loops at the same cycle."""
        experiment = SingleSwitchExperiment(
            load=0.8, mix=(80, 20), watchdog_window=1, **TINY
        )
        with pytest.raises(DeadlockError) as active_err:
            simulate_single_switch(experiment)
        with pytest.raises(DeadlockError) as legacy_err:
            simulate_single_switch(experiment, loop=run_reference)
        active_line = str(active_err.value).splitlines()[0]
        legacy_line = str(legacy_err.value).splitlines()[0]
        assert active_line == legacy_line
