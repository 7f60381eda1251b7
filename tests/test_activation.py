"""The activation scheduler and the active-set/reference golden runs
(cells of ``tests/test_parity.py``, read off the session memo)."""

import dataclasses

import pytest

from conftest import TINY

from repro.experiments.config import SingleSwitchExperiment
from repro.sim.activation import ActivationScheduler
from repro.sim.reference import run_reference


class TestGoldenRuns:
    """The fused loop vs the reference stepper, bit-identical."""

    @pytest.mark.parametrize("load", [0.6, 0.9])
    def test_single_switch_matches_the_reference(self, simulated, load):
        # the matrix's golden and saturated cells: one run per loop
        experiment = SingleSwitchExperiment(load=load, mix=(80, 20), **TINY)
        fused = simulated(experiment).result
        reference = simulated(experiment, run_reference).result
        assert dataclasses.asdict(fused.metrics) == dataclasses.asdict(
            reference.metrics
        )


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
