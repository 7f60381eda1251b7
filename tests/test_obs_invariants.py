"""Invariant-backed integration tests over real tier-1 traffic.

Every workload family the suite exercises elsewhere — CBR/VBR/
best-effort mixes, multiplexed and full crossbars, Virtual Clock and
FIFO multiplexing, the fat mesh, faulted runs with recovery, and the
adaptive-failover stack — is re-run here with an
:class:`~repro.obs.InvariantChecker` riding the event stream, so flit
conservation, monotone worm progress, and credit consistency are
asserted on real traffic rather than toy fixtures, on both the
active-set loop and the reference stepper.

A run passes simply by completing: the checker raises
:class:`~repro.errors.InvariantViolation` mid-run on the first
inconsistent event, and the runner's :class:`TraceSpec(check=True)
<repro.obs.TraceSpec>` harness closes the conservation ledger (plus a
final credit/structural audit) when the run finishes.
"""

import dataclasses

import pytest

from conftest import TINY

from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import FatMeshExperiment, SingleSwitchExperiment
from repro.experiments.failover import _fat_pair_windows
from repro.experiments.runner import simulate_fat_mesh, simulate_single_switch
from repro.faults import FaultPlan, RecoveryConfig
from repro.network.health import HealthConfig
from repro.obs import TraceSpec
from repro.router.config import CrossbarKind, RoutingMode
from repro.router.flit import TrafficClass

CHECK = TraceSpec(check=True)


def _checked(result):
    """The run already passed (no raise); sanity-check the audit ran."""
    summary = result.trace_summary
    assert summary["invariant_events"] == summary["events"] > 0
    assert summary["invariant_checks"] > 0
    return result


@pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
class TestWorkloadMixesUnderChecker:
    """The paper's traffic families on the main single-switch testbed."""

    @pytest.mark.parametrize(
        "rt_class,mix",
        [
            (TrafficClass.VBR, (80, 20)),   # headline 80:20 VBR + BE
            (TrafficClass.CBR, (80, 20)),   # CBR + best-effort
            (TrafficClass.VBR, (100, 0)),   # pure real-time
            (TrafficClass.VBR, (50, 50)),   # best-effort heavy
        ],
    )
    def test_mix(self, reference_loop, rt_class, mix):
        experiment = SingleSwitchExperiment(
            load=0.7, mix=mix, rt_class=rt_class, trace=CHECK, **TINY
        )
        _checked(simulate_single_switch(experiment))

    @pytest.mark.parametrize(
        "crossbar", [CrossbarKind.MULTIPLEXED, CrossbarKind.FULL]
    )
    def test_crossbar_kinds(self, reference_loop, crossbar):
        experiment = SingleSwitchExperiment(
            load=0.7, mix=(80, 20), crossbar=crossbar, trace=CHECK, **TINY
        )
        _checked(simulate_single_switch(experiment))

    def test_fifo_multiplexing(self, reference_loop):
        experiment = SingleSwitchExperiment(
            load=0.7,
            mix=(80, 20),
            scheduler=SchedulingPolicy.FIFO,
            trace=CHECK,
            **TINY,
        )
        _checked(simulate_single_switch(experiment))


@pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
class TestFatMeshUnderChecker:
    def test_fat_mesh_mix(self, reference_loop):
        experiment = FatMeshExperiment(
            load=0.6, mix=(80, 20), trace=CHECK, **TINY
        )
        _checked(simulate_fat_mesh(experiment))


class TestSaturationUnderChecker:
    def test_overloaded_switch_conserves_flits(self):
        """Past saturation, blocked worms must still account exactly."""
        experiment = SingleSwitchExperiment(
            load=0.96, mix=(80, 20), trace=CHECK, **TINY
        )
        _checked(simulate_single_switch(experiment))

    def test_full_crossbar_near_saturation(self):
        experiment = SingleSwitchExperiment(
            load=0.9,
            mix=(80, 20),
            crossbar=CrossbarKind.FULL,
            trace=CHECK,
            **TINY,
        )
        _checked(simulate_single_switch(experiment))


def _faulted_experiment(**overrides):
    """A lossy single-switch run with the recovery transport installed."""
    base = SingleSwitchExperiment(load=0.6, mix=(80, 20), **TINY)
    interval = base.workload_config().frame_interval_cycles
    kwargs = dict(
        faults=FaultPlan(flit_loss_prob=0.002, flit_corrupt_prob=0.002),
        recovery=RecoveryConfig(
            timeout=max(512, interval // 2),
            max_retries=4,
            backoff_base=max(16, interval // 256),
            backoff_cap=max(64, interval // 16),
        ),
        trace=CHECK,
    )
    kwargs.update(overrides)
    return dataclasses.replace(base, **kwargs)


@pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
class TestFaultedRunsUnderChecker:
    def test_losses_and_retransmissions_balance_the_ledger(self, reference_loop):
        result = _checked(simulate_single_switch(_faulted_experiment()))
        counts = result.trace_summary["counts"]
        # the fault machinery actually fired, so the checker audited
        # lost/purged/retransmitted flits, not just the clean lifecycle
        assert counts.get("flit_lost", 0) > 0
        assert counts.get("retransmit", 0) > 0
        assert counts.get("purge", 0) > 0

    def test_adaptive_failover_under_checker(self, reference_loop):
        """Permanent fat-pair failures + detours + requeues, audited."""
        base = FatMeshExperiment(
            load=0.6, mix=(80, 20),
            scale=100.0, warmup_frames=1, measure_frames=3, seed=7,
        )
        interval = base.workload_config().frame_interval_cycles
        experiment = dataclasses.replace(
            base,
            faults=FaultPlan(
                down_windows=_fat_pair_windows(base, 8, base.warmup_cycles)
            ),
            recovery=RecoveryConfig(
                timeout=max(512, interval // 2),
                max_retries=8,
                backoff_base=max(16, interval // 256),
                backoff_cap=max(64, interval // 16),
            ),
            health=HealthConfig(),
            routing_mode=RoutingMode.ADAPTIVE,
            trace=CHECK,
        )
        result = _checked(simulate_fat_mesh(experiment))
        counts = result.trace_summary["counts"]
        assert counts.get("health", 0) > 0
        assert result.fault_stats["health"]["link_downs"] > 0
