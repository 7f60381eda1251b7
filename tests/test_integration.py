"""Integration: the paper's qualitative claims at miniature scale.

These tests run real (but tiny) workloads through the full stack and
check *shape*: who wins, what degrades, what stays flat.  Absolute
numbers come from the benchmark harness, not from here.  A run is
memoised under its experiment's content key, so two claims about one
operating point share one simulation.
"""

import pytest

from repro.analysis import dominates, is_jitter_free_point, monotonic_tail
from repro.core.schedulers import SchedulingPolicy
from repro.experiments.campaign import experiment_key
from repro.experiments.config import (
    FatMeshExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import simulate

SMALL = dict(scale=50.0, warmup_frames=2, measure_frames=4, seed=1)

#: experiment key -> its result, shared by every claim about that point
_RUNS = {}


def _simulate(experiment):
    key = experiment_key(experiment)
    if key not in _RUNS:
        _RUNS[key] = simulate(experiment)
    return _RUNS[key]


def _run(load, mix=(80, 20), **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return _simulate(SingleSwitchExperiment(load=load, mix=mix, **kwargs))


class TestSingleSwitchClaims:
    def test_jitter_free_at_moderate_load(self):
        metrics = _run(0.6).metrics
        assert is_jitter_free_point(metrics.d, metrics.sigma_d)

    def test_jitter_grows_with_load(self):
        low = _run(0.5).metrics
        high = _run(0.96).metrics
        assert high.sigma_d > low.sigma_d

    def test_virtual_clock_beats_fifo_near_saturation(self):
        vclock = _run(1.0, scheduler=SchedulingPolicy.VIRTUAL_CLOCK).metrics
        fifo = _run(1.0, scheduler=SchedulingPolicy.FIFO).metrics
        assert vclock.sigma_d < fifo.sigma_d
        assert vclock.d < fifo.d

    def test_best_effort_latency_grows_with_load(self):
        latencies = [_run(load).metrics.be_latency_us for load in (0.4, 0.7, 0.9)]
        assert monotonic_tail(latencies)

    def test_best_effort_presence_does_not_hurt_real_time(self):
        # 80:20 at the same *real-time* load as a pure run: jitter stays
        # comparable (the paper's "no adverse effect" claim).
        pure = _run(0.56, mix=(100, 0)).metrics
        mixed = _run(0.7, mix=(80, 20)).metrics  # rt component = 0.56
        assert mixed.sigma_d <= pure.sigma_d + 1.0

    def test_cbr_no_worse_than_vbr(self):
        vbr = _run(0.8, mix=(100, 0), rt_class="vbr").metrics
        cbr = _run(0.8, mix=(100, 0), rt_class="cbr").metrics
        assert cbr.sigma_d <= vbr.sigma_d + 0.5

    def test_more_vcs_do_not_hurt(self):
        few = _run(0.9, mix=(100, 0), vcs_per_pc=4).metrics
        many = _run(0.9, mix=(100, 0), vcs_per_pc=16).metrics
        assert many.sigma_d <= few.sigma_d + 0.5

    def test_full_crossbar_at_least_as_good_as_multiplexed(self):
        muxed = _run(0.9, mix=(100, 0), vcs_per_pc=4, crossbar="multiplexed")
        full = _run(0.9, mix=(100, 0), vcs_per_pc=4, crossbar="full")
        assert full.metrics.sigma_d <= muxed.metrics.sigma_d + 0.5

    def test_round_robin_also_rate_agnostic(self):
        # round-robin behaves like FIFO at saturation: worse than VClock
        vclock = _run(1.0, scheduler=SchedulingPolicy.VIRTUAL_CLOCK).metrics
        rr = _run(1.0, scheduler=SchedulingPolicy.ROUND_ROBIN).metrics
        assert vclock.d <= rr.d + 0.5


class TestPcsClaims:
    def test_pcs_never_jitters_on_established_streams(self):
        result = _simulate(PCSExperiment(load=0.8, **SMALL))
        assert result.metrics.sigma_d < 2.0

    def test_pcs_drops_while_wormhole_accepts_everything(self):
        pcs = _simulate(PCSExperiment(load=0.8, **SMALL))
        wormhole = _run(
            0.8, mix=(100, 0), bandwidth_mbps=100.0, vcs_per_pc=24
        )
        assert pcs.connections.dropped > 0
        # wormhole serves every offered stream
        assert wormhole.workload.streams_per_node * 8 == len(
            wormhole.workload.streams
        )


class TestFatMeshClaims:
    def test_fat_mesh_jitter_free_at_moderate_mix(self):
        result = _simulate(
            FatMeshExperiment(load=0.7, mix=(40, 60), **SMALL)
        )
        assert is_jitter_free_point(result.metrics.d, result.metrics.sigma_d)

    def test_fat_mesh_be_latency_grows_with_rt_share(self):
        latencies = []
        for mix in ((40, 60), (80, 20)):
            result = _simulate(
                FatMeshExperiment(load=0.8, mix=mix, **SMALL)
            )
            latencies.append(result.metrics.be_latency_us)
        assert latencies[1] > latencies[0]

    def test_fat_mesh_no_worse_than_20_percent_loss_of_flits(self):
        result = _simulate(
            FatMeshExperiment(load=0.6, mix=(60, 40), **SMALL)
        )
        # everything injected is either delivered or still in flight
        assert result.flits_ejected > 0.8 * result.flits_injected
