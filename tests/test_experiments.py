"""Experiment configurations and runners."""

import dataclasses

import pytest

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError
from repro.experiments.config import (
    FatMeshExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import (
    simulate,
    simulate_fat_mesh,
    simulate_single_switch,
)
from repro.sim.reference import run_reference

from conftest import TINY


class TestExperimentConfig:
    def test_table1_defaults(self):
        exp = SingleSwitchExperiment()
        assert exp.num_ports == 8
        assert exp.vcs_per_pc == 16
        assert exp.bandwidth_mbps == 400.0
        assert exp.flit_size_bits == 32
        assert exp.message_size == 20
        assert exp.scheduler == SchedulingPolicy.VIRTUAL_CLOCK

    def test_router_config_partitions_by_mix(self):
        exp = SingleSwitchExperiment(mix=(80, 20), vcs_per_pc=16)
        config = exp.router_config(8)
        assert config.rt_vc_count == 13

    def test_warmup_and_total_cycles(self):
        exp = SingleSwitchExperiment(
            scale=20.0, warmup_frames=2, measure_frames=3
        )
        interval = exp.workload_config().frame_interval_cycles
        assert exp.warmup_cycles == 2 * interval
        assert exp.total_cycles == 5 * interval

    def test_timebase_reports_33ms_for_one_interval(self):
        exp = SingleSwitchExperiment(scale=20.0)
        interval = exp.workload_config().frame_interval_cycles
        assert exp.timebase.report_ms(interval) == pytest.approx(33.0, rel=0.01)

    def test_rejects_empty_horizon(self):
        with pytest.raises(ConfigurationError):
            SingleSwitchExperiment(warmup_frames=0)

    def test_rejects_malformed_mix(self):
        with pytest.raises(ConfigurationError):
            SingleSwitchExperiment(mix=(80, 10, 10))

    def test_pcs_defaults_match_section_56(self):
        exp = PCSExperiment()
        assert exp.bandwidth_mbps == 100.0
        assert exp.vcs_per_pc == 24
        assert exp.mix == (100.0, 0.0)

    def test_pcs_rejects_bad_retries(self):
        with pytest.raises(ConfigurationError):
            PCSExperiment(max_retries=-1)

    def test_fat_mesh_defaults(self):
        exp = FatMeshExperiment()
        assert (exp.rows, exp.cols) == (2, 2)
        assert exp.hosts_per_router == 4
        assert exp.fat_width == 2


class TestRunners:
    def test_single_switch_run_shape(self, tiny_run):
        metrics = tiny_run.metrics
        assert metrics.frames_delivered > 0
        assert metrics.interval_count > 0
        assert metrics.be_message_count > 0
        assert tiny_run.flits_injected >= tiny_run.flits_ejected
        assert tiny_run.cycles_run == tiny_run.experiment.total_cycles

    def test_tiny_run_is_jitter_free_at_low_load(self, tiny_run):
        assert tiny_run.metrics.d == pytest.approx(33.0, abs=1.0)
        assert tiny_run.metrics.sigma_d < 2.0

    def test_achieved_load_close_to_offered(self, tiny_run):
        assert tiny_run.achieved_load == pytest.approx(0.6, abs=0.05)

    def test_every_run_times_its_phases_outside_the_metrics(self, tiny_run):
        """The loop's phase split is host time beside ``wall_seconds``,
        never in ``RunMetrics``; the reference stepper times nothing."""
        seconds = tiny_run.phase_seconds
        assert list(seconds) == ["events", "links", "nis", "routers"]
        assert min(seconds.values()) >= 0.0 and seconds["routers"] > 0.0
        assert sum(seconds.values()) <= tiny_run.wall_seconds
        assert "profile" not in dataclasses.asdict(tiny_run.metrics)
        reference = simulate(tiny_run.experiment, loop=run_reference)
        assert reference.metrics == tiny_run.metrics
        assert reference.phase_seconds == dict.fromkeys(seconds, 0.0)

    def test_same_seed_reproduces_exactly(self):
        exp = SingleSwitchExperiment(load=0.4, mix=(50, 50), **TINY)
        a = simulate_single_switch(exp)
        b = simulate_single_switch(exp)
        assert a.metrics == b.metrics
        assert a.flits_injected == b.flits_injected

    def test_different_seed_changes_details(self):
        base = dict(TINY)
        a = simulate_single_switch(
            SingleSwitchExperiment(load=0.4, mix=(50, 50), **base)
        )
        base["seed"] = 99
        b = simulate_single_switch(
            SingleSwitchExperiment(load=0.4, mix=(50, 50), **base)
        )
        assert a.flits_injected != b.flits_injected or a.metrics != b.metrics

    def test_fat_mesh_runner(self):
        exp = FatMeshExperiment(load=0.4, mix=(60, 40), **TINY)
        result = simulate_fat_mesh(exp)
        assert result.metrics.frames_delivered > 0
        assert result.metrics.d == pytest.approx(33.0, abs=2.0)

    def test_fat_mesh_uses_16_hosts(self):
        exp = FatMeshExperiment(load=0.3, mix=(100, 0), **TINY)
        result = simulate_fat_mesh(exp)
        # 16 hosts x streams/node
        assert len(result.workload.streams) == 16 * result.workload.streams_per_node
