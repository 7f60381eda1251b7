"""The failover campaign and the checkpoint key (its experiment's
content address)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import campaign
from repro.experiments.campaign import experiment_key, get_profile
from repro.experiments.config import FatMeshExperiment, SingleSwitchExperiment
from repro.experiments.failover import (
    CAMPAIGN,
    CAMPAIGN_MODES,
    _campaign_experiment,
    _fat_pair_windows,
)
from repro.experiments.faultsweep import CAMPAIGN as FAULTS
from repro.experiments.runner import ExperimentResult
from repro.metrics.collector import RunMetrics
from repro.network.health import HealthConfig
from repro.faults import RecoveryConfig
from repro.router.config import RoutingMode


class TestSweepFingerprint:
    """A point's key fingerprints its whole experiment: every knob that
    changes a point's physics changes the key, so resuming a campaign
    with changed flags recomputes instead of serving stale points."""

    def test_default_experiment_key_names_its_type(self):
        key = experiment_key(FatMeshExperiment())
        assert key.startswith("FatMeshExperiment-")
        # the same field values on another type are another experiment
        assert key != experiment_key(SingleSwitchExperiment())

    def test_routing_mode_changes_the_fingerprint(self):
        experiment = FatMeshExperiment(routing_mode=RoutingMode.ADAPTIVE)
        assert experiment_key(experiment) != experiment_key(FatMeshExperiment())

    def test_health_knobs_are_encoded(self):
        a = FatMeshExperiment(health=HealthConfig())
        b = FatMeshExperiment(health=HealthConfig(down_misses=9))
        assert experiment_key(a) != experiment_key(FatMeshExperiment())
        assert experiment_key(a) != experiment_key(b)

    def test_qos_deadline_is_encoded(self):
        keys = {
            experiment_key(
                FatMeshExperiment(recovery=RecoveryConfig(qos_deadline=deadline))
            )
            for deadline in (None, 4096, 8192)
        }
        assert len(keys) == 3

    def test_fault_sweep_keys_stay_stable_at_defaults(self):
        """A key is a pure function of the experiment, pinned here: a
        checkpoint written today keeps restoring."""
        assert experiment_key(FatMeshExperiment()) == (
            "FatMeshExperiment-4c0a91f42760cd1c"
        )

    def test_fault_sweep_keys_change_with_non_default_knobs(self):
        experiment = FAULTS.plan("quick", (0.005,))["virtual_clock", 0.005]
        adaptive = dataclasses.replace(
            experiment, routing_mode=RoutingMode.ADAPTIVE
        )
        assert experiment_key(adaptive) != experiment_key(experiment)

    def test_failover_keys_always_fingerprinted(self):
        quick = get_profile("quick")
        experiment = _campaign_experiment(quick, RoutingMode.ADAPTIVE, 2)
        key = experiment_key(experiment)
        static = _campaign_experiment(quick, RoutingMode.STATIC, 2)
        assert experiment_key(static) != key
        changed = dataclasses.replace(
            experiment, health=HealthConfig(probe_interval=2048)
        )
        assert experiment_key(changed) != key


class TestFatPairWindows:
    def test_one_permanent_failure_per_pair(self):
        base = FatMeshExperiment()
        windows = _fat_pair_windows(base, 8, onset=1000)
        assert len(windows) == 8
        assert all(w.end is None and w.start == 1000 for w in windows)
        # one member per directed pair: all labels distinct, and every
        # pair keeps a healthy sibling (fat_width=2, one failure each)
        assert len({w.link for w in windows}) == 8

    def test_zero_severity_is_fault_free(self):
        assert _fat_pair_windows(FatMeshExperiment(), 0, onset=0) == ()

    def test_severity_beyond_pair_count_rejected(self):
        with pytest.raises(ConfigurationError, match="fat pairs"):
            _fat_pair_windows(FatMeshExperiment(), 9, onset=0)


class TestCampaignExperiment:
    def test_point_carries_the_failover_stack(self):
        experiment = _campaign_experiment(
            get_profile("quick"), RoutingMode.STATIC, 4
        )
        assert experiment.routing_mode == RoutingMode.STATIC
        assert experiment.health == HealthConfig()
        assert len(experiment.faults.down_windows) == 4
        assert experiment.recovery.qos_deadline is not None
        assert experiment.watchdog_window is not None
        # failures land at the end of warmup, inside measurement
        assert all(
            w.start == experiment.warmup_cycles
            for w in experiment.faults.down_windows
        )


def _fake_result(experiment):
    severity = len(experiment.faults.down_windows)
    adaptive = experiment.routing_mode == RoutingMode.ADAPTIVE
    fraction = 1.0 if adaptive else max(0.0, 1.0 - 0.05 * severity)
    metrics = RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50)
    return ExperimentResult(
        experiment=experiment,
        metrics=metrics,
        workload=None,
        cycles_run=1000,
        flits_injected=10,
        flits_ejected=10,
        wall_seconds=0.0,
        fault_stats={
            "qos_delivered_fraction": fraction,
            "qos_deadline_misses": 0,
            "qos_abandoned": 0 if adaptive else severity,
            "health": {
                "reroutes": 3 if adaptive else 0,
                "detours": 0,
                "worms_requeued": 0,
                "streams_shed": severity,
            },
        },
    )


class TestRunFailoverCampaign:
    """What is particular to the failover spec; the plumbing every
    campaign shares is checked once, in tests/test_campaign.py."""

    def test_series_shape_and_extras(self, monkeypatch):
        monkeypatch.setattr(campaign, "simulate", _fake_result)
        fig = CAMPAIGN.run("quick", (0, 2))
        assert fig.figure_id == "failover"
        assert set(fig.series) == set(CAMPAIGN_MODES)
        for mode in CAMPAIGN_MODES:
            assert [p.x for p in fig.series[mode]] == [0, 2]
        adaptive = fig.series[RoutingMode.ADAPTIVE][1]
        static = fig.series[RoutingMode.STATIC][1]
        assert adaptive.extra["qos_delivered_fraction"] == 1.0
        assert static.extra["qos_delivered_fraction"] < 1.0
        text = CAMPAIGN.render(fig)
        assert "qos frac" in text
        assert "adaptive" in text and "static" in text
        assert "0.9000" in text  # static @ severity 2
