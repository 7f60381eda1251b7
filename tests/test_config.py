"""Router configuration validation and VC partitioning."""

import pytest

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError
from repro.experiments.config import SingleSwitchExperiment
from repro.router.config import CrossbarKind, RouterConfig


class TestRouterConfig:
    def test_table1_defaults(self):
        config = RouterConfig()
        assert config.num_ports == 8
        assert config.vcs_per_pc == 16
        assert config.crossbar == CrossbarKind.MULTIPLEXED
        assert config.qos_policy == SchedulingPolicy.VIRTUAL_CLOCK

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_ports=0),
            dict(vcs_per_pc=0),
            dict(flit_buffer_depth=0),
            dict(output_buffer_depth=0),
            dict(crossbar="mesh"),
            dict(qos_policy="edf"),
            dict(rt_vc_count=17),
            dict(rt_vc_count=-1),
            dict(routing_delay=-1),
            dict(arbitration_delay=-1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RouterConfig(**kwargs)

    def test_header_pipeline_delay(self):
        config = RouterConfig(routing_delay=1, arbitration_delay=1)
        assert config.header_pipeline_delay == 2

    def test_partition_none_gives_all_vcs_to_both(self):
        config = RouterConfig(vcs_per_pc=8, rt_vc_count=None)
        assert list(config.vc_range_for_class(True)) == list(range(8))
        assert list(config.vc_range_for_class(False)) == list(range(8))

    def test_partition_splits_ranges(self):
        config = RouterConfig(vcs_per_pc=16, rt_vc_count=13)
        assert list(config.vc_range_for_class(True)) == list(range(13))
        assert list(config.vc_range_for_class(False)) == list(range(13, 16))

    def test_partition_all_real_time(self):
        config = RouterConfig(vcs_per_pc=16, rt_vc_count=16)
        assert list(config.vc_range_for_class(True)) == list(range(16))
        assert list(config.vc_range_for_class(False)) == []

    def test_partition_all_best_effort(self):
        config = RouterConfig(vcs_per_pc=16, rt_vc_count=0)
        assert list(config.vc_range_for_class(True)) == []
        assert list(config.vc_range_for_class(False)) == list(range(16))


class TestPresets:
    """The paper's two routers — MediaWorm (Virtual Clock at the QoS
    contention point) and a conventional FIFO or round-robin wormhole
    router — are what an experiment's ``router_config`` builds from its
    ``scheduler`` and shape knobs."""

    @staticmethod
    def _config(**knobs) -> RouterConfig:
        return SingleSwitchExperiment(**knobs).router_config(8)

    def test_mediaworm_uses_virtual_clock(self):
        config = self._config()
        assert config.qos_policy == SchedulingPolicy.VIRTUAL_CLOCK

    def test_vanilla_defaults_to_fifo(self):
        config = self._config(scheduler=SchedulingPolicy.FIFO)
        assert config.qos_policy == SchedulingPolicy.FIFO

    def test_vanilla_round_robin_variant(self):
        config = self._config(scheduler=SchedulingPolicy.ROUND_ROBIN)
        assert config.qos_policy == SchedulingPolicy.ROUND_ROBIN

    def test_presets_share_pipeline_shape(self):
        mw = self._config(vcs_per_pc=8)
        va = self._config(vcs_per_pc=8, scheduler=SchedulingPolicy.FIFO)
        assert mw.num_ports == va.num_ports
        assert mw.vcs_per_pc == va.vcs_per_pc
        assert mw.crossbar == va.crossbar
        assert mw.rt_vc_count == va.rt_vc_count

    def test_full_crossbar_preset(self):
        config = self._config(crossbar=CrossbarKind.FULL)
        assert config.crossbar == CrossbarKind.FULL

    def test_overrides_pass_through(self):
        config = self._config(flit_buffer_depth=6)
        assert config.flit_buffer_depth == 6
