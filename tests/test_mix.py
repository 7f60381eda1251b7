"""Traffic mixes, load accounting, VC partitioning of the workload."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import FatTree3Experiment
from repro.network.network import Network
from repro.network.topology import fat_tree3
from repro.router.flit import TrafficClass
from repro.sim import rng
from repro.sim.rng import RngStreams
from repro.sim.units import LinkSpec, WorkloadScale
from repro.traffic.mix import (
    TrafficMix,
    WorkloadConfig,
    build_workload,
    rt_vc_count,
)

from conftest import make_network


class TestTrafficMix:
    def test_fraction(self):
        assert TrafficMix(80, 20).rt_fraction == pytest.approx(0.8)
        assert TrafficMix(100, 0).rt_fraction == 1.0
        assert TrafficMix(0, 100).rt_fraction == 0.0

    def test_str(self):
        assert str(TrafficMix(80, 20)) == "80:20"

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            TrafficMix(-1, 5)
        with pytest.raises(ConfigurationError):
            TrafficMix(0, 0)


class TestRtVcCount:
    def test_paper_80_20_with_16_vcs(self):
        assert rt_vc_count(16, TrafficMix(80, 20)) == 13

    def test_pure_real_time_takes_all(self):
        assert rt_vc_count(16, TrafficMix(100, 0)) == 16

    def test_pure_best_effort_takes_none(self):
        assert rt_vc_count(16, TrafficMix(0, 100)) == 0

    def test_always_leaves_one_vc_for_other_class(self):
        assert rt_vc_count(16, TrafficMix(99, 1)) == 15
        assert rt_vc_count(16, TrafficMix(1, 99)) == 1

    def test_50_50_split(self):
        assert rt_vc_count(16, TrafficMix(50, 50)) == 8


def _config(**overrides):
    defaults = dict(
        link=LinkSpec(400.0, 32),
        scale=WorkloadScale(100.0),
        load=0.5,
        mix=TrafficMix(80, 20),
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestWorkloadConfig:
    def test_frame_interval_scales(self):
        config = _config(scale=WorkloadScale(1.0))
        assert config.frame_interval_cycles == 412_500
        config = _config(scale=WorkloadScale(100.0))
        assert config.frame_interval_cycles == 4125

    def test_stream_fraction_is_scale_invariant(self):
        small = _config(scale=WorkloadScale(100.0)).stream_fraction
        full = _config(scale=WorkloadScale(1.0)).stream_fraction
        assert small == pytest.approx(full, rel=1e-3)
        # a 4 Mbps stream is ~1% of a 400 Mbps link
        assert full == pytest.approx(0.0101, rel=0.01)

    def test_streams_per_node_matches_paper_capacity(self):
        # load 0.8 at 100:0 -> ~79 streams of ~1% each
        config = _config(load=0.8, mix=TrafficMix(100, 0))
        assert config.streams_per_node() == pytest.approx(79, abs=1)

    def test_load_split(self):
        config = _config(load=0.9, mix=TrafficMix(80, 20))
        assert config.rt_load == pytest.approx(0.72)
        assert config.be_load == pytest.approx(0.18)

    def test_cbr_model_is_constant(self):
        config = _config(rt_class=TrafficClass.CBR)
        assert config.frame_model().is_constant

    def test_vbr_model_keeps_sigma_ratio(self):
        model = _config().frame_model()
        assert model.std_flits / model.mean_flits == pytest.approx(0.2, rel=0.01)

    def test_rejects_bad_load(self):
        with pytest.raises(ConfigurationError):
            _config(load=0.0)

    def test_rejects_best_effort_rt_class(self):
        with pytest.raises(ConfigurationError):
            _config(rt_class=TrafficClass.BEST_EFFORT)

    def test_rejects_header_not_below_message(self):
        with pytest.raises(ConfigurationError):
            _config(header_flits=20)


class TestBuildWorkload:
    def test_builds_streams_and_sources(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=3)
        workload = build_workload(net, _config(), RngStreams(1), start=False)
        assert workload.streams_per_node == _config().streams_per_node()
        assert len(workload.streams) == 4 * workload.streams_per_node
        assert len(workload.besteffort) == 4

    def test_stream_vcs_stay_in_rt_partition(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=2)
        workload = build_workload(net, _config(), RngStreams(1), start=False)
        for stream in workload.streams:
            assert stream.config.src_vc in (0, 1)
            assert stream.config.dst_vc in (0, 1)

    def test_besteffort_vcs_stay_in_be_partition(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=2)
        workload = build_workload(net, _config(), RngStreams(1), start=False)
        for source in workload.besteffort:
            assert set(source.config.vcs) == {2, 3}

    def test_no_self_destinations(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=3)
        workload = build_workload(net, _config(), RngStreams(1), start=False)
        for stream in workload.streams:
            assert stream.config.dst_node != stream.config.src_node

    def test_balanced_destinations_even_out(self):
        net = make_network(ports=8, vcs=4, rt_vc_count=3)
        config = _config(load=0.7, mix=TrafficMix(100, 0))
        workload = build_workload(net, config, RngStreams(1), start=False)
        received = {}
        for stream in workload.streams:
            received[stream.config.dst_node] = (
                received.get(stream.config.dst_node, 0) + 1
            )
        counts = sorted(received.values())
        assert counts[-1] - counts[0] <= 2  # nearly perfectly balanced

    def test_pure_rt_has_no_besteffort_sources(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=4)
        config = _config(mix=TrafficMix(100, 0))
        workload = build_workload(net, config, RngStreams(1), start=False)
        assert not workload.besteffort
        assert workload.achieved_be_load == 0.0

    def test_pure_be_has_no_streams(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=0)
        config = _config(mix=TrafficMix(0, 100))
        workload = build_workload(net, config, RngStreams(1), start=False)
        assert not workload.streams
        assert workload.achieved_rt_load == 0.0

    def test_achieved_load_close_to_offered(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=3)
        config = _config(load=0.5)
        workload = build_workload(net, config, RngStreams(1), start=False)
        assert workload.achieved_load == pytest.approx(0.5, abs=0.02)

    def test_rt_streams_without_rt_vcs_rejected(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=0)
        with pytest.raises(ConfigurationError):
            build_workload(net, _config(), RngStreams(1), start=False)

    def test_needs_two_hosts(self):
        net = make_network(ports=2)  # fine: 2 hosts
        build_workload(net, _config(), RngStreams(1), start=False)

    def test_started_workload_emits(self):
        net = make_network(ports=4, vcs=4, rt_vc_count=3)
        workload = build_workload(net, _config(), RngStreams(1), start=True)
        net.run(_config().frame_interval_cycles * 2)
        assert net.flits_injected > 0

    def test_deterministic_given_seed(self):
        def build():
            net = make_network(ports=4, vcs=4, rt_vc_count=3)
            wl = build_workload(net, _config(), RngStreams(9), start=False)
            return [
                (s.config.dst_node, s.config.src_vc, s.config.dst_vc,
                 s.config.phase)
                for s in wl.streams
            ]

        assert build() == build()


class TestPlacementGolden:
    """Stream placement on the 1024-host fat tree is pinned.

    The digests were computed on the commit *before* placement stopped
    calling ``Random.shuffle`` (``fast_shuffle`` inlines its draws) and
    ``others`` became a slice: same destinations, same VCs, same
    phases, on every interpreter CI runs.  Each holds on a cold build,
    which walks every host's shuffle, and on the warm build after it,
    which replays them all from the placement memo.
    """

    @pytest.mark.parametrize(
        "load, mix, streams, digest",
        [
            # the benchmark's scale_fattree workload at seed 1
            (
                0.01,
                (100, 0),
                1024,
                "009baabafd26271976fde008aae151ca"
                "baea7fb417293e424d8da8359fdb87fb",
            ),
            # four streams a node plus best-effort: deeper into every
            # rotation, and the phase drawn after all stream draws
            (
                0.05,
                (80, 20),
                4096,
                "7143503c9245d545318feca491f6f97d"
                "fbb899c22f67f6d1a02f63981007eb98",
            ),
        ],
    )
    def test_k16_seed1_placement(
        self, monkeypatch, load, mix, streams, digest
    ):
        monkeypatch.setattr(rng, "_WALKS", {})
        experiment = FatTree3Experiment(
            k=16,
            load=load,
            mix=mix,
            vcs_per_pc=4,
            scale=320.0,
            warmup_frames=1,
            measure_frames=2,
            seed=1,
        )
        topology = fat_tree3(k=16)
        network = Network(
            topology, experiment.router_config(topology.ports_per_router)
        )
        nodes = topology.node_ids
        for walks in (len(nodes), 0):  # cold, then warm
            before = rng.PLACEMENT_WALKS
            workload = build_workload(
                network,
                experiment.workload_config(),
                RngStreams(experiment.seed),
                start=False,
            )
            assert rng.PLACEMENT_WALKS - before == walks
            assert len(workload.streams) == streams
            pinned = hashlib.sha256()
            for stream in workload.streams:
                cfg = stream.config
                pinned.update(
                    f"{cfg.src_node},{cfg.dst_node},{cfg.src_vc},"
                    f"{cfg.dst_vc},{cfg.phase};".encode()
                )
            for source in workload.besteffort:
                cfg = source.config
                pinned.update(f"{cfg.src_node},{cfg.phase};".encode())
                assert cfg.dst_nodes == [n for n in nodes if n != cfg.src_node]
            assert pinned.hexdigest() == digest
