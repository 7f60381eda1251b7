"""Pipelined circuit switching: connection management and simulation."""

import pickle

import pytest

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import PCSExperiment
from repro.experiments.runner import simulate
from repro.experiments.scale import run_digest
from repro.faults import FaultPlan, RecoveryConfig
from repro.metrics.collector import MetricsCollector
from repro.network.health import HealthConfig
from repro.network.network import Network
from repro.network.topology import fat_mesh_2x2, single_switch
from repro.obs.events import TraceSpec
from repro.pcs.connection import ConnectionManager
from repro.pcs.workload import SETUP_HOP_CYCLES, PCSWorkload, _OfferedStream
from repro.router.config import QosPlacement, RoutingMode
from repro.sim.reference import run_reference
from repro.sim.rng import RngStreams

A, B, C = ("in", 0), ("out", 1), ("out", 2)


def _manager(vcs=2):
    manager = ConnectionManager()
    for channel in (A, B, C):
        manager.add_channel(channel, vcs)
    return manager


class TestConnectionManager:
    def test_probe_reserves_path(self):
        manager = _manager()
        assignment = manager.probe(1, [A, B])
        assert set(assignment) == {A, B}
        assert manager.free_vcs(A) == 1
        assert manager.stats.established == 1
        assert manager.established_circuits == 1

    def test_probe_nack_when_full(self):
        manager = _manager(vcs=1)
        assert manager.probe(1, [A, B]) is not None
        assert manager.probe(2, [A, C]) is None  # A exhausted
        assert manager.stats.dropped == 1
        # partial reservation on C must have been rolled back
        assert manager.free_vcs(C) == 1

    def test_accounting_identity(self):
        manager = _manager(vcs=1)
        manager.probe(1, [A, B])
        manager.probe(2, [A, C])
        manager.probe(3, [C])
        manager.stats.check()
        assert manager.stats.attempts == 3
        assert manager.stats.established == 2
        assert manager.stats.dropped == 1

    def test_release_returns_vcs(self):
        manager = _manager(vcs=1)
        manager.probe(1, [A, B])
        manager.release(1)
        assert manager.free_vcs(A) == 1
        assert manager.probe(2, [A, B]) is not None
        assert manager.stats.released == 1

    def test_release_unknown_circuit_raises(self):
        with pytest.raises(SimulationError):
            _manager().release(42)

    def test_double_establish_raises(self):
        manager = _manager()
        manager.probe(1, [A])
        with pytest.raises(SimulationError):
            manager.probe(1, [B])

    def test_unknown_channel_raises(self):
        with pytest.raises(ConfigurationError):
            _manager().probe(1, [("nowhere", 9)])

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError):
            _manager().probe(1, [])

    def test_duplicate_channel_registration_rejected(self):
        manager = _manager()
        with pytest.raises(ConfigurationError):
            manager.add_channel(A, 2)

    def test_assignment_lookup(self):
        manager = _manager()
        assignment = manager.probe(7, [A, B])
        assert manager.assignment(7) == assignment


class TestProbeSpecific:
    def test_reserves_exact_vcs(self):
        manager = _manager(vcs=4)
        assignment = manager.probe_specific(1, [(A, 2), (B, 3)])
        assert assignment == {A: 2, B: 3}
        assert manager.free_vcs(A) == 3

    def test_collision_nacks_and_rolls_back(self):
        manager = _manager(vcs=4)
        manager.probe_specific(1, [(A, 2), (B, 3)])
        assert manager.probe_specific(2, [(C, 0), (A, 2)]) is None
        assert manager.free_vcs(C) == 4  # rollback
        assert manager.stats.dropped == 1

    def test_different_vcs_coexist(self):
        manager = _manager(vcs=4)
        assert manager.probe_specific(1, [(A, 0)]) is not None
        assert manager.probe_specific(2, [(A, 1)]) is not None
        assert manager.free_vcs(A) == 2

    def test_out_of_range_vc_rejected(self):
        with pytest.raises(ConfigurationError):
            _manager(vcs=2).probe_specific(1, [(A, 5)])

    def test_malformed_request_leaves_no_trace(self):
        # a malformed request is a programming error, not a dropped
        # connection: it must not count as an attempt or leak a partial
        # reservation on the channels before the bad entry
        manager = _manager(vcs=2)
        with pytest.raises(ConfigurationError):
            manager.probe_specific(1, [(A, 0), (B, 5)])
        assert manager.free_vcs(A) == 2
        assert manager.stats.attempts == 0
        assert manager.established_circuits == 0
        manager.stats.check()

    def test_unknown_channel_mid_path_leaves_no_trace(self):
        manager = _manager(vcs=2)
        with pytest.raises(ConfigurationError):
            manager.probe(1, [A, ("nowhere", 9)])
        assert manager.free_vcs(A) == 2
        assert manager.stats.attempts == 0
        manager.stats.check()

    def test_release_restores_the_specific_vc(self):
        # teardown accounting: a released circuit's VC is reusable and
        # the released counter tracks it
        manager = _manager(vcs=2)
        manager.probe_specific(1, [(A, 1)])
        assert manager.probe_specific(2, [(A, 1)]) is None  # conflict
        manager.release(1)
        assert manager.probe_specific(3, [(A, 1)]) is not None
        manager.stats.check()
        assert manager.stats.released == 1
        assert manager.established_circuits == 1

    def test_double_release_raises(self):
        manager = _manager()
        manager.probe_specific(1, [(A, 0)])
        manager.release(1)
        with pytest.raises(SimulationError):
            manager.release(1)


TINY_PCS = dict(scale=80.0, warmup_frames=1, measure_frames=2, seed=3)


def _attach(topology=None, load=0.2, **kw):
    """A PCS workload attached to a network built by hand over
    ``topology`` (default: the experiment's own single switch); returns
    ``(workload, collector)`` with nothing run yet."""
    exp = PCSExperiment(load=load, **TINY_PCS, **kw)
    topology = topology or single_switch(exp.num_ports)
    collector = MetricsCollector(exp.timebase, warmup=exp.warmup_cycles)
    network = Network(
        topology,
        exp.router_config(topology.ports_per_router),
        on_message=collector.on_message,
    )
    return PCSWorkload(network, exp, RngStreams(exp.seed)), collector


def _bare_workload(topology=None, **kw):
    return _attach(topology, **kw)[0]


class TestSetupLatency:
    """The probe/ack round trip delays the data phase (section 3.5)."""

    def _capture_start(self, workload, src, dst):
        starts = []
        workload._start_data_phase = (
            lambda offered, assignment, start: starts.append(start)
        )
        offered = _OfferedStream(
            index=10_000, src_node=src, dst_node=dst, retries=0
        )
        workload._attempt_setup(offered)
        assert len(starts) == 1, "setup unexpectedly NACKed"
        return starts[0]

    def test_single_switch_round_trip(self):
        workload = _bare_workload()
        start = self._capture_start(workload, 0, 1)
        # reservation path: source host link + destination host link
        # (no inter-router hop on a single switch); the probe walks it
        # out and the ack walks it back
        hop = SETUP_HOP_CYCLES
        assert start == workload.network.clock + 2 * 2 * hop

    def test_mesh_path_adds_a_hop_per_channel(self):
        workload = _bare_workload(topology=fat_mesh_2x2())
        # node 0 (router 0) to node 12 (router 3): 2 inter-router
        # channels + the two host links = 4 reservation hops each way
        start = self._capture_start(workload, 0, 12)
        hop = SETUP_HOP_CYCLES
        assert start == workload.network.clock + 2 * 4 * hop

    def test_exhausted_source_link_abandons_without_retries(self):
        workload = _bare_workload()
        manager = workload.manager
        vcs = workload.experiment.vcs_per_pc
        for vc in range(vcs):
            assert manager.probe_specific(
                20_000 + vc, [(("host-in", 0), vc)]
            ) is not None
        offered = _OfferedStream(
            index=10_000, src_node=0, dst_node=1, retries=0
        )
        before = manager.stats.abandoned_streams
        workload._attempt_setup(offered)
        assert manager.stats.abandoned_streams == before + 1
        assert offered.stream is None
        manager.stats.check()


class TestPCSSimulation:
    def test_low_load_establishes_everything_eventually(self):
        result = simulate(PCSExperiment(load=0.2, **TINY_PCS))
        stats = result.connections
        stats.check()
        assert stats.established == stats.offered
        assert stats.abandoned_streams == 0

    def test_streams_deliver_jitter_free_at_low_load(self):
        result = simulate(PCSExperiment(load=0.3, **TINY_PCS))
        assert result.metrics.d == pytest.approx(33.0, abs=1.0)
        assert result.metrics.sigma_d < 2.0

    def test_drops_grow_with_load(self):
        low = simulate(PCSExperiment(load=0.3, **TINY_PCS))
        high = simulate(PCSExperiment(load=0.9, **TINY_PCS))
        assert high.connections.dropped > low.connections.dropped
        assert high.connections.attempts > high.connections.established

    def test_established_bounded_by_vc_capacity(self):
        result = simulate(PCSExperiment(load=0.95, **TINY_PCS))
        stats = result.connections
        # each node's input link has 24 VCs -> at most 24 circuits/node
        assert stats.established - stats.released <= 8 * 24

    def test_accounting_identity_holds(self):
        result = simulate(PCSExperiment(load=0.7, **TINY_PCS))
        stats = result.connections
        assert stats.attempts == stats.established + stats.dropped

    def test_mixed_traffic_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate(PCSExperiment(load=0.5, mix=(80, 20), **TINY_PCS))

    def test_no_retries_abandons_on_first_nack(self):
        result = simulate(
            PCSExperiment(load=0.9, max_retries=0, **TINY_PCS)
        )
        stats = result.connections
        assert stats.attempts == stats.offered
        assert stats.abandoned_streams == stats.dropped

    def test_a_pcs_result_pickles(self):
        result = simulate(PCSExperiment(load=0.5, **TINY_PCS))
        copy = pickle.loads(pickle.dumps(result.portable()))
        assert copy.connections == result.connections
        assert copy.workload.num_streams == result.connections.established
        assert copy.achieved_load == result.achieved_load

    def test_lossy_circuits_keep_conservation_and_the_identity(self):
        """Faults and recovery reach a PCS run through the shared
        installers; the conservation audit runs inside ``simulate``."""
        result = simulate(
            PCSExperiment(
                load=0.5,
                faults=FaultPlan(flit_loss_prob=0.01),
                recovery=RecoveryConfig(timeout=4096),
                **TINY_PCS,
            )
        )
        assert result.fault_stats["flits_lost"] > 0
        assert result.fault_stats["retransmissions"] > 0
        stats = result.connections
        assert stats.attempts == stats.established + stats.dropped
        assert result.metrics.frames_delivered > 0

    def test_header_flits_ride_on_the_circuits(self):
        bare = simulate(PCSExperiment(load=0.3, **TINY_PCS))
        headed = simulate(PCSExperiment(load=0.3, header_flits=1, **TINY_PCS))
        assert headed.connections == bare.connections
        assert headed.flits_injected > bare.flits_injected

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("scheduler", SchedulingPolicy.FIFO),
            ("qos_placement", QosPlacement.VC_MUX),
            ("dynamic_partitioning", True),
            ("health", HealthConfig()),
            ("routing_mode", RoutingMode.ADAPTIVE),
            ("mix", (80, 20)),
        ],
    )
    def test_knobs_a_circuit_cannot_honour_are_refused(self, knob, value):
        experiment = PCSExperiment(**{knob: value}, **TINY_PCS)
        with pytest.raises(ConfigurationError, match="PCS"):
            simulate(experiment)


class TestPCSRunnerFeatures:
    """A PCS run goes through the one runner body, so every runner
    feature reaches it."""

    def test_network_hook_sees_the_watchdog(self):
        seen = []
        simulate(
            PCSExperiment(
                load=0.3,
                watchdog_window=5_000,
                network_hook=lambda network: seen.append(
                    network.watchdog_window
                ),
                **TINY_PCS,
            )
        )
        assert seen == [5_000]

    def test_trace_emits_and_invariants_hold(self):
        result = simulate(
            PCSExperiment(load=0.3, trace=TraceSpec(check=True), **TINY_PCS)
        )
        summary = result.trace_summary
        assert summary["events"] > 0
        assert summary["invariant_checks"] > 0

    @pytest.mark.parametrize("load, drops", [(0.1, False), (0.9, True)])
    def test_reference_loop_parity(self, load, drops):
        experiment = PCSExperiment(load=load, **TINY_PCS)
        fused = simulate(experiment)
        reference = simulate(experiment, loop=run_reference)
        assert (fused.connections.dropped > 0) == drops
        assert run_digest(reference) == run_digest(fused)
        assert reference.connections == fused.connections


class TestPCSOnFatMesh:
    """Beyond the paper: PCS circuits across a multi-router topology."""

    def _simulate(self, load=0.5):
        return _attach(fat_mesh_2x2(), load=load)

    def test_circuit_channels_local_pair_is_empty(self):
        workload, _ = self._simulate()
        # nodes 0 and 1 hang off the same router: no inter-switch hop
        assert workload.circuit_channels(0, 1) == []

    def test_circuit_channels_cross_mesh(self):
        workload, _ = self._simulate()
        # node 0 (router 0) to node 12 (router 3): X then Y, two hops
        channels = workload.circuit_channels(0, 12)
        assert len(channels) == 2
        assert all(kind == "link" for kind, _, _ in channels)
        assert channels[0][1] == 0  # leaves router 0
        assert channels[1][1] == 1  # crosses router 1 (x-first routing)

    def test_fat_mesh_circuits_deliver(self):
        workload, collector = self._simulate(load=0.4)
        workload.network.run(workload.experiment.total_cycles)
        stats = workload.connections
        stats.check()
        assert stats.established > 0
        assert collector.delivery.frames_delivered > 0

    def test_multi_hop_paths_drop_more(self):
        # The same offered load drops more circuits on the mesh than on
        # a single switch: every extra hop is another VC draw to lose.
        single_result = simulate(PCSExperiment(load=0.7, **TINY_PCS))
        workload, _ = self._simulate(load=0.7)
        workload.network.run(workload.experiment.total_cycles)
        mesh_stats = workload.connections
        single = single_result.connections
        mesh_rate = mesh_stats.dropped / mesh_stats.attempts
        single_rate = single.dropped / single.attempts
        assert mesh_rate > single_rate * 0.8  # at least comparable
