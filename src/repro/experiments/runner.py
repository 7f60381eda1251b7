"""The runner: one ``simulate(experiment)`` for every experiment type.

The experiment names its topology (``generator`` + ``shape_fields`` in
:mod:`repro.experiments.config`), its router configuration and its
workload — the paper's wormhole mix, or the PCS comparison's circuits;
:func:`simulate` builds the topology through the topology cache,
assembles the network, attaches the workload and metrics, runs warmup
+ measurement, audits flit conservation, and returns one result record
with the paper's output parameters (``d``, ``sigma_d``, best-effort
latency) in paper units, plus a PCS run's Table 3 accounting.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace as dataclasses_replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.admission import AdmissionController
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.network.network import Network
from repro.sim.gcquiet import gc_quiet
from repro.sim.rng import RngStreams

if TYPE_CHECKING:
    from repro.pcs.connection import ConnectionStats


@dataclass(frozen=True)
class WorkloadSummary:
    """Picklable digest of a :class:`~repro.traffic.mix.Workload` (or a
    :class:`~repro.pcs.workload.PCSWorkload`, which has the same fields).

    A live workload holds network-attached traffic sources and cannot
    cross a process boundary; sweep workers ship this summary back
    instead (see :meth:`ExperimentResult.portable`).  It carries every
    field downstream consumers read off a finished run.
    """

    achieved_rt_load: float
    achieved_be_load: float
    streams_per_node: int
    num_streams: int

    @property
    def achieved_load(self) -> float:
        return self.achieved_rt_load + self.achieved_be_load

    @classmethod
    def of(cls, workload) -> "WorkloadSummary":
        return cls(
            achieved_rt_load=workload.achieved_rt_load,
            achieved_be_load=workload.achieved_be_load,
            streams_per_node=workload.streams_per_node,
            num_streams=len(workload.streams),
        )


@dataclass
class ExperimentResult:
    """Outcome of one run."""

    experiment: object
    metrics: RunMetrics
    #: the live workload, or its :class:`WorkloadSummary` after
    #: :meth:`portable` (results returned from sweep workers)
    workload: object
    cycles_run: int
    flits_injected: int
    flits_ejected: int
    #: host time inside ``Network.run`` plus the conservation audit;
    #: includes the cycle loop's bindings, built lazily at the first run
    wall_seconds: float
    #: the part of ``wall_seconds`` each phase call of the cycle loop
    #: took (``events``, ``links``, ``nis``, ``routers``), host time
    #: outside every digest; all zero on the reference stepper
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: fault/recovery accounting, present only when the experiment
    #: carried a fault plan or a recovery config
    fault_stats: Optional[Dict[str, object]] = None
    #: tracing accounting (event counts, records written, invariant
    #: checks run), present only when the experiment carried a TraceSpec
    trace_summary: Optional[Dict[str, object]] = None
    #: cycles the loop executed; ``cycles_run - cycles_executed`` is
    #: how many it jumped over (host-independent but kept out of run
    #: digests; None only on a result built by hand, as test stubs do)
    cycles_executed: Optional[int] = None
    #: host time spent building the run — network, faults/recovery/
    #: health, workload, tracing — before the first cycle (outside
    #: every digest; None only on a result built by hand)
    setup_seconds: Optional[float] = None
    #: Table 3 accounting (``ConnectionStats``, offered streams
    #: included), present only on a PCS run; checked when the run ends
    connections: Optional[ConnectionStats] = None

    @property
    def achieved_load(self) -> float:
        """Offered input-link load after stream-count rounding."""
        return self.workload.achieved_load

    def portable(self) -> "ExperimentResult":
        """A copy safe to pickle across process boundaries.

        Everything but the workload already pickles; the live workload
        (network-attached sources) is replaced by its summary.  Calling
        this on an already-portable result is a no-op copy.
        """
        workload = self.workload
        if workload is not None and not isinstance(workload, WorkloadSummary):
            workload = WorkloadSummary.of(workload)
        return dataclasses_replace(self, workload=workload)


# ----------------------------------------------------------------------
# topology memoization
#
# A topology (and its compiled route program) is pure immutable data;
# every Network built over it owns its own routing masks, so one
# instance can serve any number of runs.  Sweep points typically vary
# load/scheduler/seed at a fixed shape, and pool workers process many
# points per process — rebuilding a 320-router fat tree per point would
# dominate sparse-run wall time.  The cache is intentionally tiny
# (sweeps use one or two shapes) and evicts in insertion order.

_TOPOLOGY_CACHE: Dict[tuple, object] = {}
_TOPOLOGY_CACHE_CAP = 8
#: topologies actually constructed in this process (cache misses);
#: the construction-count tests read the delta
TOPOLOGY_BUILDS = 0


def _cached_topology(builder, **params):
    key = (builder.__name__, tuple(sorted(params.items())))
    topology = _TOPOLOGY_CACHE.get(key)
    if topology is None:
        global TOPOLOGY_BUILDS
        TOPOLOGY_BUILDS += 1
        topology = builder(**params)
        if len(_TOPOLOGY_CACHE) >= _TOPOLOGY_CACHE_CAP:
            _TOPOLOGY_CACHE.pop(next(iter(_TOPOLOGY_CACHE)))
        _TOPOLOGY_CACHE[key] = topology
    return topology


def topology_of(experiment):
    """The (cached, shared, immutable) topology ``experiment`` runs on."""
    return _cached_topology(type(experiment).generator, **experiment.shape())


#: virtual channels (routers x ports x VCs per port) from which a run is
#: built with the collector paused.  The pause opens with one full
#: collection (2-4 ms on a heap holding little but imported modules);
#: collector passes during an unpaused construction cost 0.2-1.3 ms up
#: to 2560 channels (a 128-host fat tree), 4.2 ms at 12288 and 9.8 ms
#: at 20480 (no VC is built until traffic opens its port; 1.8-3.4 ms,
#: 45 ms and 53 ms while every VC was), so below this size the pause
#: would cost more than it saves — a sweep of tiny networks would pay
#: the entry collection at every point.
_QUIET_BUILD_MIN_VCS = 4096


def _construction_gc(topology, config):
    """The collector regime to build a run over ``topology`` under."""
    channels = topology.num_routers * config.num_ports * config.vcs_per_pc
    if channels < _QUIET_BUILD_MIN_VCS:
        return nullcontext()
    # collect=True: free the previous run's network before this one
    # is allocated on top of it, and age this one on the way out
    return gc_quiet(collect=True)


def _run_network(experiment, network: Network, loop=None) -> float:
    """Run ``network`` to the experiment's horizon; returns wall seconds.

    ``loop`` is the cycle loop, a callable ``(network, until)``.  The
    default is ``network.run``, looked up here rather than bound as a
    default argument, because the benchmark tracer patches
    ``Network.run`` on the class.
    """
    started = time.perf_counter()
    if loop is None:
        network.run(experiment.total_cycles)
    else:
        loop(network, experiment.total_cycles)
    network.check_conservation()
    return time.perf_counter() - started


def _install_extras(experiment, network: Network, rngs: RngStreams) -> None:
    """Attach the experiment's optional fault plan and recovery transport.

    Shares the workload's ``RngStreams`` so fault substreams derive from
    the same master seed without perturbing any traffic substream.
    """
    if experiment.faults is not None or experiment.recovery is not None:
        # fault + transport machinery (repro.faults): a plain run never compiles it
        from repro.faults import install_faults, install_recovery

        if experiment.faults is not None:
            install_faults(network, experiment.faults, rngs)
        if experiment.recovery is not None:
            install_recovery(network, experiment.recovery)
    if experiment.health is not None:
        # the health monitor (repro.network.health): likewise
        from repro.network.health import install_health

        install_health(network, experiment.health, rngs)


def _mirror_admission(network: Network, workload) -> AdmissionController:
    """Mirror the workload's implicit reservations into a controller.

    The runner's workloads are sized by construction (``load`` knob)
    rather than gated stream-by-stream, so this controller is a
    *mirror* for degraded-mode accounting, not a gatekeeper: threshold
    1.0 admits everything the workload offers.  Each stream reserves
    its rate on its host channels and, conservatively, on every
    physical link of each fat group its dimension-order path crosses —
    so the health monitor's ``degrade`` on a dead link sheds exactly
    the streams whose guarantee that link backed.
    """
    controller = AdmissionController(threshold=1.0)
    fraction = workload.config.stream_fraction
    topology = network.topology
    for stream in workload.streams:
        cfg = stream.config
        path = [("host-in", cfg.src_node, 0)]
        for router, group in topology.route(cfg.src_node, cfg.dst_node):
            path.extend(("link", router, port) for port in group)
        path.append(("host-out", cfg.dst_node, 0))
        controller.admit(
            stream.stream_id, fraction, path, cfg.traffic_class
        )
    return controller


def _fault_stats(network: Network) -> Optional[Dict[str, object]]:
    """Summarise fault/recovery accounting, or ``None`` when unused."""
    if (
        network.fault_injector is None
        and network.transport is None
        and network.health_monitor is None
    ):
        return None
    stats: Dict[str, object] = {
        "flits_lost": network.flits_lost,
        "flits_corrupted": network.flits_corrupted,
    }
    if network.fault_injector is not None:
        stats["faulted_links"] = network.fault_injector.faulted_links
    if network.transport is not None:
        transport = network.transport.stats
        stats.update(asdict(transport))
        stats["delivered_fraction"] = transport.delivered_fraction
        stats["qos_delivered_fraction"] = transport.qos_delivered_fraction
        stats["qos_reachable_fraction"] = transport.qos_reachable_fraction
    if network.health_monitor is not None:
        stats["health"] = network.health_monitor.summary()
    return stats


class _TraceHarness:
    """Sinks built from an experiment's :class:`TraceSpec`.

    Assembles the requested sink stack (JSONL file, Chrome-trace ring
    buffer, invariant checker — always alongside a counting sink for
    the run summary), installs it on the network, and on ``finish``
    closes the ledger, flushes the exporters, and reports accounting.
    """

    def __init__(self, network, spec) -> None:
        # the sinks (repro.obs.sinks, + json): an untraced run never compiles
        # them; the checker and the Chrome writer load where they are used
        from repro.obs.sinks import (
            CountingSink,
            JsonlTraceSink,
            MultiSink,
            RingBufferSink,
            install_tracing,
        )

        self.spec = spec
        self.network = network
        self.counter = CountingSink()
        self.jsonl = None
        self.checker = None
        self._ring = None
        sinks = [self.counter]
        if spec.path:
            self.jsonl = JsonlTraceSink(spec.path, events=spec.events)
            sinks.append(self.jsonl)
        if spec.chrome_path:
            self._ring = RingBufferSink()
            sinks.append(self._ring)
        if spec.check:
            from repro.obs.invariants import InvariantChecker

            self.checker = InvariantChecker(network)
            sinks.append(self.checker)
        install_tracing(
            network, sinks[0] if len(sinks) == 1 else MultiSink(sinks)
        )

    def finish(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "events": self.counter.total,
            "counts": dict(self.counter.counts),
        }
        if self.checker is not None:
            self.checker.finish()
            summary["invariant_events"] = self.checker.events_seen
            summary["invariant_checks"] = self.checker.checks_run
        if self.jsonl is not None:
            self.jsonl.close()
            summary["jsonl_path"] = self.spec.path
            summary["jsonl_records"] = self.jsonl.records_written
        if self._ring is not None:
            from repro.obs.chrometrace import write_chrome_trace

            summary["chrome_path"] = self.spec.chrome_path
            summary["chrome_events"] = write_chrome_trace(
                self.spec.chrome_path, self._ring.records
            )
        return summary


def simulate(experiment, loop=None) -> ExperimentResult:
    """Run one experiment on the topology its type names.

    The experiment supplies its router configuration and its workload
    (a PCS run offers circuits instead of the wormhole mix); everything
    else — the topology cache, faults/recovery/health, tracing, the
    hook, the conservation audit — is this one body.
    ``loop`` replaces ``Network.run`` for this one run (see
    :func:`_run_network`); the parity suites, ``mediaworm scale`` and
    the chaos parity twin pass the reference stepper.
    """
    if getattr(type(experiment), "generator", None) is None:
        raise ConfigurationError(
            f"cannot simulate {type(experiment).__name__!r}: "
            "the type names no topology generator"
        )
    topology = topology_of(experiment)
    started = time.perf_counter()
    collector = MetricsCollector(
        experiment.timebase, warmup=experiment.warmup_cycles
    )
    config = experiment.router_config(topology.ports_per_router)
    with _construction_gc(topology, config):
        network = Network(
            topology,
            config,
            on_message=collector.on_message,
            watchdog_window=experiment.watchdog_window,
        )
        rngs = RngStreams(experiment.seed)
        _install_extras(experiment, network, rngs)
        workload = experiment.build_workload(network, rngs)
        monitor = network.health_monitor
        if monitor is not None:
            collector.attach_health(monitor)
            monitor.bind_besteffort(workload.besteffort)
            monitor.bind_admission(_mirror_admission(network, workload))
            # Isolated-host shedding pauses the victims' media sessions.
            monitor.bind_streams(workload.streams)
        # Streams hold their own generators; unless the health monitor
        # or a PCS workload kept the RngStreams, dropping it frees the
        # spent placement generators (1024 at k=16) before cycle 0.
        del rngs
    # Observability extras install last so every emitter (including the
    # transport and health monitor above) is wired before the first event.
    spec = experiment.trace
    harness = _TraceHarness(network, spec) if spec is not None else None
    if experiment.network_hook is not None:
        experiment.network_hook(network)
    setup = time.perf_counter() - started
    wall = _run_network(experiment, network, loop)
    return ExperimentResult(
        experiment=experiment,
        metrics=collector.snapshot(),
        workload=workload,
        cycles_run=network.clock,
        flits_injected=network.flits_injected,
        flits_ejected=network.flits_ejected,
        wall_seconds=wall,
        phase_seconds=dict(network.phase_seconds),
        fault_stats=_fault_stats(network),
        trace_summary=None if harness is None else harness.finish(),
        cycles_executed=network.cycles_executed,
        setup_seconds=setup,
        connections=getattr(workload, "connections", None),
    )


# The per-kind names are `simulate` itself: benchmarks/perf patches and
# calls these four on this module.
simulate_single_switch = simulate_fat_mesh = simulate_fat_tree3 = simulate_butterfly = simulate
