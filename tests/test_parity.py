"""One parity matrix: the fused cycle loop against the reference stepper.

``Network.run`` executes the fused loop of ``repro.sim.fused``;
``repro.sim.reference.run_reference`` walks the paper's five-stage
router one object at a time.  Every number this reproduction reports
rests on the two being bit-identical, and this file asserts it for
whole experiments: :data:`CELLS` names one experiment per distinct case
(topology, faults / recovery / health, routing mode, trace, policy,
crossbar), and each property is one test parametrised over the cells
that carry it.  Each (cell, loop) is simulated once per session by the
``simulated`` memo of ``conftest.py``.  Checks of one named cell read
the same memo from beside the code they cover: the golden stream pin
and per-kind counts (``test_obs_trace.py``), the monitored twins
(``test_health.py``, ``test_disaster.py``), the every-fault run and the
fate gate (``test_engine.py``).  Tests that need a live network between
cycles (down windows, purges, preemption, the FIFO lifecycle, the kill
path, open ports) stay beside the code they test.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.errors import DeadlockError
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import simulate
from repro.faults import (
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
)
from repro.network.health import HealthConfig
from repro.network.network import Network
from repro.obs.events import TraceSpec, validate_event
from repro.obs.sinks import stream_digest
from repro.router.config import RoutingMode
from repro.sim.reference import run_reference
from conftest import GOLDEN, OBJECT_STEPS, TINY, count_calls, make_message, make_network

#: a traced, checked run writes and audits every event: keep it short
_SHORT = dict(TINY, scale=400.0, measure_frames=1)
_CHECKED = TraceSpec(path="stream.jsonl", check=True)


def _down_window(experiment):
    """One inter-router channel severed early in the measured span."""
    measured = experiment.total_cycles - experiment.warmup_cycles
    start = experiment.warmup_cycles
    return LinkDownWindow("ch:0.4->1.4", start + measured // 8, start + measured // 3)


def _switch(load=0.8, **fields):
    return SingleSwitchExperiment(load=load, mix=(80, 20), **TINY, **fields)


_MESH = FatMeshExperiment(load=0.7, mix=(80, 20), **TINY)


def _mesh(base=_MESH, **fields):
    """The 2x2 fat mesh, watched by a (generous) progress watchdog."""
    return dataclasses.replace(base, watchdog_window=200_000, **fields)


def _every_fault(base, prob):
    """Loss and corruption on every link, host eject links included, a
    window that opens and closes mid-measurement, recovery, health
    monitoring and adaptive routing."""
    return _mesh(
        base,
        faults=FaultPlan(
            flit_loss_prob=prob,
            flit_corrupt_prob=prob,
            down_windows=(_down_window(base),),
        ),
        recovery=RecoveryConfig(timeout=4096),
        health=HealthConfig(),
        routing_mode=RoutingMode.ADAPTIVE,
    )


_LOSSY = FaultPlan(flit_loss_prob=0.01)
_SWITCH_16 = SingleSwitchExperiment(load=0.5, mix=(80, 20), num_ports=16, **_SHORT)
_TREE_ADAPTIVE = FatTree3Experiment(
    k=4, load=0.6, mix=(80, 20), routing_mode=RoutingMode.ADAPTIVE, **TINY
)
_BUTTERFLY = ButterflyExperiment(load=0.7, mix=(80, 20), **TINY)
_TINY_PCS = dict(scale=80.0, warmup_frames=1, measure_frames=2, seed=3)

CELLS = {
    # the golden single switch, and what may ride it unseen
    "golden": GOLDEN,
    "golden-observed": dataclasses.replace(GOLDEN, trace=_CHECKED),
    "golden-monitored": dataclasses.replace(GOLDEN, health=HealthConfig()),
    "golden-zero-plan": dataclasses.replace(GOLDEN, faults=FaultPlan()),
    **{
        f"{name}-{crossbar}": _switch(scheduler=scheduler, crossbar=crossbar)
        for name, scheduler in (
            ("vc", "virtual_clock"),
            ("fifo", "fifo"),
            ("rr", "round_robin"),
        )
        for crossbar in ("multiplexed", "full")
    },
    # round-robin at all three multiplexers (NI, A and C): each grant's
    # ``last`` is read and written by both loops
    "rr-everywhere": _switch(scheduler="round_robin", qos_placement="both"),
    "rr-everywhere-traced": SingleSwitchExperiment(
        load=0.5, mix=(80, 20), scheduler="round_robin", qos_placement="both",
        trace=_CHECKED, **_SHORT,
    ),
    # every VC contended every cycle
    "saturated": _switch(load=0.9),
    # a too-tight watchdog trips both loops at the same cycle
    "deadlock": _switch(watchdog_window=1),
    # port ids past 8 iterate a port set out of sorted order; every
    # observer at once, the Chrome timeline included (4x the cost of the
    # JSONL stream, so on a short horizon)
    "switch-16": _SWITCH_16,
    "switch-16-observed": dataclasses.replace(
        _SWITCH_16, trace=dataclasses.replace(_CHECKED, chrome_path="chrome.json")
    ),
    "pcs-light": PCSExperiment(load=0.1, **_TINY_PCS),
    "pcs-dropping": PCSExperiment(load=0.9, **_TINY_PCS),
    # the 2x2 fat mesh: faults, recovery, health, adaptive routing
    "mesh": _MESH,
    "mesh-monitored": dataclasses.replace(_MESH, health=HealthConfig()),
    # every link carries fault state, so every flit passes the fate gate
    "mesh-lossy": _mesh(faults=_LOSSY),
    "mesh-lossy-recovery": _mesh(
        faults=_LOSSY, recovery=RecoveryConfig(timeout=2048, max_retries=4)
    ),
    "mesh-lossy-adaptive": _mesh(
        load=0.3,
        faults=_LOSSY,
        recovery=RecoveryConfig(timeout=2048, max_retries=4),
        health=HealthConfig(),
        routing_mode=RoutingMode.ADAPTIVE,
    ),
    # health-monitored, fault-free links under adaptive routing
    "mesh-adaptive-health": _mesh(
        routing_mode=RoutingMode.ADAPTIVE, health=HealthConfig()
    ),
    "mesh-every-fault": _every_fault(_MESH, 0.002),
    "mesh-every-fault-traced": dataclasses.replace(
        _every_fault(FatMeshExperiment(load=0.5, mix=(80, 20), **_SHORT), 0.005),
        trace=_CHECKED,
    ),
    # faults on the channels only: host links skip the fate gate in the
    # same delivery loop, and a corrupted flit ejects through a clean one
    "mesh-lossy-channels": _mesh(
        faults=FaultPlan(flit_loss_prob=0.02, links="ch:*"),
        recovery=RecoveryConfig(timeout=4096),
    ),
    "mesh-corrupt-channels": _mesh(
        load=0.6,
        faults=FaultPlan(flit_corrupt_prob=0.01, links="ch:*"),
        recovery=RecoveryConfig(timeout=4096),
    ),
    # trees: static, near idle, and adaptive with the switch-failover
    # machinery armed and no fault to fire on
    "tree": FatTree3Experiment(load=0.7, mix=(80, 20), **TINY),
    "tree-idle": FatTree3Experiment(load=0.01, mix=(100, 0), **TINY),
    "tree-adaptive": _TREE_ADAPTIVE,
    "tree-adaptive-monitored": dataclasses.replace(
        _TREE_ADAPTIVE, health=HealthConfig()
    ),
    "tree-traced": FatTree3Experiment(
        load=0.3, mix=(80, 20), k=4, trace=_CHECKED, **_SHORT
    ),
    "butterfly": _BUTTERFLY,
    "butterfly-monitored": dataclasses.replace(_BUTTERFLY, health=HealthConfig()),
}

#: cell -> the cell its run must equal on each loop: an observer, or a
#: mechanism with nothing to do, perturbs nothing
TWINS = {
    "golden-observed": "golden",
    "golden-zero-plan": "golden",
    "switch-16-observed": "switch-16",
    "mesh-monitored": "mesh",
    "butterfly-monitored": "butterfly",
}

#: cell -> fault-stat counters its fused run must move: what the cell
#: exists to exercise ("health.x" reads ``fault_stats["health"]["x"]``)
FIRES = {
    "mesh-every-fault-traced": ("flits_lost", "flits_corrupted"),
    "mesh-lossy-channels": ("flits_lost", "retransmissions"),
    "mesh-corrupt-channels": ("corrupt_detected",),
    "mesh-lossy-recovery": ("retransmissions",),
    "mesh-lossy-adaptive": ("retransmissions",),
}

#: cell -> fault-stat counters that stay at zero on both loops
IDLE = {
    "golden-zero-plan": ("flits_lost",),
}

#: cell -> slice lengths of its hand-off runs (one alternating run each)
HANDOFFS = {
    "vc-multiplexed": (97, 500, 3001),
    "rr-everywhere": (97, 3001),
    "mesh-lossy-adaptive": (97, 3001),
}

RAN = sorted(name for name in CELLS if name != "deadlock")
TRACED = sorted(name for name, e in CELLS.items() if e.trace is not None)
FAULTED = sorted(
    name for name, e in CELLS.items() if e.faults is not None and not e.faults.is_zero
)


@pytest.fixture
def both(simulated):
    """``both(name)``: the cell's (fused, reference) runs."""
    return lambda name: (simulated(CELLS[name]), simulated(CELLS[name], run_reference))


def _stat(run, path):
    stats = run.result.fault_stats
    for key in path.split("."):
        stats = stats[key]
    return stats


def _measured(result):
    # repr-compare: exact for every finite float, and NaN fields (a
    # horizon too short to deliver frames) stay comparable
    metrics = repr(dataclasses.asdict(result.metrics))
    return metrics, result.cycles_run, result.flits_injected, result.flits_ejected


def _outcome(result):
    return _measured(result) + (result.fault_stats, result.connections)


@pytest.mark.parametrize("name", RAN)
def test_metrics_fault_stats_cycles_and_flits(both, name):
    fused, reference = both(name)
    assert _outcome(fused.result) == _outcome(reference.result)


@pytest.mark.parametrize("name", RAN)
def test_no_object_step_or_deliver_due_on_the_fused_loop(both, name):
    """The fused kernels deliver, inject and route inline — traced,
    faulted and down windows included."""
    fused, _ = both(name)
    for cls, method in OBJECT_STEPS:
        assert fused.calls[f"{cls.__name__}.{method}"] == 0, method


def test_the_call_counts_reach_the_object_methods(monkeypatch):
    """A zero above is a real zero: the reference's calls are counted."""
    calls = Counter()
    for cls, method in OBJECT_STEPS:
        count_calls(monkeypatch, calls, cls, method)
    network = make_network()
    network.inject_now(make_message(size=6))
    run_reference(network, 50)
    assert network.flits_ejected == 6 and len(calls) == len(OBJECT_STEPS)


@pytest.mark.parametrize("name", RAN)
def test_only_the_fused_loop_times_its_phases(both, name):
    fused, reference = both(name)
    seconds = fused.result.phase_seconds
    assert list(seconds) == ["events", "links", "nis", "routers"]
    assert reference.result.phase_seconds == dict.fromkeys(seconds, 0.0)


@pytest.mark.parametrize("name", TRACED)
def test_one_event_stream_on_both_loops(both, name):
    summaries = [dict(run.result.trace_summary) for run in both(name)]
    digests = [stream_digest(summary.pop("jsonl_path")) for summary in summaries]
    assert digests[0] == digests[1]
    if summaries[0].pop("chrome_path", None) is not None:
        assert summaries[1].pop("chrome_path")
        assert summaries[0]["chrome_events"] > 0
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("name", TRACED)
def test_stream_fits_the_schema_and_the_checker_saw_it_all(both, name):
    """Every record fits the schema (read on the fused loop: the
    reference's stream is the same, as the test above shows), and the
    checker saw every event on both loops."""
    fused, reference = both(name)
    summary = fused.result.trace_summary
    records = 0
    with open(summary["jsonl_path"], encoding="utf-8") as fh:
        for records, line in enumerate(fh, 1):
            validate_event(json.loads(line))
    assert records == summary["jsonl_records"]
    for run in (fused, reference):
        summary = run.result.trace_summary
        assert summary["invariant_events"] == summary["events"] > 0
        assert summary["invariant_checks"] > 0


@pytest.mark.parametrize("name", FAULTED)
def test_per_link_fault_rng_states(both, name):
    """Each faulted link's RNG substream and broken-worm count end where
    the reference's do."""
    fused, reference = both(name)
    assert fused.link_states == reference.link_states


def test_watchdog_trips_both_loops_at_the_same_cycle(both):
    errors = [run.error for run in both("deadlock")]
    assert all(isinstance(error, DeadlockError) for error in errors)
    lines = [str(error).splitlines()[0] for error in errors]
    assert lines[0] == lines[1]


@pytest.mark.parametrize("name", sorted(TWINS))
def test_twin_runs_are_bit_identical(both, name):
    """Tracing, a zero fault plan or idle health monitoring leaves the
    run exactly as it is without them, on each loop."""
    for run, twin in zip(both(name), both(TWINS[name])):
        assert _measured(run.result) == _measured(twin.result)
        assert twin.result.trace_summary is None
        assert twin.result.fault_stats is None


@pytest.mark.parametrize("name", sorted(FIRES))
def test_the_faults_fire(both, name):
    fused, _ = both(name)
    for path in FIRES[name]:
        assert _stat(fused, path) > 0, path


@pytest.mark.parametrize("name", sorted(IDLE))
def test_the_idle_mechanism_stays_idle(both, name):
    for run in both(name):
        for path in IDLE[name]:
            assert _stat(run, path) == 0, path


def test_only_the_channels_carry_faults(both):
    faulted = _stat(both("mesh-lossy-channels")[0], "faulted_links")
    assert faulted and all(label.startswith("ch:") for label in faulted)


def test_the_fused_loop_jumps_what_the_reference_steps(both):
    """A near-idle tree: the fused loop jumps; the reference scan jumps
    only over an empty network."""
    fused, reference = (run.result for run in both("tree-idle"))
    assert 0 < fused.cycles_executed < fused.cycles_run
    assert fused.cycles_executed <= reference.cycles_executed <= reference.cycles_run


@pytest.mark.parametrize("name, drops", [("pcs-light", False), ("pcs-dropping", True)])
def test_pcs_drops_only_under_load(both, name, drops):
    fused, _ = both(name)
    assert (fused.result.connections.dropped > 0) == drops


def _alternating(step, first):
    """A loop whose slice ``i`` (from ``first``) is ``step + (i * 37) %
    101`` cycles long: even slices on ``Network.run``, odd ones on the
    reference."""

    def loop(network, until):
        i = first
        while network.clock < until:
            stop = min(until, network.clock + step + (i * 37) % 101)
            (run_reference if i % 2 else Network.run)(network, stop)
            i += 1

    return loop


@pytest.mark.parametrize("name", sorted(HANDOFFS))
def test_loops_hand_a_network_back_and_forth(both, name):
    """One network advanced by alternating loops ends where either loop
    alone does: ``resync()`` at run entry is a full hand-off.
    ``cycles_executed`` is not compared — the reference leaves idle
    components in the active sets, so the fused loop executes a few
    cycles it would otherwise jump."""
    fused, _ = both(name)
    for first, step in enumerate(HANDOFFS[name]):
        mixed = simulate(CELLS[name], loop=_alternating(step, first))
        assert _outcome(mixed) == _outcome(fused.result), (step, first)
