"""The four benchmark workloads, their output checks and the run digest.

Everything here goes through the simulator's public API only: the
experiment dataclasses, ``simulate_*``, ``ParallelSweepExecutor.run``
and the fault/recovery/health configs.  No engine, loop switch or
profiler is named, so the benchmark times whatever a default user gets.

Runners are looked up on ``repro.experiments.runner`` *at call time*
(by name), which is what lets ``trace.py`` wrap them and lets a test
substitute a fake operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
import traceback
from typing import Callable, List, Optional, Tuple

import repro.experiments.runner as runner_module
from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    SingleSwitchExperiment,
)
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.faults import FaultPlan, LinkDownWindow, RecoveryConfig
from repro.network.health import HealthConfig

#: pool width of the sweep workload; the recorded host has nproc = 2
SWEEP_JOBS = 2


# ----------------------------------------------------------------------
# builders: (seed, smoke) -> experiment, or a tuple of SweepTasks
#
# The sizes are the issue's workloads shrunk until a repetition lasts
# 0.6-1.4 s, so that a 20 s run holds 14-30 of them and its best one
# is steady on a noisy host (README, "Noise").  Only the workload scale
# is raised: measure_frames is never 1 on a streamed workload, because
# one measured frame leaves no delivery interval and d, sigma_d are NaN.


def _dense_switch(seed: int, smoke: bool):
    return SingleSwitchExperiment(
        load=0.8,
        mix=(80, 20),
        scheduler=SchedulingPolicy.VIRTUAL_CLOCK,
        vcs_per_pc=16,
        scale=100.0 if smoke else 160.0,
        warmup_frames=1,
        measure_frames=2 if smoke else 3,
        seed=seed,
    )


def _scale_fattree(seed: int, smoke: bool):
    return FatTree3Experiment(
        k=4 if smoke else 16,
        load=0.01,
        mix=(100, 0),
        vcs_per_pc=4,
        scale=100.0 if smoke else 320.0,
        warmup_frames=1,
        measure_frames=2,
        seed=seed,
    )


def _faulted_fatmesh(seed: int, smoke: bool):
    base = FatMeshExperiment(
        load=0.6,
        mix=(80, 20),
        vcs_per_pc=16,
        scale=100.0 if smoke else 320.0,
        warmup_frames=1,
        measure_frames=2 if smoke else 3,
        seed=seed,
    )
    interval = base.workload_config().frame_interval_cycles
    # Kill the lowest-port member of fat pairs 0->1 and 1->0 for good,
    # from the first measured cycle on, and lose a few flits everywhere.
    dead = tuple(
        LinkDownWindow(label, start=base.warmup_cycles, end=None)
        for label in ("ch:0.4->1.4", "ch:1.4->0.4")
    )
    return dataclasses.replace(
        base,
        faults=FaultPlan(flit_loss_prob=0.0005, down_windows=dead),
        recovery=RecoveryConfig(
            timeout=max(512, interval // 2),
            max_retries=8,
            backoff_base=max(16, interval // 256),
            backoff_cap=max(64, interval // 16),
            qos_deadline=2 * interval,
        ),
        health=HealthConfig(),
        routing_mode="adaptive",
        watchdog_window=4 * interval,
    )


def _min_lanes_sweep(seed: int, smoke: bool):
    # Stergiou's three axes: network size x VC lanes x buffer depth.
    points = [
        (levels, lanes, depth)
        for levels in ((2,) if smoke else (2, 3))
        for lanes in ((2, 8) if smoke else (2, 4, 8))
        for depth in (2, 8)
    ]
    return tuple(
        SweepTask(
            key=f"levels{levels}-lanes{lanes}-depth{depth}",
            runner=runner_module.simulate_butterfly,
            experiment=ButterflyExperiment(
                arity=2,
                levels=levels,
                vcs_per_pc=lanes,
                flit_buffer_depth=depth,
                load=0.4,
                mix=(0, 100),
                scheduler=SchedulingPolicy.FIFO,
                scale=100.0 if smoke else 320.0,
                warmup_frames=1,
                measure_frames=1,
                seed=seed,
            ),
        )
        for levels, lanes, depth in points
    )


# ----------------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    """One repetition of a workload: timings plus every returned result."""

    wall_s: float
    #: host time before cycle 0 (sweep: pool overhead), see README
    setup_s: float
    results: list
    attempted: int
    #: one line per operation that raised
    errors: List[str]

    @property
    def digests(self) -> List[str]:
        """One run digest per returned result."""
        return [run_digest(result) for result in self.results]

    @property
    def digest(self) -> str:
        """One digest for the repetition (a sweep hashes its points in order)."""
        digests = self.digests
        if len(digests) == 1:
            return digests[0]
        return hashlib.sha256("".join(digests).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], object]
    #: name of the ``simulate_*`` function on repro.experiments.runner;
    #: None marks the sweep (its tasks carry their own runner)
    runner: Optional[str]
    #: which outputs the workload must define (finite, count > 0)
    streams: bool
    besteffort: bool
    #: acceptance window for the paper's d, ms
    d_window_ms: Optional[Tuple[float, float]] = None
    #: floor on fault_stats["qos_delivered_fraction"]
    min_qos_delivered: Optional[float] = None

    def execute(self, payload, inline: bool = False) -> Rep:
        """Run one repetition; never raises for a failing operation.

        ``inline`` (the traced pass) sends the sweep through the
        executor's in-process path, because spans recorded inside pool
        workers could not be collected.
        """
        if self.runner is None:
            return _execute_sweep(payload, 1 if inline else SWEEP_JOBS)
        simulate = getattr(runner_module, self.runner)
        started = time.perf_counter()
        try:
            result = simulate(payload)
        except Exception:  # boundary: a failed operation is a count
            wall = time.perf_counter() - started
            return Rep(wall, math.nan, [], 1, [_last_error()])
        wall = time.perf_counter() - started
        # portable(): keep the numbers, drop the live network the
        # workload object holds, so repetitions do not pile up in memory
        return Rep(wall, wall - result.wall_seconds, [result.portable()], 1, [])

    def violations(self, result) -> List[str]:
        """Why ``result`` is not a valid output of this workload."""
        found = []
        metrics = result.metrics
        if result.flits_ejected <= 0:
            found.append("no flit ejected")
        if self.streams:
            if not (math.isfinite(metrics.d) and math.isfinite(metrics.sigma_d)):
                found.append(f"d/sigma_d not finite ({metrics.d}, {metrics.sigma_d})")
            if metrics.frames_delivered <= 0:
                found.append("no frame delivered")
        if self.besteffort:
            if not math.isfinite(metrics.be_latency_us):
                found.append(f"be_latency_us not finite ({metrics.be_latency_us})")
            if metrics.be_message_count <= 0:
                found.append("no best-effort message delivered")
        if self.d_window_ms is not None:
            low, high = self.d_window_ms
            if not low <= metrics.d <= high:
                found.append(f"d = {metrics.d} ms outside [{low}, {high}]")
        if self.min_qos_delivered is not None:
            got = (result.fault_stats or {}).get("qos_delivered_fraction")
            if got is None or not got >= self.min_qos_delivered:
                found.append(
                    f"qos_delivered_fraction = {got} < {self.min_qos_delivered}"
                )
        return found


def _last_error() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def _execute_sweep(tasks, jobs: int) -> Rep:
    errors: List[str] = []
    # attempts=1: a point that fails must count as failed, not be
    # silently re-run under another seed
    executor = ParallelSweepExecutor(jobs=jobs, attempts=1)
    started = time.perf_counter()
    try:
        results = executor.run(
            tasks,
            on_failure=lambda task, exc: errors.append(f"{task.key}: {exc!r}"),
        )
    except Exception:  # boundary: the whole sweep counts as failed
        wall = time.perf_counter() - started
        return Rep(wall, math.nan, [], len(tasks), [_last_error()] * len(tasks))
    wall = time.perf_counter() - started
    in_loop = sum(result.wall_seconds for result in results.values())
    return Rep(wall, wall - in_loop / jobs, list(results.values()), len(tasks), errors)


WORKLOADS = (
    Workload(
        name="dense_switch",
        why=(
            "8-port switch at load 0.8 (80/20 mix, Virtual Clock, 16 VCs): every "
            "component busy every cycle, so router stages and stamp/select do the work"
        ),
        build=_dense_switch,
        runner="simulate_single_switch",
        streams=True,
        besteffort=True,
        d_window_ms=(32.0, 34.0),
    ),
    Workload(
        name="scale_fattree",
        why=(
            "1024-host k=16 fat tree at load 0.01: mostly idle, so activation "
            "scheduling, clock jumps, link delivery, route lookup and Network build dominate"
        ),
        build=_scale_fattree,
        runner="simulate_fat_tree3",
        streams=True,
        besteffort=False,
        d_window_ms=(32.0, 34.0),
    ),
    Workload(
        name="faulted_fatmesh",
        why=(
            "2x2 fat mesh with flit loss and two dead fat-pair links under adaptive "
            "routing: the cold path (faulty delivery, retransmission, health monitor, detours)"
        ),
        build=_faulted_fatmesh,
        runner="simulate_fat_mesh",
        streams=True,
        besteffort=True,
        min_qos_delivered=0.99,
    ),
    Workload(
        name="min_lanes_sweep",
        why=(
            "12-point butterfly sweep (size x VC lanes x buffer depth, FIFO best-effort) "
            "through a 2-worker pool: per-message arbitration plus spawn/pickle/imbalance"
        ),
        build=_min_lanes_sweep,
        runner=None,
        streams=False,
        besteffort=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# run digest


def _canon(value):
    """NaN != NaN, so map it to a sentinel before hashing."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def run_digest(result) -> str:
    """Digest of one run: every simulated statistic plus conservation counters.

    Same shape as ``repro.experiments.scale.run_digest`` (metrics +
    cycles + injected + ejected), re-stated here so the benchmark does
    not depend on a campaign module.
    """
    payload = {
        "metrics": _canon(dataclasses.asdict(result.metrics)),
        "cycles": result.cycles_run,
        "injected": result.flits_injected,
        "ejected": result.flits_ejected,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
