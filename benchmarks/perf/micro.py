"""Standalone per-layer micro-benchmarks (ns per operation, or seconds).

Each number is the median of ``BATCHES`` timed batches of one layer's
public operation in isolation.  They are the smallest unit an
optimisation can move; the README's interaction table says which
end-to-end metric each one is expected to carry.  A layer whose entry
point no longer exists reports ``None`` with a reason instead of
failing the run.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

BATCHES = 5
#: operations per timed batch: a batch lasts 5-20 ms
OPS = 20_000
#: repeats of the slow (whole-second scale) measurements
SLOW_REPEATS = 3

SRC = Path(__file__).resolve().parents[2] / "src"

#: name -> unit, in reporting order
UNITS: Dict[str, str] = {
    "sim.events.schedule_fire_ns": "ns",
    "sim.activation.wake_due_ns": "ns",
    "sim.activation.toggle_ns": "ns",
    "core.virtual_clock.stamp_ns": "ns",
    "core.schedulers.select_vc16_ns": "ns",
    "core.schedulers.select_fifo16_ns": "ns",
    "router.routeprog.candidates_ns": "ns",
    "router.routeprog.compile_ft3k16_s": "s",
    "network.topology.build_ft3k16_s": "s",
    "router.buffers.record_pool_ns": "ns",
    "router.buffers.inputvc_flit_ns": "ns",
    "network.link.send_deliver_ns": "ns",
    "metrics.collector.on_message_ns": "ns",
    "experiments.parallel.pool_roundtrip_s": "s",
    "experiments.parallel.result_pickle_bytes": "B",
    "experiments.import_s": "s",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.experiments.runner, repro.experiments.parallel; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time one fresh interpreter takes to import the experiment API."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(done.stdout.strip())


def _ns_per_op(batch: Callable[[], int]) -> float:
    """Median over batches of (batch wall time / operations it reports)."""
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        ops = batch()
        samples.append((time.perf_counter() - started) * 1e9 / ops)
    return statistics.median(samples)


def _seconds(fn: Callable[[], object]) -> float:
    """Median wall time of ``fn`` over the slow-measurement repeats."""
    samples = []
    for _ in range(SLOW_REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _noop() -> None:
    pass


def _echo_point(experiment):
    """Trivial sweep point (module level so the pool can pickle it)."""
    return experiment


# -- sim ----------------------------------------------------------------


def _schedule_fire() -> float:
    from repro.sim.events import EventHeap

    def batch() -> int:
        heap = EventHeap()
        for time_ in range(OPS):
            heap.schedule(time_, _noop)
        for time_ in range(OPS):
            heap.fire_due(time_)
        return OPS

    return _ns_per_op(batch)


def _wake_due() -> float:
    from repro.sim.activation import ActivationScheduler

    def batch() -> int:
        scheduler = ActivationScheduler()
        cid = scheduler.register(object())
        for clock in range(OPS):
            scheduler.wake_at(cid, clock)
            scheduler.due(clock)
        return OPS

    return _ns_per_op(batch)


def _toggle() -> float:
    from repro.sim.activation import ActivationScheduler

    scheduler = ActivationScheduler()
    for _ in range(16):
        scheduler.register(object())
    for cid in range(0, 16, 2):
        scheduler.activate(cid)

    def batch() -> int:
        for _ in range(OPS):
            scheduler.activate(7)
            scheduler.deactivate(7)
        return OPS

    return _ns_per_op(batch)


# -- core ---------------------------------------------------------------


def _stamp() -> float:
    from repro.core.schedulers import VirtualClockScheduler
    from repro.core.virtual_clock import VirtualClockState

    scheduler = VirtualClockScheduler()
    state = VirtualClockState()
    state.open(0, 4.0)

    def batch() -> int:
        for clock in range(OPS):
            scheduler.stamp(clock, state)
        return OPS

    return _ns_per_op(batch)


def _select16(policy: str) -> float:
    from repro.core.schedulers import make_scheduler

    scheduler = make_scheduler(policy)
    # stamps in no particular order, as 16 busy VCs would present them
    candidates = [(float((vc * 7919) % 101), vc) for vc in range(16)]

    def batch() -> int:
        for _ in range(OPS):
            scheduler.select(candidates)
        return OPS

    return _ns_per_op(batch)


# -- router / topology --------------------------------------------------


def _fat_tree() -> Iterator[Tuple[str, float]]:
    """The three k=16 fat-tree numbers, which share one built topology."""
    from repro.network.topology import fat_tree3
    from repro.router.routeprog import compile_routes

    built = []
    yield "network.topology.build_ft3k16_s", _seconds(lambda: built.append(fat_tree3(k=16)))
    topology = built[-1]
    program = topology.route_program
    nodes = topology.node_ids
    pairs = [
        ((i * 131) % topology.num_routers, nodes[(i * 257) % len(nodes)])
        for i in range(OPS)
    ]

    def batch() -> int:
        candidates = program.candidates
        for rid, node in pairs:
            candidates(rid, node)
        return OPS

    yield "router.routeprog.candidates_ns", _ns_per_op(batch)
    # compile_routes takes the generator-native dict form; rebuild it
    # from the compiled program (outside the timed region).
    table = {
        (rid, node): program.candidates(rid, node)
        for rid in range(topology.num_routers)
        for node in nodes
    }
    yield "router.routeprog.compile_ft3k16_s", _seconds(
        lambda: compile_routes(table, name="bench", num_routers=topology.num_routers)
    )


def _message(size: int = 20, real_time: bool = False):
    from repro.router.flit import Message, TrafficClass

    return Message(
        src_node=0,
        dst_node=1,
        size=size,
        vtick=4.0,
        traffic_class=TrafficClass.VBR if real_time else TrafficClass.BEST_EFFORT,
        stream_id=0 if real_time else -1,
        frame_id=0 if real_time else -1,
    )


def _record_pool() -> float:
    from repro.router.buffers import acquire_record, release_record

    msg = _message()

    def batch() -> int:
        for clock in range(OPS):
            release_record(acquire_record(msg, clock))
        return OPS

    return _ns_per_op(batch)


def _inputvc_flit() -> float:
    from repro.router.buffers import InputVC

    msg = _message()
    vc = InputVC(port=0, index=0, capacity=8)
    messages = OPS // msg.size

    def batch() -> int:
        for clock in range(messages):
            vc.accept_new_message(clock, msg)
            for _ in range(msg.size):
                vc.accept_flit(float(clock))
                vc.pop_head()
            vc.release_front()
        return messages * msg.size

    return _ns_per_op(batch)


def _send_deliver() -> float:
    from repro.network.interface import HostSink
    from repro.network.link import Link

    msg = _message()
    link = Link(sink=HostSink(node_id=msg.dst_node), latency=1)
    size = msg.size

    def batch() -> int:
        for clock in range(OPS):
            link.send(clock, msg, clock % size, 0)
            link.deliver_due(clock + 1)
        return OPS

    return _ns_per_op(batch)


def _collector() -> float:
    from repro.metrics.collector import MetricsCollector
    from repro.sim.units import LinkSpec, TimeBase, WorkloadScale

    timebase = TimeBase(LinkSpec(400.0, 32), WorkloadScale(20.0))
    real_time = _message(real_time=True)
    best_effort = _message()
    best_effort.inject_time = 0

    def batch() -> int:
        collector = MetricsCollector(timebase, warmup=0)
        on_message = collector.on_message
        for clock in range(0, OPS, 2):
            on_message(real_time, clock)
            on_message(best_effort, clock)
        return OPS

    return _ns_per_op(batch)


# -- experiments --------------------------------------------------------


def _pool_roundtrip() -> float:
    from repro.experiments.parallel import ParallelSweepExecutor, SweepTask

    tasks = [SweepTask(f"p{i}", _echo_point, i) for i in range(2)]
    return _seconds(lambda: ParallelSweepExecutor(jobs=2, attempts=1).run(tasks))


def _result_pickle_bytes() -> int:
    from repro.core.schedulers import SchedulingPolicy
    from repro.experiments.config import ButterflyExperiment
    from repro.experiments.runner import simulate_butterfly

    result = simulate_butterfly(
        ButterflyExperiment(
            arity=2,
            levels=2,
            vcs_per_pc=2,
            load=0.4,
            mix=(0, 100),
            scheduler=SchedulingPolicy.FIFO,
            scale=100.0,
            warmup_frames=1,
            measure_frames=1,
        )
    )
    return len(pickle.dumps(result.portable()))


_FAT_TREE_NAMES = (
    "network.topology.build_ft3k16_s",
    "router.routeprog.candidates_ns",
    "router.routeprog.compile_ft3k16_s",
)

_SIMPLE: Tuple[Tuple[str, Callable[[], float]], ...] = (
    ("sim.events.schedule_fire_ns", _schedule_fire),
    ("sim.activation.wake_due_ns", _wake_due),
    ("sim.activation.toggle_ns", _toggle),
    ("core.virtual_clock.stamp_ns", _stamp),
    ("core.schedulers.select_vc16_ns", lambda: _select16("virtual_clock")),
    ("core.schedulers.select_fifo16_ns", lambda: _select16("fifo")),
    ("router.buffers.record_pool_ns", _record_pool),
    ("router.buffers.inputvc_flit_ns", _inputvc_flit),
    ("network.link.send_deliver_ns", _send_deliver),
    ("metrics.collector.on_message_ns", _collector),
    ("experiments.parallel.pool_roundtrip_s", _pool_roundtrip),
    ("experiments.parallel.result_pickle_bytes", _result_pickle_bytes),
    (
        "experiments.import_s",
        lambda: statistics.median(import_seconds() for _ in range(SLOW_REPEATS)),
    ),
)


def run_all() -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Every micro number, and a reason for each one that is ``None``."""
    results: Dict[str, Optional[float]] = dict.fromkeys(UNITS)
    reasons: Dict[str, str] = {}
    gc.collect()
    for name, fn in _SIMPLE:
        try:
            results[name] = fn()
        except Exception as exc:  # boundary: one dead layer must not end the run
            reasons[name] = f"{type(exc).__name__}: {exc}"
    try:
        for name, value in _fat_tree():
            results[name] = value
    except Exception as exc:  # boundary, as above: the numbers not reached stay None
        for name in _FAT_TREE_NAMES:
            if results[name] is None:
                reasons[name] = f"{type(exc).__name__}: {exc}"
    return results, reasons


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    numbers, why_none = run_all()
    for metric, unit in UNITS.items():
        print(f"{metric:45s} {numbers[metric]!s:>14} {unit}  {why_none.get(metric, '')}")
