"""The parallel sweep executor: determinism, resilience, checkpoints."""

import dataclasses
import os

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.parallel import (
    CRASH_RESEED_STEP,
    ParallelSweepExecutor,
    SweepTask,
)
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import WorkloadSummary, simulate_single_switch

TINY = dict(scale=100.0, warmup_frames=1, measure_frames=2, seed=7)


@dataclasses.dataclass(frozen=True)
class StubExperiment:
    """Minimal picklable experiment: a seed is all retries need."""

    seed: int = 7
    watchdog_window: object = None


@dataclasses.dataclass
class StubResult:
    value: int
    portable_calls: int = 0

    def portable(self):
        return dataclasses.replace(self, portable_calls=self.portable_calls + 1)


def double_seed(experiment):
    """Module-level (picklable) stub runner."""
    return StubResult(experiment.seed * 2)


def always_fails(experiment):
    raise SimulationError(f"point with seed {experiment.seed} is wedged")


def exit_on_first_seed(experiment):
    """Kill the worker process outright unless the seed was crash-reseeded."""
    if experiment.seed < CRASH_RESEED_STEP:
        os._exit(1)
    return StubResult(experiment.seed)


def _tiny_tasks(loads=(0.6, 0.9)):
    return [
        SweepTask(
            key=f"sw@{load:g}",
            runner=simulate_single_switch,
            experiment=SingleSwitchExperiment(load=load, mix=(80, 20), **TINY),
        )
        for load in loads
    ]


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepExecutor(jobs=0)

    def test_crash_retries_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepExecutor(crash_retries=-1)

    def test_encode_decode_must_pair(self):
        executor = ParallelSweepExecutor()
        with pytest.raises(ConfigurationError):
            executor.run([], encode=lambda r: r)

    def test_checkpoint_requires_codec(self, tmp_path):
        executor = ParallelSweepExecutor()
        checkpoint = SweepCheckpoint(str(tmp_path / "ck.json"), meta={})
        with pytest.raises(ConfigurationError):
            executor.run([], checkpoint=checkpoint)

    def test_duplicate_keys_rejected(self):
        tasks = [
            SweepTask("a", double_seed, StubExperiment()),
            SweepTask("a", double_seed, StubExperiment()),
        ]
        with pytest.raises(ConfigurationError):
            ParallelSweepExecutor().run(tasks)


class TestInline:
    def test_results_in_task_order(self):
        tasks = [
            SweepTask("b", double_seed, StubExperiment(seed=2)),
            SweepTask("a", double_seed, StubExperiment(seed=1)),
        ]
        results = ParallelSweepExecutor().run(tasks)
        assert list(results) == ["b", "a"]
        assert [r.value for r in results.values()] == [4, 2]

    def test_inline_results_are_portable(self):
        results = ParallelSweepExecutor().run(
            [SweepTask("a", double_seed, StubExperiment())]
        )
        assert results["a"].portable_calls == 1

    def test_failure_raises_without_hook(self):
        tasks = [SweepTask("a", always_fails, StubExperiment())]
        with pytest.raises(SimulationError):
            ParallelSweepExecutor(attempts=1).run(tasks)

    def test_failure_hook_skips_the_key(self):
        tasks = [
            SweepTask("bad", always_fails, StubExperiment(seed=1)),
            SweepTask("good", double_seed, StubExperiment(seed=3)),
        ]
        seen = []
        results = ParallelSweepExecutor(attempts=1).run(
            tasks, on_failure=lambda task, exc: seen.append(task.key)
        )
        assert list(results) == ["good"]
        assert seen == ["bad"]


class TestCheckpoint:
    def _codec(self):
        return (
            lambda result: {"value": result.value},
            lambda data: StubResult(data["value"]),
        )

    def test_restores_without_rerunning(self, tmp_path):
        path = str(tmp_path / "ck.json")
        encode, decode = self._codec()
        tasks = [SweepTask("a", double_seed, StubExperiment(seed=5))]
        executor = ParallelSweepExecutor()
        first = executor.run(
            tasks,
            checkpoint=SweepCheckpoint(path, meta={}),
            encode=encode,
            decode=decode,
        )
        assert first["a"].value == 10
        rerun = [SweepTask("a", always_fails, StubExperiment(seed=5))]
        second = executor.run(
            rerun,
            checkpoint=SweepCheckpoint(path, meta={}),
            encode=encode,
            decode=decode,
        )
        assert second["a"].value == 10  # runner never called

    def test_partial_checkpoint_runs_the_rest(self, tmp_path):
        path = str(tmp_path / "ck.json")
        encode, decode = self._codec()
        checkpoint = SweepCheckpoint(path, meta={})
        checkpoint.put("a", {"value": 1})
        results = ParallelSweepExecutor().run(
            [
                SweepTask("a", always_fails, StubExperiment()),
                SweepTask("b", double_seed, StubExperiment(seed=4)),
            ],
            checkpoint=checkpoint,
            encode=encode,
            decode=decode,
        )
        assert results["a"].value == 1
        assert results["b"].value == 8
        assert sorted(checkpoint.done_keys) == ["a", "b"]


class TestPool:
    def test_pool_matches_serial_bitwise(self):
        serial = ParallelSweepExecutor(jobs=1).run(_tiny_tasks())
        pooled = ParallelSweepExecutor(jobs=2).run(_tiny_tasks())
        assert list(serial) == list(pooled)
        for key in serial:
            assert dataclasses.asdict(serial[key].metrics) == dataclasses.asdict(
                pooled[key].metrics
            )

    def test_pool_results_are_portable(self):
        results = ParallelSweepExecutor(jobs=2).run(_tiny_tasks(loads=(0.6,)))
        assert isinstance(results["sw@0.6"].workload, WorkloadSummary)

    def test_worker_crash_reseeds_and_recovers(self):
        tasks = [SweepTask("a", exit_on_first_seed, StubExperiment(seed=7))]
        executor = ParallelSweepExecutor(jobs=2, crash_retries=2)
        results = executor.run(tasks)
        assert results["a"].value == 7 + CRASH_RESEED_STEP

    def test_crash_budget_exhausted_raises(self):
        tasks = [
            SweepTask(
                "a", exit_on_first_seed, StubExperiment(seed=-CRASH_RESEED_STEP)
            )
        ]
        executor = ParallelSweepExecutor(jobs=2, crash_retries=1)
        with pytest.raises(SimulationError):
            executor.run(tasks)
