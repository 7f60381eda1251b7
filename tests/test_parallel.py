"""The parallel sweep executor: determinism, one attempt per point,
crash resubmission; and the checkpoint ``run_plans`` keeps around it."""

import dataclasses
import os

import pytest

from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.experiments.campaign import (
    Axis,
    Campaign,
    Column,
    Point,
    empty_metrics,
    run_plans,
)
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.parallel import POOL_CRASHES, ParallelSweepExecutor, SweepTask
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import WorkloadSummary, simulate
from repro.experiments.scale import run_digest

TINY = dict(scale=100.0, warmup_frames=1, measure_frames=2, seed=7)


@dataclasses.dataclass(frozen=True)
class StubExperiment:
    """Minimal picklable experiment; ``marker`` names a file a crashing
    runner creates before it kills its worker."""

    seed: int = 7
    watchdog_window: object = None
    marker: str = ""


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


def exit_first_time(experiment):
    """Kill the worker outright on the first call; then return the
    experiment this call was handed."""
    if not os.path.exists(experiment.marker):
        open(experiment.marker, "w").close()
        os._exit(1)
    return experiment


def always_exits(experiment):
    os._exit(1)


@dataclasses.dataclass(frozen=True)
class KillOnce:
    """A runner that kills the first worker to call it, then simulates."""

    marker: str

    def __call__(self, experiment):
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(1)
        return simulate(experiment)


def _tiny_tasks(loads=(0.6, 0.9), runner=simulate):
    return [
        SweepTask(
            key=f"sw@{load:g}",
            runner=runner,
            experiment=SingleSwitchExperiment(load=load, mix=(80, 20), **TINY),
        )
        for load in loads
    ]


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepExecutor(jobs=0)

    @pytest.mark.parametrize("attempts", [0, 2, 3])
    def test_a_point_runs_exactly_once(self, attempts):
        ParallelSweepExecutor(attempts=1)
        with pytest.raises(ConfigurationError, match="exactly once"):
            ParallelSweepExecutor(attempts=attempts)

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
        seen = []
        results = ParallelSweepExecutor().run(
            tasks, on_result=lambda task, result: seen.append(task.key)
        )
        assert list(results) == ["b", "a"]
        assert [r.value for r in results.values()] == [4, 2]
        assert seen == ["b", "a"]

    def test_inline_results_are_portable(self):
        results = ParallelSweepExecutor().run(
            [SweepTask("a", double_seed, StubExperiment())]
        )
        assert results["a"].portable_calls == 1

    def test_failure_raises_without_hook(self):
        tasks = [SweepTask("a", always_fails, StubExperiment())]
        with pytest.raises(SimulationError):
            ParallelSweepExecutor().run(tasks)

    def test_failure_hook_skips_the_key(self):
        tasks = [
            SweepTask("bad", always_fails, StubExperiment(seed=1)),
            SweepTask("good", double_seed, StubExperiment(seed=3)),
        ]
        seen = []
        results = ParallelSweepExecutor().run(
            tasks,
            on_result=lambda task, result: seen.append(("ok", task.key)),
            on_failure=lambda task, exc: seen.append(("failed", task.key)),
        )
        assert list(results) == ["good"]
        assert seen == [("failed", "bad"), ("ok", "good")]

    def test_a_failing_point_runs_once_at_its_own_seed(self):
        calls = []

        def wedged(experiment):
            calls.append(experiment)
            raise DeadlockError("router 0 wedged")

        experiment = StubExperiment(seed=1)
        with pytest.raises(DeadlockError):
            ParallelSweepExecutor().run([SweepTask("a", wedged, experiment)])
        assert calls == [experiment]


def stub_point(experiment) -> Point:
    return Point(None, empty_metrics(), {"value": experiment.seed * 2})


def _stub_spec() -> Campaign:
    """A one-series spec whose points are stub experiments, reduced to
    ``{(series, x): Point}``."""
    return Campaign(
        name="stub",
        help="",
        series=("s",),
        axis=Axis(defaults=()),
        experiment=lambda profile, series, x: StubExperiment(seed=x),
        title="",
        xlabel="",
        point=stub_point,
        columns=(Column("x", 4, "x"),),
        table=lambda points: {x: p.extra["value"] for (_, x), p in points.items()},
    )


class TestCheckpoint:
    """``run_plans`` is the one reader and writer of a checkpoint: the
    executor only reports each completion."""

    @staticmethod
    def _run(path, seeds, point=stub_point):
        spec = dataclasses.replace(_stub_spec(), point=point)
        plan = {("s", seed): StubExperiment(seed=seed) for seed in seeds}
        checkpoint = SweepCheckpoint(path, meta={})
        return run_plans([(spec, plan)], checkpoint)[0], checkpoint

    def test_restores_without_rerunning(self, tmp_path):
        path = str(tmp_path / "ck.json")
        first, _ = self._run(path, [5])
        assert first == {5: 10}
        second, _ = self._run(path, [5], point=always_fails)
        assert second == {5: 10}  # the body never ran

    def test_partial_checkpoint_runs_the_rest(self, tmp_path):
        path = str(tmp_path / "ck.json")
        self._run(path, [1])
        ran = []

        def counted(experiment):
            ran.append(experiment.seed)
            return stub_point(experiment)

        results, checkpoint = self._run(path, [1, 4], point=counted)
        assert results == {1: 2, 4: 8}
        assert ran == [4]
        assert len(checkpoint.done_keys) == 2


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

    def test_worker_crash_resubmits_the_same_experiment(self, tmp_path):
        experiment = StubExperiment(seed=7, marker=str(tmp_path / "crashed"))
        logs = []
        executor = ParallelSweepExecutor(jobs=2, log=logs.append)
        results = executor.run([SweepTask("a", exit_first_time, experiment)])
        assert results == {"a": experiment}
        assert logs == [
            f"worker pool crashed (crash 1/{POOL_CRASHES}); resubmitting 1 points"
        ]

    def test_killed_worker_gives_the_same_digests(self, tmp_path):
        """A crash costs wall time, never a different result."""
        killed = ParallelSweepExecutor(jobs=2).run(
            _tiny_tasks(runner=KillOnce(str(tmp_path / "crashed")))
        )
        assert (tmp_path / "crashed").exists()
        clean = ParallelSweepExecutor(jobs=2).run(_tiny_tasks())
        assert list(killed) == list(clean) == ["sw@0.6", "sw@0.9"]
        assert [run_digest(r) for r in killed.values()] == [
            run_digest(r) for r in clean.values()
        ]

    def test_crash_budget_exhausted_raises(self):
        tasks = [SweepTask("a", always_exits, StubExperiment())]
        with pytest.raises(
            SimulationError, match=f"crashed {POOL_CRASHES + 1} times"
        ):
            ParallelSweepExecutor(jobs=2).run(tasks)
