"""Parallel sweep execution: a process pool over independent points.

Every sweep in this repo (figure load sweeps, table grids, fault
campaigns) is a bag of independent points — each builds its own network
and its own :class:`~repro.sim.rng.RngStreams` from the experiment's
seed, so points share no state and their results cannot depend on
execution order.  That makes them safe to farm out to worker processes:
a point computed in a pool worker is bit-identical to the same point
computed inline.

The executor is the one way a sweep runs (inline at ``jobs=1``), so
every point of every figure, table and campaign gets three layers of
resilience:

* **per-point retry** — workers run points through
  :func:`~repro.experiments.resilience.run_resilient`, so a wedged
  point retries with a reseeded experiment inside its worker;
* **checkpointing** — a :class:`~repro.experiments.resilience
  .SweepCheckpoint` restores finished points on rerun and persists each
  completion as it arrives;
* **crash recovery** — a worker process dying (OOM kill, segfault)
  breaks the pool; the executor rebuilds it and resubmits the
  unfinished points with a crash-reseeded experiment, bounded by
  ``crash_retries``.

Results cross the process boundary in *portable* form (live workloads
replaced by their summaries — see
:meth:`~repro.experiments.runner.ExperimentResult.portable`); for
uniformity the executor portable-izes inline (``jobs=1``) results too,
so downstream code sees the same shapes regardless of job count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.resilience import (
    SweepCheckpoint,
    run_resilient,
    wall_clock_limit,
)

#: seed offset applied to every not-yet-finished point after a worker
#: crash (a prime distinct from RESEED_STEP, so a crash-reseed can never
#: collide with an in-worker retry reseed of a neighbouring point)
CRASH_RESEED_STEP = 7919


@dataclass(frozen=True)
class SweepTask:
    """One independent sweep point: run ``runner(experiment)``.

    ``key`` names the point in result dicts and checkpoints (e.g.
    ``"mediaworm@0.8"``); keys must be unique within one sweep.  Both
    ``runner`` and ``experiment`` must be picklable — in practice
    ``simulate`` (or a module-level point function that calls it) plus
    an experiment dataclass.
    """

    key: str
    runner: Callable
    experiment: object


def _make_portable(result):
    """Convert a runner result to its process-portable form."""
    portable = getattr(result, "portable", None)
    return portable() if portable is not None else result


class _TimedRunner:
    """Wrap a point runner in a per-attempt wall-clock limit.

    Constructed inside the worker (never pickled), so the wrapped
    runner itself stays an ordinary picklable module-level function.
    A limit firing raises :class:`~repro.errors.PointTimeoutError` — a
    :class:`~repro.errors.SimulationError`, so :func:`run_resilient`
    retries the point with a fresh seed like any other wedge.
    """

    def __init__(self, runner: Callable, seconds: float) -> None:
        self.runner = runner
        self.seconds = seconds

    def __call__(self, experiment):
        with wall_clock_limit(self.seconds):
            return self.runner(experiment)


def _run_task(
    task: SweepTask, attempts: int, point_timeout: Optional[float] = None
):
    """Worker body: one point, with in-worker reseed retries.

    Module-level so the process pool can pickle it.  Returns the
    portable result; a :class:`~repro.errors.SimulationError` from the
    final attempt propagates back through the future.
    """
    runner = task.runner
    if point_timeout is not None:
        runner = _TimedRunner(runner, point_timeout)
    result = run_resilient(runner, task.experiment, attempts=attempts)
    return _make_portable(result)


class ParallelSweepExecutor:
    """Run sweep points inline (``jobs=1``) or in a process pool.

    The executor is deliberately stateless between :meth:`run` calls —
    the pool is created per sweep and torn down afterwards, so a
    campaign of several sweeps (``mediaworm all``) reuses one executor
    object without workers idling between figures.
    """

    def __init__(
        self,
        jobs: int = 1,
        attempts: int = 3,
        crash_retries: int = 2,
        log: Optional[Callable[[str], None]] = None,
        point_timeout: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if crash_retries < 0:
            raise ConfigurationError(
                f"crash_retries must be >= 0, got {crash_retries}"
            )
        if point_timeout is not None and point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be > 0 seconds, got {point_timeout}"
            )
        self.jobs = jobs
        self.attempts = attempts
        self.crash_retries = crash_retries
        self.log = log
        #: per-attempt wall-clock budget for one point, in seconds
        #: (None = unbounded); enforced inside the point's own worker
        self.point_timeout = point_timeout

    # ------------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def run(
        self,
        tasks: Sequence[SweepTask],
        checkpoint: Optional[SweepCheckpoint] = None,
        encode: Optional[Callable] = None,
        decode: Optional[Callable] = None,
        on_failure: Optional[Callable[[SweepTask, SimulationError], None]] = None,
    ) -> Dict[str, object]:
        """Run every task; return ``{task.key: result}`` in task order.

        With a ``checkpoint``, finished keys are restored via ``decode``
        instead of recomputed, and every completion is persisted via
        ``encode`` (both must be given together; values must be
        JSON-serialisable).  A point that exhausts its retries raises,
        unless ``on_failure`` is given — then the hook is called and the
        key is left out of the result dict (the hook may record a
        stand-in itself).
        """
        if (encode is None) != (decode is None):
            raise ConfigurationError(
                "checkpoint encode/decode must be given together"
            )
        if checkpoint is not None and encode is None:
            raise ConfigurationError(
                "a checkpoint needs encode/decode functions"
            )
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate sweep task keys in {keys}")

        results: Dict[str, object] = {}
        todo: List[SweepTask] = []
        for task in tasks:
            if checkpoint is not None and task.key in checkpoint:
                results[task.key] = decode(checkpoint.get(task.key))
            else:
                todo.append(task)

        if todo:
            if self.jobs == 1:
                self._run_inline(todo, results, checkpoint, encode, on_failure)
            else:
                self._run_pool(todo, results, checkpoint, encode, on_failure)
        # task order, not completion order
        return {key: results[key] for key in keys if key in results}

    # ------------------------------------------------------------------

    def _record(
        self,
        task: SweepTask,
        result,
        results: Dict[str, object],
        checkpoint: Optional[SweepCheckpoint],
        encode: Optional[Callable],
    ) -> None:
        results[task.key] = result
        if checkpoint is not None:
            checkpoint.put(task.key, encode(result))

    def _run_inline(self, todo, results, checkpoint, encode, on_failure) -> None:
        for task in todo:
            try:
                result = _run_task(task, self.attempts, self.point_timeout)
            except SimulationError as exc:
                if on_failure is None:
                    raise
                self._say(f"point {task.key} failed: {exc}")
                on_failure(task, exc)
                continue
            self._record(task, result, results, checkpoint, encode)

    def _run_pool(self, todo, results, checkpoint, encode, on_failure) -> None:
        """Process-pool path with bounded crash recovery.

        A ``BrokenProcessPool`` (a worker died without raising — OOM
        kill, segfault, interpreter abort) voids every in-flight future,
        so the whole unfinished remainder is resubmitted to a fresh pool
        with crash-reseeded experiments.  Points that already completed
        (or failed with a proper error) are never rerun.
        """
        # pool machinery (-> multiprocessing, socket): 21 ms no inline run needs
        from concurrent.futures.process import BrokenProcessPool
        pending = list(todo)
        crashes = 0
        while pending:
            try:
                pending = self._run_pool_round(
                    pending, results, checkpoint, encode, on_failure
                )
            except BrokenProcessPool:
                crashes += 1
                if crashes > self.crash_retries:
                    raise SimulationError(
                        f"sweep worker pool crashed {crashes} times; "
                        f"{len(pending)} points unfinished "
                        f"({', '.join(t.key for t in pending[:5])}...)"
                    )
                self._say(
                    f"worker pool crashed (attempt {crashes}/"
                    f"{self.crash_retries}); resubmitting "
                    f"{len(pending)} points with reseed"
                )
                pending = [
                    replace(
                        task,
                        experiment=replace(
                            task.experiment,
                            seed=task.experiment.seed
                            + crashes * CRASH_RESEED_STEP,
                        ),
                    )
                    for task in pending
                ]

    def _run_pool_round(
        self, pending, results, checkpoint, encode, on_failure
    ) -> List[SweepTask]:
        """One pool lifetime; returns tasks still unfinished on crash."""
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        unfinished = {task.key: task for task in pending}
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(
                    _run_task, task, self.attempts, self.point_timeout
                ): task
                for task in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    task = futures[future]
                    try:
                        result = future.result()  # BrokenProcessPool: to _run_pool
                    except SimulationError as exc:
                        del unfinished[task.key]
                        if on_failure is None:
                            raise
                        self._say(f"point {task.key} failed: {exc}")
                        on_failure(task, exc)
                        continue
                    del unfinished[task.key]
                    self._record(task, result, results, checkpoint, encode)
        return [task for task in pending if task.key in unfinished]
