"""Parallel sweep execution: a process pool over independent points.

Every sweep in this repo (figure load sweeps, table grids, fault
campaigns) is a bag of independent points — each builds its own network
and its own :class:`~repro.sim.rng.RngStreams` from the experiment's
seed, so points share no state and their results cannot depend on
execution order.  That makes them safe to farm out to worker processes:
a point computed in a pool worker is bit-identical to the same point
computed inline.

The executor is the one way a sweep runs (inline at ``jobs=1``), and it
runs every point exactly once, as the experiment its task names: a
point's result is always that experiment's result, never another
seed's.

* **a failing point** — a :class:`~repro.errors.SimulationError`
  (deadlock, watchdog, ``point_timeout``) gets no second attempt; it
  goes to the caller's ``on_failure`` hook, or propagates;
* **a worker crash** — a worker process dying (OOM kill, segfault)
  breaks the pool; the executor rebuilds it and resubmits the
  unfinished tasks unchanged, at most :data:`POOL_CRASHES` times.  A
  crash is the host's fault, not the experiment's, so rerunning the
  same experiment gives the result the crash interrupted.

Storing results is the caller's business: every completion is handed to
``on_result`` as it arrives (:func:`~repro.experiments.campaign
.run_plans` restores and persists there).

Results cross the process boundary in *portable* form (live workloads
replaced by their summaries — see
:meth:`~repro.experiments.runner.ExperimentResult.portable`); for
uniformity the executor portable-izes inline (``jobs=1``) results too,
so downstream code sees the same shapes regardless of job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.resilience import wall_clock_limit

#: worker-pool crashes one sweep survives; the next one raises
POOL_CRASHES = 2


@dataclass(frozen=True)
class SweepTask:
    """One independent sweep point: run ``runner(experiment)``.

    ``key`` names the point in result dicts and the result store (e.g.
    ``"mediaworm@0.8"``); keys must be unique within one sweep.  Both
    ``runner`` and ``experiment`` must be picklable — in practice
    ``simulate`` (or a module-level point function that calls it) plus
    an experiment dataclass.
    """

    key: str
    runner: Callable
    experiment: object


def _run_task(task: SweepTask, point_timeout: Optional[float] = None):
    """Worker body: one point, one attempt, within ``point_timeout``
    seconds of wall clock (None: unbounded).

    Module-level so the process pool can pickle it.  Returns the
    portable result; a :class:`~repro.errors.SimulationError` — the
    limit's :class:`~repro.errors.PointTimeoutError` included —
    propagates back through the future.
    """
    with wall_clock_limit(point_timeout):
        result = task.runner(task.experiment)
    portable = getattr(result, "portable", None)
    return portable() if portable is not None else result


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
        attempts: int = 1,
        log: Optional[Callable[[str], None]] = None,
        point_timeout: Optional[float] = None,
    ) -> None:
        """``attempts`` accepts only 1: every point runs once.  The
        keyword stays for callers that still spell ``attempts=1``."""
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if attempts != 1:
            raise ConfigurationError(
                f"a point runs exactly once (attempts=1), got {attempts}"
            )
        if point_timeout is not None and point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be > 0 seconds, got {point_timeout}"
            )
        self.jobs = jobs
        self.log = log
        #: wall-clock budget for one point, in seconds (None =
        #: unbounded); enforced inside the point's own worker
        self.point_timeout = point_timeout

    # ------------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def run(
        self,
        tasks: Sequence[SweepTask],
        on_result: Optional[Callable[[SweepTask, object], None]] = None,
        on_failure: Optional[Callable[[SweepTask, SimulationError], None]] = None,
    ) -> Dict[str, object]:
        """Run every task; return ``{task.key: result}`` in task order.

        ``on_result(task, result)`` is called for each completion as it
        arrives.  A point that raises a
        :class:`~repro.errors.SimulationError` ends the sweep, unless
        ``on_failure`` is given — then the hook is called and the key is
        left out of the result dict (the hook may record a stand-in
        itself).
        """
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate sweep task keys in {keys}")

        results: Dict[str, object] = {}

        def finish(task: SweepTask, outcome) -> None:
            """File one point's result, or its ``SimulationError``."""
            if isinstance(outcome, SimulationError):
                if on_failure is None:
                    raise outcome
                self._say(f"point {task.key} failed: {outcome}")
                on_failure(task, outcome)
                return
            results[task.key] = outcome
            if on_result is not None:
                on_result(task, outcome)

        if tasks:
            run = self._run_inline if self.jobs == 1 else self._run_pool
            run(tasks, finish)
        # task order, not completion order
        return {key: results[key] for key in keys if key in results}

    # ------------------------------------------------------------------

    def _run_inline(self, todo, finish) -> None:
        for task in todo:
            try:
                outcome = _run_task(task, self.point_timeout)
            except SimulationError as exc:
                outcome = exc
            finish(task, outcome)

    def _run_pool(self, todo, finish) -> None:
        """Process-pool path with bounded crash recovery.

        A ``BrokenProcessPool`` (a worker died without raising — OOM
        kill, segfault, interpreter abort) voids every in-flight future,
        so the whole unfinished remainder is resubmitted, unchanged, to
        a fresh pool.  Points that already completed (or failed with a
        proper error) are never rerun.
        """
        # pool machinery (-> multiprocessing, socket): 21 ms no inline run needs
        from concurrent.futures.process import BrokenProcessPool
        pending = list(todo)
        crashes = 0
        while pending:
            try:
                pending = self._run_pool_round(pending, finish)
            except BrokenProcessPool:
                crashes += 1
                if crashes > POOL_CRASHES:
                    raise SimulationError(
                        f"sweep worker pool crashed {crashes} times; "
                        f"{len(pending)} points unfinished "
                        f"({', '.join(t.key for t in pending[:5])}...)"
                    )
                self._say(
                    f"worker pool crashed (crash {crashes}/{POOL_CRASHES}); "
                    f"resubmitting {len(pending)} points"
                )

    def _run_pool_round(self, pending, finish) -> List[SweepTask]:
        """One pool lifetime; returns tasks still unfinished on crash."""
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        unfinished = {task.key: task for task in pending}
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(_run_task, task, self.point_timeout): task
                for task in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    task = futures[future]
                    try:
                        outcome = future.result()  # BrokenProcessPool: to _run_pool
                    except SimulationError as exc:
                        outcome = exc
                    del unfinished[task.key]
                    finish(task, outcome)
        return [task for task in pending if task.key in unfinished]
