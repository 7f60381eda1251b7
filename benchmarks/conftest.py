"""Benchmark harness configuration.

Every benchmark regenerates one figure/table of the paper's evaluation,
prints the reproduced rows/series (compare them against EXPERIMENTS.md),
and asserts the paper's qualitative shape.

The workload profile is selected with the ``REPRO_BENCH_PROFILE``
environment variable:

* ``quick``   (default) — scale 40, ~30 s-2 min per figure;
* ``default`` — scale 20, the EXPERIMENTS.md setting;
* ``full``    — paper-faithful scale 1 (hours; for final validation).

``REPRO_BENCH_JOBS=N`` runs each sweep's points in N worker processes;
per-point results are bit-identical to the serial run, so the shape
assertions are unaffected and only the wall clock changes.
"""

import os

import pytest

from repro.experiments.campaign import PROFILES
from repro.experiments.parallel import ParallelSweepExecutor


@pytest.fixture(scope="session")
def profile():
    """The RunProfile benchmarks execute under."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    try:
        return PROFILES[name]
    except KeyError:
        raise pytest.UsageError(
            f"REPRO_BENCH_PROFILE={name!r}; expected one of {sorted(PROFILES)}"
        )


@pytest.fixture(scope="session")
def executor():
    """Sweep executor from REPRO_BENCH_JOBS (inline at 1, the default)."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    if jobs < 1:
        raise pytest.UsageError(f"REPRO_BENCH_JOBS must be >= 1, got {jobs}")
    return ParallelSweepExecutor(jobs=jobs)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulation sweeps are deterministic and expensive; a single round
    both times the sweep and returns its data for shape assertions.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
