"""Ablation — effective jitter-free capacity per scheduler.

Condenses Fig. 3 into a single number per scheduler: the largest input
load (80:20 mix) each one serves jitter-free, found by bisection.  The
paper's summary: "a wormhole router can provide jitter-free delivery to
VBR/CBR traffic up to a load of 70-80% of physical channel bandwidth"
with rate-based scheduling, while the FIFO router gives up earlier.
"""

from conftest import run_once

from repro.analysis.saturation import find_saturation_load
from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.report import format_table
from repro.experiments.runner import simulate


def bench_ablation_jitter_free_capacity(benchmark, profile):
    def capacity_of(policy):
        def runner(load):
            metrics = simulate(
                SingleSwitchExperiment(
                    load=load,
                    mix=(80, 20),
                    scheduler=policy,
                    scale=profile.scale,
                    warmup_frames=profile.warmup_frames,
                    measure_frames=profile.measure_frames,
                    seed=profile.seed,
                )
            ).metrics
            return metrics.d, metrics.sigma_d

        return find_saturation_load(
            runner, low=0.6, high=1.05, tolerance=0.05
        )

    def sweep():
        return {
            policy: capacity_of(policy)
            for policy in (
                SchedulingPolicy.VIRTUAL_CLOCK,
                SchedulingPolicy.FIFO,
                SchedulingPolicy.ROUND_ROBIN,
            )
        }

    results = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["scheduler", "jitter-free capacity", "first jittery load",
             "probes"],
            [
                [policy, search.capacity, search.first_jittery,
                 len(search.probes)]
                for policy, search in results.items()
            ],
        )
    )

    vclock = results[SchedulingPolicy.VIRTUAL_CLOCK]
    fifo = results[SchedulingPolicy.FIFO]
    rr = results[SchedulingPolicy.ROUND_ROBIN]

    # Virtual Clock's capacity covers the paper's 70-80% band...
    assert vclock.capacity == vclock.capacity  # not nan
    assert vclock.capacity >= 0.8
    # ...and meets or beats both rate-agnostic schedulers.
    for other in (fifo, rr):
        other_cap = other.capacity if other.capacity == other.capacity else 0.0
        assert vclock.capacity >= other_cap - 0.051
