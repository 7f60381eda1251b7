#!/usr/bin/env python
"""Scheduler shootout: Virtual Clock vs FIFO vs round-robin.

Sweeps the input load on the 8-port MediaWorm switch under the paper's
80:20 VBR/best-effort mix and prints a side-by-side comparison of the
three multiplexer scheduling policies.  This is the experiment behind
the paper's Fig. 3, extended with the round-robin baseline the
conclusion mentions as the other "rate agnostic" scheduler.

Expected shape: all three are jitter-free at low load; near saturation
the rate-agnostic schedulers drift (d > 33 ms, sigma_d grows) while
Virtual Clock holds the frame rate, at the price of best-effort latency.

Run with:  python examples/scheduler_shootout.py
"""

from repro import SchedulingPolicy, SingleSwitchExperiment, simulate
from repro.experiments.report import format_table

LOADS = (0.6, 0.8, 0.9, 0.96)
POLICIES = (
    SchedulingPolicy.VIRTUAL_CLOCK,
    SchedulingPolicy.FIFO,
    SchedulingPolicy.ROUND_ROBIN,
)


def main() -> None:
    rows = []
    for load in LOADS:
        for policy in POLICIES:
            experiment = SingleSwitchExperiment(
                load=load,
                mix=(80, 20),
                scheduler=policy,
                scale=25.0,
                warmup_frames=2,
                measure_frames=6,
                seed=1,
            )
            metrics = simulate(experiment).metrics
            rows.append(
                [
                    f"{load:g}",
                    policy,
                    metrics.d,
                    metrics.sigma_d,
                    metrics.be_latency_us,
                    "yes" if metrics.is_jitter_free() else "no",
                ]
            )
            print(f"  done: load={load:g} policy={policy}")
    print()
    print(
        format_table(
            ["load", "scheduler", "d (ms)", "sigma_d (ms)",
             "BE latency (us)", "jitter-free"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
