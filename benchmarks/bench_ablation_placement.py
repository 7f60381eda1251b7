"""Ablation — where should the QoS scheduler run?

Section 3.3 of the paper argues the Virtual Clock scheduler belongs at
the crossbar input multiplexer (contention point A) of a multiplexed
crossbar, and that the output VC multiplexer (point C) is a weak
placement there because "at most one of the VCs of an output PC can
receive a flit from the multiplexed crossbar per router cycle", making
Virtual Clock behave like FIFO at that point.  This ablation measures
all placements on the same near-saturation workload.
"""

from conftest import run_once

from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.report import format_table
from repro.experiments.runner import simulate
from repro.router.config import QosPlacement

LOAD = 0.96
PLACEMENTS = (
    QosPlacement.INPUT_MUX,
    QosPlacement.VC_MUX,
    QosPlacement.BOTH,
    QosPlacement.NONE,
)


def bench_ablation_qos_placement(benchmark, profile):
    def sweep():
        results = {}
        for placement in PLACEMENTS:
            experiment = SingleSwitchExperiment(
                load=LOAD,
                mix=(80, 20),
                qos_placement=placement,
                scale=profile.scale,
                warmup_frames=profile.warmup_frames,
                measure_frames=profile.measure_frames,
            )
            results[placement] = simulate(experiment).metrics
        return results

    results = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["placement", "d (ms)", "sigma_d (ms)", "BE latency (us)"],
            [
                [p, m.d, m.sigma_d, m.be_latency_us]
                for p, m in results.items()
            ],
        )
    )

    point_a = results[QosPlacement.INPUT_MUX]
    point_c = results[QosPlacement.VC_MUX]
    both = results[QosPlacement.BOTH]
    none = results[QosPlacement.NONE]

    # The paper's placement (A) beats the all-FIFO router.
    assert point_a.sigma_d <= none.sigma_d + 0.2
    assert point_a.d <= none.d + 0.2

    # Adding C on top of A buys little (C is nearly idle as a decision
    # point on a multiplexed crossbar).
    assert abs(both.sigma_d - point_a.sigma_d) < 1.0

    # Point A is at least as good as point C alone.
    assert point_a.sigma_d <= point_c.sigma_d + 0.5
