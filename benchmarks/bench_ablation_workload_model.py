"""Ablations on the workload-modelling decisions recorded in DESIGN.md.

Three substitutions this reproduction makes are measured here so their
effect is documented rather than assumed:

1. **Balanced stream destinations** — marginally uniform, but assigned
   round-robin so no output link draws more real-time load than the
   others.  With fully i.i.d. draws the binomial imbalance can push one
   output link's real-time load high enough to starve best-effort
   traffic there.
2. **Best-effort destination-VC fallback** — a best-effort message
   whose drawn destination VC is busy may take a free sibling VC
   (real-time streams always bind, preserving connection semantics).
   Strict binding wastes grants on head-of-line waiting.
3. **Workload scaling** — shrinking the workload's time constants must
   not manufacture jitter: sigma_d should shrink (toward the paper's
   zero) as the scale factor approaches 1.
"""

from dataclasses import replace

from conftest import run_once

from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.report import format_table
from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.network.topology import single_switch
from repro.sim.rng import RngStreams
from repro.traffic.mix import build_workload

LOAD = 0.9


def _run_custom(profile, balanced=True, binding=False, scale=None):
    experiment = SingleSwitchExperiment(
        load=LOAD,
        mix=(80, 20),
        scale=scale if scale is not None else profile.scale,
        warmup_frames=profile.warmup_frames,
        measure_frames=profile.measure_frames,
    )
    collector = MetricsCollector(
        experiment.timebase, warmup=experiment.warmup_cycles
    )
    config = replace(
        experiment.router_config(experiment.num_ports),
        be_dst_vc_binding=binding,
    )
    network = Network(
        single_switch(experiment.num_ports),
        config,
        on_message=collector.on_message,
    )
    workload_config = experiment.workload_config()
    workload_config.balanced_destinations = balanced
    build_workload(network, workload_config, RngStreams(experiment.seed))
    network.run(experiment.total_cycles)
    return collector.snapshot()


def bench_ablation_destination_balance(benchmark, profile):
    def sweep():
        return {
            "balanced": _run_custom(profile, balanced=True),
            "iid": _run_custom(profile, balanced=False),
        }

    results = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["destinations", "d (ms)", "sigma_d (ms)", "BE latency (us)"],
            [
                [k, m.d, m.sigma_d, m.be_latency_us]
                for k, m in results.items()
            ],
        )
    )
    balanced, iid = results["balanced"], results["iid"]
    # Real-time jitter is comparable either way (Virtual Clock protects
    # it); the imbalance cost lands on best-effort latency.
    assert balanced.sigma_d <= iid.sigma_d + 1.0
    assert balanced.be_latency_us <= iid.be_latency_us * 1.5 + 5.0


def bench_ablation_be_vc_binding(benchmark, profile):
    def sweep():
        return {
            "fallback": _run_custom(profile, binding=False),
            "strict": _run_custom(profile, binding=True),
        }

    results = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["BE dst-VC policy", "d (ms)", "sigma_d (ms)", "BE latency (us)"],
            [
                [k, m.d, m.sigma_d, m.be_latency_us]
                for k, m in results.items()
            ],
        )
    )
    fallback, strict = results["fallback"], results["strict"]
    # The fallback never hurts best-effort and leaves real-time alone.
    assert fallback.be_latency_us <= strict.be_latency_us * 1.2 + 5.0
    assert abs(fallback.d - strict.d) < 1.0


def bench_ablation_workload_scale(benchmark, profile):
    scales = (40.0, 20.0, 10.0)

    def sweep():
        return {s: _run_custom(profile, scale=s) for s in scales}

    results = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["scale", "d (ms)", "sigma_d (ms)"],
            [[s, m.d, m.sigma_d] for s, m in results.items()],
        )
    )
    sigmas = [results[s].sigma_d for s in scales]
    # Finer scales never *add* jitter; every scale reports d ~ 33 ms.
    assert sigmas[-1] <= sigmas[0] + 0.2
    for metrics in results.values():
        assert abs(metrics.d - 33.0) < 1.0
