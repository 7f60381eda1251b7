#!/usr/bin/env python
"""Quickstart: one MediaWorm router carrying video and best-effort traffic.

Builds the paper's 8-port, 16-VC MediaWorm switch, offers an 80:20 mix
of MPEG-2 VBR streams and best-effort messages at 70% link load, and
prints the three numbers the paper's evaluation revolves around:

* d        — mean frame delivery interval (33 ms = on-time playback)
* sigma_d  — its standard deviation (0 = jitter-free)
* BE lat.  — average best-effort message latency

Run with:  python examples/quickstart.py
"""

from repro import SingleSwitchExperiment, simulate


def main() -> None:
    experiment = SingleSwitchExperiment(
        load=0.7,            # fraction of each 400 Mbps input link
        mix=(80, 20),        # real-time : best-effort
        num_ports=8,
        vcs_per_pc=16,
        scale=20.0,          # workload shrink factor (1.0 = paper-faithful)
        warmup_frames=3,
        measure_frames=8,
        seed=1,
    )
    print(f"simulating {experiment.total_cycles:,} router cycles "
          f"({experiment.workload_config().streams_per_node()} video streams "
          f"per node)...")
    result = simulate(experiment)

    metrics = result.metrics
    print()
    print(f"offered load            : {result.achieved_load:.3f}")
    print(f"frames delivered        : {metrics.frames_delivered:,}")
    print(f"mean delivery interval d: {metrics.d:8.3f} ms  (nominal 33 ms)")
    print(f"jitter sigma_d          : {metrics.sigma_d:8.3f} ms")
    print(f"best-effort latency     : {metrics.be_latency_us:8.1f} us "
          f"({metrics.be_message_count:,} messages)")
    print()
    verdict = "jitter-free" if metrics.is_jitter_free() else "jittery"
    print(f"verdict: VBR delivery is {verdict} at load "
          f"{experiment.load:g} with Virtual Clock scheduling")


if __name__ == "__main__":
    main()
