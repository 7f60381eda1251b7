#!/usr/bin/env python
"""Topology shoot-out: single switch vs fat mesh vs fat tree.

Section 3.4 of the paper motivates "fat" topologies for clusters:
multiple endpoints per switch put more than one endpoint's worth of
load on inter-switch links, so those links are doubled (fat mesh) or
aggregated through spine switches (fat tree).  This example offers the
same per-host mixed load to three cluster fabrics built from MediaWorm
switches and compares the delivered QoS:

* a single 8-port switch (the paper's main testbed, no inter-switch
  links at all);
* the paper's 2x2 fat mesh (16 hosts, two links per neighbour pair);
* a 4-leaf / 2-spine fat tree (8 hosts, adaptive up-link choice).

Run with:  python examples/topology_comparison.py [--load 0.8]
"""

import argparse

from repro import (
    FatMeshExperiment,
    FatTreeExperiment,
    SingleSwitchExperiment,
    simulate,
)
from repro.experiments.report import format_table

RUN = dict(mix=(60, 40), scale=32.0, warmup_frames=2, measure_frames=5, seed=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.8)
    args = parser.parse_args()

    rows = []
    fabrics = (
        (
            "single switch (8 hosts)",
            SingleSwitchExperiment(load=args.load, **RUN),
        ),
        (
            "2x2 fat mesh (16 hosts)",
            FatMeshExperiment(load=args.load, **RUN),
        ),
        (
            "4-leaf fat tree (8 hosts)",
            FatTreeExperiment(
                load=args.load,
                leaves=4,
                spines=2,
                hosts_per_leaf=2,
                fat_width=1,
                **RUN,
            ),
        ),
    )
    # the experiment's type names its topology: one call runs all three
    for name, experiment in fabrics:
        result = simulate(experiment)
        metrics = result.metrics
        rows.append(
            [
                name,
                metrics.d,
                metrics.sigma_d,
                metrics.be_latency_us,
                len(result.workload.streams),
            ]
        )
        print(f"  done: {name}")

    print(f"\nmixed traffic 60:40 at load {args.load:g}:")
    print(
        format_table(
            ["fabric", "d (ms)", "sigma_d (ms)", "BE latency (us)",
             "streams"],
            rows,
        )
    )
    print(
        "\nreading: with balanced fat links every fabric keeps video at "
        "d = 33 ms; multi-switch fabrics pay a little extra best-effort "
        "latency for the inter-switch hops."
    )


if __name__ == "__main__":
    main()
