"""Table 2 — average best-effort latency per traffic mix and load.

Paper's claims: "For a given mix, the latency degrades with an increase
in the load.  The presence of real-time traffic also increases the
latency of the best-effort traffic at a given load.  This is a
consequence of the higher priority given by the Virtual Clock algorithm
to the real-time traffic."  Real-time-dominant mixes saturate at the
top loads (the 'Sat.' cells).
"""

from conftest import run_once

from repro.analysis.series import monotonic_tail
from repro.experiments.figures import PAPER
from repro.experiments.report import table2_to_text


def bench_table2_besteffort_latency(benchmark, profile, executor):
    spec = PAPER["table2"]
    table = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(table2_to_text(table))

    # Latency grows with load for every mix (10% tolerance for noise).
    for mix in table.mixes:
        series = [table.cell(mix, load) for load in table.loads]
        floor = max(x for x in series if x == x)
        assert monotonic_tail(series, tolerance=0.1 * floor), (
            f"latency not increasing with load for mix {mix}: {series}"
        )

    # At a fixed moderate load, latency grows with the real-time share.
    for load in (0.6, 0.7, 0.8):
        by_share = [
            table.cell(mix, load)
            for mix in sorted(table.mixes, key=lambda m: m[0])
        ]
        assert monotonic_tail(by_share, tolerance=0.25 * max(by_share)), (
            f"latency not increasing with rt share at load {load}: {by_share}"
        )

    # The real-time-dominant mix at the top load is the worst cell.
    top = table.loads[-1]
    heavy = table.cell((90, 10), top)
    light = table.cell((20, 80), top)
    assert heavy > light
