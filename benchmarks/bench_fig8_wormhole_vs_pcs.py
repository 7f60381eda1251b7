"""Figure 8 — MediaWorm vs a PCS router (8x8, 100 Mbps, 24 VCs).

Paper's claims: "wormhole routing can support jitter-free performance
only up to a load of about 0.7 compared to over 0.8 in the case of
PCS"; PCS achieves this "at the cost of ... a very high number of
dropped connections" (around 60% of requests are turned down at a load
of 0.7), while wormhole accepts every stream.
"""

from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.report import figure_to_text
from repro.experiments.validation import check_claims, claims_to_text


def bench_fig8_wormhole_vs_pcs(benchmark, profile, executor):
    spec = PAPER["fig8"]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(figure_to_text(fig))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
