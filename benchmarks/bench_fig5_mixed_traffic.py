"""Figure 5 — mixed traffic: VBR jitter across real-time proportions.

Paper's claim: "up to an input load of 0.80, there is no jitter for VBR
traffic regardless of the mix between these two traffic classes.
Beyond a load of 0.80, it is only when the real-time traffic becomes a
dominant component, does the jitter become significant."
"""

from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.report import figure_to_text
from repro.experiments.validation import check_claims, claims_to_text


def bench_fig5_mixed_traffic(benchmark, profile, executor):
    spec = PAPER["fig5"]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(figure_to_text(fig))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
