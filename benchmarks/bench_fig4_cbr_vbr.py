"""Figure 4 — CBR vs VBR traffic (16 VCs, 400 Mbps, no best-effort).

Paper's claim: both classes "exhibit nearly identical performance, with
the CBR traffic experiencing jitter-free performance for slightly
higher load" — constant frames are intrinsically easier to deliver on
time than normally-distributed ones.
"""

from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.report import figure_to_text
from repro.experiments.validation import check_claims, claims_to_text


def bench_fig4_cbr_vs_vbr(benchmark, profile, executor):
    spec = PAPER["fig4"]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(figure_to_text(fig))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
