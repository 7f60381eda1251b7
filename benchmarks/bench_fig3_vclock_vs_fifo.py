"""Figure 3 — Virtual Clock vs FIFO scheduling (16 VCs, 80:20 mix).

Paper's claim: the FIFO router's d and sigma_d "start growing beyond a
load of 0.8", while the Virtual Clock router delivers jitter-free up to
a link load of 0.96.
"""

from conftest import run_once

from repro.analysis import dominates, max_jitter_free_load
from repro.experiments.figures import PAPER
from repro.experiments.report import figure_to_text
from repro.experiments.validation import check_claims, claims_to_text


def bench_fig3_virtual_clock_vs_fifo(benchmark, profile, executor):
    spec = PAPER["fig3"]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(figure_to_text(fig))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
