"""Figure 6 — number of VCs and crossbar capability (100:0 traffic).

Paper's claims: "the 16 VC case gives jitter-free performance up to a
higher load compared to the 4 and 8 VC cases"; a full crossbar with
4 VCs "shows better performance than 8 VCs with multiplexed crossbar
and competitive performance compared to the 16 VC results".
"""

from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.report import figure_to_text
from repro.experiments.validation import check_claims, claims_to_text


def bench_fig6_vcs_and_crossbar(benchmark, profile, executor):
    spec = PAPER["fig6"]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(figure_to_text(fig))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
