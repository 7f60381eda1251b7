"""Figure 9 — the (2x2) fat mesh under mixed traffic.

Paper's claims: "VBR performance remains good for smaller proportions
of VBR traffic (40% and 60%) even for a total input load of 0.9 ...
Only at a load of 0.9 with 80% of traffic being VBR, does VBR
performance degrade"; and "for any given load, average latency of
best-effort traffic increases with increasing proportion of VBR
traffic" (Fig. 9c).
"""

from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.report import figure_to_text
from repro.experiments.validation import check_claims, claims_to_text


def bench_fig9_fat_mesh(benchmark, profile, executor):
    spec = PAPER["fig9"]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(figure_to_text(fig, show_be_latency=True))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
