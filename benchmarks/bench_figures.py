"""Figures 3-9 of the paper, one benchmark per figure.

Each regenerates ``PAPER[name]`` at the selected profile, prints the
figure as ``mediaworm run`` does and the verdict on each of the
paper's claims for it (:mod:`repro.experiments.validation`, which
quotes them), and fails if a claim fails.  EXPERIMENTS.md records the
reproduced numbers and where each claim holds.
"""

import pytest
from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.validation import check_claims, claims_to_text

#: fig3 ... fig9; the tables have benchmarks of their own
FIGURES = [name for name in PAPER if name.startswith("fig")]


@pytest.mark.parametrize("name", FIGURES)
def bench_figure(benchmark, profile, executor, name):
    spec = PAPER[name]
    fig = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(spec.text(fig))
    results = check_claims(fig)
    print()
    print(claims_to_text(results))
    failed = [r for r in results if not r.passed]
    assert not failed, f"paper claims failed: {[r.claim for r in failed]}"
