"""Analysis helpers: jitter-free thresholds, series comparison.

These utilities turn raw sweep data into the qualitative claims the
paper makes — "jitter-free up to a load of 0.7-0.8", "FIFO degrades
beyond 0.8 while Virtual Clock holds to 0.96" — so EXPERIMENTS.md and
the test suite can check shapes rather than absolute numbers.
"""
