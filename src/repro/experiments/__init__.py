"""Experiment harness: one point runner, one sweep skeleton, specs.

:func:`repro.experiments.runner.simulate` runs one configuration on
the topology the experiment's type names; every sweep is a
:class:`~repro.experiments.campaign.Campaign` spec —
:data:`repro.experiments.figures.PAPER` holds Figures 3-9 and Tables
2-3 — run by ``Campaign.run`` on a
:class:`~repro.experiments.parallel.ParallelSweepExecutor`.
"""
