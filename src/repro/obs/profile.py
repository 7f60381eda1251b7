"""Per-component wall-time profiling of the simulation loop.

A :class:`LoopProfiler` installed as ``network.profiler`` makes the
cycle loop (:class:`repro.sim.fused.FusedLoop`) bracket each per-cycle
phase — event firing, link delivery, NI steps, router steps — with
``perf_counter`` reads, accumulating where the wall time actually goes
(the question PR2's active-set work kept answering by hand).  Without a
profiler the loop pays a single ``is None`` check per phase, preserving
the zero-overhead contract; with one, the *simulation* is still
bit-identical — only wall time is observed.  The reference stepper
carries no timers: a profiled run on it reports zeros.

The totals surface as ``RunMetrics.profile`` (see
:meth:`repro.metrics.collector.MetricsCollector.attach_profiler`).
"""

from __future__ import annotations

from typing import Dict


class LoopProfiler:
    """Accumulated wall seconds per simulation-loop phase."""

    __slots__ = ("events_s", "links_s", "nis_s", "routers_s", "cycles")

    def __init__(self) -> None:
        #: scheduled-event firing (injections, probes, timeouts)
        self.events_s = 0.0
        #: link delivery (includes fault/health processing)
        self.links_s = 0.0
        #: host-interface injection steps
        self.nis_s = 0.0
        #: router pipeline steps (the ActivationScheduler-selected set)
        self.routers_s = 0.0
        #: cycles actually executed (clock jumps excluded)
        self.cycles = 0

    @property
    def total_s(self) -> float:
        return self.events_s + self.links_s + self.nis_s + self.routers_s

    def summary(self) -> Dict[str, float]:
        """Flat dict merged into ``RunMetrics.profile``."""
        return {
            "loop_events_s": self.events_s,
            "loop_links_s": self.links_s,
            "loop_nis_s": self.nis_s,
            "loop_routers_s": self.routers_s,
            "loop_total_s": self.total_s,
            "loop_cycles_executed": float(self.cycles),
        }
