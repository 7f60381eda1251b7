"""Per-component wall-time profiling of the simulation loop.

A :class:`LoopProfiler` installed as ``network.profiler`` wraps the
cycle loop's phase callables (:meth:`repro.sim.fused.FusedLoop._phases`:
event firing, link delivery, NI injection, the router phase) in
``perf_counter`` brackets at each run's entry, accumulating where the
wall time actually goes.  The loop itself never tests for a profiler,
and a profiled run is still bit-identical — only wall time is
observed.  The router-phase wrapper also counts the executed cycles.
The reference stepper wraps nothing: a profiled run on it reports
zeros.

The totals surface as ``RunMetrics.profile`` (see
:meth:`repro.metrics.collector.MetricsCollector.attach_profiler`).
"""

from __future__ import annotations

from time import perf_counter
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

    def wrap(self, fire, deliver, inject, route):
        """One run's four phase callables, each timed into its slot (the
        timer stops before the slot is touched); the router phase runs
        once per executed cycle, so it also counts it."""

        def timed_fire(clock):
            started = perf_counter()
            fire(clock)
            elapsed = perf_counter() - started
            self.events_s += elapsed

        def timed_deliver(clock):
            started = perf_counter()
            progress = deliver(clock)
            elapsed = perf_counter() - started
            self.links_s += elapsed
            return progress

        def timed_inject(clock):
            started = perf_counter()
            inject(clock)
            elapsed = perf_counter() - started
            self.nis_s += elapsed

        def timed_route(clock):
            started = perf_counter()
            route(clock)
            elapsed = perf_counter() - started
            self.routers_s += elapsed
            self.cycles += 1

        return timed_fire, timed_deliver, timed_inject, timed_route

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
