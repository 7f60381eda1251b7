"""Structured tracing and invariant checking (``repro.obs``).

The observability layer: typed flit-lifecycle events
(:mod:`repro.obs.events`) emitted from instrumentation points across
the router/network/transport stack into pluggable sinks
(:mod:`repro.obs.sinks`), with an event-driven
:class:`~repro.obs.invariants.InvariantChecker` and a
Chrome-trace/Perfetto exporter (:mod:`repro.obs.chrometrace`).
Disabled, the cycle loop's kernels pay one ``is None`` test per
emission site and object code one per hook.  The loop's per-phase wall
time needs nothing from here: every run reports it
(``ExperimentResult.phase_seconds``).
See ``docs/simulator-internals.md``
("Tracing and invariants") for the taxonomy and the overhead contract.
"""
