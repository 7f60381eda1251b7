"""Structured tracing, profiling, and invariant checking (``repro.obs``).

The observability layer: typed flit-lifecycle events
(:mod:`repro.obs.events`) emitted from instrumentation points across
the router/network/transport stack into pluggable sinks
(:mod:`repro.obs.sinks`), with an event-driven
:class:`~repro.obs.invariants.InvariantChecker`, a Chrome-trace/Perfetto
exporter (:mod:`repro.obs.chrometrace`), and a simulation-loop profiler
(:mod:`repro.obs.profile`).  Disabled, the cycle loop's kernels pay one
``is None`` test per emission site, object code one per hook, and the
profiler nothing: it wraps the phase calls of a profiled run only.
See ``docs/simulator-internals.md``
("Tracing and invariants") for the taxonomy and the overhead contract.
"""
