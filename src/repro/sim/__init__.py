"""Simulation kernel: clock, event heap, RNG streams, unit conversions.

The simulator is *cycle accurate* at the router level: one simulation
time unit is one router cycle, defined as the time a physical channel
needs to transfer one flit.  :class:`~repro.sim.units.LinkSpec` converts
between wall-clock quantities (Mbps, milliseconds) and simulation
quantities (flits, cycles), and :class:`~repro.sim.units.WorkloadScale`
shrinks workload time constants while preserving every bandwidth ratio,
which is what makes long flit-level runs tractable in pure Python.
"""
