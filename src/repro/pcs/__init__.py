"""Pipelined circuit switching (PCS) baseline (paper sections 3.5, 5.6).

PCS is connection oriented: a setup probe walks the deterministic path
reserving one dedicated virtual channel per physical channel; the
destination returns an acknowledgment, after which the stream's flits
flow pipelined over the reserved circuit.  A hop without a free VC
NACKs the probe and the connection attempt is *dropped* (no
backtracking with deterministic routing); the source may retry after a
backoff.

A PCS run is an ordinary ``simulate(PCSExperiment(...))``: the
experiment names the circuit router (Virtual Clock, no real-time VC
partition, zero routing and arbitration delay) and supplies
:class:`~repro.pcs.workload.PCSWorkload` as its traffic, so the data phase runs on the same
flit-level substrate as the wormhole studies.  Every circuit holds
exclusive VCs end to end, so the only contention PCS traffic sees is
the physical-channel multiplexing that bandwidth was reserved for —
exactly the property that lets PCS deliver jitter-free streams at high
loads at the cost of dropped connections and one VC per stream.
"""
