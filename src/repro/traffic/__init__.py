"""Workload generation: MPEG-2 VBR/CBR streams, best-effort, mixes.

Implements section 4.2 of the paper: VBR streams with Normal(16666 B,
3333 B) frame sizes every 33 ms (4 Mbps mean), CBR streams with constant
frames, best-effort messages of 20 flits at a constant rate to uniform
random destinations, and the x:y traffic mixes with statically
partitioned virtual channels.
"""
