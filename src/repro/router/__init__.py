"""Wormhole router substrate: flits, buffers, crossbar, pipeline.

Implements the 5-stage PROUD pipelined router of the paper's Fig. 1
with credit-based virtual-channel flow control, a multiplexed or full
crossbar, and pluggable multiplexer scheduling (see
:mod:`repro.core.schedulers`).
"""
