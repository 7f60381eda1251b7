"""Wormhole router substrate: flits, buffers, crossbar, pipeline.

Implements the 5-stage PROUD pipelined router of the paper's Fig. 1
with credit-based virtual-channel flow control, a multiplexed or full
crossbar, and pluggable multiplexer scheduling (see
:mod:`repro.core.schedulers`).
"""

from repro.router.flit import Message, TrafficClass, messages_for_frame
from repro.router.buffers import InputVC, OutputVC
from repro.router.config import (
    CrossbarKind,
    QosPlacement,
    RouterConfig,
    RoutingMode,
)
from repro.router.router import WormholeRouter
from repro.router.routeprog import (
    CompiledRouting,
    RouteProgram,
    compile_routes,
)

__all__ = [
    "CompiledRouting",
    "CrossbarKind",
    "InputVC",
    "Message",
    "OutputVC",
    "QosPlacement",
    "RouteProgram",
    "RouterConfig",
    "RoutingMode",
    "TrafficClass",
    "WormholeRouter",
    "compile_routes",
    "messages_for_frame",
]
