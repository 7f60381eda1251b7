"""Network layer: links, host interfaces, topologies, the simulator.

This package assembles routers (:mod:`repro.router`) into systems — a
single switch with one host per port, the paper's 2x2 fat mesh, fat
trees and butterflies (:mod:`repro.network.topology`) — and runs the
cycle loop that moves flits between them.
"""
