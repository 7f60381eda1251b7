"""The loss law: i.i.d. flit loss against its closed form.

A message of ``S`` flits that crosses ``m`` links, each losing a flit
with probability ``p``, survives one attempt with probability
``q = (1 - p) ** (S * m)``.  With a timeout long enough never to fire
(link-level loss detection tears a broken worm down at once) and
``max_retries = R``, the attempts per message follow a geometric law
truncated at ``R + 1``:

* a message is abandoned with probability ``(1 - q) ** (R + 1)``;
* the mean retransmissions per original are
  ``(1 - (1 - q) ** (R + 1)) / q - 1``, which is ``1 / q - 1`` once
  ``R`` is large.

On the single switch every route is the host link in and the host link
out (``m = 2``).  On the 2x2 fat mesh with one host per router a route
also crosses one router-to-router link to a neighbour (``m = 3``) or two
to the diagonal router (``m = 4``); there the expected retransmissions
are each route length's ``1 / q_m - 1``, weighted by its share of the
originals.  Best-effort messages are 20 flits.  Each check allows three
binomial (or geometric-mean) standard deviations of the run's own
message count; the seed is fixed, so each row is also a pin.
"""

import math
from collections import Counter, deque

import pytest

from repro.experiments.config import FatMeshExperiment, SingleSwitchExperiment
from repro.experiments.runner import simulate
from repro.faults import FaultPlan, RecoveryConfig
from repro.traffic.mix import BE_MESSAGE_SIZE

LINKS_CROSSED = 2


def run(loss_prob, max_retries, cls=SingleSwitchExperiment, **shape):
    """Fault and transport accounting of one lossy best-effort run."""
    experiment = cls(
        **shape,
        load=0.3,
        mix=(0, 100),
        scheduler="fifo",
        vcs_per_pc=4,
        scale=100.0,
        warmup_frames=1,
        measure_frames=2,
        seed=1,
        faults=FaultPlan(flit_loss_prob=loss_prob),
        recovery=RecoveryConfig(timeout=4000, max_retries=max_retries),
    )
    stats = simulate(experiment).fault_stats
    # every loss was caught at the link, none waited for the timeout
    assert stats["timeouts"] == 0
    assert stats["loss_kills"] == stats["flits_lost"] > 0
    return stats


def survival(loss_prob, links=LINKS_CROSSED):
    """``q``: the chance one attempt crosses every link intact."""
    return (1 - loss_prob) ** (BE_MESSAGE_SIZE * links)


@pytest.mark.parametrize("max_retries", [0, 1, 2])
def test_abandoned_fraction(max_retries):
    stats = run(0.02, max_retries)
    resolved = stats["delivered"] + stats["abandoned"]
    expected = (1 - survival(0.02)) ** (max_retries + 1)
    sigma = math.sqrt(expected * (1 - expected) / resolved)
    measured = stats["abandoned"] / resolved
    assert abs(measured - expected) <= 3 * sigma, (measured, expected, sigma)


def test_retransmissions_per_original():
    max_retries = 30
    stats = run(0.005, max_retries)
    q = survival(0.005)
    expected = (1 - (1 - q) ** (max_retries + 1)) / q - 1
    assert expected == pytest.approx(1 / q - 1)
    # retransmissions per message: geometric, variance (1 - q) / q**2
    sigma = math.sqrt((1 - q) / q**2 / stats["originals"])
    measured = stats["retransmissions"] / stats["originals"]
    assert abs(measured - expected) <= 3 * sigma, (measured, expected, sigma)
    assert stats["abandoned"] == 0


class RouteCensus:
    """Network hook counting originals by the links their route crosses:
    the host link in, the router hops (breadth-first over the fabric's
    channels) and the host link out."""

    def __init__(self):
        self.originals = Counter()

    def __call__(self, network):
        topology = network.topology
        neighbours = {}
        for src, _, dst, _ in topology.channels:
            neighbours.setdefault(src, set()).add(dst)
        router_of = {node: rid for node, rid, _ in topology.hosts}
        transport = network.transport
        track = transport.on_inject

        def on_inject(msg):
            # a retransmission is tracked already: count what the
            # transport counts as a new original
            before = transport.stats.originals
            track(msg)
            if transport.stats.originals > before:
                hops = _hops(
                    neighbours, router_of[msg.src_node], router_of[msg.dst_node]
                )
                self.originals[2 + hops] += 1

        transport.on_inject = on_inject


def _hops(neighbours, src, dst):
    """Router-to-router links on a shortest path from ``src`` to ``dst``."""
    depth = {src: 0}
    frontier = deque([src])
    while frontier:
        rid = frontier.popleft()
        for nxt in neighbours.get(rid, ()):
            if nxt not in depth:
                depth[nxt] = depth[rid] + 1
                frontier.append(nxt)
    return depth[dst]


def test_retransmissions_per_original_on_the_fat_mesh():
    loss_prob, max_retries = 0.005, 30
    census = RouteCensus()
    stats = run(
        loss_prob,
        max_retries,
        cls=FatMeshExperiment,
        hosts_per_router=1,
        network_hook=census,
    )
    originals = census.originals
    assert set(originals) == {3, 4}
    assert sum(originals.values()) == stats["originals"]
    # each original's retransmissions are geometric in its own q_m
    q = {m: survival(loss_prob, m) for m in originals}
    expected = sum(n * (1 / q[m] - 1) for m, n in originals.items())
    variance = sum(n * (1 - q[m]) / q[m] ** 2 for m, n in originals.items())
    total = stats["originals"]
    measured = stats["retransmissions"] / total
    sigma = math.sqrt(variance) / total
    assert abs(measured - expected / total) <= 3 * sigma, (
        measured, expected / total, sigma,
    )
    assert stats["abandoned"] == 0
