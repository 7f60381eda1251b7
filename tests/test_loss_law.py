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
out (``m = 2``), and best-effort messages are 20 flits.  Each check
allows three binomial (or geometric-mean) standard deviations of the
run's own message count; the seed is fixed, so each row is also a pin.
"""

import math

import pytest

from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.runner import simulate
from repro.faults import FaultPlan, RecoveryConfig
from repro.traffic.mix import BE_MESSAGE_SIZE

LINKS_CROSSED = 2


def run(loss_prob, max_retries):
    """Fault and transport accounting of one lossy best-effort run."""
    experiment = SingleSwitchExperiment(
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


def survival(loss_prob):
    """``q``: the chance one attempt crosses every link intact."""
    return (1 - loss_prob) ** (BE_MESSAGE_SIZE * LINKS_CROSSED)


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
