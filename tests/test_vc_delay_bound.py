"""Virtual Clock's delay bound at one multiplexer (Zhang, 1991).

The oracle comes from outside the simulator: if every flow keeps to
its reserved rate and the reserved rates sum to at most the link, a
Virtual Clock multiplexer sends every flit by its stamp plus one flit
time.  The property drives the real register pair
(:class:`~repro.core.virtual_clock.VirtualClockState`) and the real
selection (:class:`~repro.core.schedulers.VirtualClockScheduler`) over
a mux that serves one flit per cycle; no network is built.

The exact discrete form, derived from ``stamp_arrival``:

* a flow whose arrivals are spaced at least its ``Vtick`` apart finds
  ``auxVC <= clock`` at every arrival (by induction, ``auxVC`` is the
  previous arrival plus ``Vtick``), so each stamp is exactly
  ``arrival + Vtick``;
* serving the least stamp is then earliest-deadline-first over unit
  jobs released at integer cycles with deadline ``stamp``.  In any
  window ``[t1, t2)`` of cycles, flow ``i`` has at most
  ``floor((t2 - t1) / Vtick_i)`` flits released at or after ``t1``
  with stamp below ``t2 + 1``, and ``sum floor(x_i) <= floor(sum x_i)
  <= t2 - t1`` when ``sum 1 / Vtick_i <= 1``, so demand never exceeds
  the ``t2 - t1`` cycles that window serves;
* hence a flit served in cycle ``t`` has left at ``t + 1 <=
  floor(stamp)``: departure <= stamp, one flit time inside Zhang's
  ``stamp + L_max / C``.  The bound is attained (last test).
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedulers import VirtualClockScheduler
from repro.core.virtual_clock import VirtualClockState

#: float stamps accumulate ``Vtick`` sums; this absorbs their rounding
EPS = 1e-9


def _vticks(draws, stretch):
    """Vticks whose rates sum to at most 1: each flow takes ``draw`` or
    the smallest integer the remaining capacity allows, whichever is
    larger (so small draws fill the link exactly), then every vtick is
    stretched by its factor ``>= 1`` (non-integer, rates only drop)."""
    vticks, left = [], Fraction(1)
    for draw, factor in zip(draws, stretch):
        if left <= 0:
            break
        vtick = max(draw, math.ceil(1 / left))
        left -= Fraction(1, vtick)
        vticks.append(vtick * factor)
    return vticks


@st.composite
def conforming_flows(draw):
    """``[(vtick, [arrival, ...]), ...]`` for one mux: each flow's
    arrivals are integer cycles spaced at least its vtick apart."""
    count = draw(st.integers(min_value=1, max_value=6))
    draws = draw(st.lists(st.integers(1, 12), min_size=count, max_size=count))
    stretched = draw(st.booleans())
    stretch = [
        draw(st.floats(1.0, 1.5)) if stretched else 1.0 for _ in range(count)
    ]
    flows = []
    for vtick in _vticks(draws, stretch):
        clock = draw(st.integers(0, 8))
        arrivals = []
        for _ in range(draw(st.integers(1, 24))):
            arrivals.append(clock)
            clock += math.ceil(vtick) + draw(st.integers(0, 3))
        flows.append((vtick, arrivals))
    return flows


def _serve(flows):
    """Run the mux to empty; ``[(flow, arrival, stamp, departure), ...]``.

    Cycle ``t``: every arrival at ``t`` is stamped, then the scheduler
    picks one head-of-line flit among the backlogged flows; it is sent
    during ``t`` and has left at ``t + 1``.
    """
    scheduler = VirtualClockScheduler()
    states, queues, pending = [], [], []
    for vtick, arrivals in flows:
        state = VirtualClockState()
        state.open(arrivals[0], vtick)
        states.append(state)
        queues.append([])
        pending.append(list(arrivals))
    served = []
    clock = 0
    while any(pending) or any(queues):
        for index, arrivals in enumerate(pending):
            if arrivals and arrivals[0] == clock:
                arrivals.pop(0)
                stamp = scheduler.stamp(clock, states[index])
                queues[index].append((index, clock, stamp))
        candidates = [(queue[0][2], i) for i, queue in enumerate(queues) if queue]
        if candidates:
            served.append((*queues[scheduler.select(candidates)].pop(0), clock + 1))
        clock += 1
    return served


@settings(max_examples=300, deadline=None)
@given(conforming_flows())
def test_every_flit_leaves_by_its_stamp(flows):
    served = _serve(flows)
    assert len(served) == sum(len(arrivals) for _, arrivals in flows)
    for flow, arrival, stamp, departure in served:
        # conformance makes each stamp its arrival plus its flow's vtick
        assert abs(stamp - (arrival + flows[flow][0])) < EPS
        assert departure <= stamp + EPS, (flow, arrival, stamp, departure)


def test_the_bound_is_attained():
    """Rates 1/2 + 1/3 + 1/6 fill the link: the flow served last among
    the cycle-0 arrivals leaves exactly at its stamp."""
    flows = [(2, [0, 2, 4]), (3, [0, 3]), (6, [0])]
    slack = [stamp - departure for *_, stamp, departure in _serve(flows)]
    assert min(slack) == 0
    assert all(s >= 0 for s in slack)
