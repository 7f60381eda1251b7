"""Property tests of Virtual Clock fairness over the grant-event stream.

The scheduler's bandwidth guarantee, checked where it is actually
enforced: the host interface's injection multiplexer serves the
minimum virtual-clock stamp, so two continuously backlogged flows on
one NI must share the host link in proportion to their reserved rates
(``1/vtick``).  The observability layer makes the guarantee testable —
``flit_inject`` events *are* the grant sequence, so the properties
below are asserted on the real arbitration path, not on a scheduler
model.

Three families of properties, with vticks drawn by hypothesis:

* **proportional share** — over the doubly-backlogged region, each
  flow's grant count matches its reserved fraction, in aggregate and
  over every sliding window (no flow ever exceeds its share for long
  while a backlogged competitor waits);
* **no starvation** — the slower flow keeps receiving grants at its
  reserved spacing rather than being deferred to the end;
* **class separation** — a backlogged best-effort flow neither delays
  a real-time flow's completion nor starves once the real-time flow
  drains (work conservation).

A FIFO contrast pins that the sharing really comes from Virtual Clock:
under FIFO the same experiment's grant sequence is invariant to the
vticks.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_network, make_message

from repro.core.schedulers import SchedulingPolicy
from repro.core.virtual_clock import BEST_EFFORT_VTICK
from repro.obs.sinks import RingBufferSink
from repro.router.flit import TrafficClass

#: flits per flow; one message each, so the Virtual Clock state stays
#: open for the whole run and stamps pace the flow end to end
SIZE = 128

vticks = st.integers(min_value=1, max_value=16)


def _grants(
    vtick_a,
    vtick_b,
    size=SIZE,
    policy=SchedulingPolicy.VIRTUAL_CLOCK,
    class_b=TrafficClass.VBR,
    with_b=True,
):
    """Grant sequence ``[(cycle, vc), ...]`` of one NI serving two flows.

    Both flows are queued at cycle 0 on their own source VC of node 0,
    heading to distinct destinations/VCs so they contend only at the
    injection multiplexer under test.
    """
    sink = RingBufferSink(events=("flit_inject",))
    network = make_network(ports=4, vcs=4, policy=policy, trace_sink=sink)
    network.inject_now(
        make_message(
            src=0, dst=1, size=size, vtick=vtick_a, src_vc=0, dst_vc=0
        )
    )
    if with_b:
        network.inject_now(
            make_message(
                src=0,
                dst=2,
                size=size,
                vtick=vtick_b,
                src_vc=1,
                dst_vc=1,
                traffic_class=class_b,
            )
        )
    network.run_until_drained(max_extra=2_000_000)
    return [
        (cycle, fields["vc"])
        for kind, cycle, fields in sink.records
        if fields["node"] == 0
    ]


def _backlogged_region(grants):
    """Grant VCs up to the cycle where the first flow ran dry."""
    last = {vc: max(c for c, v in grants if v == vc) for vc in (0, 1)}
    cutoff = min(last.values())
    return [vc for cycle, vc in grants if cycle <= cutoff]


class TestProportionalShare:
    @given(vtick_a=vticks, vtick_b=vticks)
    @settings(max_examples=50, deadline=None)
    def test_grants_split_by_reserved_rates(self, vtick_a, vtick_b):
        """Aggregate share tracks 1/vtick while both flows backlog."""
        region = _backlogged_region(_grants(vtick_a, vtick_b))
        share_a = region.count(0) / len(region)
        expected = vtick_b / (vtick_a + vtick_b)
        assert abs(share_a - expected) < 0.03

    @given(vtick_a=vticks, vtick_b=vticks)
    @settings(max_examples=50, deadline=None)
    def test_no_window_exceeds_the_reserved_share(self, vtick_a, vtick_b):
        """Every 64-grant window splits proportionally (±4 flits).

        This is the starvation-free form of the guarantee: a flow can
        never bank its reservation and then burst past it while the
        competitor is backlogged — Virtual Clock interleaves grants at
        stamp granularity, so the split holds over every window, not
        just on average.
        """
        region = _backlogged_region(_grants(vtick_a, vtick_b))
        window = 64
        expected = window * vtick_b / (vtick_a + vtick_b)
        for start in range(len(region) - window + 1):
            granted_a = region[start : start + window].count(0)
            assert abs(granted_a - expected) <= 4

    @given(vtick_a=vticks, vtick_b=vticks)
    @settings(max_examples=50, deadline=None)
    def test_slow_flow_is_served_at_its_reserved_spacing(
        self, vtick_a, vtick_b
    ):
        """Consecutive grants to either flow are at most ~vtick ratio
        apart in grant slots — the competitor is paced, not deferred."""
        region = _backlogged_region(_grants(vtick_a, vtick_b))
        for flow, own, other in ((0, vtick_a, vtick_b), (1, vtick_b, vtick_a)):
            slots = [i for i, vc in enumerate(region) if vc == flow]
            if len(slots) < 2:
                continue
            # between consecutive grants the other flow takes at most
            # ceil(own/other) slots; the slack covers stamp ties
            # (broken toward the lower VC) and up to flit_buffer_depth
            # early grants won during the competitor's credit stalls,
            # which push the next stamp-ordered grant further out
            bound = math.ceil(own / other) + 5
            assert max(b - a for a, b in zip(slots, slots[1:])) <= bound


class TestClassSeparation:
    @given(vtick_rt=vticks)
    @settings(max_examples=20, deadline=None)
    def test_best_effort_backlog_cannot_delay_real_time(self, vtick_rt):
        """An infinite-vtick competitor never postpones RT completion."""
        solo = _grants(vtick_rt, 0, with_b=False)
        contended = _grants(
            vtick_rt, BEST_EFFORT_VTICK, class_b=TrafficClass.BEST_EFFORT
        )
        rt_done_solo = max(c for c, vc in solo if vc == 0)
        rt_done = max(c for c, vc in contended if vc == 0)
        assert rt_done == rt_done_solo

    @given(vtick_rt=vticks)
    @settings(max_examples=20, deadline=None)
    def test_best_effort_is_not_starved_once_real_time_drains(
        self, vtick_rt
    ):
        """Work conservation: the BE flow completes, and the mux only
        serves it ahead of RT during RT credit stalls (a handful of
        pipeline-fill grants at most)."""
        grants = _grants(
            vtick_rt, BEST_EFFORT_VTICK, class_b=TrafficClass.BEST_EFFORT
        )
        be = [c for c, vc in grants if vc == 1]
        assert len(be) == SIZE
        rt_done = max(c for c, vc in grants if vc == 0)
        early_be = sum(1 for c in be if c < rt_done)
        assert early_be <= 4


class TestFifoContrast:
    @given(
        pair_x=st.tuples(vticks, vticks),
        pair_y=st.tuples(vticks, vticks),
    )
    @settings(max_examples=20, deadline=None)
    def test_fifo_grant_sequence_ignores_vticks(self, pair_x, pair_y):
        """Under FIFO the identical experiment yields the identical
        grant sequence whatever the reservations say — the bandwidth
        differentiation above is Virtual Clock's doing."""
        first = _grants(*pair_x, policy=SchedulingPolicy.FIFO)
        second = _grants(*pair_y, policy=SchedulingPolicy.FIFO)
        assert first == second
