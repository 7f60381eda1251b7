"""Activation scheduling: which components may act, and when.

A full-scan cycle loop pays a fixed cost per cycle — every link, host
interface, and router is visited whether or not it has anything to do.
The :class:`ActivationScheduler` inverts that: components *register*
their activity transitions and the loop visits only the active set, so
simulation cost tracks activity instead of topology size.

Two activation styles cover every component kind:

* **persistent** — :meth:`activate` / :meth:`deactivate`.  The
  component is runnable every cycle while active (a router with busy
  VCs, a host interface with queued messages, a link with flits on the
  wire).  Its wake time is implicitly "now".
* **timed** — :meth:`wake_at`.  A one-shot wake at a known future cycle.
  Timed wakes are *bucketed by cycle*: arming appends the id to its
  cycle's bucket and :meth:`due` consumes whole buckets at once, so
  harvesting N wakes costs one heap pop per distinct cycle instead of
  one per wake.

The cycle loop (``Network.run``) keeps links persistently
active while they hold in-flight flits, so in the steady state this
scheduler does no heap traffic at all — the per-cycle cost is returning
the memoised sorted active list.

Determinism contract
--------------------

A component is identified by a small integer id assigned in the same
order the full scan iterates them (:meth:`register` hands them out in
registration order).  :meth:`due` returns ids in ascending order, so an
active-set run visits components in exactly the full-scan order,
restricted to the non-no-op subset — which is what makes active-set
runs bit-identical to the reference stepper (the parity matrix in
``tests/test_parity.py`` pins this).

Spurious wakes are harmless by construction: a component stepped with
nothing due no-ops exactly as it does under the full scan (the step
contract in :func:`repro.sim.reference.run_reference` requires it).  A
*missing* wake, by contrast, would silently change results — hence the
conservative rule that every producer of future work (``Link.send``,
``HostInterface.inject``, flit arrival at a router) activates its
component at the moment the work is created.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Set


class ActivationScheduler:
    """Deterministic active-set and wake-time tracker for one component kind."""

    __slots__ = (
        "components",
        "_active",
        "_list",
        "_loaned",
        "_buckets",
        "_times",
        "_armed",
    )

    def __init__(self) -> None:
        #: registered components, indexed by id (see :meth:`register`)
        self.components: List[object] = []
        #: ids runnable every cycle until deactivated (membership tests)
        self._active: Set[int] = set()
        #: the same ids as a maintained sorted list — the steady-state
        #: :meth:`due` result.  Mutations use insort/remove instead of
        #: re-sorting, so an activate/deactivate costs O(n) memmove on a
        #: short list rather than an O(n log n) sort per transition.
        self._list: List[int] = []
        #: True while ``_list`` is loaned out by :meth:`due`; the next
        #: mutation copies first (copy-on-write), so callers may iterate
        #: the returned snapshot while activating/deactivating.
        self._loaned = False
        #: cycle -> ids armed to wake then (may hold superseded ids)
        self._buckets: Dict[int, List[int]] = {}
        #: heap of distinct bucket cycles
        self._times: List[int] = []
        #: id -> earliest armed wake time (the authoritative record)
        self._armed: Dict[int, int] = {}

    # -- registration ---------------------------------------------------

    def register(self, component: object) -> int:
        """Add ``component`` to this scheduler's id space; returns its id.

        Ids are handed out in registration order, which the fused
        dispatch loop relies on: registering components in the full
        scan's iteration order makes every ascending-id visit a replay
        of that scan's order.
        """
        cid = len(self.components)
        self.components.append(component)
        return cid

    # -- persistent activation -----------------------------------------

    def activate(self, cid: int) -> None:
        """Mark ``cid`` runnable every cycle until :meth:`deactivate`."""
        active = self._active
        if cid not in active:
            active.add(cid)
            if self._loaned:
                self._list = list(self._list)
                self._loaned = False
            insort(self._list, cid)

    def deactivate(self, cid: int) -> None:
        """Clear ``cid``'s persistent activation (timed wakes survive)."""
        active = self._active
        if cid in active:
            active.remove(cid)
            if self._loaned:
                self._list = list(self._list)
                self._loaned = False
            self._list.remove(cid)

    # -- timed wakes ----------------------------------------------------

    def wake_at(self, cid: int, time: int) -> None:
        """Arm a one-shot wake for ``cid`` at cycle ``time``.

        Re-arming with a later time than already armed is a no-op (the
        earlier wake services both); re-arming earlier supersedes.
        """
        armed = self._armed.get(cid)
        if armed is not None and armed <= time:
            return
        self._armed[cid] = time
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [cid]
            heapq.heappush(self._times, time)
        else:
            bucket.append(cid)

    def next_time(self) -> Optional[int]:
        """Cycle of the earliest armed wake, or ``None``.

        Persistent actives are due "now"; callers check the active
        set before consulting this for a clock jump.
        """
        times = self._times
        buckets = self._buckets
        armed = self._armed
        while times:
            time = times[0]
            for cid in buckets[time]:
                if armed.get(cid) == time:
                    return time
            # every entry in this bucket was superseded by an earlier
            # re-arm; discard the whole cycle
            heapq.heappop(times)
            del buckets[time]
        return None

    # -- per-cycle harvest ----------------------------------------------

    def due(self, clock: int) -> List[int]:
        """Ids due to step at ``clock``, in ascending (full-scan) order.

        Timed wakes at or before ``clock`` are consumed bucket-at-a-time;
        persistent actives are included without being consumed.  The
        returned list is a snapshot — callers may activate/deactivate
        while iterating (copy-on-write protects the loaned list).
        """
        times = self._times
        if times and times[0] <= clock:
            armed = self._armed
            buckets = self._buckets
            harvested = set(self._active)
            while times and times[0] <= clock:
                time = heapq.heappop(times)
                for cid in buckets.pop(time):
                    if armed.get(cid) == time:
                        del armed[cid]
                        harvested.add(cid)
            return sorted(harvested)
        self._loaned = True
        return self._list
