"""The uniform component step protocol of the simulation datapath.

Everything the cycle loop drives — links, host interfaces, routers, and
sinks — implements one contract::

    step(clock) -> activity

``step`` advances the component by one cycle and returns its *activity*,
an integer the dispatch loop interprets uniformly: zero means the
component did nothing **and** holds no work (it may be dropped from the
active set until something re-activates it); non-zero means it is still
part of the working set.  The per-kind meaning of the value is:

* :class:`repro.network.link.Link` — flits handed to the consumer this
  cycle (the loop's delivery-progress signal for the watchdog); a link
  with flits still on the wire stays active via ``link.pending``.
* :class:`repro.network.interface.HostInterface` — non-zero while the
  interface has queued messages (backlog).
* :class:`repro.router.router.WormholeRouter` — the router's remaining
  work count (busy VCs across all pipeline stages).
* :class:`repro.network.interface.HostSink` — always zero; sinks are
  passive consumers driven by their ejection link and never register.

Spurious steps are harmless by contract: a component stepped with
nothing to do no-ops and reports itself idle, exactly as it would under
a full scan.  That property is what lets the cycle loop and the legacy
full-scan loop share one datapath: the legacy loop is simply ``step``
applied to *every* component every executed cycle, while the cycle
loop (:mod:`repro.sim.fused`) visits the registered active subset —
running an inlined copy of ``step`` on its hot path and calling the
method itself for components that use a cold feature (see
:class:`repro.sim.activation.ActivationScheduler` and
``docs/simulator-internals.md``).

Components with knowable future work (links with in-flight flits)
additionally expose ``next_due(clock)`` so the loop can jump the clock
over provably idle cycles; components that must be polled while busy
(interfaces, routers) return the current cycle while active and
``None`` when idle.
"""

from __future__ import annotations

from typing import Optional


class Component:
    """Base class documenting the step protocol (duck typing suffices).

    Subclassing is optional — the dispatch loop never isinstance-checks;
    it only calls ``step``/``next_due``.  The class exists so the
    contract has one canonical definition and so ``repro.sim`` exports
    a nominal type for annotations.
    """

    __slots__ = ()

    def step(self, clock: int) -> int:
        """Advance one cycle; return the component's activity (see module doc)."""
        raise NotImplementedError

    def next_due(self, clock: int) -> Optional[int]:
        """Earliest cycle this component next needs a step, or ``None``.

        The default answers "poll me while I'm active": concrete
        components override this when they can predict their wake time
        (links), which is what makes clock jumps exact.
        """
        raise NotImplementedError
