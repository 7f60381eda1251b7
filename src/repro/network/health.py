"""Online link-health monitoring and the failover control plane.

The fault injector (:mod:`repro.faults`) knows ground truth about every
link; real routers do not.  This module infers link failure from the
*observable symptoms* a router actually sees — missed delivery
heartbeats (flits that were due but never arrived), checksum-corruption
rate, and credit starvation during a down window — and drives the
failover machinery from those inferences alone:

* mask the dead port in the routing function so fat-link groups shrink
  to the healthy sibling (and detour when a whole group dies),
* kill-and-requeue worms stuck on the newly masked port so the
  end-to-end retransmission path redelivers them over a healthy route,
* degrade the admission controller's view of the lost channel (shedding
  best-effort before CBR/VBR) and pause best-effort sources while any
  link is down, re-admitting and resuming on recovery.

On top of the per-link verdicts the monitor aggregates *switch-level*
suspicion: a router whose every inbound inter-router link is at least
SUSPECT with at least one DOWN is declared a dead switch (its outbound
links carry no traffic, so they never show symptoms of their own).  On
up*/down* fabrics a dead-switch verdict applies the topology's
precomputed :class:`~repro.router.routeprog.UpDownFailover` masks —
re-steering every surviving pair through alternate ancestors — and
sheds the sessions of hosts the analysis proves unreachable (admission
degrade + media-stream pause) instead of letting them wedge the fabric
until the watchdog fires.

Hysteresis keeps transient glitches from flapping routes; every link
walks a four-state machine::

    UP --misses in window--> SUSPECT --more misses--> DOWN
     ^                          |                       |
     |<----consecutive oks------+     (masked; probe timer armed)
     |                                                  v
     +<---clean probation deliveries---- PROBATION <----+
                (recovery recorded)         |  any miss
                                            +----------> DOWN (a flap)

Determinism rules (the zero-fault bit-identity contract):

* State transitions are pure functions of the cycle clock and the
  delivery/miss/corruption events the links feed in; a fault-free run
  generates only ``on_ok`` events, which are no-ops in the UP state, so
  monitoring alone never perturbs a simulation.
* The only randomness is the probe-timer jitter, drawn from a dedicated
  ``health/<link label>`` RNG substream that is created lazily on the
  link's *first* DOWN transition — a run that never sees a failure never
  touches it, and named substreams never perturb each other.
* Probe wake-ups ride :meth:`Network.schedule_call`, which both cycle
  loops honour identically.
"""

from __future__ import annotations

from typing import Dict, List

# the vocabulary, also importable from here by its old names
from repro.network.healthconfig import DOWN, PROBATION, SUSPECT, UP, HealthConfig
from repro.router.config import RoutingMode


class LinkHealth:
    """Per-link health record: state machine plus outage statistics.

    Fed by the link's delivery loop (``on_ok`` / ``on_miss`` /
    ``on_corrupt``); transitions call back into the owning monitor,
    which performs the failover actions.
    """

    __slots__ = (
        "link",
        "label",
        "channel",
        "monitor",
        "state",
        "window_start",
        "misses",
        "corrupts",
        "ok_streak",
        "down_since",
        "probes",
        "downs",
        "flaps",
        "recoveries",
        "ttr_total",
    )

    def __init__(self, link, channel, monitor: "LinkHealthMonitor") -> None:
        self.link = link
        self.label = link.label
        #: admission-controller channel id this link's bandwidth lives on
        self.channel = channel
        self.monitor = monitor
        self.state = UP
        self.window_start = 0
        self.misses = 0
        self.corrupts = 0
        self.ok_streak = 0
        #: cycle the current outage began (-1 while healthy)
        self.down_since = -1
        #: probes sent during the current outage (escalation counter)
        self.probes = 0
        self.downs = 0
        #: relapses DOWN from PROBATION (route flapping)
        self.flaps = 0
        self.recoveries = 0
        #: summed time-to-recovery over completed outages, cycles
        self.ttr_total = 0

    @property
    def routable(self) -> bool:
        """False only while the link is declared DOWN (masked)."""
        return self.state != DOWN

    def _emit(self, clock: int, prev: str) -> None:
        """Trace a state transition (no-op without an installed sink)."""
        trace = self.monitor.trace
        if trace is not None:
            trace.on_event(
                "health",
                clock,
                {"link": self.label, "state": self.state, "prev": prev},
            )

    def on_ok(self, clock: int) -> None:
        """One flit delivered cleanly at ``clock``."""
        state = self.state
        if state == UP:
            return
        if state == SUSPECT:
            self.ok_streak += 1
            if self.ok_streak >= self.monitor.config.recover_oks:
                self.state = UP
                self.misses = 0
                self.ok_streak = 0
                self._emit(clock, SUSPECT)
                self.monitor._on_suspicion_changed(self, clock)
        elif state == PROBATION:
            self.ok_streak += 1
            if self.ok_streak >= self.monitor.config.probation_oks:
                self._declare_up(clock)
        # DOWN: stragglers already on the wire before the mask landed;
        # re-entry goes through the probe path only.

    def on_miss(self, clock: int) -> None:
        """A due flit never arrived (lost on the wire) at ``clock``."""
        state = self.state
        if state == DOWN:
            return
        if state == PROBATION:
            self._declare_down(clock, relapse=True)
            return
        config = self.monitor.config
        if clock - self.window_start > config.miss_window:
            self.window_start = clock
            self.misses = 0
        self.misses += 1
        self.ok_streak = 0
        if state == UP and self.misses >= config.suspect_misses:
            self.state = SUSPECT
            self._emit(clock, UP)
            self.monitor._on_suspicion_changed(self, clock)
        if self.misses >= config.down_misses:
            self._declare_down(clock, relapse=False)

    def on_corrupt(self, clock: int) -> None:
        """A flit arrived corrupted; counts toward the miss thresholds."""
        self.corrupts += 1
        self.on_miss(clock)

    # -- transitions ----------------------------------------------------

    def _declare_down(self, clock: int, relapse: bool) -> None:
        prev = self.state
        self.state = DOWN
        self._emit(clock, prev)
        self.downs += 1
        if relapse:
            self.flaps += 1
        if self.down_since < 0:
            # time-to-recovery measures the whole outage, across
            # probation relapses
            self.down_since = clock
        self.misses = 0
        self.ok_streak = 0
        self.monitor._on_down(self, clock)

    def _declare_up(self, clock: int) -> None:
        prev = self.state
        self.state = UP
        self._emit(clock, prev)
        self.recoveries += 1
        if self.down_since >= 0:
            self.ttr_total += clock - self.down_since
            self.down_since = -1
        self.probes = 0
        self.misses = 0
        self.ok_streak = 0
        self.monitor._on_up(self, clock)

    def enter_probation(self) -> None:
        """Probe timer fired: unmask and let traffic test the link."""
        if self.state != DOWN:
            return
        self.state = PROBATION
        self.ok_streak = 0
        if self.monitor.trace is not None:
            self._emit(self.monitor.network.clock, DOWN)
        self.monitor._on_probation(self)


class SwitchHealth:
    """Aggregated health verdict for one router.

    A router emits no heartbeat of its own; its death is inferred from
    the links *entering* it (the outbound links of a crashed switch
    carry no traffic, so they never show symptoms).  The switch is
    declared DOWN when every inbound inter-router link is at least
    SUSPECT and at least one is DOWN; it mirrors the link machinery's
    hysteresis by entering PROBATION while an inbound link probes and
    returning UP as soon as any inbound link proves healthy.
    """

    __slots__ = (
        "rid",
        "state",
        "down_since",
        "downs",
        "flaps",
        "recoveries",
        "ttr_total",
    )

    def __init__(self, rid: int) -> None:
        self.rid = rid
        self.state = UP
        #: cycle the current outage began (-1 while healthy)
        self.down_since = -1
        self.downs = 0
        #: relapses DOWN from PROBATION
        self.flaps = 0
        self.recoveries = 0
        #: summed time-to-recovery over completed outages, cycles
        self.ttr_total = 0


def _link_channel(link):
    """The admission-controller channel id carrying this link's bandwidth.

    Matches the ids the experiment runner reserves on: inter-router
    wires are ``("link", src_router, src_port)``; host links map to the
    node's ``host-in`` / ``host-out`` channel.
    """
    if link.src_router is not None:
        return ("link", link.src_router.router_id, link.src_port)
    label = link.label
    if label.startswith("host") and ":" in label:
        node_text, _, side = label.partition(":")
        try:
            node = int(node_text[4:])
        except ValueError:
            return ("link-label", label, 0)
        return ("host-in" if side == "inject" else "host-out", node, 0)
    return ("link-label", label, 0)


class LinkHealthMonitor:
    """Network-wide link-health state and the failover actions.

    Built by :func:`install_health`.  Holds one :class:`LinkHealth` per
    link; performs masking/requeue (only when the router config runs in
    adaptive routing mode), admission degradation, and best-effort
    shedding on state transitions.
    """

    def __init__(self, network, config: HealthConfig, rngs) -> None:
        self.network = network
        self.config = config
        self._rngs = rngs
        self.states: Dict[str, LinkHealth] = {}
        for link in network.links:
            record = LinkHealth(link, _link_channel(link), self)
            link.health = record
            self.states[link.label] = record
        #: failover actions require symptom-based adaptive routing
        self.adaptive = (
            network.config.routing_mode == RoutingMode.ADAPTIVE
        )
        #: optional AdmissionController degraded on capacity loss
        self.admission = None
        #: best-effort sources paused while any link is DOWN
        self.be_sources: List[object] = []
        self._be_paused = False
        self.worms_requeued = 0
        self.streams_shed = 0
        self.streams_readmitted = 0
        #: trace sink installed by repro.obs.sinks.install_tracing
        self.trace = None
        # -- switch-level aggregation (pure topology data; building the
        # -- maps at install time never touches an RNG substream) ------
        inbound: Dict[int, List[str]] = {}
        self._link_switch: Dict[str, int] = {}
        for src_r, src_p, dst_r, dst_p in network.topology.channels:
            label = f"ch:{src_r}.{src_p}->{dst_r}.{dst_p}"
            inbound.setdefault(dst_r, []).append(label)
            self._link_switch[label] = dst_r
        #: rid -> SwitchHealth for every router with inbound channels
        self.switches: Dict[int, SwitchHealth] = {
            rid: SwitchHealth(rid) for rid in sorted(inbound)
        }
        self._switch_inbound = {
            rid: tuple(labels) for rid, labels in inbound.items()
        }
        #: the topology's alternate-ancestor overlay (None off-tree)
        self.overlay = network.routing.overlay
        #: switches currently believed crashed (drives the overlay)
        self._down_switches: "set[int]" = set()
        #: overlay masks applied for the current dead-switch set
        self._overlay_masks: "set[tuple[int, int]]" = set()
        #: (router, port) -> mask refcount; link symptoms and overlay
        #: repair can mask the same port, and it must stay masked until
        #: *both* reasons clear
        self._mask_refs: Dict[tuple, int] = {}
        #: MediaStreams paused/resumed as their endpoints (dis)appear
        self.streams: List[object] = []
        #: distinct hosts ever declared isolated (probation churn can
        #: re-isolate the same host; it is only counted once)
        self._ever_isolated: "set[int]" = set()
        self._isolation_since: Dict[int, int] = {}
        self._host_downtime = 0
        #: per-host availability timeline: dicts of cycle/host/event
        self.availability_events: List[Dict[str, object]] = []

    # -- bindings -------------------------------------------------------

    def bind_admission(self, controller) -> None:
        """Degrade/recover ``controller`` on link down/up transitions."""
        self.admission = controller

    def bind_besteffort(self, sources) -> None:
        """Pause these sources while any monitored link is DOWN."""
        self.be_sources = list(sources)

    def bind_streams(self, streams) -> None:
        """Pause these media streams while an endpoint is isolated."""
        self.streams = list(streams)

    # -- queries --------------------------------------------------------

    def down_links(self) -> List[str]:
        """Labels currently declared DOWN, sorted."""
        return sorted(
            label for label, h in self.states.items() if h.state == DOWN
        )

    def suspected(self) -> List[str]:
        """``label (state)`` for every link/switch not plainly UP, sorted.

        When a whole switch is implicated the report names the router
        (``switch 34 (down)``) alongside the per-link verdicts, so a
        stall report reads as a datacenter incident, not link noise.
        """
        entries = [
            f"{label} ({h.state})"
            for label, h in self.states.items()
            if h.state != UP
        ]
        entries.extend(
            f"switch {rid} ({s.state})"
            for rid, s in self.switches.items()
            if s.state != UP
        )
        return sorted(entries)

    def summary(self) -> Dict[str, object]:
        """Aggregate health/failover statistics for one run."""
        downs = sum(h.downs for h in self.states.values())
        flaps = sum(h.flaps for h in self.states.values())
        recoveries = sum(h.recoveries for h in self.states.values())
        ttr_total = sum(h.ttr_total for h in self.states.values())
        switch_downs = sum(s.downs for s in self.switches.values())
        switch_recoveries = sum(s.recoveries for s in self.switches.values())
        switch_ttr = sum(s.ttr_total for s in self.switches.values())
        clock = self.network.clock
        # hosts still isolated contribute their open interval
        downtime = self._host_downtime + sum(
            clock - since for since in self._isolation_since.values()
        )
        routing = self.network.routing
        return {
            "links_monitored": len(self.states),
            "link_downs": downs,
            "link_flaps": flaps,
            "link_recoveries": recoveries,
            "mean_time_to_recovery_cycles": (
                ttr_total / recoveries if recoveries else 0.0
            ),
            "reroutes": routing.reroutes,
            "detours": routing.detours_taken,
            "worms_requeued": self.worms_requeued,
            "streams_shed": self.streams_shed,
            "streams_readmitted": self.streams_readmitted,
            "be_messages_shed": sum(
                getattr(src, "messages_shed", 0) for src in self.be_sources
            ),
            "switches_monitored": len(self.switches),
            "switch_downs": switch_downs,
            "switch_flaps": sum(s.flaps for s in self.switches.values()),
            "switch_recoveries": switch_recoveries,
            "mean_switch_time_to_recover_cycles": (
                switch_ttr / switch_recoveries if switch_recoveries else 0.0
            ),
            "hosts_isolated": len(self._ever_isolated),
            "host_downtime_cycles": downtime,
            "availability": list(self.availability_events),
        }

    # -- transition actions ---------------------------------------------

    def _mask(self, router_id: int, port: int) -> None:
        """Mask a port, refcounted across independent reasons.

        A port can be masked both because its own link shows symptoms
        and because the failover overlay prunes it (the two sets
        overlap on every port aimed at a dead switch); it must stay
        masked until the last reason clears.
        """
        key = (router_id, port)
        refs = self._mask_refs.get(key, 0)
        self._mask_refs[key] = refs + 1
        if refs == 0:
            self.network.routing.mask_port(router_id, port)

    def _unmask(self, router_id: int, port: int) -> None:
        key = (router_id, port)
        refs = self._mask_refs.get(key, 0)
        if refs <= 1:
            self._mask_refs.pop(key, None)
            self.network.routing.unmask_port(router_id, port)
        else:
            self._mask_refs[key] = refs - 1

    def _on_down(self, health: LinkHealth, clock: int) -> None:
        link = health.link
        network = self.network
        if self.adaptive and link.src_router is not None:
            # The network's own CompiledRouting: masking mutates this
            # run's thin per-router overlay, never the shared program.
            self._mask(link.src_router.router_id, link.src_port)
            self.worms_requeued += network.requeue_stuck_worms(
                link.src_router, link.src_port, link
            )
        if self.admission is not None:
            shed = self.admission.degrade(health.channel, 0.0)
            self.streams_shed += len(shed)
        if self.be_sources and not self._be_paused:
            self._be_paused = True
            for source in self.be_sources:
                source.pause()
        self._arm_probe(health, clock)
        self._reassess_switch(health, clock)

    def _arm_probe(self, health: LinkHealth, clock: int) -> None:
        config = self.config
        interval = min(
            config.probe_interval << min(health.probes, 20), config.probe_cap
        )
        health.probes += 1
        if config.probe_jitter > 0:
            rng = self._rngs.stream(f"health/{health.label}")
            interval += rng.randrange(config.probe_jitter)
        self.network.schedule_call(clock + interval, health.enter_probation)

    def _on_probation(self, health: LinkHealth) -> None:
        link = health.link
        if self.adaptive and link.src_router is not None:
            self._unmask(link.src_router.router_id, link.src_port)
        self._reassess_switch(health, self.network.clock)

    def _on_up(self, health: LinkHealth, clock: int) -> None:
        if self.admission is not None:
            readmitted = self.admission.recover(health.channel)
            self.streams_readmitted += len(readmitted)
        if self._be_paused and not any(
            h.state == DOWN for h in self.states.values()
        ):
            self._be_paused = False
            for source in self.be_sources:
                source.resume()
        self._reassess_switch(health, clock)

    def _on_suspicion_changed(self, health: LinkHealth, clock: int) -> None:
        """A link crossed UP<->SUSPECT (no failover action of its own)."""
        self._reassess_switch(health, clock)

    # -- switch-level verdicts ------------------------------------------

    def _reassess_switch(self, health: LinkHealth, clock: int) -> None:
        rid = self._link_switch.get(health.label)
        if rid is None:
            return
        switch = self.switches[rid]
        states = [
            self.states[label].state for label in self._switch_inbound[rid]
        ]
        if all(s in (SUSPECT, DOWN) for s in states) and DOWN in states:
            self._switch_down(switch, clock)
        elif UP in states:
            self._switch_up(switch, clock)
        elif switch.state == DOWN and PROBATION in states:
            self._switch_probation(switch, clock)

    def _emit_switch(self, switch: SwitchHealth, clock: int, prev) -> None:
        # one event shape for links and switches: a switch is named the
        # way a DomainDownWindow names it, so the Chrome export gives it
        # a row of its own
        if self.trace is not None:
            self.trace.on_event(
                "health",
                clock,
                {"link": f"switch:{switch.rid}", "state": switch.state, "prev": prev},
            )

    def _switch_down(self, switch: SwitchHealth, clock: int) -> None:
        prev = switch.state
        if prev == DOWN:
            return
        switch.state = DOWN
        switch.downs += 1
        if prev == PROBATION:
            switch.flaps += 1
        if switch.down_since < 0:
            switch.down_since = clock
        self._emit_switch(switch, clock, prev)
        if switch.rid not in self._down_switches:
            self._down_switches.add(switch.rid)
            self._refresh_overlay(clock)

    def _switch_probation(self, switch: SwitchHealth, clock: int) -> None:
        """An inbound link probes: lift the overlay and let traffic test.

        Mirrors the link machinery — overlay masks around the switch
        come off so probe traffic can actually exercise it; a relapse
        re-applies them, a clean probation graduates to UP.
        """
        switch.state = PROBATION
        self._emit_switch(switch, clock, DOWN)
        if switch.rid in self._down_switches:
            self._down_switches.discard(switch.rid)
            self._refresh_overlay(clock)

    def _switch_up(self, switch: SwitchHealth, clock: int) -> None:
        prev = switch.state
        if prev == UP:
            return
        switch.state = UP
        switch.recoveries += 1
        if switch.down_since >= 0:
            switch.ttr_total += clock - switch.down_since
            switch.down_since = -1
        self._emit_switch(switch, clock, prev)
        if switch.rid in self._down_switches:
            self._down_switches.discard(switch.rid)
            self._refresh_overlay(clock)

    def _refresh_overlay(self, clock: int) -> None:
        """Re-derive overlay masks + casualties for the dead-switch set.

        Correlated failures are analysed as a *set* (a pod kill prunes
        differently than the union of its per-switch analyses), so any
        membership change recomputes from scratch and applies the
        difference through the refcounted mask helpers.
        """
        if not self.adaptive or self.overlay is None:
            return
        masks, isolated = self.overlay.masks_for(
            frozenset(self._down_switches)
        )
        new = set(masks)
        old = self._overlay_masks
        for router_id, port in sorted(new - old):
            self._mask(router_id, port)
        for router_id, port in sorted(old - new):
            self._unmask(router_id, port)
        self._overlay_masks = new
        self._update_isolated(isolated, clock)

    def _update_isolated(self, isolated, clock: int) -> None:
        network = self.network
        current = network.isolated_hosts
        fresh = sorted(set(isolated) - current)
        healed = sorted(current - set(isolated))
        for node in fresh:
            current.add(node)
            self._isolation_since[node] = clock
            self._ever_isolated.add(node)
            self.availability_events.append(
                {"cycle": clock, "host": node, "event": "isolated"}
            )
            if self.admission is not None:
                for channel in (("host-in", node, 0), ("host-out", node, 0)):
                    shed = self.admission.degrade(channel, 0.0)
                    self.streams_shed += len(shed)
        for node in healed:
            current.discard(node)
            since = self._isolation_since.pop(node, None)
            if since is not None:
                self._host_downtime += clock - since
            self.availability_events.append(
                {"cycle": clock, "host": node, "event": "restored"}
            )
            if self.admission is not None:
                for channel in (("host-in", node, 0), ("host-out", node, 0)):
                    readmitted = self.admission.recover(channel)
                    self.streams_readmitted += len(readmitted)
        if fresh or healed:
            self._sync_stream_pauses()

    def _sync_stream_pauses(self) -> None:
        isolated = self.network.isolated_hosts
        for stream in self.streams:
            config = stream.config
            wanted = (
                config.src_node in isolated or config.dst_node in isolated
            )
            if wanted and not stream.paused:
                stream.pause()
            elif not wanted and stream.paused:
                stream.resume()


def install_health(
    network, config: HealthConfig, rngs
) -> LinkHealthMonitor:
    """Attach link-health monitoring to an assembled network.

    Every link gets a :class:`LinkHealth` record fed by its delivery
    loop; the monitor lands on ``network.health_monitor`` (the watchdog
    stall report and the metrics collector read it).  A zero-fault run
    with monitoring installed is bit-identical to one without: healthy
    links only emit ``on_ok`` events, which are no-ops in the UP state,
    and no RNG substream is touched before a first DOWN transition.
    """
    monitor = LinkHealthMonitor(network, config, rngs)
    network.health_monitor = monitor
    return monitor
