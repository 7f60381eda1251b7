"""Deterministic fault injection and end-to-end recovery.

The paper evaluates MediaWorm on a fault-free fabric; this subsystem
adds the scenario axis the evaluation lacks: what happens to the QoS
guarantees when links drop or corrupt flits, when a wire is severed for
a window of time, or when a whole router port dies.

Three cooperating pieces:

* :class:`~repro.faultplan.FaultPlan` — a declarative, validated
  description of the faults to inject (with :class:`RecoveryConfig`,
  the ``FATE_*`` codes and the window types, the vocabulary of
  :mod:`repro.faultplan`, re-exported here).  All randomness comes
  from a dedicated :class:`~repro.sim.rng.RngStreams` substream per link
  (``faults/<link label>``), so a zero-fault plan leaves every other
  substream — and therefore the whole simulation — bit-identical to a
  run with no plan at all.
* :func:`install_faults` — threads the plan through an assembled
  :class:`~repro.network.network.Network`: every affected
  :class:`~repro.network.link.Link` gets a :class:`LinkFaultState`
  consulted by its delivery loop and by :meth:`Link.is_available`, so
  the load-based fat-link selector avoids a dead wire.  A dead port is
  a permanent down window on its outgoing link.
* :func:`install_recovery` / :class:`EndToEndTransport` — an optional
  end-to-end checksum + timeout/retransmission protocol at the host
  interfaces.  Wormhole flow control has no per-hop recovery: a lost
  flit wedges the rest of its worm, so the transport detects the loss
  by timeout, purges the remains (the preemption kill machinery), and
  retransmits a clone after a capped exponential backoff.

Fault semantics (documented invariants):

* A flit lost on a router-bound wire hands its credit straight back to
  the sender, as :meth:`Network.kill_message` does for purged flits —
  link faults lose *data*, never flow-control capacity.
* Once a message loses one flit on a link, the rest of its flits on
  that link are dropped too ("broken worm"): the downstream input VC
  counts flits positionally, so delivering post-gap flits would either
  mis-frame the message or attribute them to a neighbour.
* During a down window every due flit is dropped (a severed wire), and
  :meth:`Link.is_available` reports the link unusable so fat-link
  groups route around it.
* Corrupted flits are delivered but taint their message; with the
  end-to-end transport installed the sink rejects the tainted message
  at its tail flit instead of delivering it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import FaultConfigError
# the vocabulary, also importable from here by its old names
from repro.faultplan import (
    FATE_CORRUPT,
    FATE_LOST,
    FATE_OK,
    DomainDownWindow,
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
)
from repro.router.routeprog import CompiledRouting
from repro.sim.rng import RngStreams


def domain_switches(domain: str, topology) -> FrozenSet[int]:
    """Router ids ``domain`` resolves to on ``topology``.

    Every domain must name at least one router or the plan is rejected
    with a :class:`FaultConfigError`.
    """
    extras = topology.extras
    kind, _, arg = domain.partition(":")
    if kind == "switch":
        rid = _domain_index(domain, arg)
        if not 0 <= rid < topology.num_routers:
            raise FaultConfigError(
                f"domain {domain!r} names unknown router {rid}"
            )
        return frozenset((rid,))
    if kind == "pod":
        if extras.get("generator") != "fat_tree3":
            raise FaultConfigError(
                f"domain {domain!r} needs a three-level fat tree "
                f"(topology is {topology.name!r})"
            )
        k = extras["k"]
        half = k // 2
        pod = _domain_index(domain, arg)
        if not 0 <= pod < k:
            raise FaultConfigError(
                f"domain {domain!r} names unknown pod {pod} (k={k})"
            )
        num_leaves = k * half
        return frozenset(range(pod * half, (pod + 1) * half)) | frozenset(
            range(num_leaves + pod * half, num_leaves + (pod + 1) * half)
        )
    if kind == "core-group":
        overlay = topology.route_program.overlay
        if overlay is None:
            raise FaultConfigError(
                f"domain {domain!r} needs an up*/down* fabric "
                f"(topology is {topology.name!r})"
            )
        if not arg:
            levels = overlay.levels
            top = max(levels)
            return frozenset(
                rid for rid, lv in enumerate(levels) if lv == top
            )
        if extras.get("generator") != "fat_tree3":
            raise FaultConfigError(
                f"domain {domain!r}: indexed core groups exist only on "
                f"three-level fat trees (topology is {topology.name!r})"
            )
        k = extras["k"]
        half = k // 2
        group = _domain_index(domain, arg)
        if not 0 <= group < half:
            raise FaultConfigError(
                f"domain {domain!r} names unknown core group {group} "
                f"(k={k} has {half} groups)"
            )
        base = 2 * k * half + group * half
        return frozenset(range(base, base + half))
    raise FaultConfigError(
        f"unknown failure domain {domain!r} (expected 'switch:<rid>', "
        f"'pod:<p>' or 'core-group[:<j>]')"
    )


def _domain_index(domain: str, arg: str) -> int:
    """Parse the integer argument of a domain name."""
    try:
        return int(arg)
    except ValueError:
        raise FaultConfigError(
            f"domain {domain!r} needs an integer argument"
        ) from None


def expand_domain(window: DomainDownWindow, topology) -> Tuple[
    LinkDownWindow, ...
]:
    """Lower one domain window into concrete per-link down windows.

    Every channel touching a member router dies, *and* the attachment
    links of its hosts (a crashed ToR takes its NIs down with it).
    Expansion is deterministic — sorted by link label — so sweep
    fingerprints and repro files are stable across runs and platforms.
    """
    switches = domain_switches(window.domain, topology)
    labels = set()
    for src_r, src_p, dst_r, dst_p in topology.channels:
        if src_r in switches or dst_r in switches:
            labels.add(f"ch:{src_r}.{src_p}->{dst_r}.{dst_p}")
    for node, rid, _ in topology.hosts:
        if rid in switches:
            labels.add(f"host{node}:inject")
            labels.add(f"host{node}:eject")
    return tuple(
        LinkDownWindow(link=label, start=window.start, end=window.end)
        for label in sorted(labels)
    )


class LinkFaultState:
    """Per-link fault machinery consulted by the link's delivery.

    Holds the link's effective probabilities, its down windows, its own
    RNG substream, and the "broken worm" set of messages that already
    lost a flit here (their remaining flits must be dropped too).
    Accounting is delegated to the owning network so the global
    ``flits_lost`` / ``flits_corrupted`` counters and flit conservation
    stay consistent.

    Who draws: :meth:`fate` is the definition of a flit's fate and the
    only consumer of :attr:`rng` — no draw for a flit of a broken worm
    or inside a down window, else one loss draw when ``loss_prob > 0``,
    then (if the flit survived) one corruption draw when
    ``corrupt_prob > 0``.  ``Link.deliver_due`` calls it per due flit,
    and so does the fused cycle loop's delivery kernel
    (:mod:`repro.sim.fused`) on every faulted link, inside its down
    windows as outside them, through the link's fault binding: the
    bound ``fate`` it takes once per run, so the state installed on a link must not be
    swapped for another while a run is in progress.  Whoever draws, a
    non-OK fate is applied by ``Link.apply_fate``, the one owner of
    loss/corruption handling.
    """

    __slots__ = (
        "label",
        "loss_prob",
        "corrupt_prob",
        "windows",
        "rng",
        "network",
        "broken",
    )

    def __init__(
        self,
        label: str,
        loss_prob: float,
        corrupt_prob: float,
        windows: Tuple[LinkDownWindow, ...],
        rng,
        network,
    ) -> None:
        self.label = label
        self.loss_prob = loss_prob
        self.corrupt_prob = corrupt_prob
        self.windows = windows
        self.rng = rng
        self.network = network
        #: msg ids that lost a flit on this link (rest of worm drops)
        self.broken: set = set()

    def down(self, clock: int) -> bool:
        """True while any down window covers ``clock``."""
        windows = self.windows
        if not windows:
            return False
        for window in windows:
            if window.active(clock):
                return True
        return False

    def fate(self, msg, flit_index: int, down: bool) -> int:
        """Decide what happens to one due flit (OK / LOST / CORRUPT)."""
        broken = self.broken
        msg_id = msg.msg_id
        if msg_id in broken:
            if flit_index == msg.size - 1:
                broken.discard(msg_id)
            return FATE_LOST
        if down or (
            self.loss_prob > 0.0 and self.rng.random() < self.loss_prob
        ):
            if flit_index != msg.size - 1:
                broken.add(msg_id)
            return FATE_LOST
        if self.corrupt_prob > 0.0 and self.rng.random() < self.corrupt_prob:
            return FATE_CORRUPT
        return FATE_OK

    def forget(self, msg) -> None:
        """Drop broken-worm state for a killed message (purge hook)."""
        self.broken.discard(msg.msg_id)

    def account_lost(self) -> None:
        """One flit vanished on this link."""
        self.network._flit_lost(1)

    def report_loss(self, msg) -> None:
        """Link-level loss detection: hand the broken worm to recovery.

        With a transport installed the message is torn down *now* (the
        downstream router spots the gap and triggers the purge) instead
        of wedging its VC until the delivery timeout fires — without
        this, wedges accumulate faster than timeouts clear them and
        throughput collapses under loss.
        """
        transport = self.network.transport
        if transport is not None:
            transport.on_loss(msg)

    def account_corrupted(self) -> None:
        """One flit was delivered corrupted on this link."""
        self.network._flit_corrupted(1)


class FaultInjector:
    """The installed fault plan: per-link states plus dead switches.

    Built by :func:`install_faults`; kept on ``network.fault_injector``
    for introspection (``faults_active``, per-link labels).
    """

    def __init__(self, network, plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        #: label -> LinkFaultState for every link with attached faults
        self.states: Dict[str, LinkFaultState] = {}
        #: router ids crashed by a *permanent* domain window
        self.dead_switches: FrozenSet[int] = frozenset()
        #: hosts the plan knowingly cuts off (attached to dead
        #: switches); their sessions are shed, not routed around
        self.sacrificed_hosts: FrozenSet[int] = frozenset()

    def links_down(self, clock: int) -> List[str]:
        """Labels of links inside an active down window at ``clock``."""
        return [
            label
            for label, state in self.states.items()
            if state.down(clock)
        ]

    @property
    def faulted_links(self) -> List[str]:
        """Labels of every link carrying fault state."""
        return sorted(self.states)


def install_faults(
    network, plan: FaultPlan, rngs: RngStreams
) -> FaultInjector:
    """Thread ``plan`` through an assembled network.

    Every link whose label matches the plan's probabilistic pattern or
    a down window gets a :class:`LinkFaultState` (with its own
    ``faults/<label>`` RNG substream).  How routers react to failures
    depends on ``RouterConfig.routing_mode``: in ``oracle`` mode (the
    default) the fat-link selector consults the ground-truth fault
    state and dodges failed ports instantly; in ``adaptive`` mode the
    link-health monitor (:mod:`repro.network.health`) infers failures
    from symptoms and reroutes — including detours when a whole fat
    group dies; in ``static`` mode routing ignores faults entirely and
    end-to-end recovery owns every loss.

    Correlated failure domains (``plan.domains``) are lowered first:
    each :class:`DomainDownWindow` expands deterministically into
    per-link windows against the concrete topology, and permanently
    crashed routers are recorded on ``injector.dead_switches`` so the
    isolation check (and diagnostics) can tell a deliberate sacrifice
    from a configuration mistake.

    Raises :class:`FaultConfigError` for windows that match no link,
    unknown failure domains, or a plan whose *permanent* failures
    isolate a host no routing mode could ever reach again (a dead host
    attachment link, or a router left with no surviving route and no
    detour — e.g. any permanent failure on ``single_switch`` host ports
    or a thin non-redundant mesh).  On up*/down* fabrics the check runs the alternate-ancestor
    overlay: a plan survives if masking repairs it, and hosts attached
    to domain-declared dead switches are an accepted sacrifice rather
    than an error.  Returns the installed :class:`FaultInjector`.
    """
    injector = FaultInjector(network, plan)

    expanded: List[LinkDownWindow] = []
    dead_switches: set = set()
    for dwin in plan.domains:
        expanded.extend(expand_domain(dwin, network.topology))
        if dwin.end is None:
            dead_switches |= domain_switches(dwin.domain, network.topology)
    injector.dead_switches = frozenset(dead_switches)
    down_windows = tuple(plan.down_windows) + tuple(expanded)

    labels = {link.label: link for link in network.links}
    for window in down_windows:
        if not any(fnmatchcase(label, window.link) for label in labels):
            raise FaultConfigError(
                f"down window pattern {window.link!r} matches no link "
                f"(labels look like 'host0:inject' or 'ch:0.4->1.5')"
            )

    probabilistic = plan.flit_loss_prob > 0.0 or plan.flit_corrupt_prob > 0.0
    for label, link in labels.items():
        windows = [
            w for w in down_windows if fnmatchcase(label, w.link)
        ]
        hit = probabilistic and fnmatchcase(label, plan.links)
        if not windows and not hit:
            continue
        state = LinkFaultState(
            label=label,
            loss_prob=plan.flit_loss_prob if hit else 0.0,
            corrupt_prob=plan.flit_corrupt_prob if hit else 0.0,
            windows=tuple(windows),
            rng=rngs.stream(f"faults/{label}"),
            network=network,
        )
        link.faults = state
        injector.states[label] = state

    _check_host_isolation(network, injector)
    network.fault_injector = injector
    return injector


def _check_host_isolation(network, injector: FaultInjector) -> None:
    """Reject fault plans that cut a host off for good.

    Only *permanent* failures (windows with no end) count: a host's
    attachment links have no alternative by construction, and a router
    whose every surviving route toward some host is dead — including
    the topology's detour options — would hang traffic until the
    watchdog fires.  Failing fast with a :class:`FaultConfigError`
    turns that silent hang into a configuration-time diagnosis.

    On up*/down* fabrics (fat trees, butterflies) the check runs the
    topology's alternate-ancestor overlay instead of a route walk: a
    plan is acceptable when, after the overlay's repair masks, the only
    unreachable hosts are the ones attached to switches the plan
    *declared* dead via failure domains — a deliberate sacrifice the
    runtime sheds gracefully.  Any host isolated beyond that set (e.g.
    by bare link windows that happen to sever a subtree) is still a
    configuration error.
    """
    dead_labels = {
        label
        for label, state in injector.states.items()
        if any(w.end is None for w in state.windows)
    }
    if not dead_labels:
        return
    dead_ports = {
        (link.src_router.router_id, link.src_port)
        for link in network.links
        if link.label in dead_labels and link.src_router is not None
    }
    overlay = network.routing.overlay
    if overlay is not None:
        dead_switches = injector.dead_switches
        _, sacrificed = overlay.analyze(dead_switches=dead_switches)
        injector.sacrificed_hosts = sacrificed
        dead_edges = overlay.dead_edges_from_ports(dead_ports)
        _, isolated = overlay.analyze(
            dead_switches=dead_switches, dead_edges=dead_edges
        )
        stranded = set(isolated) - set(sacrificed)
        for node, _, _ in network.topology.hosts:
            for half in ("inject", "eject"):
                if f"host{node}:{half}" in dead_labels:
                    if node in sacrificed:
                        continue
                    raise FaultConfigError(
                        f"fault plan permanently fails host{node}:{half}; "
                        f"host {node} has a single attachment link, no "
                        f"reroute is possible"
                    )
        if stranded:
            victims = ", ".join(str(n) for n in sorted(stranded))
            raise FaultConfigError(
                f"fault plan isolates host(s) {victims}: even the "
                f"alternate-ancestor failover overlay cannot route "
                f"around these permanent failures (declare the dead "
                f"switches as failure domains to sacrifice their hosts "
                f"deliberately)"
            )
        return
    for node, _, _ in network.topology.hosts:
        for half in ("inject", "eject"):
            label = f"host{node}:{half}"
            if label in dead_labels:
                raise FaultConfigError(
                    f"fault plan permanently fails {label}; host {node} "
                    f"has a single attachment link, no reroute is possible"
                )
    # Walk the routers' own adaptive policy over a scratch overlay whose
    # masks are exactly the permanently dead ports: the first port it
    # returns is the one a worm would take, and a hop whose every
    # returned port is dead is one no route or detour gets past.
    scratch = CompiledRouting(network.routing.program)
    for rid, port in dead_ports:
        scratch.mask_port(rid, port)
    channel_dst = {
        (r, p): dr for r, p, dr, _ in network.topology.channels
    }
    num_routers = len(network.routers)
    for node, dst_rid, _ in network.topology.hosts:
        for start in range(num_routers):
            rid, flavor, steps = start, None, 0
            while rid != dst_rid:
                steps += 1
                if steps > 4 * num_routers:
                    break  # walk is cyclic; reachable, just detouring
                ports, flavor = scratch.router_view(rid).route_adaptive(
                    node, flavor
                )
                if all((rid, p) in dead_ports for p in ports):
                    raise FaultConfigError(
                        f"fault plan isolates host {node}: router {rid} "
                        f"has no surviving route toward it and the "
                        f"topology offers no detour"
                    )
                rid = channel_dst[(rid, ports[0])]


# ----------------------------------------------------------------------
# end-to-end recovery (checksum + timeout/retransmission)


@dataclass
class TransportStats:
    """End-to-end delivery accounting for one run."""

    originals: int = 0
    delivered: int = 0
    corrupt_detected: int = 0
    timeouts: int = 0
    #: messages torn down by link-level loss detection (no timeout wait)
    loss_kills: int = 0
    retransmissions: int = 0
    abandoned: int = 0
    #: per-class splits of delivered/abandoned (QoS = CBR + VBR)
    qos_delivered: int = 0
    qos_abandoned: int = 0
    be_delivered: int = 0
    be_abandoned: int = 0
    #: QoS deliveries that blew ``RecoveryConfig.qos_deadline``
    qos_deadline_misses: int = 0
    #: the subset of ``qos_abandoned`` whose source or destination was
    #: a known-isolated host at abandonment time (shed sessions, not
    #: fabric failures)
    qos_abandoned_isolated: int = 0

    @property
    def qos_delivered_fraction(self) -> float:
        """Cleanly delivered fraction of resolved QoS (CBR/VBR) messages."""
        resolved = self.qos_delivered + self.qos_abandoned
        if resolved == 0:
            return 1.0
        return self.qos_delivered / resolved

    @property
    def qos_reachable_fraction(self) -> float:
        """QoS delivered fraction over hosts the fabric can still reach.

        Excludes abandons charged to isolated hosts: when a ToR dies,
        its hosts are gone no matter how good failover is, so the
        disaster campaign judges the failover layer on the traffic it
        could conceivably have saved.
        """
        resolved = (
            self.qos_delivered
            + self.qos_abandoned
            - self.qos_abandoned_isolated
        )
        if resolved <= 0:
            return 1.0
        return self.qos_delivered / resolved

    @property
    def delivered_fraction(self) -> float:
        """Cleanly delivered fraction of the *resolved* messages.

        A message is resolved once it either delivered or exhausted its
        retries; messages still queued or awaiting a retransmission when
        the run ends are excluded rather than counted as failures.
        """
        resolved = self.delivered + self.abandoned
        if resolved == 0:
            return 1.0
        return self.delivered / resolved


class EndToEndTransport:
    """Timeout/retransmission protocol over the message service.

    Tracks every message injected while installed.  A message that
    neither delivers cleanly nor is killed by another mechanism within
    ``timeout`` cycles is presumed lost: its wedged remains are purged
    network-wide (the preemption kill machinery) and a clone is
    re-injected after a capped exponential backoff, up to
    ``max_retries`` times.  A message delivered with a failed checksum
    (corrupted flits) takes the same retransmission path without a
    purge — its flits already ejected.

    Messages killed by someone else (e.g. VC preemption, which schedules
    its own retransmission) are left to that mechanism; their clone is
    then tracked as a fresh original.
    """

    def __init__(self, network, config: RecoveryConfig) -> None:
        self.network = network
        self.config = config
        self.stats = TransportStats()
        #: msg_id -> completed retransmission count for live attempts
        self._attempt: Dict[int, int] = {}
        #: msg_id -> injection cycle of the *first* attempt; transferred
        #: across the retry chain (clones reset their own timestamps)
        #: so QoS deadline accounting spans the whole recovery effort
        self._birth: Dict[int, int] = {}
        #: trace sink installed by repro.obs.sinks.install_tracing
        self.trace = None

    # -- network hooks --------------------------------------------------

    def on_inject(self, msg) -> None:
        """Track one injected message (clones are already tracked)."""
        if msg.msg_id not in self._attempt:
            self._attempt[msg.msg_id] = 0
            self.stats.originals += 1
        if msg.msg_id not in self._birth:
            self._birth[msg.msg_id] = self.network.clock

    def on_start(self, msg, clock: int) -> None:
        """Header flit left the NI: arm the delivery timeout.

        Arming here rather than at injection keeps legitimate NI
        queueing (a frame burst paced at the stream's reserved rate can
        hold a message for most of a frame interval) off the timeout
        clock, so only in-network time counts.
        """
        if msg.msg_id not in self._attempt:
            return
        network = self.network
        network.schedule_call(
            clock + self.config.timeout, lambda m=msg: self._check(m)
        )

    def on_delivered(self, msg) -> None:
        """A tracked message delivered cleanly."""
        if self._attempt.pop(msg.msg_id, None) is None:
            return
        stats = self.stats
        stats.delivered += 1
        birth = self._birth.pop(msg.msg_id, None)
        if msg.is_real_time:
            stats.qos_delivered += 1
            deadline = self.config.qos_deadline
            if (
                deadline is not None
                and birth is not None
                and msg.deliver_time - birth > deadline
            ):
                stats.qos_deadline_misses += 1
        else:
            stats.be_delivered += 1

    def on_corrupt(self, msg, clock: int) -> None:
        """Sink checksum failure: retransmit without a purge."""
        self.stats.corrupt_detected += 1
        # Neutralise the pending timeout; nothing remains to purge.
        msg.killed = True
        self._retry(msg)

    def on_loss(self, msg) -> None:
        """A link lost one of the message's flits: tear down and retry.

        Immediate teardown keeps the broken worm from wedging its VCs
        until the timeout; the timeout stays armed as a backstop and
        sees the kill as already handled.
        """
        if msg.killed or msg.deliver_time >= 0:
            return
        self.stats.loss_kills += 1
        self.network.kill_message(msg)
        self._retry(msg)

    # -- internals ------------------------------------------------------

    def _check(self, msg) -> None:
        """Timeout fired: decide whether the message needs recovery."""
        if msg.deliver_time >= 0:
            return
        if msg.killed:
            # killed by preemption (which retransmits on its own) or by
            # an earlier recovery of this very message
            self._attempt.pop(msg.msg_id, None)
            return
        self.stats.timeouts += 1
        self.network.kill_message(msg)
        self._retry(msg)

    def _retry(self, msg) -> None:
        retries = self._attempt.pop(msg.msg_id, 0)
        birth = self._birth.pop(msg.msg_id, None)
        network = self.network
        if retries >= self.config.max_retries:
            self.stats.abandoned += 1
            if msg.is_real_time:
                self.stats.qos_abandoned += 1
                isolated = getattr(network, "isolated_hosts", None)
                if isolated and (
                    msg.src_node in isolated or msg.dst_node in isolated
                ):
                    self.stats.qos_abandoned_isolated += 1
            else:
                self.stats.be_abandoned += 1
            if self.trace is not None:
                self.trace.on_event(
                    "retransmit",
                    network.clock,
                    {
                        "msg": msg.msg_id,
                        "clone": -1,
                        "retries": retries,
                        "delay": 0,
                        "abandoned": True,
                    },
                )
            return
        clone = msg.clone()
        self._attempt[clone.msg_id] = retries + 1
        if birth is not None:
            self._birth[clone.msg_id] = birth
        self.stats.retransmissions += 1
        delay = min(
            self.config.backoff_base << retries, self.config.backoff_cap
        )
        network.schedule_call(
            network.clock + delay, lambda m=clone: network.inject_now(m)
        )
        if self.trace is not None:
            self.trace.on_event(
                "retransmit",
                network.clock,
                {
                    "msg": msg.msg_id,
                    "clone": clone.msg_id,
                    "retries": retries,
                    "delay": delay,
                    "abandoned": False,
                },
            )


def install_recovery(network, config: RecoveryConfig) -> EndToEndTransport:
    """Attach the end-to-end transport to an assembled network.

    Wires the injection hook (timeout arming) and the per-sink
    corrupt-delivery callback (the checksum).  Returns the installed
    :class:`EndToEndTransport`.
    """
    transport = EndToEndTransport(network, config)
    network.transport = transport
    for ni in network.interfaces.values():
        ni.on_start = transport.on_start
    for sink in network.sinks.values():
        sink.on_corrupt = transport.on_corrupt
    return transport
