"""Compiled route programs: per-topology routing as flat indexed data.

Every topology generator — the single switch included — hands its
routes to :func:`compile_rows`, which builds one immutable
:class:`RouteProgram`: exactly once per topology, shared read-only by
every router and every :class:`~repro.network.network.Network`
instantiated over it.  A routing function maps ``(router_id,
destination node)`` to the tuple of output ports a header may use;
entries with several ports are *fat* groups, interchangeable links
toward the same neighbour from which the router picks the less-loaded
one (section 3.4).  The program stores that map as:

* destination nodes map to dense *slots* (``node_slot``; the common
  case of node ids ``0..H-1`` short-circuits the dict entirely);
* candidate port groups are deduplicated into one ``groups`` tuple
  (a 16-pod fat tree has 320 routers x 1024 destinations but only a
  few hundred distinct groups);
* the primary and alternate (Y-then-X) tables become per-router integer
  rows (``primary[rid][slot] -> group id``, ``-1`` = no route);
* detour fallbacks stay sparse: ``detours[(rid, slot)]`` is an ordered
  tuple of ``(group id, flavor)`` pairs.

The compile input is one :data:`RouteRow` per router: a default group
plus the destinations that take another one, so an up*/down* fabric
states each router's up group once instead of once per remote host.
:func:`compile_routes` is the front door for the sparse
``(router_id, dst_node) -> ports`` dict form small generators write:
it splits the dict into rows and compiles those.

Mutable routing state — the health mask a failover campaign applies
via ``mask_port``/``unmask_port`` and the reroute/detour counters —
lives *outside* the program, in one :class:`CompiledRouting` per
network: per-router :class:`RouterRouteView` overlays whose
:meth:`~RouterRouteView.route_adaptive` shrinks a fat group to its
healthy members and, when the group empties, falls back to a
precomputed *detour* (a perpendicular first hop plus a switch of
dimension order, ridden on the escape VC).  Each network builds its own
:class:`CompiledRouting` over the shared program, so cached topologies
serve many networks without mask state or statistics ever leaking
between runs.  See ``docs/simulator-internals.md``.

The module-level compile counter exists for the construction-count
tests: building a topology compiles its program exactly once, and
nothing downstream (network assembly, sweep repetition over a cached
topology) may compile again.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError

#: detour flavours: which dimension-order table a detoured message uses
#: for the rest of its journey (None = the primary table)
FLAVOR_XY = "xy"
FLAVOR_YX = "yx"

#: total RouteProgram compilations in this process (see compile_count)
_COMPILE_COUNT = 0


def compile_count() -> int:
    """Process-wide number of :func:`compile_routes` invocations.

    Tests assert the *delta* of this counter around topology reuse: one
    compile per distinct topology, zero for additional networks or
    cache hits.
    """
    return _COMPILE_COUNT


class RouteProgram:
    """Immutable compiled routing tables for one topology."""

    __slots__ = (
        "name",
        "num_routers",
        "nodes",
        "node_slot",
        "dense",
        "groups",
        "primary",
        "alt",
        "detours",
        "overlay",
    )

    def __init__(
        self,
        name: str,
        num_routers: int,
        nodes: Tuple[int, ...],
        node_slot: Dict[int, int],
        dense: bool,
        groups: Tuple[Tuple[int, ...], ...],
        primary: Tuple[Tuple[int, ...], ...],
        alt: Optional[Tuple[Optional[Tuple[int, ...]], ...]],
        detours: Dict[Tuple[int, int], Tuple[Tuple[int, str], ...]],
        overlay: Optional["UpDownFailover"] = None,
    ) -> None:
        self.name = name
        self.num_routers = num_routers
        self.nodes = nodes
        self.node_slot = node_slot
        self.dense = dense
        self.groups = groups
        self.primary = primary
        self.alt = alt
        self.detours = detours
        #: alternate-ancestor failover overlay for up*/down* fabrics
        #: (None on topologies that repair via alt tables/detours instead)
        self.overlay = overlay

    # -- queries (stateless; the mask lives in RouterRouteView) --------

    def slot_of(self, node: int) -> int:
        """Dense slot of a node id, or ``-1`` when unknown."""
        if self.dense:
            return node if 0 <= node < len(self.nodes) else -1
        return self.node_slot.get(node, -1)

    def candidates(self, router_id: int, dst_node: int) -> Tuple[int, ...]:
        """Primary candidate ports; raises :class:`RoutingError` if none."""
        gid = -1
        if 0 <= router_id < self.num_routers:
            slot = self.slot_of(dst_node)
            if slot >= 0:
                gid = self.primary[router_id][slot]
        if gid < 0:
            raise RoutingError(
                f"router {router_id}: no route to node {dst_node}"
            )
        return self.groups[gid]

    def stats(self) -> Dict[str, object]:
        """Size/shape accounting (``mediaworm topo``, diagnostics)."""
        entries = sum(
            1 for row in self.primary for gid in row if gid >= 0
        )
        alt_entries = 0
        if self.alt is not None:
            alt_entries = sum(
                1
                for row in self.alt
                if row is not None
                for gid in row
                if gid >= 0
            )
        group_sizes = [len(g) for g in self.groups]
        return {
            "name": self.name,
            "routers": self.num_routers,
            "destinations": len(self.nodes),
            "dense_nodes": self.dense,
            "entries": entries,
            "alt_entries": alt_entries,
            "detour_entries": len(self.detours),
            "unique_groups": len(self.groups),
            "max_group_size": max(group_sizes, default=0),
            "table_ints": self.num_routers * len(self.nodes),
            "failover_overlay": self.overlay is not None,
        }


class UpDownFailover:
    """Precomputed alternate-ancestor repair for up*/down* fabrics.

    A levelled (fat-tree / folded-Clos) route program has no detour
    table by theorem: below the lowest common ancestor the down path is
    unique, so there is nothing *local* to fall back on when a switch
    on that path dies.  The repair that does exist is global: ascend
    through a *different* ancestor whose down-subtree still reaches the
    destination.  Because worms ascend adaptively (any parent group,
    picked by load), the repair is expressible purely as extra
    ``(router, port)`` masks — prune every up-edge whose ancestor
    subtree lost destinations that a sibling ancestor still reaches,
    and load-based shrink does the rest.

    :meth:`analyze` computes, for a set of dead switches (and/or dead
    directed edges), exactly that mask set plus the hosts no amount of
    re-steering can save (their attachment switch died, or every
    ancestor lost them).  The computation is *demonically safe*: after
    applying the masks, **every** unmasked candidate port at every
    live router leads to a router that still reaches every live
    destination the worm could be carrying — the router's load-based
    pick can never wander into a dead end.  Results are memoised per
    fault set; the zero-fault path never touches any of this, and the
    heavy per-topology bit tables are built lazily on the first
    analysis, so building a 1024-host tree stays as cheap as before.

    The structure is immutable shared data like the rest of the
    program: runs *read* mask sets from it and apply them to their own
    network's :class:`RouterRouteView` overlays, so networks stay
    isolated.
    """

    __slots__ = (
        "num_routers",
        "levels",
        "adjacency",
        "host_router",
        "_ready",
        "parents",
        "children",
        "_nodes",
        "_node_bit",
        "_hosts_at",
        "_below",
        "_all_hosts",
        "_down_order",
        "_cache",
    )

    def __init__(
        self,
        levels: Sequence[int],
        adjacency: Mapping[Tuple[int, int], Tuple[int, ...]],
        host_router: Mapping[int, int],
    ) -> None:
        self.num_routers = len(levels)
        self.levels = tuple(levels)
        self.adjacency = {
            key: tuple(ports) for key, ports in adjacency.items()
        }
        self.host_router = dict(host_router)
        self._ready = False
        self._cache: Dict[
            Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]],
            Tuple[Tuple[Tuple[int, int], ...], FrozenSet[int]],
        ] = {}

    # -- lazy per-topology tables --------------------------------------

    def _ensure(self) -> None:
        if self._ready:
            return
        num = self.num_routers
        levels = self.levels
        children: List[List[int]] = [[] for _ in range(num)]
        parents: List[List[int]] = [[] for _ in range(num)]
        for rid, nbr in sorted(self.adjacency):
            if levels[nbr] == levels[rid] - 1:
                children[rid].append(nbr)
            elif levels[nbr] == levels[rid] + 1:
                parents[rid].append(nbr)
        self.children = tuple(tuple(c) for c in children)
        self.parents = tuple(tuple(p) for p in parents)
        nodes = tuple(sorted(self.host_router))
        self._nodes = nodes
        self._node_bit = {node: 1 << i for i, node in enumerate(nodes)}
        self._all_hosts = (1 << len(nodes)) - 1
        hosts_at = [0] * num
        for node, rid in self.host_router.items():
            hosts_at[rid] |= self._node_bit[node]
        self._hosts_at = tuple(hosts_at)
        up_order = sorted(range(num), key=lambda r: (levels[r], r))
        below = [0] * num
        for rid in up_order:
            mask = hosts_at[rid]
            joint = 0
            for child in self.children[rid]:
                if joint & below[child]:
                    raise RoutingError(
                        "failover overlay needs disjoint child subtrees "
                        f"(router {rid} reaches some host via two children)"
                    )
                joint |= below[child]
                mask |= below[child]
            below[rid] = mask
        self._below = tuple(below)
        self._down_order = tuple(reversed(up_order))
        self._ready = True

    # -- fault analysis -------------------------------------------------

    def analyze(
        self,
        dead_switches: FrozenSet[int] = frozenset(),
        dead_edges: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> Tuple[Tuple[Tuple[int, int], ...], FrozenSet[int]]:
        """Masks and casualties for a fault set.

        ``dead_switches`` are router ids presumed crashed; every edge
        touching one is dead.  ``dead_edges`` adds individually severed
        directed adjacencies ``(router, neighbour)`` (a fat edge dies
        only when *all* its parallel ports are gone — the caller maps
        link faults to edges).  Returns ``(masks, isolated)``: the
        sorted ``(router, port)`` pairs adaptive routing must mask so
        no surviving candidate dead-ends, and the host nodes no
        masking can save (shed them instead of letting the watchdog
        fire).
        """
        dead_switches = frozenset(dead_switches)
        dead_edges = frozenset(dead_edges)
        key = (dead_switches, dead_edges)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._ensure()
        adjacency = self.adjacency
        hosts_at = self._hosts_at
        below = self._below
        all_hosts = self._all_hosts

        def edge_alive(rid: int, nbr: int) -> bool:
            return (
                rid not in dead_switches
                and nbr not in dead_switches
                and (rid, nbr) not in dead_edges
            )

        masks: Set[Tuple[int, int]] = set()
        # Ports aimed straight at a dead switch or over a severed edge
        # are masked outright (the symptom-driven link layer converges
        # on the same set; listing them here keeps analyze() complete).
        for (rid, nbr), ports in adjacency.items():
            if rid not in dead_switches and not edge_alive(rid, nbr):
                masks.update((rid, port) for port in ports)

        # Demonic down-reachability: hosts a router delivers downward
        # no matter which surviving candidate the load picker chooses.
        # Child subtrees are disjoint (checked in _ensure), so the OR
        # over live children is exact.
        ok_down = [0] * self.num_routers
        for rid in self._down_order[::-1]:  # ascending level order
            if rid in dead_switches:
                continue
            mask = hosts_at[rid]
            for child in self.children[rid]:
                if edge_alive(rid, child):
                    mask |= ok_down[child]
            ok_down[rid] = mask

        # Top-down: prune up-edges into ancestors that lost destinations
        # a sibling ancestor still reaches, then summarise what each
        # router can *certainly* deliver (safe = down set + what every
        # surviving parent guarantees).
        safe = [0] * self.num_routers
        for rid in self._down_order:
            if rid in dead_switches:
                continue
            alive_parents = [
                p
                for p in self.parents[rid]
                if p not in dead_switches and edge_alive(rid, p)
            ]
            outside = all_hosts & ~below[rid]
            union = 0
            for p in alive_parents:
                union |= safe[p]
            up_safe = 0
            keep_any = False
            for p in alive_parents:
                if (union & ~safe[p]) & outside:
                    masks.update(
                        (rid, port) for port in adjacency[(rid, p)]
                    )
                else:
                    up_safe = safe[p] if not keep_any else up_safe & safe[p]
                    keep_any = True
            safe[rid] = ok_down[rid] | (up_safe & outside)

        # Casualties: hosts on a dead switch, hosts whose own leaf lost
        # every way out, then hosts some *surviving* leaf can no longer
        # reach.  Order matters — a cut-off leaf can reach nobody, so
        # letting it vote in the reachability pass would condemn the
        # whole fabric instead of just its own hosts.
        dead_hosts = 0
        for rid in dead_switches:
            if 0 <= rid < self.num_routers:
                dead_hosts |= hosts_at[rid]
        isolated = dead_hosts
        live_leaves = [
            rid
            for rid in range(self.num_routers)
            if hosts_at[rid] and rid not in dead_switches
        ]
        for leaf in live_leaves:
            others = all_hosts & ~dead_hosts & ~hosts_at[leaf]
            if others and not (safe[leaf] & others):
                isolated |= hosts_at[leaf]
        for leaf in live_leaves:
            if hosts_at[leaf] & isolated:
                continue
            isolated |= all_hosts & ~safe[leaf]

        node_bit = self._node_bit
        isolated_nodes = frozenset(
            node for node in self._nodes if isolated & node_bit[node]
        )
        result = (tuple(sorted(masks)), isolated_nodes)
        if len(self._cache) >= 128:
            self._cache.clear()
        self._cache[key] = result
        return result

    def masks_for(
        self, dead_switches: "FrozenSet[int] | Set[int]"
    ) -> Tuple[Tuple[Tuple[int, int], ...], FrozenSet[int]]:
        """:meth:`analyze` specialised to crashed switches (runtime path)."""
        return self.analyze(dead_switches=frozenset(dead_switches))

    def dead_edges_from_ports(
        self, dead_ports: "Set[Tuple[int, int]]"
    ) -> FrozenSet[Tuple[int, int]]:
        """Directed adjacencies whose every parallel port is dead."""
        return frozenset(
            (rid, nbr)
            for (rid, nbr), ports in self.adjacency.items()
            if all((rid, port) in dead_ports for port in ports)
        )


#: one router's primary (or alternate) routes as :func:`compile_rows`
#: reads them: the port group every destination not listed takes
#: (``None``: no route), and the destinations that take another group
RouteRow = Tuple[Optional[Tuple[int, ...]], Mapping[int, Tuple[int, ...]]]


def compile_rows(
    nodes: Sequence[int],
    rows: Sequence[RouteRow],
    alt_rows: Optional[Sequence[Optional[RouteRow]]] = None,
    detours: Optional[
        Mapping[Tuple[int, int], Tuple[Tuple[Tuple[int, ...], str], ...]]
    ] = None,
    *,
    name: str = "table",
    overlay: Optional[UpDownFailover] = None,
) -> RouteProgram:
    """Compile per-router route rows into one :class:`RouteProgram`.

    ``nodes`` are the destination node ids (slot order) and ``rows[rid]``
    is router ``rid``'s :data:`RouteRow`; ``alt_rows`` (``None`` entries
    for routers without one) is the alternate table in the same form,
    and ``detours`` maps ``(router_id, dst_node)`` to its ordered
    ``(ports, flavor)`` fallbacks.  Candidate tuples are preserved
    exactly (same ports, same order).  A default is interned only when
    some destination takes it, so the group count is that of the
    routes the program can answer.  Empty candidate groups are rejected
    here, the single validation point.  Port groups must be tuples.
    """
    global _COMPILE_COUNT
    _COMPILE_COUNT += 1

    nodes = tuple(nodes)
    num_slots = len(nodes)
    dense = nodes == tuple(range(num_slots))
    node_slot = {node: slot for slot, node in enumerate(nodes)}
    groups: List[Tuple[int, ...]] = []
    group_ids: Dict[Tuple[int, ...], int] = {}
    get_gid = group_ids.get

    def intern_group(ports: Tuple[int, ...], where: object, kind: str) -> int:
        gid = get_gid(ports)
        if gid is None:
            if not ports:
                raise RoutingError(f"empty {kind}routing entry for {where}")
            gid = len(groups)
            group_ids[ports] = gid
            groups.append(ports)
        return gid

    def compile_row(rid: int, row: RouteRow, kind: str) -> Tuple[int, ...]:
        default, overrides = row
        fill = -1
        if default is not None and len(overrides) < num_slots:
            fill = intern_group(default, f"router {rid}'s default", kind)
        out = [fill] * num_slots
        for node, ports in overrides.items():
            gid = get_gid(ports)
            if gid is None:
                gid = intern_group(ports, (rid, node), kind)
            out[node_slot[node]] = gid
        return tuple(out)

    primary = tuple(compile_row(rid, row, "") for rid, row in enumerate(rows))
    alt = None
    if alt_rows is not None:
        alt = tuple(
            None if row is None else compile_row(rid, row, "alternate ")
            for rid, row in enumerate(alt_rows)
        )

    detour_map: Dict[Tuple[int, int], Tuple[Tuple[int, str], ...]] = {}
    for (rid, node), options in (detours or {}).items():
        compiled = tuple(
            (intern_group(ports, (rid, node), "detour "), flavor)
            for ports, flavor in options
        )
        if compiled:
            detour_map[(rid, node_slot[node])] = compiled

    return RouteProgram(
        name=name,
        num_routers=len(rows),
        nodes=nodes,
        node_slot=node_slot,
        dense=dense,
        groups=tuple(groups),
        primary=primary,
        alt=alt,
        detours=detour_map,
        overlay=overlay,
    )


def compile_routes(
    table: Mapping[Tuple[int, int], Tuple[int, ...]],
    alt_table: Optional[Mapping[Tuple[int, int], Tuple[int, ...]]] = None,
    detours: Optional[
        Mapping[Tuple[int, int], Tuple[Tuple[Tuple[int, ...], str], ...]]
    ] = None,
    *,
    name: str = "table",
    num_routers: Optional[int] = None,
    overlay: Optional[UpDownFailover] = None,
) -> RouteProgram:
    """:func:`compile_rows` from sparse ``(router_id, dst_node) -> ports``
    dicts, the form small generators write.

    The destinations are every node either table names; a router
    without entries gets an empty row, and ``num_routers`` defaults to
    one past the highest router id named.
    """
    primary = _rows_of(table)
    alt = _rows_of(alt_table or {})
    nodes: Set[int] = set()
    for overrides in (*primary.values(), *alt.values()):
        nodes.update(overrides)
    if num_routers is None:
        num_routers = max((*primary, *alt), default=-1) + 1
    alt_rows = None
    if alt:
        alt_rows = [
            (None, alt[rid]) if rid in alt else None
            for rid in range(num_routers)
        ]
    return compile_rows(
        sorted(nodes),
        [(None, primary.get(rid, {})) for rid in range(num_routers)],
        alt_rows,
        detours,
        name=name,
        overlay=overlay,
    )


def _rows_of(
    table: Mapping[Tuple[int, int], Tuple[int, ...]]
) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    """A sparse dict table split into per-router ``{node: ports}`` rows."""
    rows: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    for (rid, node), ports in table.items():
        row = rows.get(rid)
        if row is None:
            row = rows[rid] = {}
        row[node] = ports
    return rows


class RouterRouteView:
    """One router's window onto a shared program: mask overlay + lookups.

    The view holds the *only* mutable routing state of its router — the
    set of health-masked ports — plus bound references into the shared
    program rows, so the per-header hot path is two tuple indexes.  The
    owning :class:`CompiledRouting` aggregates the ``reroutes``/``detours_taken`` counters across its
    views (the health summary reads them per network, not per router).
    """

    __slots__ = (
        "router_id",
        "masked_ports",
        "_owner",
        "_program",
        "_groups",
        "_primary",
        "_alt",
        "_dense",
        "_num_slots",
    )

    def __init__(
        self, owner: "CompiledRouting", program: RouteProgram, router_id: int
    ) -> None:
        self.router_id = router_id
        self.masked_ports: Set[int] = set()
        self._owner = owner
        self._program = program
        self._groups = program.groups
        in_range = 0 <= router_id < program.num_routers
        self._primary = program.primary[router_id] if in_range else None
        self._alt = (
            program.alt[router_id]
            if in_range and program.alt is not None
            else None
        )
        self._dense = program.dense
        self._num_slots = len(program.nodes)

    def _slot(self, dst_node: int) -> int:
        if self._dense:
            return dst_node if 0 <= dst_node < self._num_slots else -1
        return self._program.node_slot.get(dst_node, -1)

    def candidates(self, dst_node: int) -> Tuple[int, ...]:
        row = self._primary
        if row is not None:
            slot = self._slot(dst_node)
            if slot >= 0:
                gid = row[slot]
                if gid >= 0:
                    return self._groups[gid]
        raise RoutingError(
            f"router {self.router_id}: no route to node {dst_node}"
        )

    def route_adaptive(
        self, dst_node: int, flavor: Optional[str]
    ) -> Tuple[Tuple[int, ...], Optional[str]]:
        """Candidates with this router's mask overlay applied.

        Returns ``(ports, flavor)`` where ``flavor`` is the detour
        flavour the message carries from here on (sticky: once a
        message detours onto the Y-then-X table it stays there).  The
        decision order: alternate table for ``"yx"`` worms, fat-group
        shrink, ordered detour fallback, and finally the (masked)
        primary so a fully dead neighbourhood blocks rather than
        silently dropping the worm.  The fault-plan isolation check
        walks the same method over the permanently dead ports.
        """
        primary = None
        if flavor == FLAVOR_YX and self._alt is not None:
            slot = self._slot(dst_node)
            if slot >= 0:
                gid = self._alt[slot]
                if gid >= 0:
                    primary = self._groups[gid]
        if primary is None:
            primary = self.candidates(dst_node)
        masked = self.masked_ports
        if not masked:
            return primary, flavor
        healthy = tuple(p for p in primary if p not in masked)
        if healthy:
            if len(healthy) < len(primary):
                self._owner.reroutes += 1
            return healthy, flavor
        slot = self._slot(dst_node)
        for gid, detour_flavor in self._program.detours.get(
            (self.router_id, slot), ()
        ):
            ports = self._groups[gid]
            open_ports = tuple(p for p in ports if p not in masked)
            if open_ports:
                self._owner.detours_taken += 1
                return open_ports, detour_flavor
        # Every option is masked: keep requesting the primary group.
        # The worm blocks there until the port recovers or the
        # end-to-end layer times it out — losing it outright would
        # undercount deliverable traffic after a recovery.
        return primary, flavor


class CompiledRouting:
    """One network's mutable routing state over a shared program.

    Holds one :class:`RouterRouteView` per router (created lazily, and
    handed to the router itself as its hot-path handle) plus the
    aggregated reroute/detour counters the health summary reports.  All
    table data stays in the shared program, so building one per network
    costs a few object allocations, never a recompile.
    """

    def __init__(self, program: RouteProgram) -> None:
        self.program = program
        #: the program's :class:`UpDownFailover`, or None (shared, immutable)
        self.overlay = program.overlay
        self._views: Dict[int, RouterRouteView] = {}
        #: fat groups shrunk around a masked sibling (counter)
        self.reroutes = 0
        #: primary group fully masked, detour fallback used (counter)
        self.detours_taken = 0

    def router_view(self, router_id: int) -> RouterRouteView:
        view = self._views.get(router_id)
        if view is None:
            view = RouterRouteView(self, self.program, router_id)
            self._views[router_id] = view
        return view

    def mask_port(self, router_id: int, port: int) -> None:
        """Exclude ``port`` from ``router_id``'s adaptive routes."""
        self.router_view(router_id).masked_ports.add(port)

    def unmask_port(self, router_id: int, port: int) -> None:
        """Re-admit a previously masked port."""
        view = self._views.get(router_id)
        if view is not None:
            view.masked_ports.discard(port)
