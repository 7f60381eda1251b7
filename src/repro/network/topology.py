"""Topology descriptions: single switch, fat meshes, fat trees, Clos.

A :class:`Topology` is pure data: where hosts attach, which router
ports face which other router ports, and the compiled route program.  The
:class:`~repro.network.network.Network` builder turns it into wired
routers, links, and host interfaces.

The paper evaluates an 8-port single switch (sections 5.1-5.6) and a
2x2 fat mesh (section 5.7): four 8-port switches, four hosts per
switch, and **two** physical links between each adjacent pair so the
inter-switch bandwidth matches the multi-endpoint load ("fat" links,
section 3.4).  ``fat_mesh`` generalises to k x k for the scalability
studies the paper lists as future work; ``fat_tree3`` (a 3-level
pod/spine/core k-ary fat tree) and ``butterfly`` (a k-ary n-tree, the
folded multistage Clos/Butterfly) extend the reproduction to the
datacenter scales the ROADMAP names, with deterministic up*/down*
routing compiled by the shared :func:`_updown_tables` pass.

Every generator, the single switch included, builds its routing
tables in dict form and hands them to
:func:`~repro.router.routeprog.compile_routes`, which compiles them
into one immutable :class:`~repro.router.routeprog.RouteProgram` —
built exactly once per topology, shared by every network instantiated
over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.router.routeprog import (
    FLAVOR_XY,
    FLAVOR_YX,
    RouteProgram,
    UpDownFailover,
    compile_routes,
)


@dataclass
class Topology:
    """Static description of a network.

    * ``hosts`` — one ``(node_id, router_id, port)`` triple per endpoint;
      the port is used for both injection (input side) and ejection
      (output side).
    * ``channels`` — unidirectional inter-router wires
      ``(src_router, src_port, dst_router, dst_port)``; bidirectional
      physical links appear as two entries.
    * ``route_program`` — the compiled routing tables all routers
      share (each network layers its own masks on top).
    """

    name: str
    num_routers: int
    ports_per_router: int
    hosts: List[Tuple[int, int, int]]
    channels: List[Tuple[int, int, int, int]]
    route_program: RouteProgram
    extras: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        used = set()
        for node, router, port in self.hosts:
            if not 0 <= router < self.num_routers:
                raise ConfigurationError(f"host {node}: bad router {router}")
            if not 0 <= port < self.ports_per_router:
                raise ConfigurationError(f"host {node}: bad port {port}")
            if (router, port) in used:
                raise ConfigurationError(
                    f"port ({router},{port}) attached twice"
                )
            used.add((router, port))
        out_used = set(used)
        in_used = set(used)
        for src_r, src_p, dst_r, dst_p in self.channels:
            if (src_r, src_p) in out_used and (src_r, src_p) not in used:
                raise ConfigurationError(
                    f"output port ({src_r},{src_p}) wired twice"
                )
            if (src_r, src_p) in used:
                raise ConfigurationError(
                    f"port ({src_r},{src_p}) is both host and channel port"
                )
            if (dst_r, dst_p) in used:
                raise ConfigurationError(
                    f"port ({dst_r},{dst_p}) is both host and channel port"
                )
            out_used.add((src_r, src_p))
            in_used.add((dst_r, dst_p))

    @property
    def num_hosts(self) -> int:
        """Number of endpoint nodes."""
        return len(self.hosts)

    @property
    def node_ids(self) -> List[int]:
        """All endpoint node ids."""
        return [node for node, _, _ in self.hosts]

    @cached_property
    def _next_hop(self) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int]]:
        """``node -> router`` and ``(router, port) -> next router``."""
        host_router = {node: router for node, router, _ in self.hosts}
        channel_dst = {(r, p): dst for r, p, dst, _ in self.channels}
        return host_router, channel_dst

    def route(
        self, src_node: int, dst_node: int
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """The deterministic route between two hosts, hop by hop.

        One ``(router, port group)`` per inter-router channel crossed
        (none when both hosts hang off one router); a fat group lists
        every interchangeable port, and the walk follows its first.
        Raises :class:`ConfigurationError` on a routing loop.
        """
        host_router, channel_dst = self._next_hop
        router = host_router[src_node]
        dst_router = host_router[dst_node]
        hops: List[Tuple[int, Tuple[int, ...]]] = []
        while router != dst_router:
            if len(hops) == self.num_routers:
                raise ConfigurationError(
                    f"routing loop from node {src_node} to {dst_node}"
                )
            group = self.route_program.candidates(router, dst_node)
            hops.append((router, group))
            router = channel_dst[(router, group[0])]
        return hops


def single_switch(num_ports: int = 8) -> Topology:
    """One switch with a host on every port (the paper's main testbed)."""
    if num_ports < 2:
        raise ConfigurationError(f"need >= 2 ports, got {num_ports}")
    name = f"single-switch-{num_ports}"
    return Topology(
        name=name,
        num_routers=1,
        ports_per_router=num_ports,
        hosts=[(i, 0, i) for i in range(num_ports)],
        channels=[],
        route_program=compile_routes(
            {(0, i): (i,) for i in range(num_ports)}, name=name
        ),
        extras={"generator": "single"},
    )


def fat_mesh(
    rows: int = 2,
    cols: int = 2,
    hosts_per_router: int = 4,
    fat_width: int = 2,
) -> Topology:
    """A rows x cols mesh with ``fat_width`` links between neighbours.

    Port layout per router: hosts occupy ports ``0..hosts_per_router-1``;
    each direction that has a neighbour gets ``fat_width`` consecutive
    ports, allocated in +X, -X, +Y, -Y order.  Deterministic
    dimension-order (X then Y) routing; the per-hop fat-link choice is
    made by the router from the candidate group based on load.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ConfigurationError("mesh needs at least two routers")
    if hosts_per_router < 1:
        raise ConfigurationError("need at least one host per router")
    if fat_width < 1:
        raise ConfigurationError("fat_width must be >= 1")

    def rid(x: int, y: int) -> int:
        return y * cols + x

    num_routers = rows * cols
    # Assign port groups per router and direction.
    directions = {}  # (router, dx, dy) -> tuple of ports
    ports_needed = []
    for y in range(rows):
        for x in range(cols):
            router = rid(x, y)
            cursor = hosts_per_router
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < cols and 0 <= ny < rows:
                    group = tuple(range(cursor, cursor + fat_width))
                    directions[(router, dx, dy)] = group
                    cursor += fat_width
            ports_needed.append(cursor)
    ports_per_router = max(ports_needed)

    hosts = []
    host_router: Dict[int, int] = {}
    host_port: Dict[int, int] = {}
    for router in range(num_routers):
        for k in range(hosts_per_router):
            node = router * hosts_per_router + k
            hosts.append((node, router, k))
            host_router[node] = router
            host_port[node] = k

    # Channels: the i-th fat port toward a neighbour wires to the
    # neighbour's i-th fat port back toward us.
    channels = []
    for (router, dx, dy), group in directions.items():
        x, y = router % cols, router // cols
        neighbour = rid(x + dx, y + dy)
        back = directions[(neighbour, -dx, -dy)]
        for src_p, dst_p in zip(group, back):
            channels.append((router, src_p, neighbour, dst_p))

    # Dimension-order routing tables.  The primary is X-then-Y; the
    # alternate (Y-then-X) is ridden by messages carrying the "yx"
    # detour flavour.  ``detours`` lists, per (router, destination),
    # the perpendicular escape hops adaptive routing may take when the
    # primary fat group is entirely masked: a hop in Y resumes
    # X-then-Y downstream ("xy"), a hop in X switches the worm to
    # Y-then-X ("yx") so it cannot ping-pong back into the dead group.
    table: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    alt_table: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    detours: Dict[Tuple[int, int], Tuple] = {}
    for router in range(num_routers):
        x, y = router % cols, router // cols
        for node, dst_router in host_router.items():
            if dst_router == router:
                table[(router, node)] = (host_port[node],)
                alt_table[(router, node)] = (host_port[node],)
                continue
            dst_x, dst_y = dst_router % cols, dst_router // cols
            if dst_x > x:
                step = (1, 0)
            elif dst_x < x:
                step = (-1, 0)
            elif dst_y > y:
                step = (0, 1)
            else:
                step = (0, -1)
            table[(router, node)] = directions[(router, step[0], step[1])]
            if dst_y > y:
                alt_step = (0, 1)
            elif dst_y < y:
                alt_step = (0, -1)
            elif dst_x > x:
                alt_step = (1, 0)
            else:
                alt_step = (-1, 0)
            alt_table[(router, node)] = directions[
                (router, alt_step[0], alt_step[1])
            ]
            if step[0] != 0:  # X step blocked -> escape in Y
                flavor = FLAVOR_XY
                if dst_y < y:
                    prefs = ((0, -1), (0, 1))
                else:
                    prefs = ((0, 1), (0, -1))
            else:  # Y step blocked -> escape in X
                flavor = FLAVOR_YX
                if dst_x < x:
                    prefs = ((-1, 0), (1, 0))
                else:
                    prefs = ((1, 0), (-1, 0))
            options = tuple(
                (directions[(router, dx, dy)], flavor)
                for dx, dy in prefs
                if (router, dx, dy) in directions
            )
            if options:
                detours[(router, node)] = options

    return Topology(
        name=f"fat-mesh-{rows}x{cols}w{fat_width}",
        num_routers=num_routers,
        ports_per_router=ports_per_router,
        hosts=hosts,
        channels=channels,
        route_program=compile_routes(table, alt_table, detours),
        extras={
            "generator": "mesh",
            "rows": rows,
            "cols": cols,
            "hosts_per_router": hosts_per_router,
            "fat_width": fat_width,
        },
    )


def fat_mesh_2x2() -> Topology:
    """The paper's fat mesh: 2x2, four hosts per 8-port switch, 2 fat links."""
    return fat_mesh(rows=2, cols=2, hosts_per_router=4, fat_width=2)


def fat_tree(
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 2,
    fat_width: int = 1,
) -> Topology:
    """A two-level fat tree (folded Clos) — the paper's other fat topology.

    Every leaf switch connects to every spine switch with ``fat_width``
    physical links.  Routing is up/down (deadlock-free): a message for
    a remote leaf may go up on *any* spine link (the router picks by
    load, as on fat-mesh link groups), then down the unique link group
    toward the destination leaf.

    Router ids: leaves are ``0 .. leaves-1``, spines follow.
    """
    if leaves < 2:
        raise ConfigurationError("a fat tree needs >= 2 leaf switches")
    if spines < 1:
        raise ConfigurationError("a fat tree needs >= 1 spine switch")
    if hosts_per_leaf < 1:
        raise ConfigurationError("need at least one host per leaf")
    if fat_width < 1:
        raise ConfigurationError("fat_width must be >= 1")

    num_routers = leaves + spines
    leaf_ports = hosts_per_leaf + spines * fat_width
    spine_ports = leaves * fat_width
    ports_per_router = max(leaf_ports, spine_ports)

    hosts = []
    host_leaf: Dict[int, int] = {}
    host_port: Dict[int, int] = {}
    for leaf in range(leaves):
        for k in range(hosts_per_leaf):
            node = leaf * hosts_per_leaf + k
            hosts.append((node, leaf, k))
            host_leaf[node] = leaf
            host_port[node] = k

    # Leaf port layout: hosts, then fat groups toward each spine.
    # Spine port layout: fat groups toward each leaf.
    def leaf_up_ports(spine: int) -> Tuple[int, ...]:
        base = hosts_per_leaf + spine * fat_width
        return tuple(range(base, base + fat_width))

    def spine_down_ports(leaf: int) -> Tuple[int, ...]:
        base = leaf * fat_width
        return tuple(range(base, base + fat_width))

    channels = []
    for leaf in range(leaves):
        for spine in range(spines):
            spine_router = leaves + spine
            for up, down in zip(leaf_up_ports(spine), spine_down_ports(leaf)):
                channels.append((leaf, up, spine_router, down))
                channels.append((spine_router, down, leaf, up))

    table: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    all_up = tuple(
        port for spine in range(spines) for port in leaf_up_ports(spine)
    )
    for node, leaf in host_leaf.items():
        for router in range(leaves):
            if router == leaf:
                table[(router, node)] = (host_port[node],)
            else:
                # up: any spine link is a legal first hop
                table[(router, node)] = all_up
        for spine in range(spines):
            # down: the unique fat group toward the destination leaf
            table[(leaves + spine, node)] = spine_down_ports(leaf)

    return Topology(
        name=f"fat-tree-{leaves}l{spines}s-w{fat_width}",
        num_routers=num_routers,
        ports_per_router=ports_per_router,
        hosts=hosts,
        channels=channels,
        route_program=compile_routes(table),
        extras={
            "generator": "fat_tree",
            "leaves": leaves,
            "spines": spines,
            "hosts_per_leaf": hosts_per_leaf,
            "fat_width": fat_width,
        },
    )


# ----------------------------------------------------------------------
# multilevel trees: shared up*/down* route construction


def _updown_tables(
    num_routers: int,
    levels: List[int],
    adjacency: Dict[Tuple[int, int], Tuple[int, ...]],
    host_router: Dict[int, int],
    host_port: Dict[int, int],
) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """Deterministic up*/down* routing tables for a levelled topology.

    ``adjacency`` maps ``(router, neighbour) -> fat port group``; every
    physical adjacency appears in both directions, and adjacent routers
    sit on consecutive levels (hosts attach at level 0).  The routing
    discipline is the classic deadlock-free one: a message travels *up*
    (any parent group — the router picks by load, as on fat-mesh link
    groups) exactly until the destination is in the subtree below, then
    strictly *down* along the group(s) toward the child subtree holding
    it.  Because down-subtrees partition the hosts at every level of a
    folded-Clos-style fabric, down candidates are a single fat group —
    there is provably no down-path diversity to build detour tables
    from, which is why tree topologies compile with an empty detour
    table.  Down-path *repair* exists anyway, but it is global rather
    than local: ascend through a different ancestor.  The generators
    attach an :class:`~repro.router.routeprog.UpDownFailover` overlay
    (compiled lazily from the same levels/adjacency data) that turns a
    dead-switch set into the up-port masks realising exactly that
    repair — see docs/simulator-internals.md, "Switch failures and
    datacenter failover".
    """
    children: Dict[int, List[int]] = {r: [] for r in range(num_routers)}
    parents: Dict[int, List[int]] = {r: [] for r in range(num_routers)}
    for (rid, nbr) in sorted(adjacency):
        if levels[nbr] == levels[rid] - 1:
            children[rid].append(nbr)
        elif levels[nbr] == levels[rid] + 1:
            parents[rid].append(nbr)
        else:
            raise ConfigurationError(
                f"adjacency {rid}->{nbr} spans levels "
                f"{levels[rid]}->{levels[nbr]}; up*/down* needs "
                f"consecutive levels"
            )
    up_ports = {
        rid: tuple(
            port for nbr in parents[rid] for port in adjacency[(rid, nbr)]
        )
        for rid in range(num_routers)
    }

    # Propagate host sets up the tree, remembering which child subtree
    # each host arrived through (hosts may be reachable through several
    # children in a generalised fabric; candidates concatenate groups
    # in child-id order, deterministically).
    hosts_via: Dict[int, Dict[int, List[int]]] = {
        r: {} for r in range(num_routers)
    }
    below: Dict[int, set] = {r: set() for r in range(num_routers)}
    for node, rid in host_router.items():
        below[rid].add(node)
    for rid in sorted(range(num_routers), key=lambda r: (levels[r], r)):
        for child in children[rid]:
            for node in below[child]:
                below[rid].add(node)
                hosts_via[rid].setdefault(node, []).append(child)

    table: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for node, dst_rid in host_router.items():
        for rid in range(num_routers):
            if rid == dst_rid:
                table[(rid, node)] = (host_port[node],)
            elif node in below[rid]:
                table[(rid, node)] = tuple(
                    port
                    for child in hosts_via[rid][node]
                    for port in adjacency[(rid, child)]
                )
            else:
                if not up_ports[rid]:
                    raise ConfigurationError(
                        f"router {rid} (level {levels[rid]}) cannot reach "
                        f"node {node}: not below and no parents"
                    )
                table[(rid, node)] = up_ports[rid]
    return table


def _wire_levelled(
    levels: List[int],
    adjacency: Dict[Tuple[int, int], Tuple[int, ...]],
) -> List[Tuple[int, int, int, int]]:
    """Bidirectional channels from a both-direction adjacency map.

    The i-th port of the upward fat group wires to the i-th port of the
    matching downward group, like fat-mesh neighbour pairs.
    """
    channels: List[Tuple[int, int, int, int]] = []
    for (a, b) in sorted(adjacency):
        if levels[a] < levels[b]:
            up_group = adjacency[(a, b)]
            down_group = adjacency[(b, a)]
            for pa, pb in zip(up_group, down_group):
                channels.append((a, pa, b, pb))
                channels.append((b, pb, a, pa))
    return channels


def fat_tree3(
    k: int = 4,
    hosts_per_leaf: Optional[int] = None,
    fat_width: int = 1,
) -> Topology:
    """A 3-level k-ary fat tree: k pods of leaves+spines under a core.

    The classic datacenter shape: ``k`` pods, each with ``k/2`` leaf
    and ``k/2`` spine switches; every leaf connects to every spine of
    its pod, and spine ``j`` of every pod connects to the same group of
    ``k/2`` core switches (so a core reaches exactly one spine per
    pod).  ``hosts_per_leaf`` defaults to ``k/2``, giving the full
    ``k^3/4`` hosts — ``k=16`` is the 1024-host configuration with
    uniform 16-port switches.  ``fat_width`` parallel links per
    adjacency form fat groups exactly as on the mesh.

    Routing is compiled up*/down* (see :func:`_updown_tables`): up
    candidates span *all* parent groups so health-masking a link
    shrinks the group naturally; down paths are unique per switch, so
    the generated detour table is empty by theorem, not omission.
    """
    if k < 2 or k % 2:
        raise ConfigurationError(f"fat_tree3 needs an even k >= 2, got {k}")
    if fat_width < 1:
        raise ConfigurationError("fat_width must be >= 1")
    half = k // 2
    hpl = half if hosts_per_leaf is None else hosts_per_leaf
    if hpl < 1:
        raise ConfigurationError("need at least one host per leaf")
    num_leaves = k * half
    num_spines = k * half
    num_cores = half * half
    num_routers = num_leaves + num_spines + num_cores

    def leaf_rid(pod: int, i: int) -> int:
        return pod * half + i

    def spine_rid(pod: int, j: int) -> int:
        return num_leaves + pod * half + j

    def core_rid(c: int) -> int:
        return num_leaves + num_spines + c

    levels = [0] * num_leaves + [1] * num_spines + [2] * num_cores

    adjacency: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def group(base: int) -> Tuple[int, ...]:
        return tuple(range(base, base + fat_width))

    for pod in range(k):
        for i in range(half):
            leaf = leaf_rid(pod, i)
            for j in range(half):
                spine = spine_rid(pod, j)
                # leaf: hosts first, then one up group per pod spine;
                # spine: down groups to pod leaves, then up groups.
                adjacency[(leaf, spine)] = group(hpl + j * fat_width)
                adjacency[(spine, leaf)] = group(i * fat_width)
        for j in range(half):
            spine = spine_rid(pod, j)
            for m in range(half):
                core = core_rid(j * half + m)
                adjacency[(spine, core)] = group(
                    half * fat_width + m * fat_width
                )
                adjacency[(core, spine)] = group(pod * fat_width)

    hosts = []
    host_router: Dict[int, int] = {}
    host_port: Dict[int, int] = {}
    for leaf in range(num_leaves):
        for h in range(hpl):
            node = leaf * hpl + h
            hosts.append((node, leaf, h))
            host_router[node] = leaf
            host_port[node] = h

    leaf_ports = hpl + half * fat_width
    spine_ports = 2 * half * fat_width
    core_ports = k * fat_width
    ports_per_router = max(leaf_ports, spine_ports, core_ports)

    table = _updown_tables(
        num_routers, levels, adjacency, host_router, host_port
    )
    name = f"fat-tree3-k{k}h{hpl}w{fat_width}"
    overlay = UpDownFailover(levels, adjacency, host_router)
    return Topology(
        name=name,
        num_routers=num_routers,
        ports_per_router=ports_per_router,
        hosts=hosts,
        channels=_wire_levelled(levels, adjacency),
        route_program=compile_routes(table, name=name, overlay=overlay),
        extras={
            "generator": "fat_tree3",
            "k": k,
            "hosts_per_leaf": hpl,
            "fat_width": fat_width,
            "levels": tuple(levels),
        },
    )


def butterfly(
    arity: int = 2,
    levels: int = 3,
    hosts_per_leaf: Optional[int] = None,
    fat_width: int = 1,
) -> Topology:
    """A k-ary n-tree: the folded multistage Clos/Butterfly network.

    ``levels`` stages of ``arity**(levels-1)`` switches each; the
    switch at ``(level l, index d)`` connects upward to the ``arity``
    level-``l+1`` switches whose index differs from ``d`` only in base-
    ``arity`` digit ``l`` — the butterfly permutation, folded into a
    bidirectional fabric.  Hosts (``hosts_per_leaf`` each, default
    ``arity``) hang off the level-0 switches.  Routing is the same
    compiled up*/down* pass as :func:`fat_tree3`; every top-level
    switch reaches every leaf, so up candidates are always the full
    parent set.
    """
    if arity < 2:
        raise ConfigurationError(f"butterfly needs arity >= 2, got {arity}")
    if levels < 2:
        raise ConfigurationError(f"butterfly needs >= 2 levels, got {levels}")
    if fat_width < 1:
        raise ConfigurationError("fat_width must be >= 1")
    hpl = arity if hosts_per_leaf is None else hosts_per_leaf
    if hpl < 1:
        raise ConfigurationError("need at least one host per leaf")
    per_level = arity ** (levels - 1)
    num_routers = levels * per_level

    def rid(level: int, index: int) -> int:
        return level * per_level + index

    level_of = [
        level for level in range(levels) for _ in range(per_level)
    ]

    def group(base: int) -> Tuple[int, ...]:
        return tuple(range(base, base + fat_width))

    adjacency: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for level in range(levels - 1):
        stride = arity**level
        for index in range(per_level):
            digit = (index // stride) % arity
            lower = rid(level, index)
            # lower's up groups follow its down groups (or its host
            # ports at level 0); upper's down groups come first.
            up_base = hpl if level == 0 else arity * fat_width
            for v in range(arity):
                upper_index = index + (v - digit) * stride
                upper = rid(level + 1, upper_index)
                adjacency[(lower, upper)] = group(up_base + v * fat_width)
                adjacency[(upper, lower)] = group(digit * fat_width)

    hosts = []
    host_router: Dict[int, int] = {}
    host_port: Dict[int, int] = {}
    for leaf in range(per_level):
        for h in range(hpl):
            node = leaf * hpl + h
            hosts.append((node, leaf, h))
            host_router[node] = leaf
            host_port[node] = h

    leaf_ports = hpl + arity * fat_width
    mid_ports = 2 * arity * fat_width
    top_ports = arity * fat_width
    ports_per_router = max(
        leaf_ports, top_ports, mid_ports if levels > 2 else 0
    )

    table = _updown_tables(
        num_routers, level_of, adjacency, host_router, host_port
    )
    name = f"butterfly-a{arity}n{levels}h{hpl}w{fat_width}"
    overlay = UpDownFailover(level_of, adjacency, host_router)
    return Topology(
        name=name,
        num_routers=num_routers,
        ports_per_router=ports_per_router,
        hosts=hosts,
        channels=_wire_levelled(level_of, adjacency),
        route_program=compile_routes(table, name=name, overlay=overlay),
        extras={
            "generator": "butterfly",
            "arity": arity,
            "tree_levels": levels,
            "hosts_per_leaf": hpl,
            "fat_width": fat_width,
            "levels": tuple(level_of),
        },
    )
