"""``mediaworm topo``: inspect a topology and its compiled route program.

Builds one topology from the generator name plus shape flags and
prints its structure — switch/host/channel counts, levels — and the
route program's compiled statistics (dense slots, interned port
groups, table footprint).  Useful for sizing a scale-campaign point
before committing to a run::

    mediaworm topo fat_tree3 --k 16
    mediaworm topo butterfly --arity 8 --levels 3
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    FatTreeExperiment,
    SingleSwitchExperiment,
)
from repro.network.topology import Topology

#: kind name -> the experiment type whose generator builds it and whose
#: shape fields are the accepted flags
TOPOLOGY_KINDS: Dict[str, type] = {
    "single": SingleSwitchExperiment,
    "mesh": FatMeshExperiment,
    "fat_tree": FatTreeExperiment,
    "fat_tree3": FatTree3Experiment,
    "butterfly": ButterflyExperiment,
}

#: every shape flag some generator accepts (``mediaworm topo`` offers
#: exactly these), first mention first
SHAPE_FLAGS = tuple(
    dict.fromkeys(
        flag for cls in TOPOLOGY_KINDS.values() for flag in cls.shape_fields
    )
)


def build_topology(kind: str, **params) -> Topology:
    """Build one topology by generator name; unknown flags are errors."""
    try:
        cls = TOPOLOGY_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology kind {kind!r}; "
            f"choose from {', '.join(TOPOLOGY_KINDS)}"
        )
    accepted = cls.shape_fields
    extra = sorted(set(params) - set(accepted))
    if extra:
        raise ConfigurationError(
            f"{kind} does not take {', '.join('--' + e.replace('_', '-') for e in extra)} "
            f"(accepted: {', '.join('--' + a.replace('_', '-') for a in accepted)})"
        )
    # only the flags given: the generator's defaults apply, not the
    # experiment type's
    return cls.generator(**params)


def describe_topology(topology: Topology) -> str:
    """Human-readable structure + route-program report."""
    lines: List[str] = [
        f"topology          {topology.extras.get('generator', 'custom')}",
        f"switches          {topology.num_routers}",
        f"ports per switch  {topology.ports_per_router}",
        f"hosts             {topology.num_hosts}",
        f"channels          {len(topology.channels)}",
    ]
    levels = topology.extras.get("levels")
    if levels is not None:
        counts: Dict[int, int] = {}
        for level in levels:
            counts[level] = counts.get(level, 0) + 1
        lines.append(
            "levels            "
            + ", ".join(
                f"L{level}: {count}" for level, count in sorted(counts.items())
            )
        )
    for key in ("k", "arity", "tree_levels", "rows", "cols", "fat_width"):
        if key in topology.extras:
            lines.append(f"{key:<17s} {topology.extras[key]}")
    stats = topology.route_program.stats()
    lines.append("route program")
    for key in (
        "destinations",
        "dense_nodes",
        "entries",
        "alt_entries",
        "detour_entries",
        "unique_groups",
        "max_group_size",
        "table_ints",
    ):
        lines.append(f"  {key:<15s} {stats[key]}")
    return "\n".join(lines)
