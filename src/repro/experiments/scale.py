"""Scale campaign: compiled routing at datacenter-sized topologies.

``mediaworm scale`` proves the route-program refactor out at 1024+
hosts: each campaign point builds a 3-level k-ary fat tree or a k-ary
n-tree (butterfly/folded Clos), runs a sparse real-time workload three
times — ``Network.run``, a repeat, and the full-scan reference stepper
(:func:`repro.sim.reference.run_reference`, the ``legacy`` column) —
and demands all three produce bit-identical metrics digests, one
``Network.buffered_vcs`` census (``vcs used``: VCs that ever carried a
flit), one ``Network.built_vcs`` count (``vcs built``: VCs of the
ports traffic opened) and one ``Network.held_deques`` count
(``deques held`` after the run: a loop that forgets to give a FIFO
back differs here).  A progress watchdog (four frame epochs) arms every run, so a routing
cycle or a starved stream fails loudly instead of hanging the
campaign.

Each point also audits the *compile-once* contract: the repeat run
must hit the runner's topology cache, so the route-program compile
counter may move at most once per point (and not at all when an
earlier point already cached the shape).  Next to it sits *walk-once*:
the repeat and reference runs must replay the first run's balanced
placement walks from the process memo
(:meth:`repro.sim.rng.RngStreams.shuffled_prefix`), never redraw them.

:data:`CAMPAIGN` sweeps point names (``--points``; ``--profile smoke``:
:data:`SMOKE_POINTS`); a point's record is its ``extra``, and a point
whose runs raise or disagree is a ``FAILED`` row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.experiments.campaign import Axis, Campaign, Column, Point
from repro.experiments.config import ButterflyExperiment, FatTree3Experiment
from repro.experiments.runner import simulate, topology_of
from repro.metrics.collector import canonical, canonical_metrics
from repro.router import routeprog
from repro.sim import rng
from repro.sim.reference import run_reference

#: sparse load so wall time stays dominated by network size, not flits
SCALE_LOAD = 0.01
#: every campaign run aborts after this many frame epochs of no progress
WATCHDOG_FRAMES = 4

_COMMON = dict(
    load=SCALE_LOAD,
    mix=(100.0, 0.0),
    vcs_per_pc=4,
    warmup_frames=1,
    # two measured frames: one leaves no delivery interval, so d and
    # sigma_d would be NaN and the digests would pin nothing
    measure_frames=2,
    seed=11,
    scale=40.0,
)


def point_name(experiment) -> str:
    """``ft3-<hosts>`` / ``bfly-<hosts>``: the name a point goes by,
    read off its shape fields (no topology is built)."""
    shape = experiment.shape()
    if "k" in shape:  # a k-ary fat tree: k pods of k/2 leaves
        k = shape["k"]
        return f"ft3-{k * k // 2 * (shape['hosts_per_leaf'] or k // 2)}"
    arity = shape["arity"]
    leaves = arity ** (shape["levels"] - 1)
    return f"bfly-{leaves * (shape['hosts_per_leaf'] or arity)}"


#: name -> experiment; ft3-1024 is the acceptance point — a 1024-host,
#: 320-switch classic fat tree of uniform 16-port routers
SCALE_POINTS: Dict[str, object] = {
    point_name(experiment): experiment
    for experiment in (
        FatTree3Experiment(k=4, **_COMMON),
        FatTree3Experiment(k=8, **_COMMON),
        FatTree3Experiment(k=16, **_COMMON),
        ButterflyExperiment(arity=4, levels=3, **_COMMON),
        ButterflyExperiment(arity=8, levels=3, **_COMMON),
    )
}

#: the quick subset exercised by ``make scale-smoke`` and CI
SMOKE_POINTS = ("ft3-16", "bfly-64")


def run_digest(result) -> str:
    """Canonical digest of one run: metrics + conservation counters."""
    payload = {
        "metrics": canonical_metrics(result),
        "cycles": result.cycles_run,
        "injected": result.flits_injected,
        "ejected": result.flits_ejected,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _topology_stats(experiment) -> Dict[str, object]:
    """Shape + route-program statistics for the point's topology.

    Served from the runner's cache, so this never triggers an extra
    compile once the point has run.
    """
    topology = topology_of(experiment)
    stats = dict(topology.route_program.stats())
    stats["hosts"] = topology.num_hosts
    stats["ports_per_router"] = topology.ports_per_router
    return stats


def _point_experiment(profile, series, name: str):
    """The point with the campaign watchdog armed; the profile picks
    only the default points (and ``--watchdog`` the window), never a
    point's seed or scale, so digests do not depend on it."""
    experiment = SCALE_POINTS[name]
    interval = experiment.workload_config().frame_interval_cycles
    return dataclasses.replace(
        experiment,
        watchdog_window=profile.watchdog_window or WATCHDOG_FRAMES * interval,
    )


def _point_ok(record: Dict[str, object]) -> bool:
    """One digest on both loops, one compile, one placement walk, and
    outputs worth hashing."""
    return bool(
        record["identical"]
        and record["compile_once"]
        and record["placement_walks"][1:] == [0, 0]
        and all(
            isinstance(record[key], float) and math.isfinite(record[key])
            for key in ("d_ms", "sigma_d_ms")
        )
    )


def _scale_point(experiment) -> Point:
    """Worker body: the point's three runs, reduced to its record.

    A record :func:`_point_ok` rejects is the point's ``failed``
    extra; a :class:`~repro.errors.SimulationError` from any run
    propagates, and the campaign records it as a ``FAILED`` row.
    """
    name = point_name(experiment)
    networks = []
    hooked = dataclasses.replace(experiment, network_hook=networks.append)
    #: placement walks per run, in run order
    walks = []

    def timed(loop=None):
        """One run: result, wall seconds, (digest, buffered-VC census,
        VCs built, deques held); appends the placement walks the run
        performed to ``walks``."""
        walks_before = rng.PLACEMENT_WALKS
        started = time.perf_counter()
        result = simulate(hooked, loop=loop)
        seconds = time.perf_counter() - started
        walks.append(rng.PLACEMENT_WALKS - walks_before)
        network = networks.pop()
        census = (
            run_digest(result),
            network.buffered_vcs(),
            network.built_vcs(),
            network.held_deques(),
        )
        return result, seconds, census

    compiles_before = routeprog.compile_count()
    started = time.perf_counter()
    topology_of(experiment)
    topology_s = time.perf_counter() - started
    active, active_s, outcome = timed()
    compiles_first = routeprog.compile_count() - compiles_before
    _, repeat_s, repeat_outcome = timed()
    compiles_repeat = routeprog.compile_count() - compiles_before - compiles_first
    _, legacy_s, legacy_outcome = timed(run_reference)

    digest, (vcs_used, vcs_total), vcs_built, deques_held = outcome
    record = {
        "name": name,
        "topology": _topology_stats(experiment),
        "watchdog_window": experiment.watchdog_window,
        # the topology build + route compile before the first run
        # (≈ 0 when an earlier point cached the shape); never gated
        "topology_s": round(topology_s, 3),
        "active_s": round(active_s, 3),
        # the part of active_s spent building the run (network,
        # workload), before the first cycle
        "setup_s": round(active.setup_seconds, 3),
        "repeat_s": round(repeat_s, 3),
        "legacy_s": round(legacy_s, 3),
        "flits_injected": active.flits_injected,
        "flits_ejected": active.flits_ejected,
        # the paper's outputs, "nan" when the run measured no
        # delivery interval (which fails the point, see _point_ok)
        "d_ms": canonical(active.metrics.d),
        "sigma_d_ms": canonical(active.metrics.sigma_d),
        "digest": digest,
        # one digest, and both loops gave buffers to as many VCs,
        # opened ports with as many VCs and end holding as many deques
        "identical": outcome == repeat_outcome == legacy_outcome,
        "vcs_used": vcs_used,
        "vcs_built": vcs_built,
        "vcs_total": vcs_total,
        "deques_held": deques_held,
        # at most one compile for the build and first run (zero on a
        # warm cache), and exactly zero for the repeat — the
        # compile-once contract
        "compiles_first_run": compiles_first,
        "compiles_repeat_run": compiles_repeat,
        "compile_once": compiles_first <= 1 and compiles_repeat == 0,
        # balanced-placement shuffle walks of the active, repeat and
        # reference runs: the first walks once per host (none on a warm
        # memo), the other two replay it — the walk-once contract
        "placement_walks": walks,
    }
    if not _point_ok(record):
        record["failed"] = ", ".join(
            f"{key}={record[key]}"
            for key in (
                "identical",
                "compile_once",
                "placement_walks",
                "d_ms",
                "sigma_d_ms",
            )
        )
    return Point(None, active.metrics, extra=record)


def _check_point(name: str) -> None:
    if name not in SCALE_POINTS:
        raise ConfigurationError(
            f"unknown scale point {name!r}; "
            f"choose from {', '.join(SCALE_POINTS)}"
        )


def _default_points(profile) -> Tuple[str, ...]:
    return SMOKE_POINTS if profile.name == "smoke" else tuple(SCALE_POINTS)


CAMPAIGN = Campaign(
    name="scale",
    help="datacenter-scale campaign (1024-host fat tree, Clos)",
    series=("scale",),
    axis=Axis(
        flag="--points",
        metavar="P1,P2,...",
        help=f"comma-separated point names from {','.join(SCALE_POINTS)} "
        f"(default: all; --profile smoke: {','.join(SMOKE_POINTS)})",
        defaults=_default_points,
        check=_check_point,
    ),
    experiment=_point_experiment,
    point=_scale_point,
    title="scale campaign (active / repeat / legacy must be bit-identical)",
    xlabel="scale point",
    notes="a point fails unless its three runs share one digest and VC "
    "census, its route program compiles at most once, and d / sigma_d "
    "are finite",
    columns=(
        Column("point", 10, "x"),
        Column("hosts", 6, "topology.hosts"),
        Column("switches", 8, "topology.routers"),
        Column("table ints", 10, "topology.table_ints"),
        Column("build s", 8, "topology_s", ".2f"),
        Column("active s", 8, "active_s", ".1f"),
        Column("setup s", 8, "setup_s", ".2f"),
        Column("legacy s", 8, "legacy_s", ".1f"),
        Column("d ms", 8, "d", ".4f"),
        Column("vcs used", 8, "vcs_used"),
        Column("vcs built", 9, "vcs_built"),
        Column("vcs total", 9, "vcs_total"),
        Column("identical", 9, "identical"),
        Column("compiles", 8, "compiles_first_run"),
    ),
)
