"""Scale campaign: compiled routing at datacenter-sized topologies.

``mediaworm scale`` proves the route-program refactor out at 1024+
hosts: each campaign point builds a 3-level k-ary fat tree or a k-ary
n-tree (butterfly/folded Clos), runs a sparse real-time workload three
times — ``Network.run``, a repeat, and the full-scan reference stepper
(:func:`repro.sim.reference.run_reference`, the ``legacy`` column) —
and demands all three produce bit-identical metrics digests and one
``Network.buffered_vcs`` census (``vcs used``: VCs that ever carried a
flit).  A progress watchdog (four frame epochs) arms every run, so a routing
cycle or a starved stream fails loudly instead of hanging the
campaign.

Each point also audits the *compile-once* contract: the repeat run
must hit the runner's topology cache, so the route-program compile
counter may move at most once per point (and not at all when an
earlier point already cached the shape).

Usage (flags and exit status live with the other subcommands, in
:mod:`repro.experiments.cli`)::

    mediaworm scale --points ft3-1024 --json scale.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import ButterflyExperiment, FatTree3Experiment
from repro.experiments.runner import simulate, topology_of
from repro.metrics.collector import canonical, canonical_metrics
from repro.router import routeprog
from repro.sim.reference import run_reference

FORMAT = "mediaworm-scale-v1"

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

#: name -> experiment; ft3-1024 is the acceptance point — a 1024-host,
#: 320-switch classic fat tree of uniform 16-port routers
SCALE_POINTS: Dict[str, object] = {
    "ft3-16": FatTree3Experiment(k=4, **_COMMON),
    "ft3-128": FatTree3Experiment(k=8, **_COMMON),
    "ft3-1024": FatTree3Experiment(k=16, **_COMMON),
    "bfly-64": ButterflyExperiment(arity=4, levels=3, **_COMMON),
    "bfly-512": ButterflyExperiment(arity=8, levels=3, **_COMMON),
}

#: the quick subset exercised by ``make scale-smoke`` and CI
SMOKE_POINTS = ("ft3-16", "bfly-64")


def _armed(experiment):
    """The experiment with the campaign watchdog installed."""
    window = WATCHDOG_FRAMES * experiment.workload_config().frame_interval_cycles
    return dataclasses.replace(experiment, watchdog_window=window)


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


def run_scale_point(name: str, log=None) -> Dict[str, object]:
    """Run one campaign point; returns its record (see module doc)."""
    try:
        experiment = SCALE_POINTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale point {name!r}; "
            f"choose from {', '.join(SCALE_POINTS)}"
        )
    experiment = _armed(experiment)

    networks = []
    hooked = dataclasses.replace(experiment, network_hook=networks.append)

    def timed(label: str, loop=None):
        """One run: result, wall seconds, (digest, buffered-VC census)."""
        started = time.perf_counter()
        result = simulate(hooked, loop=loop)
        seconds = time.perf_counter() - started
        if log is not None:
            log(f"[scale] {name}: {label} {seconds:.1f}s ({result.cycles_run} cycles)")
        return result, seconds, (run_digest(result), networks.pop().buffered_vcs())

    compiles_before = routeprog.compile_count()
    active, active_s, outcome = timed("active loop")
    compiles_first = routeprog.compile_count() - compiles_before
    _, repeat_s, repeat_outcome = timed("repeat")
    compiles_repeat = (
        routeprog.compile_count() - compiles_before - compiles_first
    )
    _, legacy_s, legacy_outcome = timed("legacy loop", run_reference)

    digest, (vcs_used, vcs_total) = outcome
    return {
        "name": name,
        "topology": _topology_stats(experiment),
        "watchdog_window": experiment.watchdog_window,
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
        # one digest, and both loops gave buffers to as many VCs
        "identical": outcome == repeat_outcome == legacy_outcome,
        "vcs_used": vcs_used,
        "vcs_total": vcs_total,
        # at most one compile for the first run (zero on a warm cache),
        # and exactly zero for the repeat — the compile-once contract
        "compiles_first_run": compiles_first,
        "compiles_repeat_run": compiles_repeat,
        "compile_once": compiles_first <= 1 and compiles_repeat == 0,
    }


def _point_ok(record: Dict[str, object]) -> bool:
    """One digest on both loops, one compile, and outputs worth hashing."""
    return bool(
        record["identical"]
        and record["compile_once"]
        and all(
            isinstance(record[key], float) and math.isfinite(record[key])
            for key in ("d_ms", "sigma_d_ms")
        )
    )


def run_scale_campaign(
    points: Optional[Tuple[str, ...]] = None, log=None
) -> Dict[str, object]:
    """Run the campaign; returns the summary record for JSON export."""
    names = tuple(points) if points else tuple(SCALE_POINTS)
    records = [run_scale_point(name, log=log) for name in names]
    return {
        "format": FORMAT,
        "points": records,
        "ok": all(_point_ok(r) for r in records),
    }


def scale_campaign_to_text(summary: Dict[str, object]) -> str:
    lines = [
        "scale campaign (active / repeat / legacy must be bit-identical)",
        f"{'point':>10s} {'hosts':>6s} {'switches':>8s} {'table ints':>10s} "
        f"{'active':>8s} {'setup':>8s} {'legacy':>8s} {'d ms':>8s} "
        f"{'vcs used':>11s} {'identical':>9s} {'compile':>7s}",
    ]
    for r in summary["points"]:
        topo = r["topology"]
        lines.append(
            f"{r['name']:>10s} {topo['hosts']:>6d} {topo['routers']:>8d} "
            f"{topo['table_ints']:>10d} {r['active_s']:>7.1f}s "
            f"{r['setup_s']:>7.2f}s {r['legacy_s']:>7.1f}s "
            f"{str(r['d_ms']):>8.8s} {r['vcs_used']:>5d}/{r['vcs_total']:<5d} "
            f"{str(r['identical']):>9s} "
            f"{'once' if r['compile_once'] else 'LEAK':>7s}"
        )
    lines.append(f"overall: {'OK' if summary['ok'] else 'FAIL'}")
    return "\n".join(lines)
