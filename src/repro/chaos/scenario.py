"""Typed random scenarios for the chaos harness.

A :class:`Scenario` is the experiment one chaos run simulates — any
experiment type, named by its ``mediaworm topo`` kind, with its fault
plan, recovery transport, health monitoring, routing mode, progress
watchdog and invariant checker — plus what only the harness needs: a
key, a wall-clock budget and (for harness self-tests) a named sabotage
hook that deliberately corrupts simulator state mid-run.

:class:`ScenarioSpace` is the generator: a seeded draw over all of
those axes.  Generation is deterministic — the same ``(seed, index)``
always yields the same scenario, on any platform — which is what makes
campaign verdicts reproducible and repro files replayable.

Two invariants the generator maintains so that a *failing* scenario
indicates a simulator bug rather than a malformed experiment:

* every faulted scenario carries an end-to-end recovery transport and
  an armed progress watchdog (loss without recovery wedges worms by
  design — that is a scenario bug, not a router bug);
* down windows are always finite and never isolate a host, so
  :func:`~repro.faults.install_faults` accepts every generated plan.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError
from repro.experiments.runner import topology_of
from repro.experiments.topo import TOPOLOGY_KINDS
from repro.faults import (
    DomainDownWindow,
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
)
from repro.network.health import HealthConfig
from repro.obs.events import TraceSpec
from repro.plain import from_plain
from repro.router.config import RoutingMode
from repro.router.flit import TrafficClass

_SCHEMA = "mediaworm-chaos-scenario-v2"


# ----------------------------------------------------------------------
# sabotage hooks (harness self-tests)


def sabotage_credit(cycle: int, network) -> None:
    """Schedule a one-credit theft at ``cycle``.

    Decrements the first wired sender-side credit counter by one, so
    the sender under-counts its budget from then on.  Stealing (rather
    than minting) a credit cannot overflow any buffer — the simulation
    keeps running normally — but the books no longer balance, and the
    next :func:`repro.obs.invariants.check_credits` audit must raise
    :class:`~repro.errors.InvariantViolation`.  A chaos campaign that
    does *not* flag this scenario has a blind oracle.
    """

    def corrupt() -> None:
        for link in network.links:
            router = link.dest_router
            if router is None:
                continue
            # A port's VCs exist once traffic needs them: open this one
            # (from its sender's side), so the theft is there to audit
            # whether or not a flit has crossed the link yet.
            if link.src_router is not None:
                link.src_router.open_output(link.src_port)
            else:
                for ni in network.interfaces.values():
                    if ni.link is link:
                        ni.open_port()
            for ivc in router.inputs[link.dest_port]:
                sender = ivc.credit_sink
                if sender is not None:
                    sender.credits -= 1
                    return

    network.schedule_call(max(cycle, network.clock), corrupt)


#: registry of named sabotage hooks; each entry is a module-level
#: callable ``fn(cycle, network)`` so experiments stay picklable
SABOTAGES: Dict[str, Callable] = {
    "credit": sabotage_credit,
}


# ----------------------------------------------------------------------
# the scenario record


@dataclass(frozen=True)
class Scenario:
    """One fully specified chaos run (replayable: :func:`repro.plain
    .to_plain` writes it, :func:`scenario_from_plain` reads it)."""

    key: str
    #: the experiment's ``mediaworm topo`` kind: the key of its type in
    #: :data:`~repro.experiments.topo.TOPOLOGY_KINDS`
    kind: str
    #: the experiment the run simulates, watchdog and checker included
    experiment: object
    #: per-run wall-clock budget, seconds (hang protection)
    wall_timeout_s: float = 120.0
    #: named state-corruption hook from :data:`SABOTAGES` (self-tests)
    sabotage: Optional[str] = None
    #: the repro-file format tag; a file carrying any other is refused
    format: str = _SCHEMA

    def __post_init__(self) -> None:
        if self.format != _SCHEMA:
            raise ConfigurationError(
                f"unknown scenario format {self.format!r} (expected {_SCHEMA!r})"
            )
        if TOPOLOGY_KINDS.get(self.kind) is not type(self.experiment):
            raise ConfigurationError(
                f"scenario kind {self.kind!r} does not name the type of "
                f"its {type(self.experiment).__name__} (kinds: "
                f"{', '.join(TOPOLOGY_KINDS)})"
            )
        if self.sabotage is not None and self.sabotage not in SABOTAGES:
            raise ConfigurationError(
                f"unknown sabotage {self.sabotage!r}; "
                f"known: {sorted(SABOTAGES)}"
            )

    @property
    def is_zero_fault(self) -> bool:
        """True when the scenario injects no faults at all."""
        faults = self.experiment.faults
        return faults is None or faults.is_zero

    def to_experiment(self):
        """The runnable experiment: the scenario's, with its sabotage
        hook (if any) due half a frame interval after warmup."""
        experiment = self.experiment
        if self.sabotage is None:
            return experiment
        interval = experiment.workload_config().frame_interval_cycles
        hook = partial(
            SABOTAGES[self.sabotage],
            experiment.warmup_cycles + interval // 2,
        )
        return dataclasses.replace(experiment, network_hook=hook)


def scenario_from_plain(data, path: str = "scenario") -> Scenario:
    """Rebuild a scenario written by :func:`repro.plain.to_plain`.

    Its ``kind`` names the experiment's type; :func:`~repro.plain
    .from_plain` then decodes every field as strictly as any other
    dataclass.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    if isinstance(data, dict) and kind not in TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"{path}.kind: expected one of {', '.join(TOPOLOGY_KINDS)}, "
            f"got {kind!r}"
        )
    return from_plain(
        Scenario, data, path, types={"experiment": TOPOLOGY_KINDS.get(kind)}
    )


def armed(experiment):
    """``experiment`` as every chaos run simulates it: the progress
    watchdog armed at four frame intervals and an invariant checker
    riding the run."""
    interval = experiment.workload_config().frame_interval_cycles
    return dataclasses.replace(
        experiment, watchdog_window=4 * interval, trace=TraceSpec(check=True)
    )


# ----------------------------------------------------------------------
# the scenario space


@dataclass(frozen=True)
class ScenarioSpace:
    """The distribution chaos campaigns draw scenarios from.

    A campaign stores each drawn scenario under its content key:
    a scenario that another space, seed or timeout draws differently
    is a new key and is recomputed, never served a foreign verdict.
    """

    scale: float = 100.0
    #: ``mediaworm topo`` kinds drawn
    topologies: Tuple[str, ...] = ("single", "mesh", "fat_tree3", "butterfly")
    #: single-switch port counts (a choice is drawn for every kind)
    num_ports_choices: Tuple[int, ...] = (4, 8)
    #: kind -> the multi-router shapes drawn for it, each the leading
    #: values of the type's ``shape_fields`` (the rest keep the type's
    #: defaults): 2x2 meshes with two hosts per router, k=4 fat trees
    #: (16 hosts), 2-ary 3-trees and 4-ary 2-trees
    shapes: Dict[str, Tuple[Tuple[int, ...], ...]] = field(
        default_factory=lambda: {
            "mesh": ((2, 2, 2),),
            "fat_tree3": ((4,),),
            "butterfly": ((2, 3), (4, 2)),
        }
    )
    schedulers: Tuple[str, ...] = (
        SchedulingPolicy.VIRTUAL_CLOCK,
        SchedulingPolicy.FIFO,
    )
    vcs_choices: Tuple[int, ...] = (4, 8, 16)
    load_range: Tuple[float, float] = (0.3, 0.85)
    mixes: Tuple[Tuple[float, float], ...] = (
        (100.0, 0.0),
        (80.0, 20.0),
        (50.0, 50.0),
    )
    rt_classes: Tuple[str, ...] = (TrafficClass.VBR, TrafficClass.CBR)
    message_sizes: Tuple[int, ...] = (8, 20, 40)
    max_measure_frames: int = 2
    #: fraction of scenarios drawn with no faults at all (these feed
    #: the fused-vs-legacy parity and health-no-op differential oracles)
    zero_fault_fraction: float = 0.4
    #: of the zero-fault scenarios: fraction run with (passive) health
    #: monitoring, checked bit-identical against an unmonitored twin
    health_fraction: float = 0.5
    #: of the faulted multi-router scenarios: fraction run with
    #: the full adaptive-failover stack (symptom-driven rerouting,
    #: switch-level suspicion and degradation)
    adaptive_fraction: float = 0.4
    #: of the faulted fat-tree/butterfly scenarios: fraction whose
    #: outage is drawn switch-shaped (a finite :class:`~repro.faults
    #: .DomainDownWindow` over a whole switch, or a pod on fat trees)
    #: instead of individual link windows
    switch_fault_fraction: float = 0.35
    loss_range: Tuple[float, float] = (0.001, 0.01)
    corrupt_range: Tuple[float, float] = (0.0, 0.005)
    max_down_windows: int = 2
    wall_timeout_s: float = 120.0

    # -- drawing ---------------------------------------------------------

    def nth(self, seed: int, index: int) -> Scenario:
        """Scenario ``index`` of campaign ``seed``'s stream (see
        :func:`generate`)."""
        return self.draw(random.Random(f"chaos/{seed}/{index}"), f"s{index:03d}")

    def draw(self, rng: random.Random, key: str) -> Scenario:
        """One scenario, fully determined by ``rng``'s state."""
        kind = rng.choice(self.topologies)
        seed = rng.randrange(1, 2**31)
        # drawn for every kind, as it always was, so that each seed
        # keeps its scenario stream; only a single switch uses it
        ports = rng.choice(self.num_ports_choices)
        settings = dict(
            seed=seed,
            scheduler=rng.choice(self.schedulers),
            vcs_per_pc=rng.choice(self.vcs_choices),
            load=round(rng.uniform(*self.load_range), 3),
            mix=rng.choice(self.mixes),
            rt_class=rng.choice(self.rt_classes),
            message_size=rng.choice(self.message_sizes),
            scale=self.scale,
            warmup_frames=1,
            measure_frames=rng.randint(1, self.max_measure_frames),
        )
        shape = (ports,) if kind == "single" else rng.choice(self.shapes[kind])
        cls = TOPOLOGY_KINDS[kind]
        experiment = armed(cls(**dict(zip(cls.shape_fields, shape)), **settings))
        interval = experiment.workload_config().frame_interval_cycles
        if rng.random() < self.zero_fault_fraction:
            if rng.random() < self.health_fraction:
                # passive monitoring, checked by the health-noop oracle
                experiment = dataclasses.replace(experiment, health=HealthConfig())
        else:
            experiment = self._faulted(rng, kind, experiment, interval)
        return Scenario(
            key=key,
            kind=kind,
            experiment=experiment,
            wall_timeout_s=self.wall_timeout_s,
        )

    def _faulted(self, rng: random.Random, kind: str, experiment, interval: int):
        """Attach a fault plan, its recovery transport, and (sometimes)
        the adaptive-failover stack."""
        if kind != "single" and rng.random() < self.adaptive_fraction:
            # the failover stack is validated at 16 VCs (reserved
            # escape VC per class partition needs the headroom)
            experiment = dataclasses.replace(
                experiment,
                vcs_per_pc=16,
                routing_mode=RoutingMode.ADAPTIVE,
                health=HealthConfig(),
            )
        loss = round(rng.uniform(*self.loss_range), 5)
        corrupt = round(rng.uniform(*self.corrupt_range), 5)
        domains: Tuple[DomainDownWindow, ...] = ()
        windows: Tuple[LinkDownWindow, ...] = ()
        if (
            kind in ("fat_tree3", "butterfly")
            and rng.random() < self.switch_fault_fraction
        ):
            domains = (self._draw_domain(rng, kind, experiment, interval),)
        else:
            windows = self._draw_windows(rng, kind, experiment, interval)
        # transport clocks scale with the frame interval, mirroring the
        # fault/failover campaigns; generous retries keep a healthy
        # fabric's losses recoverable inside the watchdog window
        return dataclasses.replace(
            experiment,
            faults=FaultPlan(
                flit_loss_prob=loss,
                flit_corrupt_prob=corrupt,
                down_windows=windows,
                domains=domains,
            ),
            recovery=RecoveryConfig.scaled(
                interval, max_retries=8, qos_deadline=4 * interval
            ),
        )

    def _outage(self, rng: random.Random, experiment, interval: int) -> Tuple[int, int]:
        """``(start, end)`` of one finite outage: it ends within half a
        frame interval, so no generated plan isolates a host for good."""
        start = rng.randrange(0, max(1, experiment.total_cycles - interval // 2))
        duration = rng.randint(max(1, interval // 8), max(2, interval // 2))
        return start, start + duration

    def _draw_windows(
        self, rng: random.Random, kind: str, experiment, interval: int
    ) -> Tuple[LinkDownWindow, ...]:
        """0..max finite down windows over concrete link labels."""
        count = rng.randint(0, self.max_down_windows)
        if count == 0:
            return ()
        topology = topology_of(experiment)
        if kind == "single":
            labels = [
                f"host{node}:{half}"
                for node in range(topology.num_hosts)
                for half in ("inject", "eject")
            ]
        else:
            labels = [
                f"ch:{src}.{sp}->{dst}.{dp}"
                for src, sp, dst, dp in topology.channels
            ]
        windows: List[LinkDownWindow] = []
        for _ in range(count):
            start, end = self._outage(rng, experiment, interval)
            windows.append(LinkDownWindow(link=rng.choice(labels), start=start, end=end))
        return tuple(windows)

    def _draw_domain(
        self, rng: random.Random, kind: str, experiment, interval: int
    ) -> DomainDownWindow:
        """One finite switch-shaped outage on a tree/butterfly fabric
        (bounded like :meth:`_draw_windows`' windows, so the recovery
        transport can repair the damage).  Fat trees occasionally lose
        a whole pod instead of one switch."""
        topology = topology_of(experiment)
        start, end = self._outage(rng, experiment, interval)
        if kind == "fat_tree3" and rng.random() < 0.25:
            # a k-ary fat tree has k pods
            domain = f"pod:{rng.randrange(topology.extras['k'])}"
        else:
            domain = f"switch:{rng.randrange(topology.num_routers)}"
        return DomainDownWindow(domain=domain, start=start, end=end)


def generate(
    space: ScenarioSpace, seed: int, count: int
) -> List[Scenario]:
    """The campaign's scenario stream: ``count`` deterministic draws.

    Each scenario gets its own :class:`random.Random` seeded from a
    stable string, so inserting or reordering draws of one scenario
    never perturbs its neighbours, and the stream is identical across
    platforms and Python versions.
    """
    return [space.nth(seed, index) for index in range(count)]
