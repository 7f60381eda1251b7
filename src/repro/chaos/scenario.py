"""Typed random scenarios for the chaos harness.

A :class:`Scenario` is a complete, JSON-serialisable description of one
simulation the harness can run, judge, shrink, and replay: topology and
router configuration, a heterogeneous traffic mix, an optional
:class:`~repro.faults.FaultPlan` with its recovery transport, health
monitoring and routing mode, the measurement horizon, and (for harness
self-tests) a named sabotage hook that deliberately corrupts simulator
state mid-run.

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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    SingleSwitchExperiment,
)
from repro.experiments.runner import topology_of
from repro.faults import (
    DomainDownWindow,
    FaultPlan,
    LinkDownWindow,
    RecoveryConfig,
)
from repro.network.health import HealthConfig
from repro.obs.events import TraceSpec
from repro.router.config import RoutingMode
from repro.router.flit import TrafficClass

_FORMAT = "mediaworm-chaos-scenario-v1"


#: scenario topology name -> (experiment type, {its shape field: the
#: Scenario attribute holding it}); chaos fabrics keep every shape field
#: not listed (tree / butterfly ``fat_width``) at the type's default
_TOPOLOGIES: Dict[str, tuple] = {
    "single": (SingleSwitchExperiment, {"num_ports": "num_ports"}),
    "mesh": (
        FatMeshExperiment,
        {name: name for name in FatMeshExperiment.shape_fields},
    ),
    "tree": (
        FatTree3Experiment,
        {"k": "tree_k", "hosts_per_leaf": "hosts_per_leaf"},
    ),
    "butterfly": (
        ButterflyExperiment,
        {
            "arity": "bfly_arity",
            "levels": "bfly_levels",
            "hosts_per_leaf": "hosts_per_leaf",
        },
    ),
}


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
    .to_plain` writes it, :func:`repro.plain.from_plain` reads it)."""

    key: str
    seed: int
    #: "single" (n-port switch), "mesh" (fat mesh), "tree" (3-level
    #: k-ary fat tree), or "butterfly" (k-ary n-tree)
    topology: str = "single"
    num_ports: int = 8
    rows: int = 2
    cols: int = 2
    hosts_per_router: int = 2
    fat_width: int = 2
    #: "tree" shape (chaos trees always run at fat_width 1)
    tree_k: int = 4
    #: "butterfly" shape
    bfly_arity: int = 2
    bfly_levels: int = 3
    #: hosts per leaf for "tree"/"butterfly"; None = the generator default
    hosts_per_leaf: Optional[int] = None
    scheduler: str = SchedulingPolicy.VIRTUAL_CLOCK
    vcs_per_pc: int = 8
    load: float = 0.6
    mix: Tuple[float, float] = (80.0, 20.0)
    rt_class: str = TrafficClass.VBR
    message_size: int = 20
    scale: float = 100.0
    warmup_frames: int = 1
    measure_frames: int = 2
    routing_mode: str = RoutingMode.ORACLE
    faults: FaultPlan = FaultPlan()
    recovery: Optional[RecoveryConfig] = None
    health: Optional[HealthConfig] = None
    #: progress-watchdog window, in frame intervals (always armed)
    watchdog_frames: int = 4
    #: per-run wall-clock budget, seconds (hang protection)
    wall_timeout_s: float = 120.0
    #: named state-corruption hook from :data:`SABOTAGES` (self-tests)
    sabotage: Optional[str] = None
    #: ride an InvariantChecker on every run of this scenario
    check: bool = True
    #: the repro-file format tag; a file carrying any other is refused
    format: str = _FORMAT

    def __post_init__(self) -> None:
        if self.format != _FORMAT:
            raise ConfigurationError(
                f"unknown scenario format {self.format!r} (expected {_FORMAT!r})"
            )
        if self.topology not in _TOPOLOGIES:
            raise ConfigurationError(
                f"scenario topology must be 'single', 'mesh', 'tree', or "
                f"'butterfly', got {self.topology!r}"
            )
        if self.sabotage is not None and self.sabotage not in SABOTAGES:
            raise ConfigurationError(
                f"unknown sabotage {self.sabotage!r}; "
                f"known: {sorted(SABOTAGES)}"
            )

    # -- derived properties ---------------------------------------------

    @property
    def is_zero_fault(self) -> bool:
        """True when the scenario injects no faults at all."""
        return self.faults.is_zero

    @property
    def frame_interval_cycles(self) -> int:
        """One frame epoch of this scenario's workload, in cycles."""
        return self.to_experiment().workload_config().frame_interval_cycles

    # -- experiment assembly --------------------------------------------

    def to_experiment(self):
        """Build the runnable experiment this scenario describes.

        The watchdog window and the sabotage cycle are denominated in
        frame intervals, so they stay proportionate when a shrink pass
        rescales the workload.
        """
        experiment = _shaped(
            self,
            load=self.load,
            mix=tuple(self.mix),
            scheduler=self.scheduler,
            rt_class=self.rt_class,
            vcs_per_pc=self.vcs_per_pc,
            message_size=self.message_size,
            scale=self.scale,
            warmup_frames=self.warmup_frames,
            measure_frames=self.measure_frames,
            seed=self.seed,
            faults=None if self.faults.is_zero else self.faults,
            recovery=self.recovery,
            health=self.health,
            routing_mode=self.routing_mode,
            trace=TraceSpec(check=self.check) if self.check else None,
        )
        interval = experiment.workload_config().frame_interval_cycles
        hook = None
        if self.sabotage is not None:
            hook = partial(
                SABOTAGES[self.sabotage],
                experiment.warmup_cycles + interval // 2,
            )
        return dataclasses.replace(
            experiment,
            watchdog_window=self.watchdog_frames * interval,
            network_hook=hook,
        )


def _shaped(scenario: Scenario, **kwargs):
    """The scenario's experiment type at the scenario's shape."""
    cls, shape = _TOPOLOGIES[scenario.topology]
    shape = {name: getattr(scenario, attr) for name, attr in shape.items()}
    return cls(**shape, **kwargs)


def scenario_topology(scenario: Scenario):
    """The concrete topology a multi-router scenario runs on.

    Used by the generator (to enumerate link labels and switch ids)
    and by the shrinker (to expand a domain fault into its constituent
    link windows); served from the runner's topology cache.
    """
    if scenario.topology == "single":
        raise ConfigurationError(
            f"scenario topology {scenario.topology!r} has no router fabric"
        )
    return topology_of(_shaped(scenario))


# ----------------------------------------------------------------------
# the scenario space


@dataclass(frozen=True)
class ScenarioSpace:
    """The distribution chaos campaigns draw scenarios from.

    A campaign checkpoints each drawn scenario under its content key:
    a scenario that another space, seed or timeout draws differently
    is a new key and is recomputed, never served a foreign verdict.
    """

    scale: float = 100.0
    topologies: Tuple[str, ...] = ("single", "mesh", "tree", "butterfly")
    num_ports_choices: Tuple[int, ...] = (4, 8)
    mesh_sizes: Tuple[Tuple[int, int], ...] = ((2, 2),)
    #: "tree" shapes: k of the 3-level fat tree (k=4 -> 16 hosts)
    tree_k_choices: Tuple[int, ...] = (4,)
    #: "butterfly" shapes: (arity, levels) of the k-ary n-tree
    bfly_shapes: Tuple[Tuple[int, int], ...] = ((2, 3), (4, 2))
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
    #: of the faulted mesh/tree/butterfly scenarios: fraction run with
    #: the full adaptive-failover stack (symptom-driven rerouting,
    #: switch-level suspicion and degradation)
    adaptive_fraction: float = 0.4
    #: of the faulted tree/butterfly scenarios: fraction whose outage is
    #: drawn switch-shaped (a finite :class:`~repro.faults
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
        topology = rng.choice(self.topologies)
        scenario = Scenario(
            key=key,
            seed=rng.randrange(1, 2**31),
            topology=topology,
            num_ports=rng.choice(self.num_ports_choices),
            scheduler=rng.choice(self.schedulers),
            vcs_per_pc=rng.choice(self.vcs_choices),
            load=round(rng.uniform(*self.load_range), 3),
            mix=rng.choice(self.mixes),
            rt_class=rng.choice(self.rt_classes),
            message_size=rng.choice(self.message_sizes),
            scale=self.scale,
            warmup_frames=1,
            measure_frames=rng.randint(1, self.max_measure_frames),
            wall_timeout_s=self.wall_timeout_s,
        )
        if topology == "mesh":
            rows, cols = rng.choice(self.mesh_sizes)
            scenario = dataclasses.replace(scenario, rows=rows, cols=cols)
        elif topology == "tree":
            scenario = dataclasses.replace(
                scenario, tree_k=rng.choice(self.tree_k_choices)
            )
        elif topology == "butterfly":
            arity, levels = rng.choice(self.bfly_shapes)
            scenario = dataclasses.replace(
                scenario, bfly_arity=arity, bfly_levels=levels
            )
        if rng.random() < self.zero_fault_fraction:
            return self._finish_zero_fault(rng, scenario)
        return self._finish_faulted(rng, scenario)

    def _finish_zero_fault(
        self, rng: random.Random, scenario: Scenario
    ) -> Scenario:
        """Optionally add passive health monitoring (no-op oracle)."""
        if rng.random() < self.health_fraction:
            scenario = dataclasses.replace(scenario, health=HealthConfig())
        return scenario

    def _finish_faulted(
        self, rng: random.Random, scenario: Scenario
    ) -> Scenario:
        """Attach a fault plan, its recovery transport, and (sometimes)
        the adaptive-failover stack."""
        adaptive = (
            scenario.topology in ("mesh", "tree", "butterfly")
            and rng.random() < self.adaptive_fraction
        )
        if adaptive:
            # the failover stack is validated at 16 VCs (reserved
            # escape VC per class partition needs the headroom)
            scenario = dataclasses.replace(
                scenario,
                vcs_per_pc=16,
                routing_mode=RoutingMode.ADAPTIVE,
                health=HealthConfig(),
            )
        interval = scenario.frame_interval_cycles
        loss = round(rng.uniform(*self.loss_range), 5)
        corrupt = round(rng.uniform(*self.corrupt_range), 5)
        domains: Tuple[DomainDownWindow, ...] = ()
        if (
            scenario.topology in ("tree", "butterfly")
            and rng.random() < self.switch_fault_fraction
        ):
            domains = (self._draw_domain(rng, scenario, interval),)
            windows: Tuple[LinkDownWindow, ...] = ()
        else:
            windows = self._draw_windows(rng, scenario, interval)
        plan = FaultPlan(
            flit_loss_prob=loss,
            flit_corrupt_prob=corrupt,
            down_windows=windows,
            domains=domains,
        )
        # transport clocks scale with the frame interval, mirroring the
        # fault/failover campaigns; generous retries keep a healthy
        # fabric's losses recoverable inside the watchdog window
        recovery = RecoveryConfig.scaled(
            interval, max_retries=8, qos_deadline=4 * interval
        )
        return dataclasses.replace(
            scenario, faults=plan, recovery=recovery
        )

    def _draw_windows(
        self, rng: random.Random, scenario: Scenario, interval: int
    ) -> Tuple[LinkDownWindow, ...]:
        """0..max finite down windows over concrete link labels.

        Windows are bounded to half a frame interval and always end, so
        no generated plan can permanently isolate a host.
        """
        count = rng.randint(0, self.max_down_windows)
        if count == 0:
            return ()
        labels = self._link_labels(scenario)
        horizon = (
            scenario.warmup_frames + scenario.measure_frames
        ) * interval
        windows: List[LinkDownWindow] = []
        for _ in range(count):
            start = rng.randrange(0, max(1, horizon - interval // 2))
            duration = rng.randint(
                max(1, interval // 8), max(2, interval // 2)
            )
            windows.append(
                LinkDownWindow(
                    link=rng.choice(labels),
                    start=start,
                    end=start + duration,
                )
            )
        return tuple(windows)

    def _draw_domain(
        self, rng: random.Random, scenario: Scenario, interval: int
    ) -> DomainDownWindow:
        """One finite switch-shaped outage on a tree/butterfly fabric.

        Mirrors :meth:`_draw_windows`' bounds — the outage always ends
        within half a frame interval, so the recovery transport can
        repair the damage and no host stays isolated (which keeps
        :func:`~repro.faults.install_faults` accepting every plan).
        Fat trees occasionally lose a whole pod instead of one switch.
        """
        topology = scenario_topology(scenario)
        horizon = (
            scenario.warmup_frames + scenario.measure_frames
        ) * interval
        start = rng.randrange(0, max(1, horizon - interval // 2))
        duration = rng.randint(
            max(1, interval // 8), max(2, interval // 2)
        )
        if scenario.topology == "tree" and rng.random() < 0.25:
            domain = f"pod:{rng.randrange(scenario.tree_k)}"
        else:
            domain = f"switch:{rng.randrange(topology.num_routers)}"
        return DomainDownWindow(
            domain=domain, start=start, end=start + duration
        )

    def _link_labels(self, scenario: Scenario) -> List[str]:
        """Concrete link labels a down window may sever."""
        if scenario.topology == "single":
            return [
                f"host{node}:{half}"
                for node in range(scenario.num_ports)
                for half in ("inject", "eject")
            ]
        topology = scenario_topology(scenario)
        return [
            f"ch:{src}.{sp}->{dst}.{dp}"
            for src, sp, dst, dp in topology.channels
        ]


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
