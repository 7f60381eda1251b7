"""One campaign skeleton: series x axis -> experiment -> Point -> result.

The paper's evaluation is nothing but sweeps, and every study this
repo adds on top of it (``mediaworm faults`` / ``failover`` /
``disaster`` / ``scale``) has the same shape.  A study is a frozen
:class:`Campaign` *spec* — its series, its swept :class:`Axis`, an
experiment factory, a picklable point body, and how its result
prints — and this module holds the single implementation of everything
else: planning the ``(series, x) -> experiment`` grid, keying each
point by its experiment (:func:`experiment_key`), running every
distinct experiment once (:func:`run_plans`, which is also how
``mediaworm all`` runs the union of the paper's specs), logging
restored points, recording (and checkpointing) points that fail every
retry, placing each point at its axis value, assembling the
:class:`FigureData` and rendering the aligned table.  Figs. 3-9 and
Tables 2-3 are the specs of :data:`repro.experiments.figures.PAPER`;
the CLI enumerates :func:`campaigns`, so a new campaign is a spec plus
a :func:`register` call and gets ``--jobs``, checkpointing, ``--json``
and the exit-1-on-failed-point rule for free.

The vocabulary specs are written in (:class:`RunProfile`,
:class:`Point`, :class:`FigureData`, the Point codec) lives here too,
so spec modules import this one and never the reverse.  Deliberately
not imported by ``repro.experiments.__init__``, ``parallel`` or
``runner``, so the benchmark's cold-import probe never pays for the
spec layer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from importlib import import_module
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import simulate
from repro.metrics.collector import RunMetrics


@dataclass(frozen=True)
class RunProfile:
    """Workload scale and horizon for a sweep.

    * ``quick``   — smallest run that still shows the shape (CI/tests);
    * ``default`` — the benchmark setting: scale 20, a ~0.5 s simulated
      window, minutes of wall time for the full suite;
    * ``full``    — paper-faithful time constants (scale 1); hours.
    """

    name: str
    scale: float
    warmup_frames: int
    measure_frames: int
    seed: int = 1
    #: progress watchdog applied to every experiment of the sweep
    #: (None = each sweep's own default; ``mediaworm --watchdog`` sets it)
    watchdog_window: Optional[int] = None


PROFILES: Dict[str, RunProfile] = {
    # CI-sized: the smallest run that still exercises warmup + measure
    "smoke": RunProfile("smoke", scale=100.0, warmup_frames=1, measure_frames=2),
    "quick": RunProfile("quick", scale=40.0, warmup_frames=2, measure_frames=4),
    "default": RunProfile(
        "default", scale=20.0, warmup_frames=3, measure_frames=8
    ),
    "full": RunProfile("full", scale=1.0, warmup_frames=4, measure_frames=16),
}


def get_profile(profile) -> RunProfile:
    """Resolve a profile name or pass a RunProfile through."""
    if isinstance(profile, RunProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ConfigurationError(
            f"unknown profile {profile!r} "
            f"(choose from {', '.join(sorted(PROFILES))})"
        ) from None


def _base_kwargs(profile: RunProfile) -> Dict:
    kwargs = dict(
        scale=profile.scale,
        warmup_frames=profile.warmup_frames,
        measure_frames=profile.measure_frames,
        seed=profile.seed,
    )
    if profile.watchdog_window is not None:
        kwargs["watchdog_window"] = profile.watchdog_window
    return kwargs


@dataclass
class Point:
    """One sweep point: the x value and its run metrics (a point body
    leaves ``x`` None: the spec places the point on its axis)."""

    x: object
    metrics: RunMetrics
    extra: Dict = field(default_factory=dict)

    @property
    def d(self) -> float:
        return self.metrics.mean_delivery_interval_ms

    @property
    def sigma_d(self) -> float:
        return self.metrics.std_delivery_interval_ms

    @property
    def be_latency_us(self) -> float:
        return self.metrics.be_latency_us


def point_to_dict(point: Point) -> Dict:
    """Flatten one sweep point (also the campaigns' checkpoint encoding)."""
    return {
        "x": point.x,
        "metrics": asdict(point.metrics),
        "extra": point.extra,
    }


def point_from_dict(data: Dict) -> Point:
    """Rebuild a Point flattened by :func:`point_to_dict`."""
    return Point(
        x=data["x"],
        metrics=RunMetrics(**data["metrics"]),
        extra=dict(data.get("extra") or {}),
    )


@dataclass
class FigureData:
    """A reproduced figure: named series of sweep points."""

    figure_id: str
    title: str
    xlabel: str
    series: Dict[str, List[Point]]
    notes: str = ""

    def rows(self) -> List[Tuple]:
        """Flat (series, x, d, sigma_d, be_latency) tuples for reports."""
        out = []
        for name, points in self.series.items():
            for p in points:
                out.append((name, p.x, p.d, p.sigma_d, p.be_latency_us))
        return out


def empty_metrics() -> RunMetrics:
    """Placeholder metrics for a point that failed every retry."""
    return RunMetrics(
        mean_delivery_interval_ms=0.0,
        std_delivery_interval_ms=0.0,
        frames_delivered=0,
        interval_count=0,
        be_latency_us=0.0,
        be_latency_us_paper_equivalent=0.0,
        be_latency_std_us=0.0,
        be_message_count=0,
    )


def measure(experiment) -> Point:
    """The default point body: one ``simulate``, reduced to what it
    measured — the metrics, a faulted run's fault/recovery accounting
    and a PCS run's connection accounting as extras."""
    result = simulate(experiment)
    extra = dict(getattr(result, "fault_stats", None) or {})
    connections = getattr(result, "connections", None)
    if connections is not None:
        extra.update(
            attempts=connections.attempts,
            established=connections.established,
            dropped=connections.dropped,
            offered=result.offered_streams,
            abandoned=connections.abandoned_streams,
        )
    return Point(None, result.metrics, extra)


def _plain(value):
    """``value`` as JSON-plain data that every equal value shares."""
    if is_dataclass(value):
        return [
            type(value).__name__,
            {f.name: _plain(getattr(value, f.name)) for f in fields(value)},
        ]
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)  # (80, 20) and (80.0, 20.0) are one mix
    if value is None or isinstance(value, (str, bool)):
        return value
    if callable(value):  # a hook, by its importable name
        return f"{value.__module__}.{value.__qualname__}"
    raise ConfigurationError(
        f"cannot key an experiment holding a {type(value).__name__}"
    )


def experiment_key(experiment) -> str:
    """A point's checkpoint and result key: its experiment's content
    address (the type name plus every field value, hashed).

    Equal experiments share one key in every process (never Python's
    salted ``hash``), so points of different specs that run the same
    experiment are simulated once; and any changed field — a knob, the
    seed, ``--watchdog`` — is a new key, so a checkpoint never serves a
    point computed under other settings.
    """
    blob = json.dumps(_plain(experiment), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return f"{type(experiment).__name__}-{digest}"


@dataclass(frozen=True)
class Axis:
    """The swept parameter: its default sweep and, for a spec that is a
    CLI subcommand, its flag, parsing and validation."""

    #: the default sweep, or ``profile -> sweep`` where it depends on
    #: the workload scale
    defaults: object
    #: format spec spelling a value in log lines and messages (``"g"``
    #: for floats)
    fmt: str = ""
    #: CLI flag (``"--rates"``)
    flag: str = ""
    metavar: str = ""
    help: str = ""
    #: one comma-separated token -> value (``ValueError`` on junk)
    parse: Callable[[str], object] = str
    #: raises a short ``ConfigurationError`` naming an unusable value
    check: Callable[[object], None] = lambda x: None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-")

    def text(self, x) -> str:
        return format(x, self.fmt)

    def validated(self, values: Sequence) -> tuple:
        """``values``, each checked, none repeated.

        Runs before any experiment is built, so a bad value is a short
        error naming it rather than a failure deep inside the sweep.
        """
        values = tuple(values)
        seen = set()
        for x in values:
            self.check(x)
            if self.text(x) in seen:
                raise ConfigurationError(
                    f"{self.flag or 'the sweep'} lists {self.text(x)} "
                    "more than once"
                )
            seen.add(self.text(x))
        return values

    def from_arg(self, arg: Optional[str]) -> Optional[tuple]:
        """The values the CLI argument spells (absent: ``None``, the
        defaults); :meth:`Campaign.sweep` checks them."""
        if not arg:
            return None
        try:
            return tuple(
                self.parse(token.strip())
                for token in arg.split(",")
                if token.strip()
            )
        except ValueError:
            raise ConfigurationError(
                f"{self.flag} must be comma-separated "
                f"{self.parse.__name__}s, got {arg!r}"
            ) from None


class Column(NamedTuple):
    """One right-aligned table column.

    ``source`` is ``"x"``, ``"d"`` or ``"sigma_d"`` (the Point's own
    values) or a dotted path into ``Point.extra``
    (``"health.reroutes"``); an absent extra renders ``default``.
    """

    header: str
    width: int
    source: str
    fmt: str = ""
    default: object = 0

    def cell(self, point: Point) -> str:
        if self.source in ("x", "d", "sigma_d"):
            value = getattr(point, self.source)
        else:
            *parents, leaf = self.source.split(".")
            node = point.extra
            for name in parents:
                node = node.get(name) or {}
            value = node.get(leaf, self.default)
        if isinstance(value, bool):
            value = str(value)  # True, not int's 1
        return f"{value:>{self.width}{self.fmt}}"


@dataclass(frozen=True)
class Campaign:
    """A sweep study as data; :meth:`run` and :meth:`render` do the rest."""

    #: subcommand or ``run`` name, figure id, checkpoint ``command``, log tag
    name: str
    #: one line, shown by ``mediaworm --help`` and ``mediaworm list``
    help: str
    #: one value per series, in table order
    series: tuple
    axis: Axis
    #: ``(profile, series, x) -> experiment`` dataclass for one point
    experiment: Callable
    title: str
    xlabel: str
    #: worker body ``experiment -> Point`` holding what the run measured
    #: (``x`` is placed by :meth:`run`); module-level (picklable) so the
    #: parallel executor can run points in pool workers, and returning
    #: the Point rather than the full result keeps the checkpoint
    #: encoding identical between serial and parallel paths
    point: Callable = measure
    notes: str = ""
    #: series value -> its name in the figure (``0.8`` -> ``"load=0.8"``)
    label: Callable[[object], str] = str
    #: header and width of the left-aligned series column (width 0:
    #: a one-series spec prints none)
    series_column: Tuple[str, int] = ("", 0)
    #: the table, left to right; the first column is the axis value and
    #: is the only one a ``FAILED`` row still shows
    columns: Tuple[Column, ...] = ()
    #: which ``(series, x)`` pairs exist (the butterfly has no pods)
    defined: Callable[[object, object], bool] = lambda series, x: True
    #: ``{(series, x): Point} -> result`` where the sweep's result is not
    #: a :class:`FigureData` (Tables 2 and 3)
    table: Optional[Callable] = None
    #: result -> text, where it is not the aligned ``columns`` table
    text: Optional[Callable] = None

    def sweep(self, profile, values: Optional[Sequence] = None) -> tuple:
        """The axis values one invocation sweeps, each checked: ``values``,
        or the defaults (``defaults(profile)`` where they depend on the
        workload scale)."""
        if values is None:
            values = self.axis.defaults
            if callable(values):
                values = values(get_profile(profile))
        return self.axis.validated(values)

    def plan(self, profile, values: Optional[Sequence] = None) -> Dict:
        """``{(series, x): experiment}`` for one invocation, in table
        order; pairs the spec does not define are skipped."""
        profile = get_profile(profile)
        values = self.sweep(profile, values)
        return {
            (series, x): self.experiment(profile, series, x)
            for series in self.series
            for x in values
            if self.defined(series, x)
        }

    def reduce(self, points: Dict[tuple, Point]):
        """The :class:`FigureData` of ``{(series, x): Point}``, or what
        the spec's ``table`` makes of the points."""
        if self.table is not None:
            return self.table(points)
        figure: Dict[str, list] = {self.label(s): [] for s in self.series}
        for (series, _), point in points.items():
            figure[self.label(series)].append(point)
        return FigureData(
            figure_id=self.name,
            title=self.title,
            xlabel=self.xlabel,
            series=figure,
            notes=self.notes,
        )

    def run(
        self,
        profile="default",
        values: Optional[Sequence] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        log: Optional[Callable[[str], None]] = None,
        executor: Optional[ParallelSweepExecutor] = None,
    ):
        """Sweep ``values`` of the axis for every series: :meth:`plan`,
        :func:`run_plans`, :meth:`reduce`."""
        plan = self.plan(profile, values)
        return run_plans([(self, plan)], checkpoint, log, executor)[0]

    def render(self, fig) -> str:
        """What :meth:`run` returned, as the terminal shows it: the
        spec's ``text``, or the campaign as an aligned table."""
        if self.text is not None:
            return self.text(fig)
        label, width = self.series_column

        def row(series: str, cells: List[str]) -> str:
            lead = [f"{series:<{width}}"] if width else []
            return " ".join(lead + cells)

        header = row(label, [f"{c.header:>{c.width}}" for c in self.columns])
        lines = [fig.title, header, "-" * len(header)]
        for name, points in fig.series.items():
            for point in points:
                if "failed" in point.extra:
                    cells = [
                        self.columns[0].cell(point),
                        "FAILED: " + str(point.extra["failed"]),
                    ]
                else:
                    cells = [col.cell(point) for col in self.columns]
                lines.append(row(name, cells))
        if fig.notes:
            lines.append(f"({fig.notes})")
        return "\n".join(lines)


def run_plans(
    plans: Sequence[Tuple[Campaign, Dict]],
    checkpoint: Optional[SweepCheckpoint] = None,
    log: Optional[Callable[[str], None]] = None,
    executor: Optional[ParallelSweepExecutor] = None,
) -> list:
    """Run ``(spec, plan)`` pairs as one sweep; one result per spec.

    Every distinct experiment is one task under its
    :func:`experiment_key`, however many points of however many specs
    share it (specs that share an experiment measure it with one point
    body), so the whole union is one ``executor.run``: one pool
    (``jobs > 1``; results are bit-identical to the serial path, as
    each point seeds its own RNG streams) and one checkpoint, which
    persists every completed experiment and restores it on a rerun.
    A point that keeps failing after the resilient retries records a
    ``failed`` extra instead of aborting the sweep — unless a spec has
    no ``columns`` (no FAILED row to show it in), in which case the
    ``SimulationError`` propagates.  Each spec then places its points
    at their axis values and reduces them.
    """
    if executor is None:
        executor = ParallelSweepExecutor(jobs=1, log=log)
    say = log or (lambda message: None)
    tasks: Dict[str, SweepTask] = {}
    #: per spec, ``{(series, x): key}``; and every point's log name
    keyed: List[Dict[tuple, str]] = []
    names: List[Tuple[str, str]] = []
    for spec, plan in plans:
        keys = {}
        for (series, x), experiment in plan.items():
            key = keys[series, x] = experiment_key(experiment)
            tasks.setdefault(key, SweepTask(key, spec.point, experiment))
            label = f"{spec.label(series)}@{spec.axis.text(x)}"
            names.append((f"[{spec.name}] {label}", key))
        keyed.append(keys)
    if checkpoint is not None:
        for name, key in names:
            if key in checkpoint:
                say(f"{name}: restored from checkpoint")

    failed: Dict[str, Point] = {}

    def on_failure(task: SweepTask, exc: SimulationError) -> None:
        failure = {"failed": f"{type(exc).__name__}: {exc}"}
        point = failed[task.key] = Point(None, empty_metrics(), failure)
        if checkpoint is not None:
            checkpoint.put(task.key, point_to_dict(point))
        for name, key in names:
            if key == task.key:
                say(f"{name}: FAILED ({type(exc).__name__})")

    results = executor.run(
        list(tasks.values()),
        checkpoint=checkpoint,
        encode=point_to_dict,
        decode=point_from_dict,
        on_failure=(
            on_failure if all(spec.columns for spec, _ in plans) else None
        ),
    )
    results.update(failed)
    return [
        spec.reduce(
            {pair: replace(results[key], x=pair[1]) for pair, key in keys.items()}
        )
        for (spec, _), keys in zip(plans, keyed)
    ]


def any_failed(fig: FigureData) -> bool:
    """Whether any point of the figure failed every retry."""
    return any(
        "failed" in point.extra
        for points in fig.series.values()
        for point in points
    )


#: modules whose ``CAMPAIGN`` ships with the repo, in ``mediaworm list``
#: order (imported on demand: each of them imports this module)
_BUILTIN = (
    "repro.experiments.faultsweep",
    "repro.experiments.failover",
    "repro.experiments.disaster",
    "repro.experiments.scale",
)

#: campaigns added at run time by :func:`register`
_REGISTERED: Dict[str, Campaign] = {}


def register(spec: Campaign) -> Campaign:
    """Offer ``spec`` as ``mediaworm <spec.name>`` without editing the CLI."""
    _REGISTERED[spec.name] = spec
    return spec


def campaigns() -> Dict[str, Campaign]:
    """Every campaign by name: the built-ins first, then registered ones."""
    found = {}
    for module in _BUILTIN:
        spec = import_module(module).CAMPAIGN
        found[spec.name] = spec
    found.update(_REGISTERED)
    return found
