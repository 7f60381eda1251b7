"""Command-line entry point: ``mediaworm``.

Examples::

    mediaworm list
    mediaworm run fig3 --profile quick
    mediaworm run table3
    mediaworm all --profile default
    mediaworm faults --profile quick --rates 0,0.01
    mediaworm scale --profile smoke --jobs 2

The subcommands are a table (:func:`_commands`): a name, the one-line
help that ``mediaworm --help`` and ``mediaworm list`` both print, a
``configure(parser)`` declaring its flags and a ``run(args)`` returning
the exit status.  Campaigns (``faults``, ``failover``, ``disaster``,
``scale``) come from the registry in
:mod:`repro.experiments.campaign` through one shared handler and the
paper's figures from :data:`repro.experiments.figures.PAPER`, so a new
campaign or figure needs no edit here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import partial
from typing import Callable, List, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    PROFILES,
    Campaign,
    FigureData,
    _base_kwargs,
    any_failed,
    campaigns,
    experiment_key,
    get_profile,
    run_plans,
)
from repro.experiments.export import save_result
from repro.experiments.figures import PAPER
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.resilience import SweepCheckpoint


class Command(NamedTuple):
    """One ``mediaworm`` subcommand."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]
    #: ``list`` / ``run`` / ``all`` are how the experiments that
    #: ``mediaworm list`` prints are reached, not entries of it
    listed: bool = True


# Flags shared between subcommands, each declared exactly once.


def _add_sweep_args(parser, watchdog: bool = True) -> None:
    """``--jobs`` / ``--watchdog`` / ``--point-timeout``."""
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1,
        help="run points (sweep points, chaos scenarios) in N worker "
        "processes (per-point results are bit-identical to --jobs 1)",
    )
    if watchdog:
        parser.add_argument(
            "--watchdog",
            type=int,
            metavar="CYCLES",
            default=None,
            help="abort any run making no progress for CYCLES cycles "
            "(default: each sweep's own policy)",
        )
    parser.add_argument(
        "--point-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget per point; a point exceeding it fails "
        "(a sweep retries it reseeded, scale records it FAILED, chaos files "
        "it under the 'timeout' oracle, overriding the scenario's own "
        "budget) instead of hanging",
    )


def _add_run_args(
    parser,
    command: str,
    profile: str = "default",
    json_out: bool = False,
    checkpoint: bool = False,
) -> None:
    """``--profile`` / ``--json`` / ``--checkpoint`` + ``--fresh``."""
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=profile,
        help="workload scale / horizon preset (default: %(default)s)",
    )
    if json_out:
        parser.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="also write the result as JSON",
        )
    if checkpoint:
        parser.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help=f"checkpoint file (default: mediaworm-{command}-<profile>"
            ".checkpoint.json); an interrupted run resumes from it",
        )
        parser.add_argument(
            "--fresh",
            action="store_true",
            help="discard any existing checkpoint and recompute everything",
        )


def _check_sweep_args(args) -> None:
    """``--jobs`` / ``--point-timeout``, refused before anything runs."""
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.point_timeout is not None and args.point_timeout <= 0:
        raise SystemExit(
            f"--point-timeout must be > 0 seconds, got {args.point_timeout:g}"
        )


def _sweep_setup(args):
    """Resolve the shared sweep flags into ``(profile, executor)``."""
    profile = get_profile(args.profile)
    if args.watchdog is not None:
        if args.watchdog < 1:
            raise SystemExit(f"--watchdog must be >= 1, got {args.watchdog}")
        profile = replace(profile, watchdog_window=args.watchdog)
    _check_sweep_args(args)
    return profile, ParallelSweepExecutor(
        jobs=args.jobs, log=print, point_timeout=args.point_timeout
    )


def _open_checkpoint(args, command: str) -> SweepCheckpoint:
    """The invocation's checkpoint, emptied first under ``--fresh``.

    Every sweep (chaos included) keys its points by their experiments,
    so the meta only names the command.
    """
    path = args.checkpoint or f"mediaworm-{command}-{args.profile}.checkpoint.json"
    checkpoint = SweepCheckpoint(path, meta={"command": command})
    if args.fresh:
        checkpoint.clear()
    return checkpoint


def _dump_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _no_flags(parser) -> None:
    pass


def _run_list(args) -> int:
    entries = {name: spec.help for name, spec in PAPER.items()}
    entries.update((c.name, c.help) for c in _commands() if c.listed)
    for name, desc in entries.items():
        print(f"{name:8s} {desc}")
    return 0


def _configure_run(parser) -> None:
    parser.add_argument("experiment", help="fig3..fig9, table2, table3")
    _add_run_args(parser, "run", json_out=True)
    _add_sweep_args(parser)
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append a terminal plot of sigma_d",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the paper's qualitative claims against the result",
    )


def _run_run(args) -> int:
    """One of the paper's experiments, printed with its wall time."""
    profile, executor = _sweep_setup(args)
    spec = PAPER.get(args.experiment)
    if spec is None:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; try 'mediaworm list'"
        )
    started = time.perf_counter()
    result = spec.run(profile, executor=executor)
    if args.json:
        save_result(args.json, result)
    text = spec.render(result)
    # a table has no sigma_d curve to plot and no claims to judge
    if args.plot and isinstance(result, FigureData):
        from repro.analysis.ascii_plot import figure_plot

        text += "\n\n" + figure_plot(result, metric="sigma_d")
    if args.check and isinstance(result, FigureData):
        from repro.experiments.validation import check_claims, claims_to_text

        text += "\n\npaper claims:\n" + claims_to_text(check_claims(result))
    print(text)
    print(f"[{spec.name} completed in {time.perf_counter() - started:.1f}s]\n")
    return 0


def _configure_all(parser) -> None:
    _add_run_args(parser, "all", checkpoint=True)
    _add_sweep_args(parser)


def _run_all(args) -> int:
    """Every spec of ``PAPER`` as one sweep: the union of their plans,
    each distinct experiment simulated once, resumed per point."""
    profile, executor = _sweep_setup(args)
    checkpoint = _open_checkpoint(args, "all")
    started = time.perf_counter()
    plans = [(spec, spec.plan(profile)) for spec in PAPER.values()]
    for (spec, _), result in zip(
        plans, run_plans(plans, checkpoint, print, executor)
    ):
        print(spec.render(result) + "\n")
    points = [e for _, plan in plans for e in plan.values()]
    distinct = len(set(map(experiment_key, points)))
    print(
        f"[all completed in {time.perf_counter() - started:.1f}s: "
        f"{distinct} distinct simulations for {len(points)} points]"
    )
    checkpoint.clear()
    return 0


def _configure_campaign(spec: Campaign, parser) -> None:
    _add_run_args(parser, spec.name, json_out=True, checkpoint=True)
    _add_sweep_args(parser)
    axis = spec.axis
    parser.add_argument(
        axis.flag, metavar=axis.metavar, default=None, help=axis.help
    )


def _run_campaign(spec: Campaign, args) -> int:
    """A checkpointed campaign; exits 1 when any point is a FAILED row."""
    profile, executor = _sweep_setup(args)
    try:
        values = spec.sweep(
            profile, spec.axis.from_arg(getattr(args, spec.axis.dest))
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    checkpoint = _open_checkpoint(args, spec.name)
    started = time.perf_counter()
    fig = spec.run(
        profile, values, checkpoint=checkpoint, log=print, executor=executor
    )
    if args.json:
        save_result(args.json, fig)
    print(spec.render(fig))
    print(f"[{spec.name} completed in {time.perf_counter() - started:.1f}s]")
    checkpoint.clear()
    return 1 if any_failed(fig) else 0


def _configure_trace(parser) -> None:
    parser.add_argument(
        "--preset",
        choices=sorted(PROFILES),
        default="quick",
        help="workload scale / horizon preset (default: quick)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=0.8,
        metavar="F",
        help="offered input-link load (default: 0.8)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default="mediaworm-trace.jsonl",
        help="JSONL event-stream destination "
        "(default: mediaworm-trace.jsonl)",
    )
    parser.add_argument(
        "--trace-events",
        metavar="K1,K2,...",
        default=None,
        help="record only these event kinds (default: all; see "
        "repro.obs.ALL_EVENTS)",
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help="also export a Chrome-trace/Perfetto JSON timeline",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the invariant checker (tracing only)",
    )
    # not the workload preset (that is --preset here): the loop profiler
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation loop per phase (wall time)",
    )


def _run_trace(args) -> int:
    """The ``mediaworm trace`` subcommand: one fully observed run.

    Runs the paper's default single-switch workload once with the
    observability layer installed: a JSONL event stream (optionally
    filtered by kind), an invariant checker auditing flit conservation
    and credit consistency, and — with ``--profile`` — per-phase
    simulation-loop wall-time profiling.
    """
    from repro.experiments.config import SingleSwitchExperiment
    from repro.experiments.runner import simulate
    from repro.obs import ALL_EVENTS, TraceSpec

    events = None
    if args.trace_events:
        events = tuple(
            name.strip() for name in args.trace_events.split(",") if name.strip()
        )
    try:
        spec = TraceSpec(
            path=args.trace_out,
            events=events,
            chrome_path=args.chrome,
            check=not args.no_check,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    experiment = SingleSwitchExperiment(
        load=args.load,
        trace=spec,
        profile_loop=args.profile,
        **_base_kwargs(get_profile(args.preset)),
    )
    started = time.perf_counter()
    result = simulate(experiment)
    elapsed = time.perf_counter() - started
    summary = result.trace_summary
    print(f"cycles run        {result.cycles_run}")
    print(f"flits injected    {result.flits_injected}")
    print(f"flits ejected     {result.flits_ejected}")
    print(f"events emitted    {summary['events']}")
    for kind in sorted(ALL_EVENTS):
        count = summary["counts"].get(kind)
        if count:
            print(f"  {kind:12s} {count}")
    if not args.no_check:
        print(
            f"invariants        OK "
            f"({summary['invariant_checks']} structural audits)"
        )
    print(
        f"trace written     {summary['jsonl_path']} "
        f"({summary['jsonl_records']} records)"
    )
    if args.chrome:
        print(
            f"chrome trace      {summary['chrome_path']} "
            f"({summary['chrome_events']} events; open in ui.perfetto.dev)"
        )
    if args.profile:
        for name, value in sorted(result.metrics.profile.items()):
            print(f"  {name:22s} {value:.3f}")
    print(f"[trace completed in {elapsed:.1f}s]")
    return 0


def _configure_chaos(parser) -> None:
    _add_run_args(
        parser, "chaos", profile="smoke", json_out=True, checkpoint=True
    )
    # scenarios carry their own watchdog windows
    _add_sweep_args(parser, watchdog=False)
    parser.add_argument(
        "--count",
        type=int,
        metavar="N",
        default=25,
        help="scenarios to draw and run (default: 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="campaign seed; the scenario stream and every verdict are "
        "a pure function of it (default: 7)",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default="chaos-corpus",
        help="directory for shrunk failing-scenario repros "
        "(default: chaos-corpus)",
    )
    parser.add_argument(
        "--shrink-budget",
        type=int,
        metavar="N",
        default=40,
        help="max re-runs spent shrinking one failure (default: 40)",
    )
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="re-run one repro file and verify its recorded verdict",
    )
    modes.add_argument(
        "--selftest",
        metavar="KIND",
        default=None,
        help="sabotage a run (e.g. 'credit') and assert the pipeline "
        "catches, shrinks, and replays it",
    )


def _run_chaos(args) -> int:
    """The ``mediaworm chaos`` subcommand: differential fault campaigns.

    Three modes, mutually exclusive: ``--replay FILE`` re-runs one
    repro and checks its verdict still holds; ``--selftest KIND``
    proves the whole pipeline catches, shrinks, and replays a known
    sabotage; the default runs a seeded random campaign and writes a
    minimal repro for every failure it finds.
    """
    from repro.chaos import ScenarioSpace, replay, run_campaign, selftest
    from repro.errors import ChaosFailure

    _check_sweep_args(args)
    if args.count < 1:
        raise SystemExit(f"--count must be >= 1, got {args.count}")
    if args.shrink_budget < 0:
        raise SystemExit(
            f"--shrink-budget must be >= 0, got {args.shrink_budget}"
        )

    if args.replay:
        try:
            ok, message, actual = replay(args.replay)
        except ConfigurationError as exc:
            raise SystemExit(str(exc))
        status = "OK" if ok else "MISMATCH"
        print(f"[{status}] {args.replay}: {message}")
        return 0 if ok else 1

    if args.selftest:
        try:
            path = selftest(
                args.selftest,
                args.corpus,
                seed=args.seed,
                shrink_budget=args.shrink_budget,
                log=print,
            )
        except ChaosFailure as exc:
            print(f"[selftest FAILED] {exc}", file=sys.stderr)
            return 1
        print(f"[selftest ok: pipeline caught/shrank/replayed -> {path}]")
        return 0

    checkpoint = _open_checkpoint(args, "chaos")
    started = time.perf_counter()
    summary = run_campaign(
        ScenarioSpace(scale=get_profile(args.profile).scale),
        seed=args.seed,
        count=args.count,
        corpus_dir=args.corpus,
        jobs=args.jobs,
        checkpoint=checkpoint,
        shrink_budget=args.shrink_budget,
        point_timeout=args.point_timeout,
        log=print,
    )
    if args.json:
        _dump_json(args.json, summary)
    print(
        f"chaos campaign: {summary['passed']}/{summary['scenarios']} "
        f"scenarios passed (seed {summary['seed']})"
    )
    for failure in summary["failures"]:
        print(
            f"  FAIL {failure['key']} [{failure['oracle']}]: "
            f"{failure['detail']}"
        )
        print(f"       repro: {failure['repro']}")
    print(f"[chaos completed in {time.perf_counter() - started:.1f}s]")
    return 1 if summary["failed"] else 0


def _configure_topo(parser) -> None:
    from repro.experiments.topo import SHAPE_FLAGS, TOPOLOGY_KINDS

    parser.add_argument("kind", help=", ".join(TOPOLOGY_KINDS))
    for name in SHAPE_FLAGS:
        parser.add_argument(
            "--" + name.replace("_", "-"), type=int, default=None
        )


def _run_topo(args) -> int:
    """The ``mediaworm topo`` subcommand: build + describe one topology."""
    from repro.experiments.topo import (
        SHAPE_FLAGS,
        build_topology,
        describe_topology,
    )

    params = {
        name: getattr(args, name)
        for name in SHAPE_FLAGS
        if getattr(args, name) is not None
    }
    try:
        topology = build_topology(args.kind, **params)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    print(describe_topology(topology))
    return 0


def _commands() -> List[Command]:
    """The subcommand table, in ``mediaworm --help`` / ``list`` order."""
    return [
        Command("list", "list available experiments", _no_flags, _run_list, listed=False),
        Command("run", "run one experiment", _configure_run, _run_run, listed=False),
        Command("all", "run every figure and table", _configure_all, _run_all, listed=False),
        *(
            Command(
                spec.name,
                spec.help,
                partial(_configure_campaign, spec),
                partial(_run_campaign, spec),
            )
            for spec in campaigns().values()
        ),
        Command(
            "trace",
            "one traced run: JSONL event stream, invariants, profiling",
            _configure_trace,
            _run_trace,
        ),
        Command(
            "chaos",
            "randomized differential fault campaign with scenario shrinking",
            _configure_chaos,
            _run_chaos,
        ),
        Command(
            "topo",
            "inspect a topology and its compiled route program",
            _configure_topo,
            _run_topo,
        ),
    ]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatcher (installed as the ``mediaworm`` script)."""
    parser = argparse.ArgumentParser(
        prog="mediaworm",
        description="Reproduce the MediaWorm (HPCA 2000) evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = {command.name: command for command in _commands()}
    for command in table.values():
        command.configure(sub.add_parser(command.name, help=command.help))
    args = parser.parse_args(argv)
    return table[args.command].run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
