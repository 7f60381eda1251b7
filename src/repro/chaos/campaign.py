"""Differential chaos campaigns: run, judge, shrink, replay.

The campaign pipeline:

1. :func:`~repro.chaos.scenario.generate` draws a deterministic stream
   of scenarios from a :class:`~repro.chaos.scenario.ScenarioSpace`;
2. :func:`run_scenario` executes each one under the invariant checker,
   the progress watchdog, and a wall-clock budget, then applies the
   differential oracles (fused-vs-legacy parity, health-monitoring
   no-op, accounting conservation) — the verdict is a plain JSON dict,
   never an exception;
3. failing scenarios are :func:`shrink`-ed by greedy delta debugging —
   a candidate simplification is kept only when it still fails under
   the *same* oracle — and written as replayable repro files;
4. :func:`replay` re-runs a repro file and checks the verdict (and,
   for passing corpus entries, the metrics digest) still matches.

A campaign is a small :class:`~repro.experiments.campaign.Campaign`
spec whose axis value ``i`` draws scenario ``i`` and whose point body
is :func:`run_scenario`, so its scenarios run through
:func:`~repro.experiments.campaign.run_plans` like every sweep point:
worker isolation and crash recovery from the
:class:`~repro.experiments.parallel.ParallelSweepExecutor`, and the
result store, keyed by each scenario's content
(:func:`~repro.experiments.campaign.experiment_key`).  A rerun — or a
longer ``--count`` of the same seed — restores every verdict already
stored, whether or not the campaign found a failure; another profile or
``--point-timeout`` changes the scenarios' content, so they recompute.  Repro
files are :func:`repro.plain.to_plain` of the scenario, read back by
:func:`~repro.chaos.scenario.scenario_from_plain`, which refuses an
unknown field or a wrong type with a
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, Iterator, List, Optional, Tuple

from repro.chaos.oracles import (
    canonical_metrics,
    canonical_run,
    check_accounting,
    classify_error,
    metrics_digest,
)
from repro.chaos.scenario import (
    SABOTAGES,
    Scenario,
    ScenarioSpace,
    armed,
    scenario_from_plain,
)
from repro.errors import ChaosFailure, ConfigurationError
from repro.experiments.campaign import Axis, Campaign, Point, empty_metrics, run_plans
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.resilience import ResultStore, wall_clock_limit
from repro.experiments.runner import simulate, topology_of
from repro.experiments.topo import TOPOLOGY_KINDS
from repro.faults import FaultPlan, expand_domain
from repro.plain import to_plain
from repro.router.config import RoutingMode
from repro.sim.reference import run_reference

REPRO_SCHEMA = "mediaworm-chaos-repro-v2"


# ----------------------------------------------------------------------
# running one scenario


def _execute(scenario: Scenario, loop=None):
    """One raw simulation of the scenario (exceptions propagate)."""
    return simulate(scenario.to_experiment(), loop=loop)


def _verdict(
    scenario: Scenario,
    status: str,
    oracle: Optional[str] = None,
    detail: Optional[str] = None,
    digest: Optional[dict] = None,
    wall_s: float = 0.0,
) -> dict:
    return {
        "key": scenario.key,
        "status": status,
        "oracle": oracle,
        "detail": detail,
        "digest": digest,
        "wall_s": round(wall_s, 3),
    }


def run_scenario(scenario: Scenario) -> dict:
    """Run one scenario under the full oracle stack; never raises.

    The wall-clock budget covers the scenario's primary run *and* its
    differential twins — a scenario is judged as a unit.  The verdict
    is JSON-plain, so the result store keeps it directly.
    """
    started = time.perf_counter()
    try:
        with wall_clock_limit(scenario.wall_timeout_s):
            result = _execute(scenario)
            detail = check_accounting(result)
            if detail is not None:
                return _verdict(
                    scenario,
                    "fail",
                    "conservation",
                    detail,
                    wall_s=time.perf_counter() - started,
                )
            digest = metrics_digest(result)
            detail, oracle = _differential(scenario, result)
            if detail is not None:
                return _verdict(
                    scenario,
                    "fail",
                    oracle,
                    detail,
                    digest=digest,
                    wall_s=time.perf_counter() - started,
                )
    except Exception as exc:
        return _verdict(
            scenario,
            "fail",
            classify_error(exc),
            f"{type(exc).__name__}: {exc}",
            wall_s=time.perf_counter() - started,
        )
    return _verdict(
        scenario,
        "pass",
        digest=digest,
        wall_s=time.perf_counter() - started,
    )


def _differential(
    scenario: Scenario, result
) -> Tuple[Optional[str], Optional[str]]:
    """Twin-run oracles; ``(detail, oracle)`` or ``(None, None)``.

    The parity twin re-runs the scenario on the full-scan reference
    stepper (:func:`repro.sim.reference.run_reference`).
    Faulted, traced and adaptive scenarios are eligible: fault fates
    draw from per-link substreams in delivery order, which the loops
    share, so both are deterministic there, and a traced scenario runs
    the same fused kernels as an untraced one.  Only a sabotaged
    scenario gets no twin; it is expected to fail on its own.

    The health-noop twin needs a genuinely unperturbed baseline, so it
    applies only to zero-fault scenarios under oracle routing (adaptive
    mode reserves an escape VC per class partition and legitimately
    changes metrics even on a healthy fabric).
    """
    if scenario.sabotage is not None:
        return None, None
    reference = _execute(scenario, loop=run_reference)
    if canonical_run(reference) != canonical_run(result):
        return (
            "cycle loop and legacy full-scan loop disagree on metrics",
            "parity",
        )
    experiment = scenario.experiment
    if (
        experiment.health is not None
        and scenario.is_zero_fault
        and experiment.routing_mode == RoutingMode.ORACLE
    ):
        bare = _execute(_edited(scenario, health=None))
        if canonical_metrics(bare) != canonical_metrics(result):
            return (
                "passive health monitoring changed zero-fault metrics",
                "health-noop",
            )
    return None, None


# ----------------------------------------------------------------------
# shrinking


def _edited(scenario: Scenario, **changes) -> Scenario:
    """``scenario`` with its experiment's fields changed; a zero fault
    plan is stored as no plan, as the generator stores it."""
    faults = changes.get("faults")
    if faults is not None and faults.is_zero:
        changes["faults"] = None
    return dataclasses.replace(
        scenario, experiment=dataclasses.replace(scenario.experiment, **changes)
    )


def _candidates(scenario: Scenario) -> Iterator[Tuple[str, Scenario]]:
    """Named one-step simplifications, most aggressive first.

    Each candidate is a strictly simpler scenario; the shrinker keeps
    one only when it still fails under the original oracle, so the
    order here is a search heuristic, not a correctness concern.
    """
    experiment = scenario.experiment
    plan = experiment.faults or FaultPlan()
    if not plan.is_zero:
        yield "drop-faults", _edited(scenario, faults=None, recovery=None)
    for index in range(len(plan.down_windows)):
        windows = (
            plan.down_windows[:index] + plan.down_windows[index + 1 :]
        )
        yield (
            f"drop-window-{index}",
            _edited(
                scenario,
                faults=dataclasses.replace(plan, down_windows=windows),
            ),
        )
    for index in range(len(plan.domains)):
        rest = plan.domains[:index] + plan.domains[index + 1 :]
        yield (
            f"drop-domain-{index}",
            _edited(scenario, faults=dataclasses.replace(plan, domains=rest)),
        )
        # demote the correlated fault to its constituent link windows,
        # so the drop-window passes can then bisect down to the one
        # link that actually matters
        try:
            expanded = expand_domain(
                plan.domains[index], topology_of(experiment)
            )
        except ConfigurationError:
            expanded = ()
        if expanded:
            yield (
                f"demote-domain-{index}",
                _edited(
                    scenario,
                    faults=dataclasses.replace(
                        plan,
                        domains=rest,
                        down_windows=plan.down_windows + expanded,
                    ),
                ),
            )
    if plan.flit_corrupt_prob > 0:
        yield (
            "zero-corrupt",
            _edited(
                scenario,
                faults=dataclasses.replace(plan, flit_corrupt_prob=0.0),
            ),
        )
    if plan.flit_loss_prob > 0:
        yield (
            "zero-loss",
            _edited(
                scenario,
                faults=dataclasses.replace(plan, flit_loss_prob=0.0),
            ),
        )
    if scenario.kind != "single":
        # the same experiment on the type-default single switch; down
        # windows and domains name multi-router channels and switches,
        # so they go with the fabric
        shape = type(experiment).shape_fields
        settings = {
            f.name: getattr(experiment, f.name)
            for f in dataclasses.fields(experiment)
            if f.name not in shape
        }
        single = _edited(
            dataclasses.replace(
                scenario,
                kind="single",
                experiment=TOPOLOGY_KINDS["single"](**settings),
            ),
            routing_mode=RoutingMode.ORACLE,
            faults=dataclasses.replace(plan, down_windows=(), domains=()),
        )
        yield "shrink-topology", single
    if experiment.routing_mode != RoutingMode.ORACLE:
        yield "mode-oracle", _edited(scenario, routing_mode=RoutingMode.ORACLE)
    if (
        experiment.health is not None
        and experiment.routing_mode == RoutingMode.ORACLE
    ):
        yield "no-health", _edited(scenario, health=None)
    if experiment.recovery is not None and plan.is_zero:
        yield "no-recovery", _edited(scenario, recovery=None)
    if scenario.sabotage is not None:
        yield "no-sabotage", dataclasses.replace(scenario, sabotage=None)
    if experiment.measure_frames > 1:
        yield (
            "fewer-frames",
            _edited(scenario, measure_frames=experiment.measure_frames // 2),
        )
    if experiment.message_size > 8:
        yield "smaller-message", _edited(scenario, message_size=8)
    if experiment.load > 0.2:
        yield (
            "halve-load",
            _edited(scenario, load=round(experiment.load / 2, 3)),
        )
    if (
        experiment.vcs_per_pc > 4
        and experiment.routing_mode == RoutingMode.ORACLE
    ):
        yield "fewer-vcs", _edited(scenario, vcs_per_pc=4)
    if scenario.kind == "single" and experiment.num_ports > 4:
        yield "fewer-ports", _edited(scenario, num_ports=4)


def shrink(
    scenario: Scenario,
    oracle: str,
    budget: int = 40,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[Scenario, List[str]]:
    """Greedy delta-debugging to a locally minimal failing scenario.

    Repeatedly tries the named simplification passes; a candidate is
    adopted only when it still fails under ``oracle`` (a candidate that
    passes, or fails differently, is evidence the removed ingredient
    mattered).  Stops at a fixpoint — no pass makes progress — or when
    ``budget`` re-runs are spent.  Returns the minimal scenario and the
    trail of adopted pass names.
    """
    current = scenario
    trail: List[str] = []
    runs = 0
    progress = True
    while progress and runs < budget:
        progress = False
        for name, candidate in _candidates(current):
            if runs >= budget:
                break
            runs += 1
            verdict = run_scenario(candidate)
            if (
                verdict["status"] == "fail"
                and verdict["oracle"] == oracle
            ):
                current = candidate
                trail.append(name)
                progress = True
                if log is not None:
                    log(f"shrink[{scenario.key}]: kept {name}")
                break
    return current, trail


# ----------------------------------------------------------------------
# repro files


def write_repro(
    corpus_dir: str,
    scenario: Scenario,
    verdict: dict,
    trail: Optional[List[str]] = None,
    campaign: Optional[dict] = None,
) -> str:
    """Persist one replayable repro; returns its path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"{scenario.key}.json")
    payload = {
        "format": REPRO_SCHEMA,
        "scenario": to_plain(scenario),
        "verdict": {
            "status": verdict["status"],
            "oracle": verdict["oracle"],
            "detail": verdict["detail"],
            "digest": verdict["digest"],
        },
        "shrink_trail": list(trail or ()),
        "campaign": dict(campaign or ()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_repro(path: str) -> Tuple[Scenario, dict]:
    """Parse a repro file into its scenario and recorded verdict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"{path}: not a readable repro file "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != REPRO_SCHEMA:
        found = (
            payload.get("format") if isinstance(payload, dict) else payload
        )
        raise ConfigurationError(
            f"{path}: unknown repro format {found!r} "
            f"(expected {REPRO_SCHEMA!r})"
        )
    if "scenario" not in payload:
        raise ConfigurationError(f"{path}: no 'scenario' block")
    try:
        scenario = scenario_from_plain(payload["scenario"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return scenario, payload.get("verdict", {})


def replay(path: str) -> Tuple[bool, str, dict]:
    """Re-run a repro file; ``(ok, message, actual_verdict)``.

    The replay matches when the status agrees, a failure reproduces
    under the recorded oracle, and — where both runs have one — the
    metrics digest is bit-identical (the digest is what turns passing
    corpus entries into determinism regressions).
    """
    scenario, recorded = load_repro(path)
    actual = run_scenario(scenario)
    expected_status = recorded.get("status", "fail")
    if actual["status"] != expected_status:
        return (
            False,
            f"recorded {expected_status} but replay "
            f"{actual['status']}ed: {actual['detail']}",
            actual,
        )
    if expected_status == "fail" and actual["oracle"] != recorded.get(
        "oracle"
    ):
        return (
            False,
            f"recorded oracle {recorded.get('oracle')!r} but replay "
            f"failed under {actual['oracle']!r}: {actual['detail']}",
            actual,
        )
    expected_digest = recorded.get("digest")
    if expected_digest is not None and actual["digest"] is not None:
        if actual["digest"] != expected_digest:
            return (
                False,
                f"metrics digest changed: recorded {expected_digest} "
                f"vs replay {actual['digest']}",
                actual,
            )
    oracle = actual["oracle"]
    what = "passes" if expected_status == "pass" else f"fails [{oracle}]"
    return True, f"replay matches the recorded verdict ({what})", actual


# ----------------------------------------------------------------------
# the campaign driver


def _judge(scenario: Scenario) -> Point:
    """Point body: the scenario's verdict, riding in ``Point.extra``
    (module-level, so pool workers pickle it)."""
    return Point(None, empty_metrics(), run_scenario(scenario))


def _spec(space: ScenarioSpace, seed: int) -> Campaign:
    """The campaign as a sweep spec: axis value ``i`` is scenario ``i``
    of ``seed``'s stream (the space fixes the workload scale, so the
    profile is unused)."""
    return Campaign(
        name="chaos",
        help="randomized differential fault campaign",
        series=("scenario",),
        axis=Axis(defaults=()),
        experiment=lambda profile, series, index: space.nth(seed, index),
        title=f"chaos campaign (seed {seed})",
        xlabel="scenario",
        point=_judge,
        table=dict,
    )


def run_campaign(
    space: ScenarioSpace,
    seed: int,
    count: int,
    corpus_dir: str,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    shrink_budget: int = 40,
    point_timeout: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run a full campaign; returns a JSON-plain summary.

    Scenario verdicts go through :func:`~repro.experiments.campaign
    .run_plans` like any sweep point: worker isolation, crash recovery,
    and ``store`` records keyed by each scenario's content
    (:func:`~repro.experiments.campaign.experiment_key`), so a rerun
    restores every finished verdict — a longer ``count`` included.
    Failures are then shrunk serially in the parent and written to
    ``corpus_dir`` as replayable repros.
    """
    say = log or (lambda message: None)
    if point_timeout is not None:
        # Override each scenario's own wall budget instead of wrapping
        # the worker in a second timer: nested SIGALRM timers would
        # disarm each other, and the scenario budget already covers the
        # differential twin runs as a unit.
        space = dataclasses.replace(space, wall_timeout_s=point_timeout)
    spec = _spec(space, seed)
    plan = spec.plan("smoke", range(count))
    executor = ParallelSweepExecutor(jobs=jobs, log=log)
    points = run_plans([(spec, plan)], store, log, executor)[0]

    failures = []
    for pair, point in points.items():
        verdict = point.extra
        if verdict["status"] != "fail":
            continue
        key = verdict["key"]
        say(f"scenario {key} failed [{verdict['oracle']}]: {verdict['detail']}")
        minimal, trail = shrink(
            plan[pair], verdict["oracle"], budget=shrink_budget, log=log
        )
        final = run_scenario(minimal)
        path = write_repro(
            corpus_dir,
            minimal,
            final,
            trail=trail,
            campaign={"seed": seed, "count": count, "key": key},
        )
        say(f"scenario {key}: minimal repro written to {path}")
        failures.append(
            {
                "key": key,
                "oracle": verdict["oracle"],
                "detail": verdict["detail"],
                "shrink_trail": trail,
                "repro": path,
            }
        )
    return {
        "seed": seed,
        "count": count,
        "scenarios": len(points),
        "passed": sum(point.extra["status"] == "pass" for point in points.values()),
        "failed": len(failures),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# harness self-test


def sabotage_scenario(kind: str, seed: int = 7) -> Scenario:
    """A small deterministic scenario carrying a named sabotage hook."""
    if kind not in SABOTAGES:
        raise ConfigurationError(
            f"unknown sabotage {kind!r}; known: {sorted(SABOTAGES)}"
        )
    experiment = TOPOLOGY_KINDS["single"](
        vcs_per_pc=8,
        load=0.5,
        scale=100.0,
        warmup_frames=1,
        measure_frames=2,
        seed=seed,
    )
    return Scenario(
        key=f"sabotage-{kind}",
        kind="single",
        experiment=armed(experiment),
        sabotage=kind,
    )


def selftest(
    kind: str,
    corpus_dir: str,
    seed: int = 7,
    shrink_budget: int = 40,
    log: Optional[Callable[[str], None]] = None,
) -> str:
    """End-to-end pipeline check against a deliberately broken run.

    Injects the named sabotage, and asserts the campaign machinery
    catches it, shrinks it, and replays the minimal repro to the same
    failure.  Returns the repro path; raises
    :class:`~repro.errors.ChaosFailure` when any pipeline stage fails
    to do its job — i.e. a *passing* sabotage run is itself a failure.
    """
    say = log or (lambda message: None)
    scenario = sabotage_scenario(kind, seed=seed)
    verdict = run_scenario(scenario)
    if verdict["status"] != "fail":
        raise ChaosFailure(
            "selftest",
            scenario.key,
            f"sabotage {kind!r} was not caught by any oracle "
            f"(verdict: {verdict['status']})",
        )
    say(
        f"sabotage {kind!r} caught [{verdict['oracle']}]: "
        f"{verdict['detail']}"
    )
    minimal, trail = shrink(
        scenario, verdict["oracle"], budget=shrink_budget, log=log
    )
    if minimal.sabotage != kind:
        raise ChaosFailure(
            "selftest",
            scenario.key,
            "shrinking removed the sabotage itself — the failure "
            "cannot have depended on it",
        )
    final = run_scenario(minimal)
    path = write_repro(
        corpus_dir,
        minimal,
        final,
        trail=trail,
        campaign={"selftest": kind, "seed": seed},
    )
    say(f"minimal repro ({len(trail)} shrink steps) written to {path}")
    ok, message, _ = replay(path)
    if not ok:
        raise ChaosFailure("selftest", scenario.key, message)
    say(f"replay: {message}")
    return path
