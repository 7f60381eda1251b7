"""The campaign contract, once, for every campaign in the registry.

``mediaworm faults`` / ``failover`` / ``disaster`` / ``scale`` are specs
run by one skeleton (``repro.experiments.campaign``); everything the
skeleton promises is checked here against stubbed simulators,
parametrized over :func:`~repro.experiments.campaign.campaigns`.  The
``GOLDEN`` tables and ``figure_to_dict`` JSON of the first three were
produced by the per-module campaign functions this skeleton replaced,
so they prove the artifacts did not move (disaster's ``x`` has since
become the severity name); scale's pin its format as a spec.  The
checkpoint keys are literal content keys of the points' experiments:
a checkpoint written today restores tomorrow, in any process, and one
keyed the old ``series@x|fingerprint`` way is dropped, never spliced.
"""

import json
import logging
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.experiments.cli as cli
from repro.core.schedulers import SchedulingPolicy
from repro.errors import ConfigurationError, DeadlockError
from repro.experiments import campaign
from repro.experiments.campaign import (
    Axis,
    Campaign,
    Column,
    Point,
    any_failed,
    campaigns,
    empty_metrics,
    experiment_key,
)
from repro.experiments.config import (
    ButterflyExperiment,
    FatMeshExperiment,
    FatTree3Experiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.export import figure_to_dict, load_result
from repro.experiments.figures import PAPER
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import ExperimentResult
from repro.faults import FaultPlan, RecoveryConfig
from repro.metrics.collector import RunMetrics
from repro.network.health import HealthConfig
from repro.obs.events import TraceSpec
from repro.router.config import RoutingMode

NAMES = list(campaigns())

#: RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50) as the Point codec
#: writes it — the field set an old checkpoint carries
METRICS = {
    "availability": [],
    "be_latency_std_us": 1.0,
    "be_latency_us": 10.0,
    "be_latency_us_paper_equivalent": 10.0,
    "be_message_count": 50,
    "be_messages_shed": 0,
    "detours": 0,
    "frames_delivered": 100,
    "host_downtime_cycles": 0,
    "hosts_isolated": 0,
    "interval_count": 99,
    "link_downs": 0,
    "link_flaps": 0,
    "link_recoveries": 0,
    "mean_delivery_interval_ms": 33.0,
    "mean_switch_time_to_recover_cycles": 0.0,
    "mean_time_to_recovery_cycles": 0.0,
    "profile": {},
    "reroutes": 0,
    "std_delivery_interval_ms": 0.5,
    "streams_shed": 0,
    "switch_downs": 0,
    "switch_recoveries": 0,
    "worms_requeued": 0,
}


def _stats(healthy: bool) -> dict:
    """The stub's ``fault_stats``; static routing reads as degraded."""
    return {
        "delivered_fraction": 0.995,
        "flits_lost": 7,
        "retransmissions": 3,
        "abandoned": 0,
        "qos_delivered_fraction": 1.0 if healthy else 0.9,
        "qos_reachable_fraction": 1.0 if healthy else 0.95,
        "qos_deadline_misses": 0 if healthy else 4,
        "qos_abandoned": 0 if healthy else 5,
        "health": {
            "reroutes": 3 if healthy else 0,
            "detours": 1,
            "worms_requeued": 2,
            "streams_shed": 6,
            "switch_downs": 1,
            "hosts_isolated": 2 if healthy else 0,
            "host_downtime_cycles": 1234,
            "mean_switch_time_to_recover_cycles": 56.7,
        },
    }


def _stub_result(experiment) -> ExperimentResult:
    return ExperimentResult(
        experiment=experiment,
        metrics=RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50),
        workload=None,
        cycles_run=1000,
        flits_injected=10,
        flits_ejected=10,
        wall_seconds=0.0,
        fault_stats=_stats(experiment.routing_mode != RoutingMode.STATIC),
        setup_seconds=0.0,
    )


class _StubNetwork:
    """What a ``network_hook`` sees of a stubbed run."""

    def buffered_vcs(self):
        return (3, 40)


def _second_kind(experiment) -> bool:
    """True for every campaign's degraded series (FIFO / static routing)."""
    return (
        experiment.scheduler == SchedulingPolicy.FIFO
        or experiment.routing_mode == RoutingMode.STATIC
    )


@pytest.fixture
def simulators(monkeypatch):
    """Stub the ``simulate`` a campaign's point runner calls.

    Returns ``install(spec, fail=None)`` -> the list of experiments the
    stub was called with; ``fail(experiment)`` true raises a
    DeadlockError instead of returning a result.  The stub takes the
    ``loop=`` a point body may pass, hands its ``network_hook`` a
    stand-in network, and the body's module reads a frozen clock, so
    wall-time columns are literal too.
    """

    def install(spec, fail=None):
        calls = []

        def stub(experiment, loop=None):
            calls.append(experiment)
            if fail is not None and fail(experiment):
                raise DeadlockError("router 0 wedged")
            if experiment.network_hook is not None:
                experiment.network_hook(_StubNetwork())
            return _stub_result(experiment)

        module = sys.modules[spec.point.__module__]
        monkeypatch.setattr(module, "simulate", stub)
        if hasattr(module, "time"):
            monkeypatch.setattr(
                module, "time", SimpleNamespace(perf_counter=lambda: 0.0)
            )
        return calls

    return install


def _scale_record(name: str, topology: dict) -> dict:
    """A stubbed scale point's record: three runs of the stub's result,
    read by a frozen clock, its topology compiled before the stub ran."""
    return {
        "active_s": 0.0,
        "compile_once": True,
        "compiles_first_run": 0,
        "compiles_repeat_run": 0,
        "d_ms": 33.0,
        "digest": "93c47d0404a2399852fe7d9d2aff0325"
        "d2f6720712a75856c578fa34518e1488",
        "flits_ejected": 10,
        "flits_injected": 10,
        "identical": True,
        "legacy_s": 0.0,
        "name": name,
        "repeat_s": 0.0,
        "setup_s": 0.0,
        "sigma_d_ms": 0.5,
        "topology": dict(
            alt_entries=0,
            dense_nodes=True,
            detour_entries=0,
            failover_overlay=True,
            unique_groups=5,
            **topology,
        ),
        "vcs_total": 40,
        "vcs_used": 3,
        "watchdog_window": 41248,
    }


#: per campaign: the sweep, its CLI spelling, arguments the CLI must
#: refuse, each point's checkpoint key, and the artifacts the replaced
#: code produced for that sweep (scale: ``runs`` simulations per point,
#: a ``record`` as each point's whole extra, and failures its body
#: records rather than the executor)
GOLDEN = {
    "faults": dict(
        values=(0.005,),
        arg="0.005",
        bad_args=("0.1x", "1.5", "-0.1", "0.01,0.010"),
        bad_values=((1.5,), (0.01, 0.01)),
        keys={
            ("virtual_clock", 0.005): "FatMeshExperiment-3ef74c55d04d1b0d",
            ("fifo", 0.005): "FatMeshExperiment-e144b8728b00546e",
        },
        table="""\
QoS under link faults (2x2 fat mesh, 80:20 mix, load 0.7)
scheduler      loss rate delivered   d (ms)  sigma_d    lost  rexmit abandoned
------------------------------------------------------------------------------
virtual_clock      0.005    0.9950   33.000    0.500       7       3         0
fifo               0.005    0.9950   33.000    0.500       7       3         0
(end-to-end recovery enabled (checksum + timeout/retransmission with capped exponential backoff))""",
        figure=dict(
            title="QoS under link faults (2x2 fat mesh, 80:20 mix, load 0.7)",
            xlabel="per-flit loss probability",
            notes="end-to-end recovery enabled (checksum + timeout/"
            "retransmission with capped exponential backoff)",
        ),
    ),
    "failover": dict(
        values=(2,),
        arg="2",
        bad_args=("two", "-1", "9", "2,2"),
        bad_values=((9,), (-1,), (2, 2)),
        keys={
            ("adaptive", 2): "FatMeshExperiment-4c3c8fa873ba1d0a",
            ("static", 2): "FatMeshExperiment-c5d255d93bfe1685",
        },
        table="""\
QoS failover under permanent link failures (2x2 fat mesh, 80:20 mix, load 0.6)
routing   failed  qos frac  misses   d (ms)  sigma_d  reroute  detour  requeue  shed abandoned
----------------------------------------------------------------------------------------------
adaptive       2    1.0000       0   33.000    0.500        3       1        2     6         0
static         2    0.9000       4   33.000    0.500        0       1        2     6         5
(one permanent member failure per fat pair at end of warmup; health monitoring on in both modes, failover actions only in adaptive)""",
        figure=dict(
            title="QoS failover under permanent link failures "
            "(2x2 fat mesh, 80:20 mix, load 0.6)",
            xlabel="failed fat-pair members",
            notes="one permanent member failure per fat pair at end of "
            "warmup; health monitoring on in both modes, failover actions "
            "only in adaptive",
        ),
    ),
    "disaster": dict(
        values=("none", "pod"),
        arg="none,pod",
        bad_args=("tsunami", "none,none"),
        bad_values=(("tsunami",), ("none", "none")),
        # the butterfly has no pods: its series simply omit the rung
        keys={
            ("fat-tree/adaptive", "none"): "FatTree3Experiment-3dc517dafb6b65b1",
            ("fat-tree/adaptive", "pod"): "FatTree3Experiment-eb0b0cc61d39c9bf",
            ("fat-tree/static", "none"): "FatTree3Experiment-7e777259e58459f7",
            ("fat-tree/static", "pod"): "FatTree3Experiment-fe1007f98a53511b",
            ("butterfly/adaptive", "none"): "ButterflyExperiment-f56ae2a7245debf8",
            ("butterfly/static", "none"): "ButterflyExperiment-d19bc246e0a5c2af",
        },
        table="""\
Datacenter failover under switch/domain failures (fat_tree3 k=8 + butterfly, 80:20 mix, load 0.6)
series              severity reach frac  qos frac isolated  downtime sw downs      ttr  shed abandoned
------------------------------------------------------------------------------------------------------
fat-tree/adaptive       none     1.0000    1.0000        2      1234        1       57     6         0
fat-tree/adaptive        pod     1.0000    1.0000        2      1234        1       57     6         0
fat-tree/static         none     0.9500    0.9000        0      1234        1       57     6         5
fat-tree/static          pod     0.9500    0.9000        0      1234        1       57     6         5
butterfly/adaptive      none     1.0000    1.0000        2      1234        1       57     6         0
butterfly/static        none     0.9500    0.9000        0      1234        1       57     6         5
(disaster at end of warmup; health monitoring on in both modes, switch-level failover (overlay masks + session shedding) only in adaptive)""",
        figure=dict(
            title="Datacenter failover under switch/domain failures "
            "(fat_tree3 k=8 + butterfly, 80:20 mix, load 0.6)",
            xlabel="failure severity (none < link < switch < pod)",
            notes="disaster at end of warmup; health monitoring on in both "
            "modes, switch-level failover (overlay masks + session "
            "shedding) only in adaptive",
        ),
    ),
    "scale": dict(
        values=("ft3-16", "bfly-64"),
        arg="ft3-16,bfly-64",
        bad_args=("ft3-9999", "ft3-16,ft3-16"),
        bad_values=(("ft3-9999",), ("ft3-16", "ft3-16")),
        keys={
            ("scale", "ft3-16"): "FatTree3Experiment-fef62fa6710cdeb0",
            ("scale", "bfly-64"): "ButterflyExperiment-a056740ba29932e8",
        },
        table="""\
scale campaign (active / repeat / legacy must be bit-identical)
     point  hosts switches table ints active s  setup s legacy s     d ms vcs used vcs total identical compiles
---------------------------------------------------------------------------------------------------------------
    ft3-16     16       20        320      0.0     0.00      0.0  33.0000        3        40      True        0
   bfly-64     64       48       3072      0.0     0.00      0.0  33.0000        3        40      True        0
(a point fails unless its three runs share one digest and VC census, its route program compiles at most once, and d / sigma_d are finite)""",
        figure=dict(
            title="scale campaign (active / repeat / legacy must be "
            "bit-identical)",
            xlabel="scale point",
            notes="a point fails unless its three runs share one digest "
            "and VC census, its route program compiles at most once, and "
            "d / sigma_d are finite",
        ),
        runs=3,
        record={
            "ft3-16": _scale_record(
                "ft3-16",
                dict(
                    destinations=16,
                    entries=320,
                    hosts=16,
                    max_group_size=2,
                    name="fat-tree3-k4h2w1",
                    ports_per_router=4,
                    routers=20,
                    table_ints=320,
                ),
            ),
            "bfly-64": _scale_record(
                "bfly-64",
                dict(
                    destinations=64,
                    entries=3072,
                    hosts=64,
                    max_group_size=4,
                    name="butterfly-a4n3h4w1",
                    ports_per_router=8,
                    routers=48,
                    table_ints=3072,
                ),
            ),
        },
        fail=lambda experiment: isinstance(experiment, ButterflyExperiment),
        failing=(("scale", "bfly-64"),),
        body_catches=True,
    ),
}


def _golden_point(name: str, series: str, x) -> dict:
    """One point as the codec writes it to JSON (a checkpoint entry is
    the same with ``x`` None: the spec places the point)."""
    gold = GOLDEN[name]
    if "record" in gold:
        extra = gold["record"][x]
    else:
        extra = _stats(not series.endswith("static"))
    return {"x": x, "metrics": METRICS, "extra": extra}


def _failing(spec, gold) -> set:
    """The ``(series, x)`` pairs the stub's ``fail`` hits: every
    campaign's degraded series, unless the golden names them."""
    if "failing" in gold:
        return set(gold["failing"])
    return {pair for pair in gold["keys"] if pair[0] in spec.series[1::2]}


def _golden_figure(name: str) -> dict:
    series = {}
    for series_name, x in GOLDEN[name]["keys"]:
        series.setdefault(series_name, []).append(
            _golden_point(name, series_name, x)
        )
    return dict(
        GOLDEN[name]["figure"], kind="figure", figure_id=name, series=series
    )


def _golden_checkpoint(name: str) -> dict:
    """A campaign's checkpoint file, every point done."""
    return {
        "format": "mediaworm-checkpoint-v1",
        "meta": {"command": name},
        "done": {
            key: dict(_golden_point(name, series, x), x=None)
            for (series, x), key in GOLDEN[name]["keys"].items()
        },
    }


def test_every_builtin_campaign_has_a_golden():
    assert NAMES == ["faults", "failover", "disaster", "scale"]
    assert set(GOLDEN) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
class TestCampaignContract:
    def test_series_shape_and_order(self, name, simulators):
        spec = campaigns()[name]
        calls = simulators(spec)
        fig = spec.run("quick", GOLDEN[name]["values"])
        assert fig.figure_id == name
        assert list(fig.series) == list(spec.series)
        pairs = list(GOLDEN[name]["keys"])
        assert [
            (series, point.x)
            for series, points in fig.series.items()
            for point in points
        ] == pairs
        # one point per defined (series, x) pair, in table order
        assert len(calls) == len(pairs) * GOLDEN[name].get("runs", 1)
        assert not any_failed(fig)

    def test_golden_table_json_and_checkpoint(
        self, name, simulators, tmp_path
    ):
        spec = campaigns()[name]
        simulators(spec)
        gold = GOLDEN[name]
        path = tmp_path / "ckpt.json"
        fig = spec.run(
            "quick",
            gold["values"],
            checkpoint=SweepCheckpoint(path, {"command": name}),
        )
        assert spec.render(fig) == gold["table"]
        assert figure_to_dict(fig) == _golden_figure(name)
        assert json.loads(path.read_text()) == _golden_checkpoint(name)

    def test_checkpoint_per_point_and_restore_without_rerun(
        self, name, simulators, tmp_path
    ):
        spec = campaigns()[name]
        calls = simulators(spec)
        gold = GOLDEN[name]
        path = tmp_path / "ckpt.json"
        cp = SweepCheckpoint(path, {"command": name})
        first = spec.run("quick", gold["values"], checkpoint=cp)
        assert cp.done_keys == list(gold["keys"].values())
        ran = len(calls)

        # a rerun against the same file recomputes nothing
        logs = []
        again = spec.run(
            "quick",
            gold["values"],
            checkpoint=SweepCheckpoint(path, {"command": name}),
            log=logs.append,
        )
        assert len(calls) == ran
        assert logs == [
            f"[{name}] {series}@{spec.axis.text(x)}: restored from checkpoint"
            for series, x in gold["keys"]
        ]
        assert figure_to_dict(again) == figure_to_dict(first)

    def test_checkpoint_from_the_replaced_code_restores(
        self, name, simulators, tmp_path, capsys
    ):
        """The literal file — its keys pinned above — restores with zero
        simulator calls."""
        spec = campaigns()[name]
        calls = simulators(spec)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_golden_checkpoint(name)))
        argv = [name, "--profile", "quick", "--checkpoint", str(path)]
        argv += [spec.axis.flag, GOLDEN[name]["arg"]]
        assert cli.main(argv) == 0
        assert calls == []
        out = capsys.readouterr().out
        assert out.count("restored from checkpoint") == len(
            GOLDEN[name]["keys"]
        )
        assert GOLDEN[name]["table"] in out

    def test_failed_point_recorded_checkpointed_not_fatal(
        self, name, simulators, tmp_path
    ):
        spec = campaigns()[name]
        gold = GOLDEN[name]
        calls = simulators(spec, fail=gold.get("fail", _second_kind))
        failing = _failing(spec, gold)
        path = tmp_path / "ckpt.json"
        cp = SweepCheckpoint(path, {"command": name})
        logs = []
        fig = spec.run(
            "quick", gold["values"], checkpoint=cp, log=logs.append
        )
        assert any_failed(fig)
        points = [p for series in fig.series.values() for p in series]
        for (series, x), point in zip(gold["keys"], points):
            # failed or not, the point sits at its x
            assert point.x == x
            if (series, x) in failing:
                assert point.extra["failed"] == (
                    "DeadlockError: router 0 wedged"
                )
                if not gold.get("body_catches"):
                    # the executor gave up on it after its retries
                    label = f"{series}@{spec.axis.text(x)}"
                    assert f"[{name}] {label}: FAILED (DeadlockError)" in logs
            else:
                assert "failed" not in point.extra
        failed_rows = [
            line for line in spec.render(fig).splitlines() if "FAILED" in line
        ]
        assert len(failed_rows) == len(failing)
        assert all(
            row.endswith("FAILED: DeadlockError: router 0 wedged")
            for row in failed_rows
        )
        # the failure is checkpointed too: a rerun does not retry it
        assert sorted(cp.done_keys) == sorted(gold["keys"].values())
        ran = len(calls)
        again = spec.run(
            "quick",
            gold["values"],
            checkpoint=SweepCheckpoint(path, {"command": name}),
        )
        assert len(calls) == ran
        assert figure_to_dict(again) == figure_to_dict(fig)

    def test_bad_axis_values_rejected_before_any_experiment(
        self, name, simulators
    ):
        spec = campaigns()[name]
        calls = simulators(spec)
        for values in GOLDEN[name]["bad_values"]:
            with pytest.raises(ConfigurationError) as excinfo:
                spec.run("quick", values)
            # short, and names the offending value
            message = str(excinfo.value)
            assert len(message) < 100
            assert spec.axis.text(values[-1]) in message
        assert calls == []

    def test_cli_turns_a_bad_axis_into_a_message(self, name, simulators):
        spec = campaigns()[name]
        calls = simulators(spec)
        for arg in GOLDEN[name]["bad_args"]:
            with pytest.raises(SystemExit) as excinfo:
                cli.main([name, "--profile", "quick", spec.axis.flag, arg])
            assert isinstance(excinfo.value.code, str)
            assert len(excinfo.value.code) < 100
        assert calls == []

    def test_cli_completion_clears_the_checkpoint_and_writes_json(
        self, name, simulators, tmp_path, capsys
    ):
        spec = campaigns()[name]
        simulators(spec)
        path = tmp_path / "ckpt.json"
        out_json = tmp_path / "fig.json"
        argv = [name, "--profile", "quick", "--checkpoint", str(path)]
        argv += [spec.axis.flag, GOLDEN[name]["arg"], "--json", str(out_json)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert GOLDEN[name]["table"] in out
        assert f"[{name} completed in" in out
        assert not path.exists()
        assert json.loads(out_json.read_text()) == _golden_figure(name)
        assert figure_to_dict(load_result(out_json)) == _golden_figure(name)

    def test_cli_fresh_discards_a_stale_checkpoint(
        self, name, simulators, tmp_path, capsys
    ):
        spec = campaigns()[name]
        calls = simulators(spec)
        stale = _golden_checkpoint(name)
        for point in stale["done"].values():
            point["metrics"] = dict(METRICS, mean_delivery_interval_ms=77.0)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(stale))
        argv = [name, "--profile", "quick", "--checkpoint", str(path)]
        argv += [spec.axis.flag, GOLDEN[name]["arg"], "--fresh"]
        assert cli.main(argv) == 0
        gold = GOLDEN[name]
        assert len(calls) == len(gold["keys"]) * gold.get("runs", 1)
        out = capsys.readouterr().out
        assert "restored from checkpoint" not in out
        assert "77.000" not in out

    def test_cli_exits_1_on_a_failed_point(
        self, name, simulators, tmp_path, capsys
    ):
        """Table printed, JSON written, checkpoint cleared — then exit 1."""
        spec = campaigns()[name]
        simulators(spec, fail=GOLDEN[name].get("fail", _second_kind))
        path = tmp_path / "ckpt.json"
        out_json = tmp_path / "fig.json"
        argv = [name, "--profile", "quick", "--checkpoint", str(path)]
        argv += [spec.axis.flag, GOLDEN[name]["arg"], "--json", str(out_json)]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "FAILED: DeadlockError: router 0 wedged" in out
        assert f"[{name} completed in" in out
        assert any_failed(load_result(out_json))
        assert not path.exists()


# ----------------------------------------------------------------------
# a campaign is a spec: registering one is all the CLI needs


def _toy_experiment(profile, series: str, size: int):
    return SingleSwitchExperiment(
        load=0.1 * size, scheduler=series, scale=profile.scale
    )


def _toy_point(experiment) -> Point:
    size = round(experiment.load * 10)
    return Point(None, empty_metrics(), extra={"area": size * size})


def _check_size(size: int) -> None:
    if not 1 <= size <= 9:
        raise ConfigurationError(f"sizes must be in 1..9, got {size}")


TOY = Campaign(
    name="toy",
    help="a toy campaign registered by the tests",
    series=(SchedulingPolicy.VIRTUAL_CLOCK, SchedulingPolicy.FIFO),
    axis=Axis(
        flag="--sizes",
        metavar="N1,N2,...",
        help="comma-separated sizes",
        defaults=(1, 2),
        parse=int,
        check=_check_size,
    ),
    experiment=_toy_experiment,
    point=_toy_point,
    title="Toy areas",
    xlabel="size",
    notes="",
    series_column=("scheduler", 13),
    columns=(Column("size", 4, "x"), Column("area", 5, "area")),
)


class TestRegisteredCampaign:
    @pytest.fixture(autouse=True)
    def registered(self, monkeypatch):
        monkeypatch.setattr(campaign, "_REGISTERED", {})
        campaign.register(TOY)

    def test_runs_through_the_cli_without_touching_it(self, tmp_path, capsys):
        path = tmp_path / "toy.json"
        argv = ["toy", "--profile", "smoke", "--sizes", "3"]
        assert cli.main(argv + ["--checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "Toy areas\n"
            "scheduler     size  area\n"
            "------------------------\n"
            "virtual_clock    3     9\n"
            "fifo             3     9\n"
            "[toy completed in "
        )
        assert not path.exists()

    def test_is_listed_and_validated_like_a_builtin(self, capsys):
        assert list(campaigns()) == NAMES + ["toy"]
        assert cli.main(["list"]) == 0
        assert (
            "toy      a toy campaign registered by the tests"
            in capsys.readouterr().out
        )
        with pytest.raises(SystemExit, match="sizes must be in 1..9, got 12"):
            cli.main(["toy", "--sizes", "12"])

    def test_profile_dependent_defaults_run_without_the_flag(
        self, tmp_path, capsys
    ):
        """``defaults`` as ``profile -> sweep`` (Fig. 7's and scale's kind)
        resolve in the CLI too, not only in ``Campaign.run``."""
        by_profile = replace(
            TOY,
            name="toy-by-profile",
            axis=replace(
                TOY.axis,
                defaults=lambda profile: (4,) if profile.name == "smoke" else (5,),
            ),
        )
        campaign.register(by_profile)
        path = tmp_path / "toy.json"
        argv = ["toy-by-profile", "--profile", "smoke"]
        assert cli.main(argv + ["--checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "virtual_clock    4    16\n" in out
        assert {x for _, x in by_profile.plan("smoke")} == {4}
        assert {x for _, x in by_profile.plan("quick")} == {5}

    def test_default_checkpoint_name_and_meta(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seen = {}
        real = SweepCheckpoint.clear

        def spy(self):
            seen[self.path] = dict(self.meta)
            real(self)

        monkeypatch.setattr(SweepCheckpoint, "clear", spy)
        assert cli.main(["toy", "--profile", "smoke"]) == 0
        # the keys say the profile and the sweep; the meta only the command
        assert seen == {"mediaworm-toy-smoke.checkpoint.json": {"command": "toy"}}


# ----------------------------------------------------------------------
# a point is its experiment: content keys, one simulation per key

#: a value for each experiment field that defaults to None
_SET = dict(
    faults=FaultPlan(flit_loss_prob=0.01),
    recovery=RecoveryConfig(),
    watchdog_window=100,
    health=HealthConfig(),
    trace=TraceSpec(),
    network_hook=print,
    hosts_per_leaf=2,
)


def _other(name: str, value):
    """A value of ``name``'s kind that differs from ``value``."""
    if value is None:
        return _SET[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "-other"
    if isinstance(value, tuple):
        return tuple(share + 1 for share in value)
    return value / 2 if isinstance(value, float) else value + 1


def test_equal_experiments_get_one_key_in_every_process():
    """Equal, not identical: ``(80, 20)`` is the mix ``(80.0, 20.0)``,
    and another interpreter, its ``hash`` salted differently, agrees."""
    build = "FatMeshExperiment(load=0.7, mix=(80, 20), health=HealthConfig())"
    experiment = FatMeshExperiment(load=0.7, mix=(80, 20), health=HealthConfig())
    rebuilt = FatMeshExperiment(
        load=0.7, mix=(80.0, 20.0), health=HealthConfig()
    )
    assert experiment_key(experiment) == experiment_key(rebuilt)
    code = (
        "from repro.experiments.campaign import experiment_key\n"
        "from repro.experiments.config import FatMeshExperiment\n"
        "from repro.network.health import HealthConfig\n"
        f"print(experiment_key({build}))"
    )
    src = str(Path(campaign.__file__).parents[2])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345"),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == experiment_key(experiment)


@pytest.mark.parametrize(
    "kind", [SingleSwitchExperiment, PCSExperiment, FatTree3Experiment]
)
def test_changing_any_one_field_changes_the_key(kind):
    base = kind()
    keys = {experiment_key(base)}
    for f in fields(base):
        value = _other(f.name, getattr(base, f.name))
        keys.add(experiment_key(replace(base, **{f.name: value})))
    assert len(keys) == 1 + len(fields(base))


def test_all_simulates_each_distinct_experiment_once(
    counted_simulate, tmp_path, capsys
):
    """Fig. 3's Virtual Clock curve is Fig. 5's 80:20 column, Fig. 4's
    VBR curve its 100:0 column and Fig. 6's 16-VC series, Table 2 is
    read off Fig. 5 and Table 3 samples Fig. 8's PCS series: 130 points,
    94 simulations, one checkpoint."""
    path = tmp_path / "all.json"
    assert cli.main(["all", "--profile", "smoke", "--checkpoint", str(path)]) == 0
    assert len(counted_simulate) == 94
    assert len(set(map(experiment_key, counted_simulate))) == 94
    out = capsys.readouterr().out
    assert "94 distinct simulations for 130 points]" in out
    blocks = [f"== {name}:" for name in PAPER]
    assert [out.index(block) for block in blocks] == sorted(
        out.index(block) for block in blocks
    )
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, meta, done",
    [
        (
            ["faults", "--rates", "0.005"],
            {"command": "faults", "profile": "quick", "rates": ["0.005"]},
            {
                "virtual_clock@0.005": _golden_point("faults", "vc", 0.005),
                "fifo@0.005": _golden_point("faults", "fifo", 0.005),
            },
        ),
        (
            ["all"],
            {"command": "all", "profile": "quick"},
            {"fig3": "== fig3: Virtual Clock vs FIFO (16 VCs, 80:20 mix) =="},
        ),
    ],
    ids=["faults", "all"],
)
def test_a_checkpoint_keyed_the_old_way_is_dropped(
    argv, meta, done, counted_simulate, tmp_path, caplog
):
    """Per-spec ``series@x`` keys (and ``all``'s per-figure text) are
    never spliced into a content-keyed sweep: the meta differs, so the
    file is discarded with a warning and everything is recomputed."""
    path = tmp_path / "old.json"
    path.write_text(
        json.dumps(
            {"format": "mediaworm-checkpoint-v1", "meta": meta, "done": done}
        )
    )
    argv = argv + ["--profile", "quick", "--checkpoint", str(path)]
    with caplog.at_level(logging.WARNING, logger="repro.experiments.resilience"):
        assert cli.main(argv) == 0
    assert "does not match this sweep's" in caplog.text
    assert len(counted_simulate) == (2 if argv[0] == "faults" else 96)


class _Killed(Exception):
    """Stands in for the process dying mid-sweep."""


def test_a_changed_watchdog_recomputes_checkpointed_points(
    monkeypatch, tmp_path, capsys
):
    """``--watchdog`` sets an experiment field, so it is part of every
    key: a point recorded under one window (perhaps FAILED under a tight
    one) is never served to a sweep under another."""
    windows = []

    def stub(experiment, loop=None):
        windows.append(experiment.watchdog_window)
        if experiment.scheduler == SchedulingPolicy.FIFO and len(windows) == 2:
            raise _Killed
        return _stub_result(experiment)

    spec = campaigns()["faults"]
    monkeypatch.setattr(sys.modules[spec.point.__module__], "simulate", stub)
    path = tmp_path / "ckpt.json"
    argv = ["faults", "--profile", "quick", "--rates", "0.005"]
    argv += ["--checkpoint", str(path)]
    with pytest.raises(_Killed):
        cli.main(argv + ["--watchdog", "100"])
    assert windows == [100, 100] and path.exists()
    assert cli.main(argv) == 0
    assert "restored from checkpoint" not in capsys.readouterr().out
    # both points again, under the campaign's own two frame intervals
    assert windows[2:] == [20624, 20624]


# ----------------------------------------------------------------------
# kill -9 mid-campaign, rerun: the real simulator, the real CLI


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs signal.SIGKILL"
)
def test_sigkill_and_resume(tmp_path, monkeypatch, capsys):
    """A campaign killed outright resumes from its checkpoint: finished
    points are restored, not recomputed, and the artifact is the one an
    uninterrupted run writes."""
    checkpoint, out_json = tmp_path / "ckpt.json", tmp_path / "faults.json"
    sweep = ["faults", "--profile", "smoke", "--rates", "0,0.005"]
    argv = sweep + ["--checkpoint", str(checkpoint), "--json", str(out_json)]
    src = str(Path(campaign.__file__).parents[2])
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not checkpoint.exists():
            assert victim.poll() is None, "campaign ended before any point"
            assert time.monotonic() < deadline
            time.sleep(0.02)
    finally:
        victim.kill()
        victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL
    done = list(json.loads(checkpoint.read_text())["done"])
    keys = {
        "FatMeshExperiment-1f3022e33e4c4a18": "virtual_clock@0",
        "FatMeshExperiment-adb2f705882bcac1": "virtual_clock@0.005",
        "FatMeshExperiment-c06b0089eecafaee": "fifo@0",
        "FatMeshExperiment-5f3b46309a82e192": "fifo@0.005",
    }
    assert done and done == list(keys)[: len(done)] and not out_json.exists()

    runs = []

    def counted(experiment, simulate=campaign.simulate):
        runs.append(experiment)
        return simulate(experiment)

    monkeypatch.setattr(campaign, "simulate", counted)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "restored" in line] == [
        f"[faults] {keys[key]}: restored from checkpoint" for key in done
    ]
    assert len(runs) == len(keys) - len(done)
    assert not checkpoint.exists()

    whole = tmp_path / "uninterrupted.json"
    fresh = ["--fresh", "--checkpoint", str(tmp_path / "other.json")]
    assert cli.main(sweep + fresh + ["--json", str(whole)]) == 0
    assert len(runs) == 2 * len(keys) - len(done)
    assert out_json.read_bytes() == whole.read_bytes()
