"""The campaign contract, once, for every campaign in the registry.

``mediaworm faults`` / ``failover`` / ``disaster`` / ``scale`` are specs
run by one skeleton (``repro.experiments.campaign``); everything the
skeleton promises is checked here against stubbed simulators,
parametrized over :func:`~repro.experiments.campaign.campaigns`.  The
``GOLDEN`` literals (rendered table, ``figure_to_dict`` JSON,
checkpoint keys and meta) of the first three were produced by the
per-module campaign functions this skeleton replaced, so they prove
the artifacts did not move and that a checkpoint written by the old
code still restores; scale's pin its format as a spec.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
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
)
from repro.experiments.config import ButterflyExperiment, SingleSwitchExperiment
from repro.experiments.export import figure_to_dict, load_result
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import ExperimentResult
from repro.metrics.collector import RunMetrics
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


_HEALTH = (
    "health[down_misses=8,miss_window=4096,probation_oks=16,"
    "probe_cap=16384,probe_interval=1024,probe_jitter=32,recover_oks=8,"
    "shed_best_effort=True,suspect_misses=3]"
)

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
#: refuse, and the artifacts the replaced code produced for that sweep
#: (scale: ``runs`` simulations per point, a ``record`` as each point's
#: whole extra, and failures its body records rather than the executor)
GOLDEN = {
    "faults": dict(
        values=(0.005,),
        arg="0.005",
        bad_args=("0.1x", "1.5", "-0.1", "0.01,0.010"),
        bad_values=((1.5,), (0.01, 0.01)),
        meta={"command": "faults", "profile": "quick", "rates": ["0.005"]},
        keys={
            ("virtual_clock", 0.005): "virtual_clock@0.005",
            ("fifo", 0.005): "fifo@0.005",
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
        point_x={0.005: 0.005},
        point_extra={},
    ),
    "failover": dict(
        values=(2,),
        arg="2",
        bad_args=("two", "-1", "9", "2,2"),
        bad_values=((9,), (-1,), (2, 2)),
        meta={"command": "failover", "profile": "quick", "severities": [2]},
        keys={
            ("adaptive", 2): f"adaptive@2|mode=adaptive|{_HEALTH}"
            "|deadline=20624",
            ("static", 2): f"static@2|mode=static|{_HEALTH}|deadline=20624",
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
        point_x={2: 2},
        point_extra={},
    ),
    "disaster": dict(
        values=("none", "pod"),
        arg="none,pod",
        bad_args=("tsunami", "none,none"),
        bad_values=(("tsunami",), ("none", "none")),
        meta={
            "command": "disaster",
            "profile": "quick",
            "severities": ["none", "pod"],
        },
        # the butterfly has no pods: its series simply omit the rung
        keys={
            ("fat-tree/adaptive", "none"): "fat-tree/adaptive@none|k=8|"
            f"hosts_per_leaf=2|mode=adaptive|{_HEALTH}|deadline=20624",
            ("fat-tree/adaptive", "pod"): "fat-tree/adaptive@pod|k=8|"
            f"hosts_per_leaf=2|mode=adaptive|{_HEALTH}|deadline=20624",
            ("fat-tree/static", "none"): "fat-tree/static@none|k=8|"
            f"hosts_per_leaf=2|mode=static|{_HEALTH}|deadline=20624",
            ("fat-tree/static", "pod"): "fat-tree/static@pod|k=8|"
            f"hosts_per_leaf=2|mode=static|{_HEALTH}|deadline=20624",
            ("butterfly/adaptive", "none"): "butterfly/adaptive@none|"
            f"hosts_per_leaf=2|mode=adaptive|{_HEALTH}|deadline=20624",
            ("butterfly/static", "none"): "butterfly/static@none|"
            f"hosts_per_leaf=2|mode=static|{_HEALTH}|deadline=20624",
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
        # x is the rung on the ladder; the name rides in the extras
        point_x={"none": 0, "pod": 3},
        point_extra={"none": {"severity": "none"}, "pod": {"severity": "pod"}},
    ),
    "scale": dict(
        values=("ft3-16", "bfly-64"),
        arg="ft3-16,bfly-64",
        bad_args=("ft3-9999", "ft3-16,ft3-16"),
        bad_values=(("ft3-9999",), ("ft3-16", "ft3-16")),
        meta={
            "command": "scale",
            "profile": "quick",
            "points": ["ft3-16", "bfly-64"],
        },
        keys={
            ("scale", "ft3-16"): "scale@ft3-16",
            ("scale", "bfly-64"): "scale@bfly-64|arity=4",
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
        point_x={"ft3-16": "ft3-16", "bfly-64": "bfly-64"},
        point_extra={},
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
    """One point as the codec writes it (checkpoint entry == JSON entry)."""
    gold = GOLDEN[name]
    if "record" in gold:
        extra = gold["record"][x]
    else:
        extra = _stats(not series.endswith("static"))
        extra.update(gold["point_extra"].get(x, {}))
    return {"x": gold["point_x"][x], "metrics": METRICS, "extra": extra}


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
    """A checkpoint file as the replaced code wrote it, every point done."""
    return {
        "format": "mediaworm-checkpoint-v1",
        "meta": GOLDEN[name]["meta"],
        "done": {
            key: _golden_point(name, series, x)
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
        ] == [(series, GOLDEN[name]["point_x"][x]) for series, x in pairs]
        # one point per defined (series, x) pair, in table order
        assert len(calls) == len(pairs) * GOLDEN[name].get("runs", 1)
        assert not any_failed(fig)

    def test_golden_table_json_and_checkpoint(
        self, name, simulators, tmp_path
    ):
        spec = campaigns()[name]
        simulators(spec)
        gold = GOLDEN[name]
        meta = spec.checkpoint_meta("quick", gold["values"])
        assert meta == gold["meta"]
        path = tmp_path / "ckpt.json"
        fig = spec.run(
            "quick", gold["values"], checkpoint=SweepCheckpoint(path, meta)
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
        cp = SweepCheckpoint(path, gold["meta"])
        first = spec.run("quick", gold["values"], checkpoint=cp)
        assert cp.done_keys == list(gold["keys"].values())
        ran = len(calls)

        # a rerun against the same file recomputes nothing
        logs = []
        again = spec.run(
            "quick",
            gold["values"],
            checkpoint=SweepCheckpoint(path, gold["meta"]),
            log=logs.append,
        )
        assert len(calls) == ran
        assert logs == [
            f"[{name}] {key}: restored from checkpoint"
            for key in gold["keys"].values()
        ]
        assert figure_to_dict(again) == figure_to_dict(first)

    def test_checkpoint_from_the_replaced_code_restores(
        self, name, simulators, tmp_path, capsys
    ):
        """The literal file restores with zero simulator calls."""
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
        cp = SweepCheckpoint(path, gold["meta"])
        logs = []
        fig = spec.run(
            "quick", gold["values"], checkpoint=cp, log=logs.append
        )
        assert any_failed(fig)
        points = [p for series in fig.series.values() for p in series]
        for ((series, x), key), point in zip(gold["keys"].items(), points):
            # failed or not, the point sits at its x with its extras
            assert point.x == gold["point_x"][x]
            for extra, value in gold["point_extra"].get(x, {}).items():
                assert point.extra[extra] == value
            if (series, x) in failing:
                assert point.extra["failed"] == (
                    "DeadlockError: router 0 wedged"
                )
                if not gold.get("body_catches"):
                    # the executor gave up on it after its retries
                    assert f"[{name}] {key}: FAILED (DeadlockError)" in logs
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
            "quick", gold["values"], checkpoint=SweepCheckpoint(path, gold["meta"])
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
    return Point(size, empty_metrics(), extra={"area": size * size})


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
        assert by_profile.checkpoint_meta("smoke")["sizes"] == [4]
        assert by_profile.checkpoint_meta("quick")["sizes"] == [5]

    def test_default_checkpoint_name_and_meta(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seen = {}
        real = SweepCheckpoint.clear

        def spy(self):
            seen[self.path] = dict(self.meta)
            real(self)

        monkeypatch.setattr(SweepCheckpoint, "clear", spy)
        assert cli.main(["toy", "--profile", "smoke"]) == 0
        assert seen == {
            "mediaworm-toy-smoke.checkpoint.json": {
                "command": "toy",
                "profile": "smoke",
                "sizes": [1, 2],
            }
        }


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
    keys = ["virtual_clock@0", "virtual_clock@0.005", "fifo@0", "fifo@0.005"]
    assert done and done == keys[: len(done)] and not out_json.exists()

    from repro.experiments import faultsweep

    runs = []

    def counted(experiment, simulate=faultsweep.simulate):
        runs.append(experiment)
        return simulate(experiment)

    monkeypatch.setattr(faultsweep, "simulate", counted)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "restored" in line] == [
        f"[faults] {key}: restored from checkpoint" for key in done
    ]
    assert len(runs) == len(keys) - len(done)
    assert not checkpoint.exists()

    whole = tmp_path / "uninterrupted.json"
    fresh = ["--fresh", "--checkpoint", str(tmp_path / "other.json")]
    assert cli.main(sweep + fresh + ["--json", str(whole)]) == 0
    assert len(runs) == 2 * len(keys) - len(done)
    assert out_json.read_bytes() == whole.read_bytes()
