"""Checks of the benchmark harness itself, at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

(``PYTHONPATH=src`` is for ``benchmarks/conftest.py``, which pytest
loads on the way down; ``run.py`` finds the simulator by itself.)
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import trace as layer_trace
from workloads import BY_NAME, WORKLOADS

import repro.experiments.runner as runner_module

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _wrapped_attributes():
    """(owner, attribute) of every class-level trace target."""
    import importlib

    for _span, module_name, class_name, attrs, *_ in layer_trace.TARGETS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            yield owner, attr


def test_benchmark_json_agrees_with_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])

    listed = {m["name"]: m for m in spec["end_to_end"]}
    assert tuple(listed) == bench.CONTRACT_END_TO_END
    for name, metric in listed.items():
        unit, better, bound = bench.END_TO_END[name]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
        assert 0 < bound <= 0.25
    assert listed["setup_s"]["bound"] == max(m["bound"] for m in listed.values())

    units = bench.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert len(bench.END_TO_END) <= 16 and len(units) <= 128
    for name in list(bench.END_TO_END) + list(units) + [w.name for w in WORKLOADS]:
        assert NAME.fullmatch(name), name
    for span in layer_trace.SPANS:
        assert {f"{span}.calls", f"{span}.self_s", f"{span}.share"} <= set(units)


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_smoke_pass_reports_every_end_to_end_metric(name):
    report = bench.measure(BY_NAME[name], seed=1, reps=1, smoke=True)
    assert report["failed"] == 0, report["failures"]
    assert set(report["end_to_end"]) == set(bench.END_TO_END)
    for metric, entry in report["end_to_end"].items():
        assert entry["unit"] == bench.END_TO_END[metric][0]
        assert entry["value"] is not None or entry["reason"]
    line = json.loads(bench.contract_line(report))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert tuple(line["metrics"]) == bench.CONTRACT_END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", ["dense_switch", "min_lanes_sweep"])
def test_traced_pass_keeps_the_digest_and_restores_every_attribute(name):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in _wrapped_attributes()]
    untraced = bench.measure(BY_NAME[name], seed=1, reps=1, smoke=True)
    traced = bench.measure(BY_NAME[name], seed=1, reps=1, smoke=True, traced=True)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)

    assert traced["failed"] == 0, traced["failures"]
    assert traced["digest"] == untraced["digest"]
    units = bench.per_layer_units()
    assert {k: v["unit"] for k, v in traced["per_layer"].items()} == units
    values = {k: v["value"] for k, v in traced["per_layer"].items()}
    assert values["network.network.run.calls"] >= 1
    assert values["trace.overhead_ratio"] > 0
    assert 0 < values["trace.coverage"] <= 1
    root = "experiments.parallel.run" if name == "min_lanes_sweep" else "experiments.runner.simulate"
    assert values[f"{root}.calls"] >= 1
    assert (values["experiments.parallel.run.calls"] > 0) == (name == "min_lanes_sweep")
    line = json.loads(bench.contract_line(traced))
    assert set(line["metrics"]) == set(units)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_tracer_reports_a_vanished_target_as_null(monkeypatch):
    gone = ("router.router.step", "repro.router.router", "WormholeRouter", ("no_such_step",))
    kept = tuple(t for t in layer_trace.TARGETS if t[0] != "router.router.step")
    monkeypatch.setattr(layer_trace, "TARGETS", kept + (gone,))
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        assert "no_such_step" in tracer.missing["router.router.step"]
    finally:
        tracer.uninstall()
    numbers = layer_trace.layer_metrics(tracer.snapshot())
    assert numbers["router.router.step.calls"] is None
    assert numbers["router.router.accept_flit.calls"] == 0


def _raising(experiment):
    raise RuntimeError("planted failure")


def _nan_output(real):
    def fake(experiment):
        result = real(experiment)
        broken = dataclasses.replace(result.metrics, mean_delivery_interval_ms=math.nan)
        return dataclasses.replace(result, metrics=broken)

    return fake


@pytest.mark.parametrize("plant", ["raises", "nan"])
def test_a_bad_operation_lands_in_failed_share(monkeypatch, plant, capsys):
    real = runner_module.simulate_single_switch
    fake = _raising if plant == "raises" else _nan_output(real)
    monkeypatch.setattr(runner_module, "simulate_single_switch", fake)
    report = bench.measure(BY_NAME["dense_switch"], seed=1, reps=1, smoke=True)
    assert report["attempted"] == 2 and report["failed"] == 2
    assert report["end_to_end"]["failed_share"]["value"] == 1.0
    assert json.loads(bench.contract_line(report))["correct"] is False
    assert bench.main(["--workload", "dense_switch", "--smoke", "--reps", "1"]) == 1
    assert "FAILED" in capsys.readouterr().out


def _side(samples):
    return {**bench.summarise(samples), "unit": "s"}


def test_compare_verdicts():
    steady = _side([1.00, 1.01, 0.99, 1.00, 1.02])
    assert bench.verdict("wall_s", steady, _side([1.03, 1.04, 1.02, 1.03, 1.05])) == "ok"
    assert bench.verdict("wall_s", steady, _side([1.40, 1.41, 1.39, 1.40, 1.42])) == "regressed"
    noisy = _side([0.6, 1.6, 1.0, 0.8, 1.5])
    assert bench.verdict("wall_s", steady, noisy) == "unresolved"
    # higher is better: a drop beyond the bound regresses
    fast = {**bench.summarise([100.0, 101.0, 99.0], "higher"), "unit": "flits/s"}
    slow = {**bench.summarise([70.0, 71.0, 69.0], "higher"), "unit": "flits/s"}
    assert bench.verdict("flits_per_s", fast, slow) == "regressed"
    assert bench.verdict("flits_per_s", slow, fast) == "ok"
    # failed_share tolerates no worsening at all
    none, some = {"value": 0.0, "unit": "ratio"}, {"value": 0.01, "unit": "ratio"}
    assert bench.verdict("failed_share", none, some) == "regressed"
    assert bench.verdict("failed_share", none, none) == "ok"
    absent = {"value": None, "unit": "ms"}
    assert bench.verdict("sigma_d_ms", absent, absent) == "n/a"


def test_compare_accepts_a_run_against_itself(tmp_path, capsys):
    report = bench.measure(BY_NAME["scale_fattree"], seed=1, reps=2, smoke=True)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"git": "x", "seed": 1, "workloads": {"scale_fattree": report}}))
    assert bench.main(["--compare", str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "run digest equal" in out and "regressed" not in out


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    bare = tmp_path / "benchmarks" / "perf"
    shutil.copytree(Path(__file__).parent, bare, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "dense_switch", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
