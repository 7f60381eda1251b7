"""Golden-trace regression and the zero-overhead contract.

Two pins:

* the canonical tiny run's event stream hashes to a committed digest —
  any change to the simulator's flit-level behaviour, to the event
  taxonomy, or to the emission points shows up here first, on both the
  active-set and the legacy loop (which must produce the *same* stream);
* a run with every observability feature enabled reports bit-identical
  :class:`RunMetrics` to an untraced run, so tracing can never perturb
  the numbers the paper reproduction rests on.
"""

import dataclasses
import json
import os

import pytest

from conftest import TINY

from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.runner import simulate_single_switch
from repro.metrics.collector import RunMetrics
from repro.obs.events import TraceSpec, validate_event
from repro.obs.sinks import stream_digest

#: canonical digest of the tiny golden run's event stream (message ids
#: densified by repro.obs.sinks.stream_digest).  Recompute with:
#:   PYTHONPATH=src python -c "import tests.test_obs_trace as t; print(t._golden_digest())"
GOLDEN_DIGEST = (
    "a263604e3794e7eccb111f03f830234878a1e2e738e36d86f4dd068e4c6c1925"
)


def _golden_experiment(**overrides):
    kwargs = dict(load=0.6, mix=(80, 20), **TINY)
    kwargs.update(overrides)
    return SingleSwitchExperiment(**kwargs)


def _golden_digest(tmp_dir="."):
    path = os.path.join(str(tmp_dir), "golden.jsonl")
    simulate_single_switch(_golden_experiment(trace=TraceSpec(path=path)))
    return stream_digest(path)


@pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
class TestGoldenTrace:
    def test_stream_digest_matches_committed_pin(self, tmp_path, reference_loop):
        assert _golden_digest(tmp_path) == GOLDEN_DIGEST

    def test_stream_records_fit_the_schema(self, tmp_path, reference_loop):
        path = tmp_path / "golden.jsonl"
        result = simulate_single_switch(
            _golden_experiment(trace=TraceSpec(path=str(path)))
        )
        records = 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                validate_event(json.loads(line))
                records += 1
        assert records == result.trace_summary["jsonl_records"]


@pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
class TestZeroOverhead:
    def test_fully_observed_run_is_bit_identical(self, tmp_path, reference_loop):
        plain = simulate_single_switch(_golden_experiment())
        spec = TraceSpec(
            path=str(tmp_path / "t.jsonl"),
            chrome_path=str(tmp_path / "t-chrome.json"),
            check=True,
        )
        observed = simulate_single_switch(_golden_experiment(trace=spec))
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            observed.metrics
        )
        assert plain.flits_injected == observed.flits_injected
        assert plain.flits_ejected == observed.flits_ejected
        assert plain.cycles_run == observed.cycles_run
        assert plain.trace_summary is None
        summary = observed.trace_summary
        assert summary["events"] > 0
        assert summary["invariant_checks"] > 0
        assert summary["chrome_events"] > 0

    def test_profiled_run_changes_only_the_profile(self, reference_loop):
        plain = simulate_single_switch(_golden_experiment())
        profiled = simulate_single_switch(
            _golden_experiment(profile_loop=True)
        )
        plain_dict = dataclasses.asdict(plain.metrics)
        profiled_dict = dataclasses.asdict(profiled.metrics)
        profile = profiled_dict.pop("profile")
        plain_dict.pop("profile")
        assert plain_dict == profiled_dict
        if reference_loop:
            # the reference stepper carries no timers
            assert profile["loop_total_s"] == 0.0
            assert profile["loop_cycles_executed"] == 0.0
        else:
            assert profile["loop_total_s"] > 0.0
            assert profile["loop_cycles_executed"] > 0.0


class TestTraceFiltering:
    def test_event_filter_limits_the_file_not_the_checker(self, tmp_path):
        path = tmp_path / "filtered.jsonl"
        spec = TraceSpec(
            path=str(path),
            events=("flit_inject", "flit_eject"),
            check=True,
        )
        result = simulate_single_switch(_golden_experiment(trace=spec))
        kinds = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                kinds.add(json.loads(line)["kind"])
        assert kinds == {"flit_inject", "flit_eject"}
        summary = result.trace_summary
        # the invariant checker saw the unfiltered stream
        assert summary["invariant_events"] == summary["events"]
        assert summary["jsonl_records"] < summary["events"]

    def test_counts_cover_expected_kinds(self, tmp_path):
        spec = TraceSpec(path=str(tmp_path / "t.jsonl"))
        result = simulate_single_switch(_golden_experiment(trace=spec))
        counts = result.trace_summary["counts"]
        for kind in ("flit_inject", "flit_eject", "route", "vc_alloc",
                     "sched", "xbar", "link_tx"):
            assert counts[kind] > 0, kind
        assert counts["flit_inject"] >= counts["flit_eject"]


class TestRunMetricsCompat:
    def test_old_checkpoint_dict_still_decodes(self):
        """Pre-observability RunMetrics dicts lack the profile field."""
        old = {
            "mean_delivery_interval_ms": 33.0,
            "std_delivery_interval_ms": 0.1,
            "frames_delivered": 10,
            "interval_count": 9,
            "be_latency_us": 5.0,
            "be_latency_us_paper_equivalent": 100.0,
            "be_latency_std_us": 1.0,
            "be_message_count": 42,
        }
        metrics = RunMetrics(**old)
        assert metrics.profile == {}
