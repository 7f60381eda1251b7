"""The golden event stream, and trace filtering.

The golden run's stream is pinned on each loop by ``GOLDEN_DIGEST``.
Its run is the ``golden-observed`` cell of the parity matrix in
``tests/test_parity.py`` (JSONL + check), read off the session memo; the
matrix shows both loops write the same stream and that an observed run
reports the untraced run's metrics.  An event filter limits the file,
never the checker.
"""

import dataclasses
import json

import pytest

from conftest import GOLDEN

from repro.experiments.runner import simulate
from repro.obs.events import TraceSpec, validate_event
from repro.obs.sinks import stream_digest
from test_parity import CELLS, TRACED

#: canonical digest of the golden run's event stream (message ids
#: densified by ``repro.obs.sinks.stream_digest``), on both loops;
#: recompute with ``stream_digest`` of the file a
#: ``TraceSpec(path=...)`` run of ``conftest.GOLDEN`` writes
GOLDEN_DIGEST = "a263604e3794e7eccb111f03f830234878a1e2e738e36d86f4dd068e4c6c1925"


@pytest.mark.parametrize("reference_loop", [False, True], indirect=True)
class TestGoldenTrace:
    def test_stream_digest_matches_committed_pin(self, simulated, reference_loop):
        summary = simulated(CELLS["golden-observed"]).result.trace_summary
        assert stream_digest(summary["jsonl_path"]) == GOLDEN_DIGEST

    def test_stream_records_fit_the_schema(self, simulated, reference_loop):
        summary = simulated(CELLS["golden-observed"]).result.trace_summary
        records = 0
        with open(summary["jsonl_path"], encoding="utf-8") as fh:
            for line in fh:
                validate_event(json.loads(line))
                records += 1
        assert records == summary["jsonl_records"]


class TestTraceFiltering:
    def test_event_filter_limits_the_file_not_the_checker(self, tmp_path):
        path = tmp_path / "filtered.jsonl"
        spec = TraceSpec(
            path=str(path),
            events=("flit_inject", "flit_eject"),
            check=True,
        )
        result = simulate(dataclasses.replace(GOLDEN, trace=spec))
        kinds = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                kinds.add(json.loads(line)["kind"])
        assert kinds == {"flit_inject", "flit_eject"}
        summary = result.trace_summary
        # the invariant checker saw the unfiltered stream
        assert summary["invariant_events"] == summary["events"]
        assert summary["jsonl_records"] < summary["events"]

    def test_counts_cover_expected_kinds(self, simulated):
        """Every traced cell of the parity matrix (the golden run among
        them) counts each hot-path kind; the reference's counts equal
        these by ``test_one_event_stream_on_both_loops``."""
        for name in TRACED:
            counts = simulated(CELLS[name]).result.trace_summary["counts"]
            for kind in ("flit_inject", "flit_eject", "route", "vc_alloc",
                         "sched", "xbar", "link_tx"):
                assert counts[kind] > 0, (name, kind)
            assert counts["flit_inject"] >= counts["flit_eject"], name
