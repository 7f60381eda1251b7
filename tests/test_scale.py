"""The scale campaign and its CLI surfaces (``topo``, ``scale``).

Includes the acceptance run for the datacenter scale-up: a 1024-host
3-level fat tree completes under an armed progress watchdog with
bit-identical digests across the active-set loop, an active repeat,
and the full-scan reference stepper — while compiling its route program
at most once.
"""

import dataclasses
import json
import math
from collections import deque

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.experiments import scale
from repro.experiments.campaign import any_failed, get_profile
from repro.experiments.cli import main as cli_main
from repro.experiments.config import FatTree3Experiment
from repro.experiments.runner import simulate, topology_of
from repro.experiments.scale import (
    CAMPAIGN,
    SCALE_POINTS,
    SMOKE_POINTS,
    _point_ok,
    _scale_point,
    point_name,
)
from repro.experiments.topo import build_topology, describe_topology
from repro.network.network import Network
from repro.router.config import RouterConfig
from repro.sim.reference import run_reference


def run_scale_point(name: str) -> dict:
    """One point through the campaign's own factory and body: its record."""
    experiment = CAMPAIGN.experiment(get_profile("default"), "scale", name)
    point = _scale_point(experiment)
    # the body records what it measured; the spec places x
    assert point.x is None and point.extra["name"] == name
    return point.extra


class TestScalePoints:
    def test_smoke_points_are_known(self):
        for name in SMOKE_POINTS:
            assert name in SCALE_POINTS
        # --profile smoke runs the subset, every other profile all five
        assert CAMPAIGN.sweep("smoke") == SMOKE_POINTS
        assert CAMPAIGN.sweep("quick") == tuple(SCALE_POINTS)
        # each point is filed under the name its shape gives it, and
        # that name counts the hosts (ft3-1024's: the acceptance test)
        for name, experiment in SCALE_POINTS.items():
            assert point_name(experiment) == name
        for name in SMOKE_POINTS:
            hosts = topology_of(SCALE_POINTS[name]).num_hosts
            assert name.endswith(f"-{hosts}")

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scale point"):
            CAMPAIGN.run("smoke", ("ft3-9999",))

    def test_small_point_identical_and_compile_once(self, monkeypatch):
        reference_runs = []

        def spy(network, until):
            reference_runs.append(until)
            run_reference(network, until)
            # the third opinion really is the full scan, not the loop
            # the first two runs used
            assert network._loop is None

        monkeypatch.setattr(scale, "run_reference", spy)
        record = run_scale_point("ft3-16")
        assert len(reference_runs) == 1
        assert record["identical"]
        assert record["compile_once"]
        assert record["compiles_repeat_run"] == 0
        assert record["watchdog_window"] > 0
        assert record["flits_injected"] > 0
        assert record["topology"]["hosts"] == 16
        assert "failed" not in record

    def test_point_times_finite_outputs(self):
        """A point hashes real d / sigma_d, not NaNs, and says so."""
        record = run_scale_point("ft3-16")
        assert math.isfinite(record["d_ms"])
        assert math.isfinite(record["sigma_d_ms"])
        assert 32.0 < record["d_ms"] < 34.0
        assert 0.0 <= record["setup_s"] <= record["active_s"]
        assert _point_ok(record)

    @pytest.mark.parametrize("field", ["d_ms", "sigma_d_ms"])
    def test_non_finite_output_fails_the_point(self, field):
        record = {
            "identical": True,
            "compile_once": True,
            "d_ms": 33.0,
            "sigma_d_ms": 0.1,
        }
        assert _point_ok(record)
        assert not _point_ok({**record, field: "nan"})
        assert not _point_ok({**record, field: math.inf})
        assert not _point_ok({**record, "identical": False})

    def test_campaign_summary_and_text(self):
        fig = CAMPAIGN.run("smoke", ("bfly-64",))
        assert not any_failed(fig)
        text = CAMPAIGN.render(fig)
        assert "bfly-64" in text
        assert "setup" in text.splitlines()[1]
        assert "FAILED" not in text
        (point,) = fig.series["scale"]
        point.metrics = dataclasses.replace(
            point.metrics, mean_delivery_interval_ms=math.nan
        )
        assert " nan " in CAMPAIGN.render(fig)

    def test_deadlock_in_one_run_is_a_failed_row_not_a_reseed(
        self, monkeypatch, tmp_path, capsys
    ):
        """The repeat run wedges: the point is FAILED after exactly one
        attempt (two runs, both at the point's own seed), and exit 1."""
        calls = []

        def wedged_repeat(experiment, loop=None):
            calls.append(experiment.seed)
            if len(calls) == 2:
                raise DeadlockError("router 3 wedged")
            return simulate(experiment, loop=loop)

        monkeypatch.setattr(scale, "simulate", wedged_repeat)
        argv = ["scale", "--points", "ft3-16"]
        argv += ["--checkpoint", str(tmp_path / "ckpt.json")]
        assert cli_main(argv) == 1
        assert calls == [SCALE_POINTS["ft3-16"].seed] * 2
        rows = [
            line
            for line in capsys.readouterr().out.splitlines()
            if "FAILED" in line
        ]
        assert rows == ["    ft3-16 FAILED: DeadlockError: router 3 wedged"]


class TestThousandHostAcceptance:
    def test_1024_hosts_bit_identical_on_both_loops(self):
        """ft3-1024: 320 switches, 1024 hosts, watchdog armed.

        The slowest test in the suite by design — it is the scale
        claim itself.  Three full runs (active, repeat, legacy) must
        produce one digest, and the repeat must hit the topology
        cache (zero route-program compiles).
        """
        record = run_scale_point("ft3-1024")
        assert record["topology"]["hosts"] == 1024
        assert record["topology"]["routers"] == 320
        assert record["identical"], "loop digests diverged at 1024 hosts"
        assert record["compile_once"]
        assert record["flits_ejected"] > 0


class TestBufferedVcCensus:
    """``Network.buffered_vcs``: an idle VC owns no buffers (k=16)."""

    @pytest.mark.parametrize(
        "loop", [None, run_reference], ids=["fused", "reference"]
    )
    def test_scale_fattree_run_touches_3300_vcs(self, loop):
        """The benchmark's ``scale_fattree`` at seed 1, on both loops."""
        networks = []
        simulate(
            FatTree3Experiment(
                k=16,
                load=0.01,
                mix=(100, 0),
                vcs_per_pc=4,
                scale=320.0,
                warmup_frames=1,
                measure_frames=2,
                seed=1,
                network_hook=networks.append,
            ),
            loop=loop,
        )
        # 1 704 input + 1 596 output VCs: 8 % of the fabric
        assert networks.pop().buffered_vcs() == (3300, 40960)

    def test_fresh_network_owns_no_vc_buffers_and_fits_30_mib(self):
        """The deterministic memory budget: bytes traced while
        ``Network.__init__`` builds the 1024-host fabric (82.4 MiB with
        four eager deques per VC pair, 23 MiB with none).  RSS is the
        benchmark's to judge; this is the count that repeats exactly.
        """
        tracemalloc = pytest.importorskip("tracemalloc")
        topology = topology_of(FatTree3Experiment(k=16))
        config = RouterConfig(topology.ports_per_router, vcs_per_pc=4)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            network = Network(topology, config)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert traced <= 30 * 2**20, f"{traced / 2**20:.1f} MiB"
        assert network.buffered_vcs() == (0, 40960)
        # ... and no router VC holds a deque in any slot
        assert not any(
            isinstance(getattr(vc, slot), deque)
            for router in network.routers
            for vcs in router.inputs + router.outputs
            for vc in vcs
            for slot in type(vc).__slots__
        )


class TestTopoCommand:
    def test_build_and_describe(self, capsys):
        topology = build_topology("fat_tree3", k=4)
        text = describe_topology(topology)
        assert "switches          20" in text
        assert "hosts             16" in text
        assert "table_ints" in text

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            build_topology("torus")

    def test_wrong_flag_for_kind(self):
        with pytest.raises(ConfigurationError, match="does not take"):
            build_topology("single", k=4)

    def test_cli_topo(self, capsys):
        assert cli_main(["topo", "butterfly", "--arity", "2"]) == 0
        out = capsys.readouterr().out
        assert "butterfly" in out
        assert "route program" in out

    def test_cli_scale_smoke_point(self, capsys, tmp_path):
        out_json = tmp_path / "scale.json"
        code = cli_main(
            ["scale", "--points", "ft3-16", "--json", str(out_json)]
            + ["--checkpoint", str(tmp_path / "ckpt.json")]
        )
        assert code == 0
        (entry,) = json.loads(out_json.read_text())["series"]["scale"]
        assert entry["x"] == "ft3-16"
        point = entry["extra"]
        assert "failed" not in point
        assert point["name"] == "ft3-16"
        assert point["setup_s"] >= 0.0
        assert math.isfinite(point["d_ms"])

    def test_cli_list_mentions_new_commands(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "topo" in out
        assert "scale" in out
