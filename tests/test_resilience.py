"""Sweep resilience: checkpointing, one attempt per point, CLI resume."""

import dataclasses
import json
import logging
import os
import signal
import time

import pytest

from conftest import with_sweep

import repro.experiments.campaign as campaign
import repro.experiments.cli as cli
import repro.experiments.faultsweep as faultsweep
import repro.experiments.figures as figures
from repro.core.schedulers import SchedulingPolicy
from repro.errors import DeadlockError, PointTimeoutError, SimulationError
from repro.experiments.campaign import (
    PROFILES,
    Point,
    RunProfile,
    empty_metrics,
    experiment_key,
    point_to_dict,
)
from repro.experiments.resilience import SweepCheckpoint, wall_clock_limit

RESILIENCE_LOGGER = "repro.experiments.resilience"


@pytest.fixture
def tiny_profile(monkeypatch):
    tiny = RunProfile("tiny", scale=80.0, warmup_frames=1, measure_frames=2)
    monkeypatch.setitem(PROFILES, "tiny", tiny)
    return tiny


class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.json"
        cp = SweepCheckpoint(path, meta={"profile": "quick"})
        assert "fig3" not in cp
        assert cp.get("fig3") is None
        cp.put("fig3", "some rendered text")
        assert "fig3" in cp
        assert cp.get("fig3") == "some rendered text"
        assert cp.done_keys == ["fig3"]

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        reloaded = SweepCheckpoint(path, meta={"profile": "quick"})
        assert reloaded.get("fig3") == "text"

    def test_put_persists_immediately(self, tmp_path):
        # the point of the checkpoint: a kill -9 after put() loses nothing
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={}).put("a", 1)
        on_disk = json.loads(path.read_text())
        assert on_disk["done"] == {"a": 1}
        assert not os.path.exists(f"{path}.tmp")

    def test_meta_mismatch_discards_stale_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        other = SweepCheckpoint(path, meta={"profile": "default"})
        assert "fig3" not in other

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{ not json")
        cp = SweepCheckpoint(path, meta={})
        assert cp.done_keys == []

    def test_wrong_format_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"format": "other", "done": {"a": 1}}))
        assert "a" not in SweepCheckpoint(path, meta={})

    def test_clear_removes_the_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        cp = SweepCheckpoint(path, meta={})
        cp.put("a", 1)
        assert path.exists()
        cp.clear()
        assert not path.exists()
        assert cp.done_keys == []
        cp.clear()  # idempotent


class TestCheckpointRecovery:
    """Corruption is reported, partial writes are recovered."""

    def test_corrupt_file_warns_with_path_and_cause(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        path.write_text("{ not json")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            cp = SweepCheckpoint(path, meta={})
        assert cp.done_keys == []
        assert str(path) in caplog.text
        assert "unreadable" in caplog.text
        # the operator sees what broke, not just that something did
        assert "JSONDecodeError" in caplog.text

    def test_unknown_format_warns(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"format": "other", "done": {"a": 1}}))
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            SweepCheckpoint(path, meta={})
        assert "unrecognised format" in caplog.text
        assert "'other'" in caplog.text

    def test_meta_mismatch_warns(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            SweepCheckpoint(path, meta={"profile": "default"})
        assert "does not match" in caplog.text
        assert "recomputing" in caplog.text

    def test_clean_load_is_silent(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            SweepCheckpoint(path, meta={"profile": "quick"})
            SweepCheckpoint(tmp_path / "absent.json", meta={})
        assert caplog.text == ""

    def test_partial_write_recovers_from_tmp(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        # simulate a crash between the temp-file fsync and the atomic
        # rename: the finished payload sits at <path>.tmp, <path> is gone
        os.replace(path, f"{path}.tmp")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            recovered = SweepCheckpoint(path, meta={"profile": "quick"})
        assert recovered.get("fig3") == "text"
        assert "recovered from partial write" in caplog.text

    def test_partial_write_recovers_over_truncated_main(
        self, tmp_path, caplog
    ):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        os.replace(path, f"{path}.tmp")
        # a crash mid-write of a *later* save leaves a truncated main
        # file alongside the last complete temp payload
        path.write_text('{"format": "mediaworm-checkpoint-v1", "me')
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            recovered = SweepCheckpoint(path, meta={"profile": "quick"})
        assert recovered.get("fig3") == "text"
        assert "unreadable" in caplog.text
        assert "recovered from partial write" in caplog.text

    def test_recovered_tmp_still_checks_meta(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        os.replace(path, f"{path}.tmp")
        other = SweepCheckpoint(path, meta={"profile": "default"})
        assert "fig3" not in other

    def test_clear_removes_the_tmp_file_too(self, tmp_path):
        path = tmp_path / "sweep.json"
        cp = SweepCheckpoint(path, meta={})
        cp.put("a", 1)
        (tmp_path / "sweep.json.tmp").write_text("{}")
        cp.clear()
        assert not path.exists()
        assert not os.path.exists(f"{path}.tmp")


class TestWallClockLimit:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_expiry_raises_point_timeout(self):
        with pytest.raises(PointTimeoutError, match="wall-clock limit"):
            with wall_clock_limit(0.05):
                deadline = time.monotonic() + 5.0  # hang protection
                while time.monotonic() < deadline:
                    pass

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_timer_is_disarmed_after_the_block(self):
        with wall_clock_limit(30.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_none_and_nonpositive_disable_the_guard(self):
        with wall_clock_limit(None):
            pass
        with wall_clock_limit(0):
            pass
        with wall_clock_limit(-1.0):
            pass


def _fake_result(policy, rate):
    """A stand-in ExperimentResult for stubbed campaign runs."""

    class _Result:
        metrics = empty_metrics()
        connections = None
        fault_stats = {
            "flits_lost": 7,
            "delivered_fraction": 0.995,
            "retransmissions": 3,
            "abandoned": 0,
        }

    return _Result()


class TestFaultCampaign:
    """What is particular to the fault spec; the plumbing every campaign
    shares is checked once, in tests/test_campaign.py."""

    def test_campaign_sweeps_both_schedulers(self, monkeypatch, tiny_profile):
        calls = []

        def fake(experiment):
            calls.append(
                (experiment.scheduler, experiment.faults.flit_loss_prob)
            )
            return _fake_result(experiment.scheduler, 0.0)

        monkeypatch.setattr(campaign, "simulate", fake)
        fig = faultsweep.CAMPAIGN.run("tiny", (0.0, 0.01))
        assert sorted(fig.series) == ["fifo", "virtual_clock"]
        assert [p.x for p in fig.series["fifo"]] == [0.0, 0.01]
        assert calls == [
            ("virtual_clock", 0.0),
            ("virtual_clock", 0.01),
            ("fifo", 0.0),
            ("fifo", 0.01),
        ]
        text = faultsweep.CAMPAIGN.render(fig)
        assert "scheduler" in text
        assert "0.9950" in text


class TestOneAttempt:
    """A point runs once, as its own experiment: a failure is never
    answered with another seed's numbers, nor by rerunning the rest of
    the figure."""

    @pytest.mark.parametrize("flags", [[], ["--point-timeout", "60"]])
    def test_failing_point_runs_once_and_ends_the_command(
        self, flags, monkeypatch, tiny_profile, capsys
    ):
        monkeypatch.setitem(
            figures.PAPER, "fig3", with_sweep(figures.FIG3, 0.4, 0.5)
        )
        calls = []

        def fake(experiment):
            point = (experiment.scheduler, experiment.load)
            calls.append(point + (experiment.seed,))
            if point == ("fifo", 0.5):
                raise DeadlockError("router 0 wedged")
            return _fake_result(None, 0)

        monkeypatch.setattr(campaign, "simulate", fake)
        with pytest.raises(SimulationError, match="router 0 wedged"):
            cli.main(["run", "fig3", "--profile", "tiny", *flags])
        assert calls == [
            ("virtual_clock", 0.4, 1),
            ("virtual_clock", 0.5, 1),
            ("fifo", 0.4, 1),
            ("fifo", 0.5, 1),
        ]
        assert "completed in" not in capsys.readouterr().out

    def test_deadlock_at_seed_1_is_a_failed_row_not_seed_1010s_numbers(
        self, monkeypatch, tiny_profile, tmp_path, capsys
    ):
        """Fig. 3's FIFO saturation story as a campaign point: the
        deadlock is the result, printed and exiting 1."""
        monkeypatch.setattr(
            faultsweep,
            "CAMPAIGN",
            dataclasses.replace(
                faultsweep.CAMPAIGN, series=(SchedulingPolicy.FIFO,)
            ),
        )
        seeds = []

        def fake(experiment):
            seeds.append(experiment.seed)
            if experiment.seed == 1:
                raise DeadlockError("router 0 wedged")
            return _fake_result(None, 0)

        monkeypatch.setattr(campaign, "simulate", fake)
        argv = ["faults", "--profile", "tiny", "--rates", "0.01"]
        argv += ["--checkpoint", str(tmp_path / "cp.json")]
        assert cli.main(argv) == 1
        assert seeds == [1]
        lines = capsys.readouterr().out.splitlines()
        assert "[faults] fifo@0.01: FAILED (DeadlockError)" in lines
        rows = [line for line in lines if line.startswith("fifo ")]
        assert len(rows) == 1
        assert rows[0].endswith("FAILED: DeadlockError: router 0 wedged")


class TestCliResilience:
    def test_faults_rejects_bad_rates(self, tiny_profile):
        with pytest.raises(SystemExit):
            cli.main(["faults", "--profile", "tiny", "--rates", "0.1x"])
        with pytest.raises(SystemExit):
            cli.main(["faults", "--profile", "tiny", "--rates", "1.5"])

    def test_faults_command_end_to_end(
        self, monkeypatch, tiny_profile, tmp_path, capsys
    ):
        monkeypatch.setattr(
            campaign, "simulate", lambda e: _fake_result(None, 0)
        )
        path = tmp_path / "cp.json"
        code = cli.main(
            [
                "faults",
                "--profile",
                "tiny",
                "--rates",
                "0.01",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler" in out
        assert "completed in" in out
        # a completed campaign clears its checkpoint
        assert not path.exists()

    def test_all_resumes_from_checkpoint(
        self, counted_simulate, tiny_profile, tmp_path, capsys
    ):
        """A killed ``mediaworm all`` picks up where it stopped: what its
        checkpoint holds is restored, for every figure that shares it,
        and only the rest is simulated."""
        path = tmp_path / "all.json"
        cp = SweepCheckpoint(path, meta={"command": "all"})
        cached = point_to_dict(Point(None, empty_metrics()))
        for experiment in figures.FIG3.plan("tiny").values():
            cp.put(experiment_key(experiment), cached)
        code = cli.main(
            ["all", "--profile", "tiny", "--checkpoint", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        restored = [line for line in out.splitlines() if "restored" in line]
        # Fig. 3's ten points; Fig. 5's and Table 2's 80:20 columns are
        # its Virtual Clock curve
        assert len(restored) == 20
        assert "[fig3] fifo@0.96: restored from checkpoint" in restored
        assert "[fig5] load=0.6@80:20: restored from checkpoint" in restored
        assert "[table2] load=0.96@80:20: restored from checkpoint" in restored
        assert len(counted_simulate) == 94 - 10
        assert "94 distinct simulations for 130 points]" in out
        # the checkpoint is cleared once every point is done
        assert not path.exists()

    def test_all_checkpoint_ignores_other_profile(self, tmp_path):
        path = tmp_path / "all.json"
        SweepCheckpoint(
            path, meta={"command": "all", "profile": "default"}
        ).put("fig3", "stale")
        cp = SweepCheckpoint(
            path, meta={"command": "all", "profile": "tiny"}
        )
        assert "fig3" not in cp
