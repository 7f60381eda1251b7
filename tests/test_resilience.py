"""Sweep resilience: the result store, one attempt per point, CLI resume."""

import dataclasses
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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
from repro.experiments.parallel import wall_clock_limit
from repro.experiments.resilience import ResultStore, code_fingerprint

RESILIENCE_LOGGER = "repro.experiments.resilience"


@pytest.fixture
def tiny_profile(monkeypatch):
    tiny = RunProfile("tiny", scale=80.0, warmup_frames=1, measure_frames=2)
    monkeypatch.setitem(PROFILES, "tiny", tiny)
    return tiny


def _record(key, point, code=None) -> str:
    """One line of the store as :meth:`ResultStore.put` writes it."""
    code = code_fingerprint() if code is None else code
    return json.dumps({"key": key, "code": code, "point": point}) + "\n"


class TestSweepCheckpoint:
    """The sweep checkpoint is a :class:`ResultStore`: an append-only
    JSON-lines log keyed by experiment and code."""

    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        assert store.get("fig3") is None
        store.put("fig3", {"x": None, "extra": {}})
        assert store.get("fig3") == {"x": None, "extra": {}}

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ResultStore(path).put("fig3", {"x": 1})
        assert ResultStore(path).get("fig3") == {"x": 1}

    def test_put_persists_immediately(self, tmp_path):
        # the point of the store: a kill -9 after put() loses nothing
        path = tmp_path / "sweep.jsonl"
        ResultStore(path).put("a", {"x": 1})
        assert path.read_text() == (
            '{"key":"a","code":"%s","point":{"x":1}}\n' % code_fingerprint()
        )

    def test_n_puts_append_n_lines_and_never_rewrite(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        store = ResultStore(path)
        assert path.read_bytes() == b""  # opened for append when built
        before = b""
        for n in range(1, 5):
            store.put(f"k{n}", {"n": n})
            data = path.read_bytes()
            assert data.startswith(before)
            assert data.count(b"\n") == n and data.endswith(b"\n")
            before = data

    def test_last_record_for_a_key_wins(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ResultStore(path).put("a", {"x": 1})
        ResultStore(path).put("a", {"x": 2})
        assert ResultStore(path).get("a") == {"x": 2}

    def test_another_codes_records_are_not_served(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(_record("a", {"x": 1}, code="0" * 64))
        store = ResultStore(path)
        assert store.get("a") is None
        # nothing is dropped from the log: another checkout still reads it
        store.put("b", {"x": 2})
        assert path.read_text().startswith(_record("a", {"x": 1}, code="0" * 64))

    def test_fresh_serves_nothing_and_still_appends(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ResultStore(path).put("a", {"x": 1})
        fresh = ResultStore(path, fresh=True)
        assert fresh.get("a") is None
        fresh.put("b", {"x": 2})
        assert len(path.read_text().splitlines()) == 2
        assert ResultStore(path).get("a") == {"x": 1}

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("{ not json\n" + _record("a", {"x": 1}))
        assert ResultStore(path).get("a") == {"x": 1}

    def test_wrong_format_is_ignored(self, tmp_path):
        # a whole-file JSON checkpoint: every line is skipped
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"format": "other", "done": {"a": 1}}, indent=2) + "\n"
        )
        assert ResultStore(path).get("a") is None

    def test_unwritable_path_fails_when_built(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore(tmp_path / "missing" / "sweep.jsonl")

    def test_fingerprint_is_the_same_in_every_process(self):
        src = str(Path(campaign.__file__).parents[2])
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.experiments.resilience import code_fingerprint\n"
                "print(code_fingerprint())",
            ],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345"),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestCheckpointRecovery:
    """Corrupt lines are reported, a torn last line is cut."""

    def test_corrupt_file_warns_with_path_and_cause(self, tmp_path, caplog):
        path = tmp_path / "sweep.jsonl"
        path.write_text(_record("a", {"x": 1}) + "{ not json\n")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            store = ResultStore(path)
        assert store.get("a") == {"x": 1}
        # the operator sees where and what broke, not just that something did
        assert f"{path}:2" in caplog.text
        assert "JSONDecodeError" in caplog.text

    def test_unknown_format_warns(self, tmp_path, caplog):
        path = tmp_path / "sweep.jsonl"
        path.write_text(json.dumps({"format": "other", "done": {"a": 1}}) + "\n")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            ResultStore(path)
        assert f"{path}:1: skipping a corrupt record (KeyError" in caplog.text

    def test_clean_load_is_silent(self, tmp_path, caplog):
        path = tmp_path / "sweep.jsonl"
        ResultStore(path).put("fig3", {"x": 1})
        with open(path, "a") as log:
            log.write(_record("fig4", {"x": 1}, code="0" * 64))
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            ResultStore(path)
            ResultStore(tmp_path / "absent.jsonl")
        assert caplog.text == ""

    def test_torn_last_line_is_cut_before_the_next_append(
        self, tmp_path, caplog
    ):
        path = tmp_path / "sweep.jsonl"
        whole = _record("a", {"x": 1}) + _record("b", {"x": 2})
        path.write_text(whole + _record("c", {"x": 3})[:20])
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            store = ResultStore(path)
        assert "torn last line" in caplog.text and str(path) in caplog.text
        assert path.read_text() == whole
        assert [store.get(k) for k in "abc"] == [{"x": 1}, {"x": 2}, None]
        store.put("c", {"x": 3})
        assert [json.loads(line)["key"] for line in path.open()] == list("abc")


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


    def test_a_timeout_reruns_and_a_deadlock_is_restored(
        self, monkeypatch, tiny_profile, tmp_path, capsys
    ):
        """A deadlock is the experiment's own result and is stored; a
        timeout depends on the host and on ``--point-timeout``, neither
        in the key, so the next invocation runs the point again."""
        calls = []

        def fake(experiment):
            calls.append(experiment.scheduler)
            if experiment.scheduler == SchedulingPolicy.FIFO:
                raise PointTimeoutError("wall-clock limit of 60s exceeded")
            raise DeadlockError("router 0 wedged")

        monkeypatch.setattr(campaign, "simulate", fake)
        argv = ["faults", "--profile", "tiny", "--rates", "0.01"]
        argv += ["--checkpoint", str(tmp_path / "cp.jsonl")]
        assert cli.main(argv) == 1
        assert calls == ["virtual_clock", "fifo"]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert calls == ["virtual_clock", "fifo", "fifo"]
        lines = capsys.readouterr().out.splitlines()
        assert "[faults] virtual_clock@0.01: restored from checkpoint" in lines
        assert "[faults] fifo@0.01: FAILED (PointTimeoutError)" in lines
        rows = [line for line in lines if "FAILED: " in line]
        assert rows[0].endswith("FAILED: DeadlockError: router 0 wedged")
        assert rows[1].endswith(
            "FAILED: PointTimeoutError: wall-clock limit of 60s exceeded"
        )


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
        # a completed campaign keeps its points for the next command
        assert len(path.read_text().splitlines()) == 2

    def test_all_resumes_from_checkpoint(
        self, counted_simulate, tiny_profile, tmp_path, capsys
    ):
        """A killed ``mediaworm all`` picks up where it stopped: what its
        checkpoint holds is restored, for every figure that shares it,
        and only the rest is simulated."""
        path = tmp_path / "all.jsonl"
        store = ResultStore(path)
        cached = point_to_dict(Point(None, empty_metrics()))
        for experiment in figures.FIG3.plan("tiny").values():
            store.put(experiment_key(experiment), cached)
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
        # the store keeps every point: the 10 it had and the 84 new ones
        assert len(path.read_text().splitlines()) == 94

    def test_all_checkpoint_ignores_other_profile(
        self, counted_simulate, tiny_profile, tmp_path
    ):
        """The profile is in every key: points stored at ``quick`` are
        never served to a ``tiny`` sweep."""
        path = tmp_path / "all.jsonl"
        store = ResultStore(path)
        cached = point_to_dict(Point(None, empty_metrics()))
        for experiment in figures.FIG3.plan("quick").values():
            store.put(experiment_key(experiment), cached)
        argv = ["all", "--profile", "tiny", "--checkpoint", str(path)]
        assert cli.main(argv) == 0
        assert len(counted_simulate) == 94

    def test_a_widened_axis_simulates_only_the_new_points(
        self, counted_simulate, capsys
    ):
        """Two campaigns in one directory share the default store."""
        sweep = ["faults", "--profile", "smoke", "--rates"]
        assert cli.main(sweep + ["0"]) == 0
        assert len(counted_simulate) == 2
        assert cli.main(sweep + ["0,0.005"]) == 0
        assert len(counted_simulate) == 4
        restored = [
            line
            for line in capsys.readouterr().out.splitlines()
            if "restored" in line
        ]
        assert restored == [
            "[faults] virtual_clock@0: restored from checkpoint",
            "[faults] fifo@0: restored from checkpoint",
        ]
        assert os.path.exists("mediaworm-results.jsonl")

    def test_a_bad_store_path_fails_before_any_point(
        self, counted_simulate, tmp_path
    ):
        path = tmp_path / "nonexistent" / "x.jsonl"
        argv = ["faults", "--profile", "smoke", "--rates", "0"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--checkpoint", str(path)])
        assert excinfo.value.code == (
            f"--checkpoint {path}: No such file or directory"
        )
        assert counted_simulate == []
