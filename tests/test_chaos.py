"""Chaos harness: generation, oracles, verdicts, shrinking, replay.

End-to-end campaign behaviour (25 scenarios, selftest, CLI) lives in
``make chaos-smoke``; this suite pins the harness mechanics at unit
size: deterministic scenario draws, serialisation roundtrips, oracle
classification, the shrink/replay pipeline against a sabotaged run,
and campaign checkpoint restore.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.chaos import (
    ORACLES,
    Scenario,
    ScenarioSpace,
    check_accounting,
    classify_error,
    generate,
    load_repro,
    replay,
    run_campaign,
    run_scenario,
    sabotage_scenario,
    shrink,
    write_repro,
)
from repro.errors import (
    ChaosFailure,
    ConfigurationError,
    DeadlockError,
    FlowControlError,
    InvariantViolation,
    PointTimeoutError,
    RoutingError,
    SimulationError,
)
from repro.experiments import cli
from repro.experiments.campaign import (
    Point,
    empty_metrics,
    experiment_key,
    point_to_dict,
)
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.resilience import SweepCheckpoint
from repro.faults import FaultPlan, LinkDownWindow
from repro.plain import from_plain, to_plain

# small-and-fast variants for unit tests; the smoke campaign covers the
# full default space
TINY_SCENARIO = Scenario(
    key="tiny",
    seed=7,
    topology="single",
    num_ports=4,
    vcs_per_pc=4,
    load=0.5,
    mix=(80.0, 20.0),
    message_size=8,
    measure_frames=1,
)

TINY_SPACE = ScenarioSpace(
    topologies=("single",),
    num_ports_choices=(4,),
    vcs_choices=(4,),
    mixes=((80.0, 20.0),),
    message_sizes=(8,),
    max_measure_frames=1,
    zero_fault_fraction=1.0,
    health_fraction=0.0,
)


class TestGeneration:
    def test_same_seed_same_stream(self):
        space = ScenarioSpace()
        assert generate(space, 7, 6) == generate(space, 7, 6)
        assert generate(space, 7, 6) != generate(space, 8, 6)

    def test_draws_are_index_isolated(self):
        # per-index string seeding: a longer stream is an extension of
        # a shorter one, never a reshuffle
        space = ScenarioSpace()
        assert generate(space, 7, 8)[:3] == generate(space, 7, 3)

    def test_keys_are_stable_and_unique(self):
        scenarios = generate(ScenarioSpace(), 7, 12)
        keys = [s.key for s in scenarios]
        assert keys == [f"s{i:03d}" for i in range(12)]

    def test_roundtrips_through_json(self):
        for scenario in generate(ScenarioSpace(), 7, 10):
            wire = json.loads(json.dumps(to_plain(scenario)))
            assert from_plain(Scenario, wire) == scenario

    def test_faulted_scenarios_are_well_formed(self):
        space = dataclasses.replace(TINY_SPACE, zero_fault_fraction=0.0)
        scenarios = generate(space, 7, 8)
        assert all(not s.is_zero_fault for s in scenarios)
        for scenario in scenarios:
            # generator invariants: recovery transport always attached,
            # down windows always finite
            assert scenario.recovery is not None
            for window in scenario.faults.down_windows:
                assert window.end > window.start
            # the plan addresses real links: experiment assembly (which
            # validates against the topology at run time) must not balk
            scenario.to_experiment()

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="topology"):
            dataclasses.replace(TINY_SCENARIO, topology="torus")

    def test_unknown_sabotage_rejected(self):
        with pytest.raises(ConfigurationError, match="sabotage"):
            dataclasses.replace(TINY_SCENARIO, sabotage="nonsense")

    def test_from_plain_rejects_unknown_format(self):
        data = to_plain(TINY_SCENARIO)
        data["format"] = "mediaworm-chaos-scenario-v999"
        with pytest.raises(ConfigurationError, match="format"):
            from_plain(Scenario, data)

    def test_experiment_carries_watchdog_and_checker(self):
        experiment = TINY_SCENARIO.to_experiment()
        interval = experiment.workload_config().frame_interval_cycles
        assert experiment.watchdog_window == 4 * interval
        assert experiment.trace is not None and experiment.trace.check
        # the plain experiment type: the hook is a field of every one
        assert type(experiment) is SingleSwitchExperiment
        assert experiment.network_hook is None
        sabotaged = dataclasses.replace(TINY_SCENARIO, sabotage="credit")
        assert sabotaged.to_experiment().network_hook is not None


class TestOracles:
    def test_classify_error_taxonomy(self):
        cases = [
            (InvariantViolation("x"), "invariant"),
            (DeadlockError("x"), "deadlock"),
            (PointTimeoutError("x"), "timeout"),
            (FlowControlError("x"), "flow-control"),
            (RoutingError("x"), "routing"),
            (ConfigurationError("x"), "config"),
            (SimulationError("x"), "simulation"),
            (ValueError("x"), "crash"),
        ]
        for exc, expected in cases:
            oracle = classify_error(exc)
            assert oracle == expected
            assert oracle in ORACLES

    @staticmethod
    def _result(injected=100, ejected=100, stats=None):
        return SimpleNamespace(
            flits_injected=injected,
            flits_ejected=ejected,
            fault_stats=stats,
        )

    @staticmethod
    def _transport(**overrides):
        stats = {
            "flits_lost": 4,
            "delivered": 10,
            "qos_delivered": 8,
            "be_delivered": 2,
            "abandoned": 1,
            "qos_abandoned": 0,
            "be_abandoned": 1,
            "qos_deadline_misses": 3,
            "delivered_fraction": 0.9,
            "qos_delivered_fraction": 0.95,
        }
        stats.update(overrides)
        return stats

    def test_balanced_books_pass(self):
        assert check_accounting(self._result()) is None
        assert (
            check_accounting(
                self._result(injected=100, ejected=96, stats=self._transport())
            )
            is None
        )

    def test_flit_conservation_violation(self):
        detail = check_accounting(
            self._result(injected=100, ejected=99, stats={"flits_lost": 4})
        )
        assert detail is not None and "don't balance" in detail

    def test_transport_split_must_match_totals(self):
        broken = self._transport(qos_delivered=9)
        detail = check_accounting(self._result(ejected=96, stats=broken))
        assert detail is not None and "class split" in detail

    def test_deadline_misses_bounded_by_deliveries(self):
        broken = self._transport(qos_deadline_misses=9)
        detail = check_accounting(self._result(ejected=96, stats=broken))
        assert detail is not None and "deadline misses" in detail

    def test_fractions_must_be_in_range(self):
        broken = self._transport(delivered_fraction=1.2)
        detail = check_accounting(self._result(ejected=96, stats=broken))
        assert detail is not None and "out of range" in detail

    def test_degradation_without_symptoms_flagged(self):
        stats = {
            "flits_lost": 0,
            "health": {"link_downs": 0, "streams_shed": 2},
        }
        detail = check_accounting(self._result(stats=stats))
        assert detail is not None and "without symptoms" in detail

    def test_readmission_bounded_by_shedding(self):
        stats = {
            "flits_lost": 0,
            "health": {
                "link_downs": 3,
                "streams_shed": 1,
                "streams_readmitted": 2,
            },
        }
        detail = check_accounting(self._result(stats=stats))
        assert detail is not None and "readmitted" in detail


class TestRunScenario:
    def test_zero_fault_scenario_passes_with_digest(self):
        verdict = run_scenario(TINY_SCENARIO)
        assert verdict["status"] == "pass", verdict["detail"]
        assert verdict["oracle"] is None
        assert verdict["digest"] is not None
        assert verdict["digest"]["flits_injected"] > 0
        # verdicts are checkpoint payloads; they must be JSON-plain
        json.dumps(verdict)

    def test_verdicts_are_deterministic(self):
        first = run_scenario(TINY_SCENARIO)
        second = run_scenario(TINY_SCENARIO)
        assert first["digest"] == second["digest"]

    def test_sabotage_is_caught_by_the_invariant_oracle(self):
        verdict = run_scenario(
            dataclasses.replace(TINY_SCENARIO, sabotage="credit")
        )
        assert verdict["status"] == "fail"
        assert verdict["oracle"] == "invariant"
        assert "credit" in verdict["detail"]

    def test_sabotage_scenario_requires_a_known_kind(self):
        with pytest.raises(ConfigurationError, match="sabotage"):
            sabotage_scenario("nonsense")


class TestShrinkAndReplay:
    @pytest.fixture(scope="class")
    def caught(self):
        """One sabotaged run through catch -> shrink (shared, read-only)."""
        scenario = dataclasses.replace(
            TINY_SCENARIO, key="sabotage-tiny", sabotage="credit"
        )
        verdict = run_scenario(scenario)
        assert verdict["status"] == "fail"
        minimal, trail = shrink(scenario, verdict["oracle"], budget=8)
        return scenario, verdict, minimal, trail

    def test_shrink_preserves_the_failure_ingredient(self, caught):
        scenario, verdict, minimal, trail = caught
        # the sabotage is the root cause; no shrink pass may remove it
        assert minimal.sabotage == "credit"
        assert "no-sabotage" not in trail
        final = run_scenario(minimal)
        assert final["status"] == "fail"
        assert final["oracle"] == verdict["oracle"]

    def test_repro_roundtrip_and_replay_match(self, caught, tmp_path):
        _, _, minimal, trail = caught
        final = run_scenario(minimal)
        path = write_repro(
            str(tmp_path), minimal, final, trail=trail, campaign={"t": 1}
        )
        loaded, recorded = load_repro(path)
        assert loaded == minimal
        assert recorded["oracle"] == "invariant"
        ok, message, actual = replay(path)
        assert ok, message
        assert actual["oracle"] == "invariant"

    def test_replay_flags_a_failure_that_no_longer_reproduces(
        self, tmp_path
    ):
        # a repro recorded as failing, whose scenario now passes, must
        # mismatch — that is how a fixed bug retires a corpus entry
        stale = {
            "key": TINY_SCENARIO.key,
            "status": "fail",
            "oracle": "invariant",
            "detail": "recorded failure",
            "digest": None,
        }
        path = write_repro(str(tmp_path), TINY_SCENARIO, stale)
        ok, message, actual = replay(path)
        assert not ok
        assert "recorded fail" in message
        assert actual["status"] == "pass"

    def test_replay_flags_a_digest_change(self, tmp_path):
        verdict = run_scenario(TINY_SCENARIO)
        drifted = dict(verdict)
        drifted["digest"] = dict(verdict["digest"])
        drifted["digest"]["flits_injected"] += 1
        path = write_repro(str(tmp_path), TINY_SCENARIO, drifted)
        ok, message, _ = replay(path)
        assert not ok
        assert "digest changed" in message

    def test_load_repro_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "not-a-repro"}))
        with pytest.raises(ConfigurationError, match="format"):
            load_repro(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("scenario"), "no 'scenario' block"),
            (lambda doc: doc["scenario"].pop("seed"), "missing required field 'seed'"),
            (lambda doc: doc["scenario"].update(seed="abc"), "scenario.seed: expected int"),
            (
                lambda doc: doc["scenario"].update(health={"suspect_mises": 3}),
                "scenario.health: unknown field 'suspect_mises'",
            ),
            (lambda doc: doc["scenario"].update(mix=5), "scenario.mix: expected a list"),
            (
                lambda doc: doc["scenario"]["faults"].update(
                    down_windows=[{"start": 0, "end": 10}]
                ),
                r"scenario\.faults\.down_windows\[0\]: missing required field 'link'",
            ),
            (
                lambda doc: doc["scenario"].update(vcs_per_pcc=8),
                "scenario: unknown field 'vcs_per_pcc'",
            ),
            (lambda doc: doc.update(scenario=[]), "scenario: expected an object"),
        ],
        ids=[
            "no-scenario",
            "no-seed",
            "seed-not-int",
            "misspelled-health-key",
            "scalar-mix",
            "window-without-link",
            "misspelled-field",
            "scenario-not-object",
        ],
    )
    def test_load_repro_refuses_a_malformed_file(self, edit, message, tmp_path):
        """A hand-edited repro fails with a typed error naming the
        field, never a KeyError or a silently ignored key."""
        verdict = {"status": "pass", "oracle": None, "detail": None, "digest": None}
        path = write_repro(str(tmp_path), TINY_SCENARIO, verdict)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ConfigurationError, match=message):
            load_repro(path)
        # the CLI turns it into the message and a non-zero exit
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["chaos", "--replay", path])
        assert str(excinfo.value.code).startswith(f"{path}: ")

    def test_repro_scenario_block_is_the_plain_scenario(self, tmp_path):
        """What a repro file holds is ``to_plain`` of its scenario, and a
        legacy file missing later fields takes their defaults."""
        scenario = dataclasses.replace(
            TINY_SCENARIO,
            faults=FaultPlan(down_windows=(LinkDownWindow("host0:inject", 5, 9),)),
        )
        verdict = {"status": "pass", "oracle": None, "detail": None, "digest": None}
        path = write_repro(str(tmp_path), scenario, verdict)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["scenario"] == to_plain(scenario)
        assert doc["scenario"]["format"] == "mediaworm-chaos-scenario-v1"
        for name in ("tree_k", "hosts_per_leaf", "format"):
            del doc["scenario"][name]
        del doc["scenario"]["faults"]["domains"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert load_repro(path)[0] == scenario

    def test_load_repro_reports_unreadable_files(self, tmp_path):
        path = tmp_path / "junk.md"
        path.write_text("# not a repro at all")
        with pytest.raises(ConfigurationError, match="not a readable"):
            load_repro(str(path))
        with pytest.raises(ConfigurationError, match="not a readable"):
            load_repro(str(tmp_path / "absent.json"))


def _fails_first(calls):
    """A ``run_scenario`` stand-in: scenario s000 fails the
    conservation oracle, every other passes; ``calls`` logs the keys."""

    def fake(scenario):
        calls.append(scenario.key)
        failing = scenario.key == "s000"
        return {
            "key": scenario.key,
            "status": "fail" if failing else "pass",
            "oracle": "conservation" if failing else None,
            "detail": "stand-in failure" if failing else None,
            "digest": None,
            "wall_s": 0.0,
        }

    return fake


class TestCampaign:
    META = {"command": "chaos"}

    def test_clean_campaign_is_deterministic_and_clears_checkpoint(
        self, tmp_path
    ):
        checkpoint_path = tmp_path / "campaign.json"
        kwargs = dict(
            space=TINY_SPACE,
            seed=3,
            count=2,
            corpus_dir=str(tmp_path / "corpus"),
            jobs=1,
        )
        first = run_campaign(
            **kwargs, checkpoint=SweepCheckpoint(checkpoint_path, self.META)
        )
        assert first["scenarios"] == 2
        assert first["passed"] == 2
        assert first["failures"] == []
        # a clean campaign leaves no checkpoint and writes no repros
        assert not checkpoint_path.exists()
        assert not (tmp_path / "corpus").exists()
        assert (
            run_campaign(
                **kwargs, checkpoint=SweepCheckpoint(checkpoint_path, self.META)
            )
            == first
        )

    def test_campaign_restores_verdicts_from_checkpoint(self, tmp_path):
        # seed the checkpoint with a fabricated failing verdict for
        # s000, under its content key; the campaign must trust it (no
        # recompute) and route the key through the shrink-and-repro
        # pipeline
        seed, count = 3, 2
        checkpoint_path = tmp_path / "campaign.json"
        fake = {
            "key": "s000",
            "status": "fail",
            "oracle": "conservation",
            "detail": "fabricated for the restore test",
            "digest": None,
            "wall_s": 0.0,
        }
        first = generate(TINY_SPACE, seed, count)[0]
        SweepCheckpoint(checkpoint_path, self.META).put(
            experiment_key(first), point_to_dict(Point(None, empty_metrics(), fake))
        )
        summary = run_campaign(
            space=TINY_SPACE,
            seed=seed,
            count=count,
            corpus_dir=str(tmp_path / "corpus"),
            jobs=1,
            checkpoint=SweepCheckpoint(checkpoint_path, self.META),
            shrink_budget=4,
        )
        assert summary["failed"] == 1
        failure = summary["failures"][0]
        assert failure["key"] == "s000"
        assert failure["oracle"] == "conservation"
        assert failure["detail"] == fake["detail"]
        # the repro records the re-run verdict of the shrunk scenario —
        # which passes, since the recorded failure was fabricated
        _, recorded = load_repro(failure["repro"])
        assert recorded["status"] == "pass"
        # a failing campaign keeps its checkpoint for the next resume
        assert checkpoint_path.exists()

    def test_longer_count_reuses_a_shorter_failing_run(self, tmp_path, monkeypatch):
        """Scenarios are keyed by content, not by campaign size: the
        checkpoint a failing ``count=2`` run keeps serves the first two
        scenarios of a ``count=3`` run."""
        import repro.chaos.campaign as chaos_campaign

        calls = []
        monkeypatch.setattr(chaos_campaign, "run_scenario", _fails_first(calls))
        checkpoint_path = tmp_path / "campaign.json"

        def run(count):
            return run_campaign(
                space=TINY_SPACE,
                seed=3,
                count=count,
                corpus_dir=str(tmp_path / "corpus"),
                checkpoint=SweepCheckpoint(checkpoint_path, self.META),
                shrink_budget=0,
            )

        short = run(2)
        assert short["failed"] == 1
        # two scenarios, then s000's repro verdict
        assert calls == ["s000", "s001", "s000"]
        assert checkpoint_path.exists()
        del calls[:]
        longer = run(3)
        # one new scenario; s000 is re-run only for its repro file
        assert calls == ["s002", "s000"]
        assert [longer[name] for name in ("scenarios", "passed", "failed")] == [3, 2, 1]
        assert longer["failures"][0]["key"] == "s000"

    def test_parent_format_checkpoint_is_dropped(self, tmp_path, monkeypatch, caplog):
        """A checkpoint written when the meta held the whole campaign
        identity is discarded with the meta-mismatch warning and every
        scenario is recomputed."""
        import repro.chaos.campaign as chaos_campaign

        calls = []
        monkeypatch.setattr(chaos_campaign, "run_scenario", _fails_first(calls))
        checkpoint_path = tmp_path / "chaos.json"
        old_meta = {
            "kind": "chaos-campaign",
            "seed": 7,
            "count": 1,
            "point_timeout": None,
            "space": {"scale": 100.0},
        }
        SweepCheckpoint(checkpoint_path, old_meta).put("s000", {"status": "pass"})
        argv = [
            "chaos",
            "--count",
            "1",
            "--checkpoint",
            str(checkpoint_path),
            "--corpus",
            str(tmp_path / "corpus"),
            "--shrink-budget",
            "0",
        ]
        with caplog.at_level("WARNING"):
            assert cli.main(argv) == 1
        assert "does not match" in caplog.text
        assert calls == ["s000", "s000"]

    def test_replay_and_selftest_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["chaos", "--replay", "x.json", "--selftest", "credit"])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_chaos_failure_carries_oracle_and_key(self):
        error = ChaosFailure("selftest", "s000", "pipeline broke")
        assert error.oracle == "selftest"
        assert error.key == "s000"
        assert "s000" in str(error)
