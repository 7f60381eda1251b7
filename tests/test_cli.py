"""Command-line interface."""

import argparse

import pytest

from conftest import with_sweep

import repro.experiments.cli as cli
from repro.experiments.campaign import PROFILES, RunProfile
from repro.experiments.figures import PAPER

TINY = RunProfile("tiny", scale=80.0, warmup_frames=1, measure_frames=2)


@pytest.fixture(autouse=True)
def tiny_profile(monkeypatch):
    """Register a 'tiny' profile and shrink the sweeps the tests run."""
    monkeypatch.setitem(PROFILES, "tiny", TINY)
    for name in ("fig3", "table3"):
        monkeypatch.setitem(PAPER, name, with_sweep(PAPER[name], 0.5))


class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table3" in out

    def test_run_fig3(self, capsys):
        assert cli.main(["run", "fig3", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "virtual_clock" in out
        assert "completed in" in out

    def test_run_table3(self, capsys):
        assert cli.main(["run", "table3", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Established" in out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "fig99", "--profile", "tiny"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])


#: ``mediaworm list`` as the hand-wired CLI printed it, before the
#: subcommands became a table (scale has since joined the campaigns)
LIST_OUTPUT = """\
fig3     Virtual Clock vs FIFO (16 VCs, 80:20 mix)
fig4     CBR vs VBR traffic (no best-effort)
fig5     Mixed traffic ratios vs load
fig6     VC count and crossbar capability
fig7     Effect of message size on jitter
fig8     MediaWorm vs PCS router
fig9     2x2 fat-mesh performance
table2   Best-effort latency per mix and load
table3   PCS connection drop accounting
faults   QoS degradation under link faults (fat mesh)
failover adaptive vs static routing under permanent link failures
disaster switch/pod failures and datacenter failover on trees
scale    datacenter-scale campaign (1024-host fat tree, Clos)
trace    one traced run: JSONL event stream, invariants, phase times
chaos    randomized differential fault campaign with scenario shrinking
topo     inspect a topology and its compiled route program
"""


class TestCommandTable:
    def test_list_output_is_unchanged(self, capsys):
        assert cli.main(["list"]) == 0
        assert capsys.readouterr().out == LIST_OUTPUT

    def test_every_listed_command_is_in_list_with_its_help(self, capsys):
        cli.main(["list"])
        lines = capsys.readouterr().out.splitlines()
        commands = cli._commands()
        assert len({c.name for c in commands}) == len(commands)
        for command in commands:
            assert (f"{command.name:8s} {command.help}" in lines) == (
                command.listed
            )
        # only the three that reach the experiments ``list`` prints
        assert [c.name for c in commands if not c.listed] == [
            "list",
            "run",
            "all",
        ]

    def test_every_command_has_help(self, capsys):
        for command in cli._commands():
            with pytest.raises(SystemExit) as excinfo:
                cli.main([command.name, "--help"])
            assert excinfo.value.code == 0
            assert f"usage: mediaworm {command.name}" in capsys.readouterr().out

    def test_shared_flags_keep_their_defaults(self):
        """One declaration each, same defaults wherever they appear."""
        parser_defaults = {
            "run": dict(experiment="fig3", profile="default", jobs=1,
                        watchdog=None, point_timeout=None, json=None,
                        plot=False, check=False),
            "all": dict(profile="default", jobs=1, watchdog=None,
                        point_timeout=None, checkpoint=None, fresh=False),
            "faults": dict(profile="default", jobs=1, watchdog=None,
                           point_timeout=None, json=None, checkpoint=None,
                           fresh=False, rates=None),
            "failover": dict(profile="default", jobs=1, watchdog=None,
                             point_timeout=None, json=None, checkpoint=None,
                             fresh=False, severities=None),
            "disaster": dict(profile="default", jobs=1, watchdog=None,
                             point_timeout=None, json=None, checkpoint=None,
                             fresh=False, severities=None),
            "chaos": dict(profile="smoke", jobs=1, point_timeout=None,
                          json=None, checkpoint=None, fresh=False, count=25,
                          seed=7, corpus="chaos-corpus", shrink_budget=40,
                          replay=None, selftest=None),
            "scale": dict(profile="default", jobs=1, watchdog=None,
                          point_timeout=None, json=None, checkpoint=None,
                          fresh=False, points=None),
            "trace": dict(preset="quick", load=0.8,
                          trace_out="mediaworm-trace.jsonl",
                          trace_events=None, chrome=None, no_check=False),
        }
        table = {c.name: c for c in cli._commands()}
        for name, expected in parser_defaults.items():
            parser = argparse.ArgumentParser()
            table[name].configure(parser)
            argv = ["fig3"] if name == "run" else []
            assert vars(parser.parse_args(argv)) == expected, name

    def test_scale_unknown_point_is_the_axis_message(self):
        """As ``faults --rates`` junk: exit 1 with the axis' own message."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scale", "--points", "ft3-9999"])
        assert excinfo.value.code.startswith(
            "unknown scale point 'ft3-9999'; choose from ft3-16, "
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--point-timeout", "0"], "--point-timeout must be > 0 seconds, got 0"),
            (["--point-timeout", "-5"], "--point-timeout must be > 0 seconds, got -5"),
            (["--shrink-budget", "-1"], "--shrink-budget must be >= 0, got -1"),
        ],
        ids=["zero-timeout", "negative-timeout", "negative-shrink-budget"],
    )
    def test_chaos_refuses_unusable_budgets_before_any_scenario(
        self, flags, message, tmp_path, monkeypatch
    ):
        """A non-positive timeout would switch hang protection off, a
        negative budget would write unshrunk repros."""
        import repro.chaos.campaign

        def no_campaign(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(repro.chaos.campaign, "run_campaign", no_campaign)
        argv = ["chaos", "--checkpoint", str(tmp_path / "c.json")] + flags
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == message
