"""CLI flags: --plot, --check, and their interaction."""

from dataclasses import replace

import pytest

from conftest import with_sweep

import repro.experiments.cli as cli
from repro.experiments.campaign import PROFILES, RunProfile
from repro.experiments.figures import PAPER

TINY = RunProfile("tiny2", scale=100.0, warmup_frames=1, measure_frames=2)


@pytest.fixture(autouse=True)
def tiny_profile(monkeypatch):
    monkeypatch.setitem(PROFILES, "tiny2", TINY)
    for name in ("fig3", "fig4", "table3"):
        monkeypatch.setitem(PAPER, name, with_sweep(PAPER[name], 0.4, 0.5))
    one_load = replace(PAPER["fig5"], series=(0.6,))
    monkeypatch.setitem(
        PAPER, "fig5", with_sweep(one_load, "80:20", "100:0")
    )


class TestPlotFlag:
    def test_plot_appends_chart(self, capsys):
        assert cli.main(["run", "fig3", "--profile", "tiny2", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "sigma_d vs input link load" in out
        # series legend marks appear
        assert "o virtual_clock" in out

    def test_no_plot_by_default(self, capsys):
        assert cli.main(["run", "fig3", "--profile", "tiny2"]) == 0
        out = capsys.readouterr().out
        assert "sigma_d vs input link load" not in out


class TestCheckFlag:
    def test_check_prints_claim_verdicts(self, capsys):
        assert cli.main(["run", "fig3", "--profile", "tiny2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "paper claims:" in out
        assert "[PASS]" in out or "[FAIL]" in out

    def test_check_mentions_jitter_free_claim(self, capsys):
        cli.main(["run", "fig4", "--profile", "tiny2", "--check"])
        out = capsys.readouterr().out
        assert "jitter-free" in out

    def test_plot_and_check_combine(self, capsys):
        assert (
            cli.main(
                ["run", "fig3", "--profile", "tiny2", "--plot", "--check"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "paper claims:" in out
        assert "sigma_d vs input link load" in out

    def test_fig5_check_applies_to_the_figure(self, capsys):
        """``run fig5 --check`` judges the figure; Table 2 is an entry of
        its own (``run table2``), no longer printed with it."""
        assert cli.main(["run", "fig5", "--profile", "tiny2", "--check"]) == 0
        out = capsys.readouterr().out
        assert out.index("== fig5:") < out.index("paper claims:")
        assert "== table2:" not in out
        assert "no jitter at load 0.6 for any mix" in out
        assert "[PASS]" in out or "[FAIL]" in out

    def test_a_table_has_nothing_to_plot_or_check(self, capsys):
        argv = ["run", "table3", "--profile", "tiny2", "--plot", "--check"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "== table3:" in out
        assert "paper claims:" not in out and "sigma_d vs" not in out
