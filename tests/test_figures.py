"""Figure/table harness: structure of reproduced sweeps (tiny profile)."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    PROFILES,
    RunProfile,
    experiment_key,
    get_profile,
)
from repro.experiments.figures import (
    FIG3,
    FIG4,
    FIG5,
    FIG6,
    FIG7,
    FIG8,
    FIG9,
    PAPER,
    TABLE2,
    TABLE3,
)

#: one-point sweeps at a very coarse scale: structure tests, not physics
TINY = RunProfile("tiny", scale=80.0, warmup_frames=1, measure_frames=2)

#: each point simulates once per session, however many tests read it
pytestmark = pytest.mark.usefixtures("memo_simulate")


class TestProfiles:
    def test_registry_contains_standard_profiles(self):
        assert {"quick", "default", "full"} <= set(PROFILES)
        assert PROFILES["full"].scale == 1.0

    def test_get_profile_accepts_name_or_object(self):
        assert get_profile("quick") is PROFILES["quick"]
        assert get_profile(TINY) is TINY

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError, match="'huge'.*default.*quick"):
            get_profile("huge")
        with pytest.raises(ConfigurationError, match="'huge'"):
            FIG3.run("huge")


class TestFigureRunners:
    def test_registry_covers_every_figure(self):
        assert list(PAPER) == [
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table2", "table3",
        ]
        for name, spec in PAPER.items():
            assert spec.name == name
            assert spec.help

    def test_fig3_series(self):
        fig = FIG3.run(TINY, values=(0.5,))
        assert fig.figure_id == "fig3"
        assert set(fig.series) == {"virtual_clock", "fifo"}
        for points in fig.series.values():
            assert len(points) == 1
            assert points[0].d == pytest.approx(33.0, abs=2.0)

    def test_fig4_series(self):
        fig = FIG4.run(TINY, values=(0.5,))
        assert set(fig.series) == {"vbr", "cbr"}

    def test_fig5_and_table2_share_grid(self):
        mixes = ("50:50", "80:20", "100:0")
        fig5, table2 = (replace(spec, series=(0.5,)) for spec in (FIG5, TABLE2))
        fig = fig5.run(TINY, values=mixes)
        assert set(fig.series) == {"load=0.5"}
        points = fig.series["load=0.5"]
        assert [p.x for p in points] == ["50:50", "80:20", "100:0"]
        # Table 2's experiments are Fig. 5's (100:0 has no best effort),
        # so ``mediaworm all`` runs them once for both
        keys = {
            spec.name: {experiment_key(e) for e in spec.plan(TINY).values()}
            for spec in (fig5, table2)
        }
        assert keys["table2"] < keys["fig5"]
        table = table2.run(TINY, values=mixes[:2])
        assert table.loads == [0.5]
        assert table.mixes == [(50, 50), (80, 20)]
        assert table.cell((80, 20), 0.5) == points[1].be_latency_us

    def test_fig6_config_labels(self):
        fig = FIG6.run(TINY, values=(0.5,))
        assert list(fig.series) == [
            "16 VCs, multiplexed",
            "8 VCs, multiplexed",
            "4 VCs, multiplexed",
            "4 VCs, full crossbar",
        ]

    def test_fig7_message_sizes_sweep(self):
        fig = replace(FIG7, series=(0.5,)).run(TINY, values=(10, 20))
        points = fig.series["load=0.5"]
        assert [p.x for p in points] == [10, 20]

    def test_fig7_top_size_scales_with_the_profile(self):
        sizes = FIG7.axis.defaults
        assert sizes(PROFILES["full"]) == (10, 20, 40, 80, 160, 2560)
        assert sizes(PROFILES["quick"]) == (10, 20, 40, 64, 80, 160)
        assert sizes(PROFILES["smoke"]) == (10, 20, 40, 80, 160)

    def test_fig8_includes_pcs_accounting(self):
        fig = FIG8.run(TINY, values=(0.4,))
        assert fig.series["wormhole"][0].extra == {}
        pcs_point = fig.series["pcs"][0]
        assert sorted(pcs_point.extra) == [
            "abandoned", "attempts", "dropped", "established", "offered",
        ]
        assert pcs_point.extra["attempts"] >= pcs_point.extra["established"]

    def test_fig9_uses_mix_labels(self):
        fig = replace(FIG9, series=(0.5,)).run(TINY, values=("60:40",))
        assert [p.x for p in fig.series["load=0.5"]] == ["60:40"]


class TestTableRunners:
    def test_table2_saturation_formatting(self):
        table = replace(TABLE2, series=(0.5,)).run(TINY, values=("50:50",))
        text = table.cell_text((50, 50), 0.5)
        assert text == "Sat." or float(text) >= 0

    def test_table3_rows_and_identity(self):
        table = TABLE3.run(TINY, values=(0.4, 0.9))
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.attempts == row.established + row.dropped
        by_load = {row.load: row for row in table.rows}
        assert by_load[0.9].offered > by_load[0.4].offered
