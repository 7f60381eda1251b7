"""JSON export/import of reproduced figures and tables."""

import json

import pytest

from conftest import with_sweep

from repro.errors import ConfigurationError
from repro.experiments.campaign import FigureData, Point
from repro.experiments.export import (
    figure_from_dict,
    figure_to_dict,
    load_result,
    save_result,
    table2_from_dict,
    table2_to_dict,
    table3_from_dict,
    table3_to_dict,
)
from repro.experiments.tables import Table2Data, Table3Data, Table3Row
from repro.metrics.collector import RunMetrics


def _metrics(d=33.0):
    return RunMetrics(
        mean_delivery_interval_ms=d,
        std_delivery_interval_ms=0.2,
        frames_delivered=42,
        interval_count=40,
        be_latency_us=8.5,
        be_latency_us_paper_equivalent=170.0,
        be_latency_std_us=1.2,
        be_message_count=100,
    )


def _figure():
    return FigureData(
        figure_id="fig3",
        title="demo",
        xlabel="load",
        series={
            "vc": [Point(0.6, _metrics()), Point(0.9, _metrics(34.0))],
            "fifo": [Point(0.6, _metrics(), extra={"note": 1})],
        },
        notes="hello",
    )


class TestFigureRoundtrip:
    def test_roundtrip_preserves_everything(self):
        fig = _figure()
        rebuilt = figure_from_dict(figure_to_dict(fig))
        assert rebuilt.figure_id == fig.figure_id
        assert rebuilt.xlabel == fig.xlabel
        assert rebuilt.notes == fig.notes
        assert list(rebuilt.series) == list(fig.series)
        assert rebuilt.series["vc"][1].metrics == fig.series["vc"][1].metrics
        assert rebuilt.series["fifo"][0].extra == {"note": 1}

    def test_dict_is_json_serialisable(self):
        json.dumps(figure_to_dict(_figure()))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            figure_from_dict({"kind": "table2"})


class TestTableRoundtrips:
    def test_table2(self):
        table = Table2Data(
            loads=[0.6, 0.9],
            mixes=[(80, 20), (50, 50)],
            latency_us={
                ((80, 20), 0.6): 10.0,
                ((80, 20), 0.9): 100.0,
                ((50, 50), 0.6): 7.0,
                ((50, 50), 0.9): 60.0,
            },
        )
        rebuilt = table2_from_dict(table2_to_dict(table))
        assert rebuilt.cell((80, 20), 0.9) == 100.0
        assert rebuilt.cell((50, 50), 0.6) == 7.0
        assert rebuilt.loads == table.loads

    def test_table3(self):
        table = Table3Data(
            rows=[Table3Row(0.9, 700, 180, 520, 182, 10)]
        )
        rebuilt = table3_from_dict(table3_to_dict(table))
        assert rebuilt.rows == table.rows

    def test_wrong_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            table2_from_dict({"kind": "figure"})
        with pytest.raises(ConfigurationError):
            table3_from_dict({"kind": "figure"})


class TestFileIo:
    def test_save_and_load_figure(self, tmp_path):
        path = tmp_path / "fig.json"
        save_result(path, _figure())
        loaded = load_result(path)
        assert isinstance(loaded, FigureData)
        assert loaded.figure_id == "fig3"

    def test_save_and_load_table3(self, tmp_path):
        path = tmp_path / "t3.json"
        save_result(path, Table3Data(rows=[Table3Row(0.5, 10, 8, 2, 8, 0)]))
        loaded = load_result(path)
        assert isinstance(loaded, Table3Data)

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_result(tmp_path / "x.json", object())

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(ConfigurationError):
            load_result(path)

    def test_cli_json_flag(self, tmp_path, monkeypatch):
        import repro.experiments.cli as cli
        from repro.experiments.campaign import PROFILES, RunProfile
        from repro.experiments.figures import FIG3, PAPER

        monkeypatch.setitem(
            PROFILES,
            "tiny",
            RunProfile("tiny", scale=100.0, warmup_frames=1, measure_frames=2),
        )
        monkeypatch.setitem(PAPER, "fig3", with_sweep(FIG3, 0.4))
        out = tmp_path / "fig3.json"
        assert (
            cli.main(
                ["run", "fig3", "--profile", "tiny", "--json", str(out)]
            )
            == 0
        )
        loaded = load_result(out)
        assert loaded.figure_id == "fig3"
