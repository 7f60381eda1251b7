"""JSON export of reproduced figures and tables."""

import dataclasses
import json

import pytest

from conftest import with_sweep

from repro.errors import ConfigurationError
from repro.experiments.campaign import FigureData, Point
from repro.experiments.export import (
    figure_to_dict,
    save_result,
    table2_to_dict,
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


def _through_json(data):
    return json.loads(json.dumps(data))


class TestFigureRoundtrip:
    def test_roundtrip_preserves_everything(self):
        fig = _figure()
        data = _through_json(figure_to_dict(fig))
        assert data["kind"] == "figure"
        assert data["figure_id"] == fig.figure_id
        assert data["xlabel"] == fig.xlabel
        assert data["notes"] == fig.notes
        assert list(data["series"]) == list(fig.series)
        vc = data["series"]["vc"][1]
        assert vc["x"] == 0.9
        assert vc["metrics"] == dataclasses.asdict(fig.series["vc"][1].metrics)
        assert data["series"]["fifo"][0]["extra"] == {"note": 1}

    def test_dict_is_json_serialisable(self):
        json.dumps(figure_to_dict(_figure()))


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
        data = _through_json(table2_to_dict(table))
        assert data["kind"] == "table2"
        assert data["latency_us"]["80:20@0.9"] == 100.0
        assert data["latency_us"]["50:50@0.6"] == 7.0
        assert data["loads"] == table.loads
        assert data["mixes"] == [[80, 20], [50, 50]]

    def test_table3(self):
        table = Table3Data(
            rows=[Table3Row(0.9, 700, 180, 520, 182, 10)]
        )
        data = _through_json(table3_to_dict(table))
        assert data["kind"] == "table3"
        assert [Table3Row(**row) for row in data["rows"]] == table.rows


class TestFileIo:
    def test_save_and_load_figure(self, tmp_path):
        path = tmp_path / "fig.json"
        save_result(path, _figure())
        assert json.loads(path.read_text()) == figure_to_dict(_figure())

    def test_save_and_load_table3(self, tmp_path):
        path = tmp_path / "t3.json"
        table = Table3Data(rows=[Table3Row(0.5, 10, 8, 2, 8, 0)])
        save_result(path, table)
        assert json.loads(path.read_text()) == table3_to_dict(table)

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_result(tmp_path / "x.json", object())

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
        exported = json.loads(out.read_text())
        assert (exported["kind"], exported["figure_id"]) == ("figure", "fig3")
