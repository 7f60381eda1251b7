"""Report formatting."""

import math

import pytest

from repro.errors import SimulationError
from repro.experiments.campaign import FigureData, Point
from repro.experiments.report import (
    figure_to_text,
    format_table,
    table2_to_text,
    table3_to_text,
)
from repro.experiments.tables import Table2Data, Table3Data, Table3Row, table3
from repro.metrics.collector import RunMetrics


def _metrics(d=33.0, sigma=0.1, be=12.5):
    return RunMetrics(
        mean_delivery_interval_ms=d,
        std_delivery_interval_ms=sigma,
        frames_delivered=100,
        interval_count=90,
        be_latency_us=be,
        be_latency_us_paper_equivalent=be * 20,
        be_latency_std_us=1.0,
        be_message_count=500,
    )


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-+-" in lines[1]
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equally wide

    def test_nan_rendered_as_dash(self):
        text = format_table(["x"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_floats_fixed_precision(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.235" in text


class TestFigureToText:
    def test_contains_series_and_points(self):
        fig = FigureData(
            figure_id="figX",
            title="demo",
            xlabel="load",
            series={"a": [Point(0.5, _metrics())]},
            notes="hello",
        )
        text = figure_to_text(fig)
        assert "figX" in text
        assert "series: a" in text
        assert "33.000" in text
        assert "note: hello" in text

    def test_optional_latency_column(self):
        fig = FigureData(
            figure_id="f",
            title="t",
            xlabel="x",
            series={"a": [Point(0.5, _metrics(be=77.0))]},
        )
        assert "77.000" in figure_to_text(fig, show_be_latency=True)
        assert "77.000" not in figure_to_text(fig, show_be_latency=False)


class TestTableText:
    def test_table2_layout(self):
        data = Table2Data(
            loads=[0.6, 0.9],
            mixes=[(80, 20)],
            latency_us={((80, 20), 0.6): 10.3, ((80, 20), 0.9): 5000.0},
        )
        text = table2_to_text(data)
        assert "80:20" in text
        assert "10.3" in text
        assert "Sat." in text  # saturated cell

    def test_table2_nan_cell(self):
        data = Table2Data(
            loads=[0.6],
            mixes=[(80, 20)],
            latency_us={((80, 20), 0.6): float("nan")},
        )
        assert "-" in table2_to_text(data)

    def test_table3_rejects_a_row_that_breaks_the_identity(self):
        """A point restored from the result store is checked like a
        fresh one, by a raise that ``python -O`` keeps."""
        extra = dict(attempts=10, established=7, dropped=2, offered=8,
                     abandoned=0)
        points = {("pcs", 0.9): Point(0.9, _metrics(), extra=extra)}
        with pytest.raises(SimulationError, match="attempts=10"):
            table3(points)

    def test_table3_sorted_by_load_descending(self):
        data = Table3Data(
            rows=[
                Table3Row(0.4, 10, 8, 2, 8, 0),
                Table3Row(0.9, 100, 50, 50, 60, 5),
            ]
        )
        text = table3_to_text(data)
        first_data_line = text.splitlines()[3]
        assert first_data_line.strip().startswith("0.9")
