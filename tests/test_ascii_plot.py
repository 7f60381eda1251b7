"""Terminal plotting helpers."""

import math

import pytest

from repro.analysis.ascii_plot import ascii_xy_plot, figure_plot, sparkline
from repro.errors import ConfigurationError
from repro.experiments.campaign import FigureData, Point
from repro.metrics.collector import RunMetrics


class TestSparkline:
    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert line[0] == " "
        assert line[-1] == "@"
        assert len(line) == 5

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "@@@"

    def test_nan_renders_blank(self):
        line = sparkline([0.0, float("nan"), 4.0])
        assert line[1] == " "

    def test_empty_and_all_nan(self):
        assert sparkline([]) == ""
        assert sparkline([float("nan")]) == ""

    def test_width_downsampling(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10


class TestAsciiXyPlot:
    def test_contains_marks_and_legend(self):
        plot = ascii_xy_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20,
            height=6,
        )
        assert "o a" in plot
        assert "x b" in plot
        assert "o" in plot.splitlines()[0] + plot.splitlines()[-3]

    def test_axis_labels_show_range(self):
        plot = ascii_xy_plot({"s": [(0.5, 10.0), (0.9, 40.0)]})
        assert "40" in plot
        assert "10" in plot
        assert "0.5" in plot and "0.9" in plot

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigurationError):
            ascii_xy_plot({"s": [(0, 0)]}, width=2, height=2)

    def test_all_nan_points(self):
        plot = ascii_xy_plot({"s": [(float("nan"), float("nan"))]})
        assert "no finite points" in plot

    def test_single_point(self):
        plot = ascii_xy_plot({"s": [(1.0, 2.0)]}, width=12, height=5)
        assert "o" in plot


def _metrics(sigma):
    return RunMetrics(
        mean_delivery_interval_ms=33.0,
        std_delivery_interval_ms=sigma,
        frames_delivered=10,
        interval_count=9,
        be_latency_us=5.0,
        be_latency_us_paper_equivalent=100.0,
        be_latency_std_us=1.0,
        be_message_count=10,
    )


class TestFigurePlot:
    def test_numeric_x_axis(self):
        fig = FigureData(
            "figX",
            "t",
            "load",
            {"vc": [Point(0.6, _metrics(0.1)), Point(0.9, _metrics(2.0))]},
        )
        plot = figure_plot(fig, metric="sigma_d")
        assert "sigma_d vs load" in plot

    def test_categorical_x_mapped_to_position(self):
        fig = FigureData(
            "figY",
            "t",
            "mix",
            {"s": [Point("20:80", _metrics(0.1)), Point("80:20", _metrics(0.4))]},
        )
        plot = figure_plot(fig, metric="sigma_d")
        assert "0" in plot and "1" in plot

    def test_other_metrics(self):
        fig = FigureData(
            "figZ", "t", "load", {"s": [Point(0.5, _metrics(0.1))]}
        )
        assert "d vs load" in figure_plot(fig, metric="d")
