"""Paper-claim validation checks."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import FigureData, Point
from repro.experiments.validation import (
    CHECKERS,
    ClaimResult,
    check_claims,
    check_fig3,
    check_fig8,
    claims_to_text,
)
from repro.metrics.collector import RunMetrics


def _metrics(d=33.0, sigma=0.1, be=10.0):
    return RunMetrics(
        mean_delivery_interval_ms=d,
        std_delivery_interval_ms=sigma,
        frames_delivered=100,
        interval_count=90,
        be_latency_us=be,
        be_latency_us_paper_equivalent=be * 20,
        be_latency_std_us=1.0,
        be_message_count=100,
    )


def _series(values):
    """[(x, d, sigma)] -> [Point]"""
    return [Point(x, _metrics(d, sigma)) for x, d, sigma in values]


def _fig3(vclock, fifo):
    return FigureData(
        "fig3", "t", "load",
        {"virtual_clock": _series(vclock), "fifo": _series(fifo)},
    )


class TestRegistry:
    def test_every_figure_has_claims(self):
        assert set(CHECKERS) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        }

    def test_unknown_figure_rejected(self):
        fig = FigureData("figX", "t", "x", {})
        with pytest.raises(ConfigurationError):
            check_claims(fig)

    def test_dispatch_by_figure_id(self):
        fig = _fig3(
            [(0.6, 33.0, 0.1), (0.96, 33.0, 0.4)],
            [(0.6, 33.0, 0.1), (0.96, 34.0, 3.0)],
        )
        results = check_claims(fig)
        assert results and all(isinstance(r, ClaimResult) for r in results)


class TestFig3Claims:
    def test_paper_shape_passes(self):
        results = check_fig3(
            _fig3(
                [(0.6, 33.0, 0.1), (0.9, 33.0, 0.3), (0.96, 33.0, 0.4)],
                [(0.6, 33.0, 0.1), (0.9, 33.5, 2.0), (0.96, 34.5, 6.0)],
            )
        )
        assert all(r.passed for r in results)

    def test_jittery_vclock_fails(self):
        results = check_fig3(
            _fig3(
                [(0.6, 33.0, 0.1), (0.9, 35.0, 5.0)],
                [(0.6, 33.0, 0.1), (0.9, 35.0, 5.0)],
            )
        )
        assert any(not r.passed for r in results)

    def test_fifo_better_than_vclock_fails(self):
        results = check_fig3(
            _fig3(
                [(0.6, 33.0, 2.0), (0.9, 33.0, 4.0), (0.96, 33, 5.0)],
                [(0.6, 33.0, 0.1), (0.9, 33.0, 0.1), (0.96, 33, 0.1)],
            )
        )
        assert any(not r.passed for r in results)


class TestFig8Claims:
    def _fig8(self, top_dropped, mid_dropped):
        def pcs_point(x, dropped):
            return Point(
                x,
                _metrics(33.0, 0.2),
                extra={"attempts": 100, "established": 100 - dropped,
                       "dropped": dropped},
            )

        return FigureData(
            "fig8", "t", "load",
            {
                "wormhole": _series(
                    [(0.5, 33.0, 0.2), (0.7, 33.0, 0.4), (0.9, 33.4, 2.0)]
                ),
                "pcs": [
                    pcs_point(0.5, 5),
                    pcs_point(0.7, mid_dropped),
                    pcs_point(0.9, top_dropped),
                ],
            },
        )

    def test_paper_shape_passes(self):
        results = check_fig8(self._fig8(top_dropped=70, mid_dropped=55))
        assert all(r.passed for r in results), claims_to_text(results)

    def test_no_drops_fails(self):
        results = check_fig8(self._fig8(top_dropped=2, mid_dropped=1))
        assert any(not r.passed for r in results)


class TestClaimsToText:
    def test_renders_pass_fail(self):
        text = claims_to_text(
            [
                ClaimResult("good thing", True, "detail here"),
                ClaimResult("bad thing", False),
            ]
        )
        assert "[PASS] good thing" in text
        assert "(detail here)" in text
        assert "[FAIL] bad thing" in text


class TestFig5Claims:
    def _fig5(self, top_points):
        from repro.experiments.validation import check_fig5

        series = {}
        for load in (0.6, 0.7, 0.8):
            series[f"load={load:g}"] = [
                Point("20:80", _metrics(33.0, 0.1)),
                Point("100:0", _metrics(33.0, 0.2)),
            ]
        series["load=0.96"] = top_points
        fig = FigureData("fig5", "t", "mix", series)
        return check_fig5(fig)

    def test_rt_dominant_worst_passes(self):
        results = self._fig5(
            [Point("20:80", _metrics(33.0, 0.5)),
             Point("100:0", _metrics(34.0, 4.0))]
        )
        assert all(r.passed for r in results)

    def test_be_dominant_worst_fails(self):
        results = self._fig5(
            [Point("20:80", _metrics(34.0, 6.0)),
             Point("100:0", _metrics(33.0, 0.5))]
        )
        assert any(not r.passed for r in results)


class TestFig9Claims:
    def _fig9(self, latencies, worst_sigma_mix="80:20", worst_sigma=0.4):
        from repro.experiments.validation import check_fig9

        series = {}
        for load in (0.7, 0.8, 0.9):
            points = []
            for mix, lat in zip(("40:60", "60:40", "80:20"), latencies):
                sigma = worst_sigma if mix == worst_sigma_mix else 0.1
                points.append(Point(mix, _metrics(33.0, sigma, be=lat)))
            series[f"load={load:g}"] = points
        return check_fig9(FigureData("fig9", "t", "mix", series))

    def test_paper_shape_passes(self):
        results = self._fig9((10.0, 20.0, 40.0))
        assert all(r.passed for r in results), claims_to_text(results)

    def test_decreasing_latency_fails(self):
        results = self._fig9((40.0, 20.0, 10.0))
        assert any(not r.passed for r in results)

    def test_degradation_in_moderate_mix_fails(self):
        results = self._fig9(
            (10.0, 20.0, 40.0), worst_sigma_mix="40:60", worst_sigma=5.0
        )
        assert any(not r.passed for r in results)

    def test_small_sigma_in_moderate_mix_is_fine(self):
        results = self._fig9(
            (10.0, 20.0, 40.0), worst_sigma_mix="40:60", worst_sigma=0.9
        )
        assert all(r.passed for r in results), claims_to_text(results)


class TestFig6Claims:
    def _fig6(self, limits):
        from repro.experiments.validation import check_fig6

        def series(limit):
            return [
                Point(load, _metrics(33.0, 0.2 if load <= limit else 5.0))
                for load in (0.5, 0.7, 0.8, 0.9)
            ]

        fig = FigureData(
            "fig6",
            "t",
            "load",
            {
                "16 VCs, multiplexed": series(limits[0]),
                "8 VCs, multiplexed": series(limits[1]),
                "4 VCs, multiplexed": series(limits[2]),
                "4 VCs, full crossbar": series(limits[3]),
            },
        )
        return check_fig6(fig)

    def test_paper_ordering_passes(self):
        results = self._fig6((0.9, 0.8, 0.7, 0.8))
        assert all(r.passed for r in results), claims_to_text(results)

    def test_inverted_vc_ordering_fails(self):
        results = self._fig6((0.7, 0.8, 0.9, 0.9))
        assert any(not r.passed for r in results)
