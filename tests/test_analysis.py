"""Analysis helpers: jitter thresholds and series comparison."""

import math
from dataclasses import dataclass

import pytest

from repro.analysis.jitter import is_jitter_free_point, max_jitter_free_load
from repro.analysis.series import crossover_x, dominates, monotonic_tail


@dataclass
class P:
    x: float
    d: float
    sigma_d: float


class TestJitterFree:
    def test_perfect_point(self):
        assert is_jitter_free_point(33.0, 0.0)

    def test_within_tolerance(self):
        assert is_jitter_free_point(33.4, 0.8)

    def test_mean_drift_fails(self):
        assert not is_jitter_free_point(35.0, 0.1)

    def test_sigma_fails(self):
        assert not is_jitter_free_point(33.0, 3.0)

    def test_nan_fails(self):
        assert not is_jitter_free_point(float("nan"), 0.0)
        assert not is_jitter_free_point(33.0, float("nan"))

    def test_custom_nominal(self):
        assert is_jitter_free_point(100.0, 0.1, nominal_ms=100.0)


class TestMaxJitterFreeLoad:
    def test_finds_threshold(self):
        points = [
            P(0.6, 33.0, 0.1),
            P(0.7, 33.0, 0.3),
            P(0.8, 33.1, 0.6),
            P(0.9, 34.5, 4.0),
        ]
        assert max_jitter_free_load(points) == 0.8

    def test_none_when_always_jittery(self):
        assert max_jitter_free_load([P(0.5, 40.0, 9.0)]) is None

    def test_all_jitter_free(self):
        points = [P(0.5, 33.0, 0.0), P(0.9, 33.0, 0.2)]
        assert max_jitter_free_load(points) == 0.9

    def test_stops_at_first_jittery_point(self):
        # a lucky re-entrant point above the knee must not count
        points = [P(0.6, 33.0, 0.1), P(0.7, 35.0, 5.0), P(0.8, 33.0, 0.1)]
        assert max_jitter_free_load(points) == 0.6

    def test_unsorted_input(self):
        points = [P(0.8, 33.0, 0.4), P(0.6, 33.0, 0.1)]
        assert max_jitter_free_load(points) == 0.8


class TestDominates:
    def test_strictly_better(self):
        a = [P(0.6, 33, 0.1), P(0.9, 33, 0.5)]
        b = [P(0.6, 33, 0.4), P(0.9, 34, 5.0)]
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_with_slack(self):
        a = [P(0.5, 33, 0.5)]
        b = [P(0.5, 33, 0.4)]
        assert not dominates(a, b)
        assert dominates(a, b, slack=0.2)

    def test_no_shared_points_is_false(self):
        assert not dominates([P(0.5, 33, 0.1)], [P(0.6, 33, 0.2)])

    def test_nan_points_skipped(self):
        a = [P(0.5, 33, float("nan")), P(0.6, 33, 0.1)]
        b = [P(0.5, 33, 0.0), P(0.6, 33, 0.2)]
        assert dominates(a, b)


class TestCrossover:
    def test_finds_first_exceedance(self):
        a = [P(0.6, 33, 0.1), P(0.8, 33, 0.5), P(0.9, 34, 6.0)]
        b = [P(0.6, 33, 0.2), P(0.8, 33, 0.6), P(0.9, 33, 0.7)]
        assert crossover_x(a, b) == 0.9

    def test_none_without_crossover(self):
        a = [P(0.6, 33, 0.1)]
        b = [P(0.6, 33, 0.2)]
        assert crossover_x(a, b) is None


class TestMonotonicTail:
    def test_increasing(self):
        assert monotonic_tail([1.0, 2.0, 5.0])

    def test_flat_ok(self):
        assert monotonic_tail([2.0, 2.0, 2.0])

    def test_decrease_fails(self):
        assert not monotonic_tail([3.0, 1.0])

    def test_tolerance_absorbs_noise(self):
        assert monotonic_tail([3.0, 2.9, 5.0], tolerance=0.2)

    def test_nans_skipped(self):
        assert monotonic_tail([1.0, float("nan"), 2.0])
