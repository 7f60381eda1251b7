"""Streaming statistics: Welford's online mean/variance."""

from __future__ import annotations

import math
from typing import Iterable


class RunningStats:
    """Welford's online mean/variance accumulator.

    Numerically stable for the long interval series the delivery and
    latency trackers produce.
    """

    __slots__ = ("n", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Accumulate one observation."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Accumulate many observations."""
        for x in xs:
            self.add(x)

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two observations)."""
        if self.n < 2:
            return 0.0
        return self._m2 / self.n

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningStats(n={self.n}, mean={self.mean:.4g}, std={self.std:.4g})"
