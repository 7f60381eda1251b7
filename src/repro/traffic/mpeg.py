"""MPEG-2 frame-size models (paper section 4.2.1).

VBR traffic draws each frame's size from a normal distribution with a
mean of 16,666 bytes and a standard deviation of 3,333 bytes at a 33 ms
inter-frame interval — a mean rate of 500 KB/s (4 Mbps).  CBR traffic
is identical except the frame size is constant at the mean.

Sizes are produced directly in (scaled) flits; draws are clamped to at
least one flit so a pathological tail sample can never produce an empty
frame.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import ConfigurationError


class FrameSizeModel:
    """Generates per-frame sizes in flits."""

    def __init__(
        self,
        mean_flits: float,
        std_flits: float,
        sampler: Callable[[random.Random, float, float], float] = None,
    ) -> None:
        if mean_flits < 1:
            raise ConfigurationError(
                f"mean frame size must be >= 1 flit, got {mean_flits}"
            )
        if std_flits < 0:
            raise ConfigurationError(
                f"frame size std must be >= 0, got {std_flits}"
            )
        self.mean_flits = mean_flits
        self.std_flits = std_flits
        self._sampler = sampler or self._default_sampler

    @staticmethod
    def _default_sampler(rng: random.Random, mean: float, std: float) -> float:
        if std == 0:
            return mean
        return rng.gauss(mean, std)

    def draw(self, rng: random.Random) -> int:
        """One frame size in whole flits (always >= 1)."""
        size = self._sampler(rng, self.mean_flits, self.std_flits)
        return max(1, round(size))

    @property
    def is_constant(self) -> bool:
        """True for CBR-style constant frames."""
        return self.std_flits == 0


def vbr_frame_model(mean_flits: float, std_flits: float) -> FrameSizeModel:
    """The paper's VBR model: normally distributed frame sizes."""
    return FrameSizeModel(mean_flits, std_flits)
