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

from repro.errors import ConfigurationError


class FrameSizeModel:
    """Generates per-frame sizes in flits."""

    def __init__(self, mean_flits: float, std_flits: float) -> None:
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

    def draw(self, rng: random.Random) -> int:
        """One frame size in whole flits (always >= 1).

        A constant model draws nothing from ``rng``; otherwise one
        ``rng.gauss`` per frame.
        """
        if self.std_flits == 0:
            return max(1, round(self.mean_flits))
        return max(1, round(rng.gauss(self.mean_flits, self.std_flits)))

    @property
    def is_constant(self) -> bool:
        """True for CBR-style constant frames."""
        return self.std_flits == 0


def vbr_frame_model(mean_flits: float, std_flits: float) -> FrameSizeModel:
    """The paper's VBR model: normally distributed frame sizes."""
    return FrameSizeModel(mean_flits, std_flits)
