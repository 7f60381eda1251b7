"""Trace-driven frame sources.

The multimedia-router studies the paper compares against ([3], [10])
evaluate with recorded MPEG-2 frame-size traces instead of statistical
models.  This module provides the same capability:

* :class:`TraceFrameModel` — a drop-in replacement for
  :class:`~repro.traffic.mpeg.FrameSizeModel` that replays a recorded
  sequence of frame sizes (looping), so :class:`MediaStream` works
  unchanged;
* :func:`generate_mpeg2_gop_trace` — a synthetic trace with MPEG-2
  group-of-pictures structure (large I frames, medium P, small B),
  which is burstier than the paper's normal model and useful for
  stress-testing the Virtual Clock pacing.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.traffic.mpeg import FrameSizeModel

#: canonical MPEG-2 GOP pattern (15 frames, N=15 M=3)
DEFAULT_GOP_PATTERN = "IBBPBBPBBPBBPBB"

#: relative frame sizes by picture type (I largest, B smallest); the
#: absolute scale is set by the requested mean
GOP_TYPE_WEIGHTS = {"I": 2.5, "P": 1.2, "B": 0.6}


class TraceFrameModel(FrameSizeModel):
    """Replays a recorded frame-size trace, looping past the end."""

    def __init__(self, sizes: Sequence[int]) -> None:
        sizes = [int(s) for s in sizes]
        if not sizes:
            raise ConfigurationError("frame trace must be non-empty")
        if any(s < 1 for s in sizes):
            raise ConfigurationError("frame trace sizes must be >= 1 flit")
        mean = sum(sizes) / len(sizes)
        variance = sum((s - mean) ** 2 for s in sizes) / len(sizes)
        super().__init__(mean_flits=mean, std_flits=variance ** 0.5)
        self.sizes: List[int] = sizes
        self._cursor = 0

    def draw(self, rng: random.Random) -> int:
        """Next trace entry; the RNG is unused (traces are determined)."""
        size = self.sizes[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.sizes)
        return size

    @property
    def is_constant(self) -> bool:
        first = self.sizes[0]
        return all(s == first for s in self.sizes)


def generate_mpeg2_gop_trace(
    frames: int,
    mean_flits: float,
    rng: random.Random,
    pattern: str = DEFAULT_GOP_PATTERN,
    noise: float = 0.1,
) -> List[int]:
    """Synthesize a GOP-structured MPEG-2 trace with the given mean.

    Frame sizes follow the I/P/B weights of ``pattern`` scaled so the
    long-run mean is ``mean_flits``, with multiplicative Gaussian noise
    of relative magnitude ``noise`` per frame.
    """
    if frames < 1:
        raise ConfigurationError(f"need >= 1 frame, got {frames}")
    if not pattern or any(ch not in GOP_TYPE_WEIGHTS for ch in pattern):
        raise ConfigurationError(
            f"pattern must use letters {sorted(GOP_TYPE_WEIGHTS)}, "
            f"got {pattern!r}"
        )
    if not 0 <= noise < 1:
        raise ConfigurationError(f"noise must be in [0, 1), got {noise}")
    pattern_mean = sum(GOP_TYPE_WEIGHTS[ch] for ch in pattern) / len(pattern)
    sizes: List[int] = []
    for index in range(frames):
        weight = GOP_TYPE_WEIGHTS[pattern[index % len(pattern)]]
        size = mean_flits * weight / pattern_mean
        if noise:
            size *= max(0.1, rng.gauss(1.0, noise))
        sizes.append(max(1, round(size)))
    return sizes
