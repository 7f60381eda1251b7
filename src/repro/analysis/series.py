"""Series comparison helpers for paired sweeps."""

from __future__ import annotations

from typing import Callable, Sequence


def dominates(
    better: Sequence,
    worse: Sequence,
    key: Callable = lambda p: p.sigma_d,
    slack: float = 0.0,
) -> bool:
    """True when ``better`` is <= ``worse`` (plus slack) at every shared x.

    Used for claims like "Virtual Clock's sigma_d never exceeds FIFO's".
    Points are matched by their ``x`` values; unmatched points are
    ignored.
    """
    worse_by_x = {p.x: p for p in worse}
    compared = 0
    for point in better:
        other = worse_by_x.get(point.x)
        if other is None:
            continue
        compared += 1
        a, b = key(point), key(other)
        if a != a or b != b:  # nan values cannot be compared
            continue
        if a > b + slack:
            return False
    return compared > 0


def monotonic_tail(
    values: Sequence[float], tolerance: float = 0.0
) -> bool:
    """True when ``values`` never decreases by more than ``tolerance``.

    Used for claims like "best-effort latency grows with load".
    """
    previous = None
    for value in values:
        if value != value:  # skip nan cells
            continue
        if previous is not None and value < previous - tolerance:
            return False
        previous = value
    return True
