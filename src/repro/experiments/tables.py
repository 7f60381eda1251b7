"""The paper's numeric tables: result types and point reducers.

* Table 2 — average best-effort latency (us) per traffic mix and load,
  over the Fig. 5 grid of runs.
* Table 3 — attempted / established / dropped connections of the PCS
  router across input loads.

The sweeps are the ``TABLE2`` / ``TABLE3`` specs of
:mod:`repro.experiments.figures`, whose ``table`` is :func:`table2` /
:func:`table3`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.campaign import Point

#: the paper marks saturated best-effort latencies as "Sat."
SATURATION_LATENCY_US = 1000.0


@dataclass
class Table2Data:
    """Best-effort latency grid: (mix, load) -> mean latency in us."""

    loads: List[float]
    mixes: List[Tuple[float, float]]
    latency_us: Dict[Tuple[Tuple[float, float], float], float]

    def cell(self, mix: Tuple[float, float], load: float) -> float:
        return self.latency_us[(tuple(mix), load)]

    def cell_text(self, mix: Tuple[float, float], load: float) -> str:
        """Latency formatted the way the paper prints the table."""
        value = self.cell(mix, load)
        if value != value:  # nan: no best-effort messages delivered
            return "-"
        if value >= SATURATION_LATENCY_US:
            return "Sat."
        return f"{value:.1f}"


def mix_of(spelled: str) -> Tuple[float, float]:
    """The mix an axis value spells: ``"80:20"`` -> ``(80, 20)``."""
    return tuple(
        int(share) if share.isdigit() else float(share)
        for share in spelled.split(":")
    )


def table2(points: Dict[tuple, Point]) -> Table2Data:
    """Table 2 of a ``{(load, "80:20"): Point}`` sweep: best-effort
    latency."""
    latency_us = {
        (mix_of(mix), load): point.be_latency_us
        for (load, mix), point in points.items()
    }
    return Table2Data(
        loads=list(dict.fromkeys(load for load, _ in points)),
        mixes=list(dict.fromkeys(mix for mix, _ in latency_us)),
        latency_us=latency_us,
    )


@dataclass
class Table3Row:
    """One load point of the PCS connection table."""

    load: float
    attempts: int
    established: int
    dropped: int
    offered: int
    abandoned: int


@dataclass
class Table3Data:
    """PCS connection accounting across loads."""

    rows: List[Table3Row]

    def check(self) -> None:
        """Table 3 identity: attempts = established + dropped, per row."""
        for row in self.rows:
            assert row.attempts == row.established + row.dropped, row


def table3(points: Dict[tuple, Point]) -> Table3Data:
    """Table 3 of a ``{("pcs", load): Point}`` sweep whose points carry
    the connection accounting as extras."""
    data = Table3Data(
        rows=[
            Table3Row(load=load, **point.extra)
            for (_, load), point in points.items()
        ]
    )
    data.check()
    return data
