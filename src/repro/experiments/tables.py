"""Runners regenerating the paper's numeric tables.

* Table 2 — average best-effort latency (us) per traffic mix and load,
  reusing the Fig. 5 grid of runs.
* Table 3 — attempted / established / dropped connections of the PCS
  router across input loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import PCSExperiment
from repro.experiments.figures import (
    DEFAULT_LOADS,
    RunProfile,
    get_profile,
    run_mixed_grid,
)
from repro.experiments.parallel import SweepTask, execute_tasks
from repro.experiments.runner import PCSResult, simulate

#: the paper marks saturated best-effort latencies as "Sat."
SATURATION_LATENCY_US = 1000.0

#: mixes whose best-effort latency Table 2 reports (100:0 has none)
TABLE2_MIXES: Tuple[Tuple[float, float], ...] = (
    (20, 80),
    (50, 50),
    (80, 20),
    (90, 10),
)

#: the loads the paper's Table 3 samples
TABLE3_LOADS: Tuple[float, ...] = (
    0.37,
    0.42,
    0.64,
    0.67,
    0.74,
    0.80,
    0.87,
    0.91,
)


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


def run_table2(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    mixes: Optional[Sequence[Tuple[float, float]]] = None,
    grid: Optional[Dict] = None,
    executor=None,
) -> Table2Data:
    """Average best-effort latency for the (mix x load) grid."""
    loads = DEFAULT_LOADS if loads is None else loads
    mixes = TABLE2_MIXES if mixes is None else mixes
    if grid is None:
        grid = run_mixed_grid(profile, loads, mixes, executor=executor)
    latency: Dict[Tuple[Tuple[float, float], float], float] = {}
    for mix in mixes:
        for load in loads:
            result = grid[(tuple(mix), load)]
            latency[(tuple(mix), load)] = result.metrics.be_latency_us
    return Table2Data(
        loads=list(loads), mixes=[tuple(m) for m in mixes], latency_us=latency
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


def run_table3(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    executor=None,
) -> Table3Data:
    """Attempted / established / dropped PCS connections per load."""
    profile = get_profile(profile)
    loads = TABLE3_LOADS if loads is None else loads
    tasks = [
        SweepTask(
            key=f"pcs@{load:g}",
            runner=simulate,
            experiment=PCSExperiment(
                load=load,
                scale=profile.scale,
                warmup_frames=profile.warmup_frames,
                measure_frames=profile.measure_frames,
                seed=profile.seed,
            ),
        )
        for load in loads
    ]
    results = execute_tasks(tasks, executor)
    rows: List[Table3Row] = []
    for load in loads:
        result: PCSResult = results[f"pcs@{load:g}"]
        stats = result.connections
        rows.append(
            Table3Row(
                load=load,
                attempts=stats.attempts,
                established=stats.established,
                dropped=stats.dropped,
                offered=result.offered_streams,
                abandoned=stats.abandoned_streams,
            )
        )
    data = Table3Data(rows=rows)
    data.check()
    return data


TABLES = {
    "table2": run_table2,
    "table3": run_table3,
}
