"""JSON export of reproduced figures and tables.

Downstream tooling (plotting notebooks, regression dashboards) consumes
the harness output as JSON; these converters flatten the result objects
into plain dictionaries.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import ConfigurationError
from repro.experiments.campaign import FigureData, point_to_dict
from repro.experiments.tables import Table2Data, Table3Data


def figure_to_dict(fig: FigureData) -> Dict:
    """Flatten a FigureData into JSON-serialisable primitives."""
    return {
        "kind": "figure",
        "figure_id": fig.figure_id,
        "title": fig.title,
        "xlabel": fig.xlabel,
        "notes": fig.notes,
        "series": {
            name: [point_to_dict(point) for point in points]
            for name, points in fig.series.items()
        },
    }


def table2_to_dict(table: Table2Data) -> Dict:
    """Flatten Table 2 (tuple keys become "x:y@load" strings)."""
    return {
        "kind": "table2",
        "loads": table.loads,
        "mixes": [list(mix) for mix in table.mixes],
        "latency_us": {
            f"{mix[0]:g}:{mix[1]:g}@{load:g}": value
            for (mix, load), value in table.latency_us.items()
        },
    }


def table3_to_dict(table: Table3Data) -> Dict:
    """Flatten Table 3."""
    return {
        "kind": "table3",
        "rows": [dataclasses.asdict(row) for row in table.rows],
    }


def save_result(path: Union[str, Path], result) -> None:
    """Write a figure or table result to ``path`` as JSON."""
    if isinstance(result, FigureData):
        payload = figure_to_dict(result)
    elif isinstance(result, Table2Data):
        payload = table2_to_dict(result)
    elif isinstance(result, Table3Data):
        payload = table3_to_dict(result)
    else:
        raise ConfigurationError(
            f"cannot export object of type {type(result).__name__}"
        )
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
