"""JSON export of reproduced figures and tables.

Downstream tooling (plotting notebooks, regression dashboards) consumes
the harness output as JSON; these converters flatten the result objects
into plain dictionaries and back.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    FigureData,
    point_from_dict,
    point_to_dict,
)
from repro.experiments.tables import Table2Data, Table3Data, Table3Row


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


def figure_from_dict(data: Dict) -> FigureData:
    """Rebuild a FigureData exported by :func:`figure_to_dict`."""
    if data.get("kind") != "figure":
        raise ConfigurationError(
            f"expected kind='figure', got {data.get('kind')!r}"
        )
    series = {
        name: [point_from_dict(entry) for entry in points]
        for name, points in data["series"].items()
    }
    return FigureData(
        figure_id=data["figure_id"],
        title=data["title"],
        xlabel=data["xlabel"],
        series=series,
        notes=data.get("notes", ""),
    )


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


def table2_from_dict(data: Dict) -> Table2Data:
    """Rebuild Table 2 from its exported form."""
    if data.get("kind") != "table2":
        raise ConfigurationError(
            f"expected kind='table2', got {data.get('kind')!r}"
        )
    latency = {}
    for key, value in data["latency_us"].items():
        mix_text, load_text = key.split("@")
        x, y = mix_text.split(":")
        latency[((float(x), float(y)), float(load_text))] = value
    return Table2Data(
        loads=[float(load) for load in data["loads"]],
        mixes=[tuple(float(v) for v in mix) for mix in data["mixes"]],
        latency_us=latency,
    )


def table3_to_dict(table: Table3Data) -> Dict:
    """Flatten Table 3."""
    return {
        "kind": "table3",
        "rows": [dataclasses.asdict(row) for row in table.rows],
    }


def table3_from_dict(data: Dict) -> Table3Data:
    """Rebuild Table 3 from its exported form."""
    if data.get("kind") != "table3":
        raise ConfigurationError(
            f"expected kind='table3', got {data.get('kind')!r}"
        )
    return Table3Data(rows=[Table3Row(**row) for row in data["rows"]])


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


def load_result(path: Union[str, Path]):
    """Load a result written by :func:`save_result`."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "figure":
        return figure_from_dict(data)
    if kind == "table2":
        return table2_from_dict(data)
    if kind == "table3":
        return table3_from_dict(data)
    raise ConfigurationError(f"unknown result kind {kind!r} in {path}")
