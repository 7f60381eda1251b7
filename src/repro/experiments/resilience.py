"""Sweep resilience: the result store.

Long sweeps (``mediaworm all``, fault campaigns) should survive the
process dying: every completed point is appended to a
:class:`ResultStore`, one JSON line each, so a rerun restores what is
stored instead of recomputing it.  The store is never cleared, so a
rerun of the same sweep, a widened axis or another sweep command with
overlapping points simulates only what it lacks.  (A single point
hanging is the executor's business:
:func:`repro.experiments.parallel.wall_clock_limit`.)
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional

logger = logging.getLogger(__name__)


@lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """The sha256 of the running simulator: every ``*.py`` under the
    imported ``repro`` package, path and bytes, in path order."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class ResultStore:
    """An append-only JSONL log of finished points.

    One line per result: ``{"key": experiment_key, "code":
    code_fingerprint(), "point": point_to_dict(point)}``.  Only records
    written by the running code are served, so a point simulated by
    another version of the simulator is simulated again; for a repeated
    key the last record wins.  ``fresh`` serves nothing already stored
    (what this run puts is still appended).

    The file is opened for append when the store is built, so a path
    that cannot be written fails before any point runs.  A torn last
    line (an interrupted write) is cut off with a warning, so the next
    append starts a line of its own; any other corrupt line is skipped
    with a warning naming ``path:line``.
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        self.path = str(path)
        self._points: Dict[str, dict] = {}
        with open(self.path, "a+b") as log:
            log.seek(0)
            data = log.read()
            lines = data.split(b"\n")
            torn = lines.pop()  # b"" when the file ends in a newline
            if torn:
                logger.warning(
                    "result store %s: cutting a torn last line (%d bytes) "
                    "left by an interrupted write",
                    self.path,
                    len(torn),
                )
                log.truncate(len(data) - len(torn))
        if not fresh:
            self._read(lines)

    def _read(self, lines) -> None:
        code = code_fingerprint()
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
                key, point = record["key"], record["point"]
                current = record["code"] == code
            except (ValueError, TypeError, KeyError) as exc:
                logger.warning(
                    "%s:%d: skipping a corrupt record (%s: %s)",
                    self.path,
                    number,
                    type(exc).__name__,
                    exc,
                )
                continue
            if current:
                self._points[key] = point

    def get(self, key: str) -> Optional[dict]:
        """The stored point for ``key``, or ``None``."""
        return self._points.get(key)

    def put(self, key: str, point: dict) -> None:
        """Append one finished point and persist it before returning."""
        self._points[key] = point
        record = {"key": key, "code": code_fingerprint(), "point": point}
        line = json.dumps(record, separators=(",", ":"))
        with open(self.path, "ab") as log:
            log.write(line.encode() + b"\n")
            log.flush()
            os.fsync(log.fileno())
