"""Sweep resilience: checkpointing and a per-point wall-clock limit.

Long sweeps (``mediaworm all``, fault campaigns) should survive two
kinds of trouble:

* **the process dying** — every completed unit of work is persisted to
  a JSON checkpoint (atomic write: temp file + rename), so a rerun
  skips finished work instead of recomputing it;
* **a single point hanging** — :func:`wall_clock_limit` turns it into a
  :class:`~repro.errors.PointTimeoutError`, a failed point like a
  deadlock.  A failed point is never rerun under another seed: the
  campaign records it as a ``FAILED`` row (see
  :func:`~repro.experiments.campaign.run_plans`).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
from contextlib import contextmanager
from typing import Dict, Optional

from repro.errors import PointTimeoutError

logger = logging.getLogger(__name__)

_FORMAT = "mediaworm-checkpoint-v1"


@contextmanager
def wall_clock_limit(seconds: Optional[float]):
    """Bound a block of code to ``seconds`` of wall-clock time.

    Raises :class:`~repro.errors.PointTimeoutError` when the limit
    fires, turning a hung simulation into an ordinary failed point.
    Implemented with ``SIGALRM``/``setitimer``, so it only arms on
    platforms that have it and only from a main thread (every sweep
    worker's task runs in its worker process's main thread); anywhere
    else the block runs unbounded rather than failing to start.
    ``None`` or a non-positive limit disables the guard.
    """
    if (
        seconds is None
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _fire(signum, frame):
        raise PointTimeoutError(
            f"wall-clock limit of {seconds:g}s exceeded"
        )

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class SweepCheckpoint:
    """A JSON checkpoint of completed sweep work.

    ``meta`` identifies the sweep (profile, rates, ...); loading a file
    whose metadata disagrees discards it, so a checkpoint can never
    splice results from a differently configured run into this one.
    Values must be JSON-serialisable.
    """

    def __init__(self, path: str, meta: Dict[str, object]) -> None:
        self.path = str(path)
        self.meta = dict(meta)
        self._done: Dict[str, object] = {}
        self._load()

    def _load(self) -> None:
        raw = self._read(self.path)
        if raw is None:
            # A crash between writing the temp file and the atomic
            # rename leaves a complete checkpoint at <path>.tmp with
            # nothing (or a truncated file) at <path>; recover it.
            raw = self._read(f"{self.path}.tmp")
            if raw is not None:
                logger.warning(
                    "checkpoint %s: recovered from partial write "
                    "(loading %s.tmp left by a crash)",
                    self.path,
                    self.path,
                )
        if raw is None:
            return
        if raw.get("meta") != self.meta:
            logger.warning(
                "checkpoint %s: metadata %r does not match this sweep's "
                "%r; discarding it and recomputing from scratch",
                self.path,
                raw.get("meta"),
                self.meta,
            )
            return
        done = raw.get("done")
        if isinstance(done, dict):
            self._done = done

    def _read(self, path: str) -> Optional[Dict[str, object]]:
        """Parse one candidate checkpoint file, or ``None`` with a reason.

        Missing files are silent (the normal first-run case); corrupt
        JSON and format mismatches warn, naming the path and the cause,
        so an operator knows the rerun is recomputing from scratch.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            logger.warning(
                "checkpoint %s: unreadable (%s: %s); completed work "
                "recorded there will be recomputed",
                path,
                type(exc).__name__,
                exc,
            )
            return None
        if not isinstance(raw, dict) or raw.get("format") != _FORMAT:
            logger.warning(
                "checkpoint %s: unrecognised format %r (expected %r); "
                "discarding it",
                path,
                raw.get("format") if isinstance(raw, dict) else type(raw),
                _FORMAT,
            )
            return None
        return raw

    def _save(self) -> None:
        payload = {"format": _FORMAT, "meta": self.meta, "done": self._done}
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def get(self, key: str):
        """The stored value for ``key``, or ``None`` when not done."""
        return self._done.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._done

    def put(self, key: str, value) -> None:
        """Record one completed unit of work and persist immediately."""
        self._done[key] = value
        self._save()

    @property
    def done_keys(self):
        """Keys completed so far, in completion order."""
        return list(self._done)

    def clear(self) -> None:
        """Delete the checkpoint file (sweep finished or restarted)."""
        self._done = {}
        for path in (self.path, f"{self.path}.tmp"):
            try:
                os.remove(path)
            except OSError:
                pass
