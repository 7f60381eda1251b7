"""Trace sinks and the install/uninstall plumbing.

The overhead contract: every instrumented component carries a ``trace``
attribute that is ``None`` by default, and each emission site is::

    if self.trace is not None:
        self.trace.on_event(KIND, clock, {...})

so a run without tracing pays one attribute load and a falsy check per
site — nothing else is constructed.  Tracing observes only; it never
touches an RNG or mutates simulation state, so a traced run's
:class:`~repro.metrics.collector.RunMetrics` are bit-identical to an
untraced one (pinned by ``tests/test_obs_trace.py``).

Event-kind filtering lives in the recording sinks (``events=`` on
:class:`JsonlTraceSink` / :class:`RingBufferSink`), not in the emission
hooks, so an :class:`~repro.obs.invariants.InvariantChecker` sharing
the run via :class:`MultiSink` always sees the full stream.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from typing import Dict, Iterable, List, Optional, Tuple

Record = Tuple[str, int, dict]


class TraceSink:
    """Protocol for trace consumers (subclassing is optional).

    Anything with an ``on_event(kind, cycle, fields)`` method works;
    ``close`` is called once when the owning run finishes.
    """

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class JsonlTraceSink(TraceSink):
    """Append one JSON object per event to a file.

    Records are serialised with sorted keys and no whitespace, so the
    byte stream of a deterministic run is itself deterministic (the
    golden-trace digest test hashes it).
    """

    def __init__(self, path, events: Optional[Iterable[str]] = None) -> None:
        self.path = path
        self._wanted = None if events is None else frozenset(events)
        self._file = open(path, "w", encoding="utf-8")
        self.records_written = 0

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        wanted = self._wanted
        if wanted is not None and kind not in wanted:
            return
        record = {"kind": kind, "cycle": cycle}
        record.update(fields)
        self._file.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        )
        self._file.write("\n")
        self.records_written += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory (``None`` = unbounded)."""

    def __init__(
        self,
        capacity: Optional[int] = None,
        events: Optional[Iterable[str]] = None,
    ) -> None:
        self._wanted = None if events is None else frozenset(events)
        self._records: "deque[Record]" = deque(maxlen=capacity)

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        wanted = self._wanted
        if wanted is not None and kind not in wanted:
            return
        self._records.append((kind, cycle, dict(fields)))

    @property
    def records(self) -> List[Record]:
        return list(self._records)

    def close(self) -> None:
        pass


class CountingSink(TraceSink):
    """Count events by kind — the cheapest possible live probe."""

    def __init__(self) -> None:
        self.counts: "Counter[str]" = Counter()

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        self.counts[kind] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def close(self) -> None:
        pass


class MultiSink(TraceSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, sinks: Iterable[TraceSink]) -> None:
        self.sinks = list(sinks)

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        for sink in self.sinks:
            sink.on_event(kind, cycle, fields)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _traced_components(network) -> list:
    """Every object in ``network`` that owns a ``trace`` attribute.

    Must run *after* optional extras (transport, health monitor) are
    installed — they are trace emitters too.
    """
    components = [network]
    components.extend(network.routers)
    components.extend(network.links)
    components.extend(network.interfaces.values())
    components.extend(network.sinks.values())
    if network.transport is not None:
        components.append(network.transport)
    if network.health_monitor is not None:
        components.append(network.health_monitor)
    return components


def install_tracing(network, sink: TraceSink) -> TraceSink:
    """Point every instrumented component of ``network`` at ``sink``.

    Install after :func:`repro.faults.install_recovery` /
    :func:`repro.network.health.install_health` so the transport and
    monitor are wired too.  Returns ``sink`` for chaining.
    """
    for component in _traced_components(network):
        component.trace = sink
    return sink


def uninstall_tracing(network) -> None:
    """Detach tracing; the network is back to zero-overhead hooks."""
    for component in _traced_components(network):
        component.trace = None


def stream_digest(path) -> str:
    """Canonical SHA-256 of a JSONL trace file.

    Message ids come from a process-global counter, so two identical
    runs in one process emit identical streams *modulo an id offset*.
    The digest densifies every ``msg``/``clone`` id to its order of
    first appearance before hashing, making it a stable fingerprint of
    the run's behaviour (the golden-trace regression test pins it).
    """
    remap: Dict[int, int] = {}

    def canon(value: int) -> int:
        if value not in remap:
            remap[value] = len(remap)
        return remap[value]

    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            for key in ("msg", "clone"):
                if key in record and record[key] >= 0:
                    record[key] = canon(record[key])
            digest.update(
                json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                ).encode()
            )
            digest.update(b"\n")
    return digest.hexdigest()
