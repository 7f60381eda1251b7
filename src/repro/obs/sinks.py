"""Trace sinks and the install/uninstall plumbing.

The overhead contract: every instrumented component carries a ``trace``
attribute that is ``None`` by default, and each emission site is::

    if self.trace is not None:
        self.trace.on_event(KIND, clock, {...})

so a run without tracing pays one attribute load and a falsy check per
site — nothing else is constructed.  The cycle loop's inlined kernels
read ``Network.trace`` once per run and test a local at each of their
sites instead.  Tracing observes only; it never
touches an RNG or mutates simulation state, so a traced run's
:class:`~repro.metrics.collector.RunMetrics` are bit-identical to an
untraced one (pinned by ``tests/test_parity.py``).

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

from repro.obs.events import EVENT_SCHEMA

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


#: records a :class:`JsonlTraceSink` holds before one ``writelines``
_BATCH = 4096


def _compile_line(kind: str, schema: Dict[str, tuple]):
    """Compile ``kind``'s line writer from its schema.

    The writer, ``line(cycle, fields)``, returns the record's JSONL
    line, byte for byte what ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` writes: keys sorted, ``kind`` a literal,
    ints and finite floats as ``str`` writes them, bools as ``true`` /
    ``false`` and strings as their ``json.dumps`` text, cached per
    value (the policy, mux-point, class and link-label vocabularies are
    small and closed).  It returns ``None`` unless the fields are
    exactly the schema's, each of an exact type the schema names, and
    the sink then writes the record with ``json.dumps`` itself.  The
    writer is generated source, one unrolled function per kind, because
    per-field loops would cost what ``json.dumps`` does.
    """
    names = sorted(schema)
    #: the generated code's name for each value, keyed by record key
    args = {"cycle": "cycle"}
    args.update((name, f"v{i}") for i, name in enumerate(names))
    checks = ["type(cycle) is not int"]
    convert = []
    for name in names:
        var, types = args[name], schema[name]
        if types == (int,) or types == (bool,) or types == (str,):
            checks.append(f"type({var}) is not {types[0].__name__}")
        elif types == (int, float):
            checks.append(
                f"not (type({var}) is int or type({var}) is float "
                f"and -INF < {var} < INF)"
            )
        else:
            raise ValueError(f"{kind}.{name}: no writer for {types}")
        if types == (bool,):
            convert.append(f"{var} = 'true' if {var} else 'false'")
        elif types == (str,):
            convert += [
                f"text = TEXT.get({var})",
                "if text is None:",
                f"    text = TEXT[{var}] = dumps({var})",
                f"{var} = text",
            ]

    def literal(text: str) -> str:
        return json.dumps(text).replace("%", "%%")

    keys = sorted(["kind", *args])
    body = ",".join(
        f"{literal(key)}:{literal(kind) if key == 'kind' else '%s'}"
        for key in keys
    )
    values = ", ".join(args[key] for key in keys if key != "kind")
    source = "\n".join(
        [
            "def line(cycle, fields):",
            f"    if len(fields) != {len(names)}:",
            "        return None",
            "    try:",
            *(f"        {args[name]} = fields[{name!r}]" for name in names),
            "    except KeyError:",
            "        return None",
            f"    if {' or '.join(checks)}:",
            "        return None",
            *(f"    {statement}" for statement in convert),
            f"    return '{{{body}}}\\n' % ({values})",
        ]
    )
    namespace = {"TEXT": {}, "dumps": json.dumps, "INF": float("inf")}
    exec(source, namespace)
    return namespace["line"]


class JsonlTraceSink(TraceSink):
    """Append one JSON object per event to a file.

    Records are serialised with sorted keys and no whitespace, so the
    byte stream of a deterministic run is itself deterministic (the
    golden-trace digest test hashes it).  Each kind's line comes from a
    writer compiled from its schema (:func:`_compile_line`), byte for
    byte what ``json.dumps`` writes, and lines reach the file in
    batches of a few thousand.
    """

    def __init__(self, path, events: Optional[Iterable[str]] = None) -> None:
        self.path = path
        self._wanted = None if events is None else frozenset(events)
        self._file = open(path, "w", encoding="utf-8")
        self._lines: List[str] = []
        #: records written out of ``_lines`` so far
        self._flushed = 0
        self._writers = {
            kind: _compile_line(kind, schema)
            for kind, schema in EVENT_SCHEMA.items()
        }

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        wanted = self._wanted
        if wanted is not None and kind not in wanted:
            return
        try:
            line = self._writers[kind](cycle, fields)
        except KeyError:  # a kind with no schema
            line = None
        if line is None:
            record = {"kind": kind, "cycle": cycle}
            record.update(fields)
            line = (
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        lines = self._lines
        lines.append(line)
        if len(lines) >= _BATCH:
            self._flush()

    @property
    def records_written(self) -> int:
        return self._flushed + len(self._lines)

    def _flush(self) -> None:
        self._file.writelines(self._lines)
        self._flushed += len(self._lines)
        self._lines.clear()

    def close(self) -> None:
        if not self._file.closed:
            self._flush()
            self._file.close()

    def __del__(self) -> None:
        # a run that raises never reaches close: keep what it traced
        if getattr(self, "_file", None) is not None:
            self.close()


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
        #: kind -> count; a plain dict, whose in-place increment is
        #: several times cheaper than a ``Counter``'s on every event
        self._counts: Dict[str, int] = {}

    def on_event(self, kind: str, cycle: int, fields: dict) -> None:
        try:
            self._counts[kind] += 1
        except KeyError:
            self._counts[kind] = 1

    @property
    def counts(self) -> "Counter[str]":
        """The counts so far, as a new ``Counter``."""
        return Counter(self._counts)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

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
