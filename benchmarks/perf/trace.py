"""Layer tracing from outside the program: timing wrappers on public entry points.

``Tracer.install`` replaces each target (a method on a class, or a
module-level function wherever it was imported by name) with a wrapper
that times the call and charges it to ``(span, parent span)``.  A run
makes more than a million calls, so spans are aggregated in memory as
``[calls, total seconds, seconds inside child spans, measured sum]``
per edge and never stored one by one.  ``uninstall`` puts every
original object back.

Self time of a span is its total minus the time its child spans cover.
The wrappers themselves cost about a microsecond per call, charged to
the *parent's* self time; ``trace.overhead_ratio`` reports the sum.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (span, module, class or None, attributes[, measure]) — ``measure``
#: maps a call's return value to a number summed per edge
TARGETS: Tuple[tuple, ...] = (
    (
        "experiments.runner.simulate",
        "repro.experiments.runner",
        None,
        (
            "simulate_single_switch",
            "simulate_fat_mesh",
            "simulate_fat_tree3",
            "simulate_butterfly",
        ),
    ),
    ("experiments.parallel.run", "repro.experiments.parallel", "ParallelSweepExecutor", ("run",)),
    ("network.network.init", "repro.network.network", "Network", ("__init__",)),
    ("traffic.mix.build_workload", "repro.traffic.mix", None, ("build_workload",)),
    ("network.network.run", "repro.network.network", "Network", ("run",)),
    ("sim.events.fire_due", "repro.sim.events", "EventHeap", ("fire_due",)),
    ("sim.activation.due", "repro.sim.activation", "ActivationScheduler", ("due",), len),
    ("network.link.deliver_due", "repro.network.link", "Link", ("deliver_due",)),
    ("network.interface.inject", "repro.network.interface", "HostInterface", ("inject",)),
    ("network.interface.step", "repro.network.interface", "HostInterface", ("step",)),
    ("router.router.accept_flit", "repro.router.router", "WormholeRouter", ("accept_flit",)),
    ("router.router.step", "repro.router.router", "WormholeRouter", ("step",)),
    ("metrics.collector.on_message", "repro.metrics.collector", "MetricsCollector", ("on_message",)),
    (
        "faults.transport",
        "repro.faults",
        "EndToEndTransport",
        ("on_start", "on_delivered", "on_loss", "on_corrupt"),
    ),
    ("network.health.monitor", "repro.network.health", "LinkHealth", ("on_ok", "on_miss", "on_corrupt")),
)

SPANS: Tuple[str, ...] = tuple(target[0] for target in TARGETS)
ROOTS = ("experiments.parallel.run", "experiments.runner.simulate")
LOOP = "network.network.run"


class Tracer:
    """Aggregating span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        #: open spans, innermost last: [span name, seconds in child spans]
        self._stack: List[list] = [["", 0.0]]
        #: (span, parent) -> [calls, total_s, child_s, measured]
        self.edges: Dict[Tuple[str, str], list] = {}
        #: span -> why it could not be wrapped
        self.missing: Dict[str, str] = {}
        #: (owner, attribute, original, owner had it in its own __dict__)
        self._patched: List[tuple] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, span: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        stack = self._stack
        edges = self.edges
        clock = perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - started
                stack.pop()
                parent[1] += took
                edge = edges.get((span, parent[0]))
                if edge is None:
                    edge = edges[(span, parent[0])] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += took
                edge[2] += frame[1]
            if measure is not None:
                edge[3] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr), attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for span, module_name, class_name, attrs, *rest in TARGETS:
            measure = rest[0] if rest else None
            try:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name)
                originals = [(attr, getattr(owner, attr)) for attr in attrs]
            except (ImportError, AttributeError) as exc:
                self.missing[span] = f"target gone: {exc}"
                continue
            for attr, original in originals:
                wrapper = self._wrap(span, original, measure)
                if class_name is not None:
                    self._patch(owner, attr, wrapper)
                    continue
                # A module-level function is bound by name wherever it
                # was imported; rebind every copy inside the program.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if (name == "repro" or name.startswith("repro.")) and (
                        vars(other).get(attr) is original
                    ):
                        self._patch(other, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading --------------------------------------------------------

    def reset(self) -> None:
        """Forget the recorded spans (between repetitions)."""
        self.edges.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-span totals of the spans recorded since the last reset."""
        spans: Dict[str, Dict[str, float]] = {
            span: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measured": 0}
            for span in SPANS
            if span not in self.missing
        }
        for (span, _parent), (calls, total, child, measured) in self.edges.items():
            entry = spans[span]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += total - child
            entry["measured"] += measured
        return spans

    def edge_table(self) -> List[dict]:
        """The (span, parent) aggregation itself, for the ``--out`` report."""
        return [
            {
                "span": span,
                "parent": parent or None,
                "calls": calls,
                "total_s": total,
                "self_s": total - child,
            }
            for (span, parent), (calls, total, child, _m) in sorted(self.edges.items())
        ]


def layer_metrics(spans: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    """``<span>.calls/.self_s/.share`` plus the counts derived from spans.

    ``share`` is of the root span's total.  A span that could not be
    wrapped is absent from ``spans`` and maps to ``None`` here; the
    reason is in ``Tracer.missing``.
    """
    root_total = next(
        (spans[root]["total_s"] for root in ROOTS if spans.get(root, {}).get("calls")),
        0.0,
    )
    out: Dict[str, object] = {}
    for span in SPANS:
        entry = spans.get(span)
        if entry is None:
            out[f"{span}.calls"] = out[f"{span}.self_s"] = out[f"{span}.share"] = None
            continue
        out[f"{span}.calls"] = entry["calls"]
        out[f"{span}.self_s"] = entry["self_s"]
        out[f"{span}.share"] = entry["self_s"] / root_total if root_total else 0.0
    due = spans.get("sim.activation.due")
    out["sim.activation.due.mean_len"] = (
        None if due is None else (due["measured"] / due["calls"] if due["calls"] else 0.0)
    )
    fired = spans.get("sim.events.fire_due")
    out["sim.cycles_executed"] = None if fired is None else fired["calls"]
    loop = spans.get(LOOP)
    # Share of the cycle loop's time that lands in a span below it.  It
    # falls when a fused loop stops calling step(): the signal that
    # tracing has to move inside the program.
    out["trace.coverage"] = (
        None
        if loop is None
        else ((loop["total_s"] - loop["self_s"]) / loop["total_s"] if loop["total_s"] else 0.0)
    )
    return out
