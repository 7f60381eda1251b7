"""Unit tests for the observability layer (``repro.obs``).

Sinks, the event schema, the Chrome-trace exporter, and the
:class:`InvariantChecker`'s per-kind checks on synthetic event
sequences.  Integration against real traffic lives in
``test_obs_invariants.py``; the zero-overhead and golden-trace pins in
``test_obs_trace.py``.
"""

import json
import random

import pytest

from conftest import deliver_all, make_message, make_network

from repro.errors import ConfigurationError, InvariantViolation
from repro.obs.chrometrace import chrome_trace, write_chrome_trace
from repro.obs.events import (
    ALL_EVENTS,
    EVENT_SCHEMA,
    TraceSpec,
    check_event_names,
    validate_event,
)
from repro.obs.invariants import InvariantChecker
from repro.obs.sinks import (
    CountingSink,
    JsonlTraceSink,
    MultiSink,
    RingBufferSink,
    uninstall_tracing,
)


class TestEventSchema:
    def test_every_kind_has_fields(self):
        for kind in ALL_EVENTS:
            assert EVENT_SCHEMA[kind], kind

    def test_valid_record_passes(self):
        validate_event(
            {
                "kind": "flit_inject",
                "cycle": 3,
                "node": 0,
                "vc": 1,
                "msg": 7,
                "flit": 0,
                "size": 5,
                "cls": "vbr",
            }
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvariantViolation, match="unknown"):
            validate_event({"kind": "warp", "cycle": 0})

    def test_negative_cycle_rejected(self):
        with pytest.raises(InvariantViolation, match="cycle"):
            validate_event({"kind": "purge", "cycle": -1})

    def test_bool_cycle_rejected(self):
        with pytest.raises(InvariantViolation, match="cycle"):
            validate_event({"kind": "purge", "cycle": True})

    def test_missing_field_rejected(self):
        with pytest.raises(InvariantViolation, match="missing"):
            validate_event(
                {"kind": "purge", "cycle": 0, "msg": 1, "dropped": 2}
            )

    def test_extra_field_rejected(self):
        with pytest.raises(InvariantViolation, match="unexpected"):
            validate_event(
                {
                    "kind": "purge",
                    "cycle": 0,
                    "msg": 1,
                    "dropped": 2,
                    "ni": 0,
                    "extra": 1,
                }
            )

    def test_wrong_type_rejected(self):
        with pytest.raises(InvariantViolation, match="expected"):
            validate_event(
                {"kind": "purge", "cycle": 0, "msg": "one", "dropped": 2, "ni": 0}
            )

    def test_bool_not_accepted_as_int(self):
        # bool is an int subclass; the schema must still reject it where
        # an int is meant, or a buggy emitter would slip through
        with pytest.raises(InvariantViolation, match="bool"):
            validate_event(
                {"kind": "purge", "cycle": 0, "msg": True, "dropped": 2, "ni": 0}
            )

    def test_check_event_names_accepts_known(self):
        assert check_event_names(["sched", "xbar"]) == ("sched", "xbar")

    def test_check_event_names_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="warp"):
            check_event_names(["sched", "warp"])

    def test_trace_spec_validates_events(self):
        with pytest.raises(ConfigurationError):
            TraceSpec(path="x.jsonl", events=("nonsense",))

    def test_trace_spec_defaults(self):
        spec = TraceSpec()
        assert spec.path is None
        assert spec.events is None
        assert spec.chrome_path is None
        assert spec.check is False


class TestSinks:
    def test_jsonl_sink_writes_sorted_compact_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.on_event("purge", 9, {"msg": 1, "dropped": 2, "ni": 0})
        sink.close()
        line = path.read_text().strip()
        assert line == '{"cycle":9,"dropped":2,"kind":"purge","msg":1,"ni":0}'
        assert sink.records_written == 1

    def test_jsonl_sink_writes_json_dumps_bytes_for_any_record(self, tmp_path):
        """Each kind's line comes from a writer compiled from its
        schema; a record off the schema (a field missing or extra, a
        bool where an int goes, a non-finite float, an unknown kind)
        is written by ``json.dumps`` itself.  Either way the bytes are
        ``json.dumps``'s, across several ``writelines`` batches."""
        rng = random.Random(5)
        samples = {
            int: [0, 7, -3, 2**70],
            float: [0.5, 1 / 3, 1e300, -0.0, float("nan"), float("inf")],
            bool: [True, False],
            str: ["A", "virtual_clock", "ch:0.4->1.4", 'q"%s{x}\\', "é", ""],
        }
        odd = [True, 1.5, "7", None, 3]
        records = []
        for _ in range(9000):
            kind = rng.choice(ALL_EVENTS)
            fields = {
                name: rng.choice(samples[rng.choice(types)])
                for name, types in EVENT_SCHEMA[kind].items()
            }
            roll = rng.random()
            if roll < 0.05:
                del fields[rng.choice(list(fields))]
            elif roll < 0.1:
                fields["extra"] = 1
            elif roll < 0.2:
                fields[rng.choice(list(fields))] = rng.choice(odd)
            cycle = rng.choice([0, 41, 10**9]) if roll < 0.95 else True
            records.append((kind, cycle, fields))
        records.append(("no_such_kind", 3, {"b": 1, "a": "x"}))
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        for record in records:
            sink.on_event(*record)
        assert sink.records_written == len(records)
        sink.close()
        expected = "".join(
            json.dumps(
                {"kind": kind, "cycle": cycle, **fields},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for kind, cycle, fields in records
        )
        assert path.read_text(encoding="utf-8") == expected

    def test_jsonl_sink_filters_kinds(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path, events=("purge",))
        sink.on_event("sched", 1, {})
        sink.on_event("purge", 2, {"msg": 1, "dropped": 0, "ni": 0})
        sink.close()
        kinds = [json.loads(l)["kind"] for l in path.read_text().splitlines()]
        assert kinds == ["purge"]

    def test_jsonl_close_is_idempotent(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_ring_buffer_keeps_last_records(self):
        sink = RingBufferSink(capacity=2)
        for cycle in range(5):
            sink.on_event("sched", cycle, {"n": cycle})
        assert [cycle for _, cycle, _ in sink.records] == [3, 4]

    def test_ring_buffer_copies_fields(self):
        sink = RingBufferSink()
        fields = {"n": 1}
        sink.on_event("sched", 0, fields)
        fields["n"] = 2
        assert sink.records[0][2] == {"n": 1}

    def test_counting_sink(self):
        sink = CountingSink()
        sink.on_event("sched", 0, {})
        sink.on_event("sched", 1, {})
        sink.on_event("xbar", 1, {})
        assert sink.counts == {"sched": 2, "xbar": 1}
        assert sink.total == 3

    def test_multi_sink_fans_out_and_closes(self, tmp_path):
        counter = CountingSink()
        jsonl = JsonlTraceSink(tmp_path / "t.jsonl")
        multi = MultiSink([counter, jsonl])
        multi.on_event("purge", 0, {"msg": 1, "dropped": 0, "ni": 0})
        multi.close()
        assert counter.total == 1
        assert jsonl._file.closed

    def test_counts_by_kind(self):
        counter = CountingSink()
        for kind, cycle, fields in [("sched", 0, {}), ("sched", 1, {}), ("xbar", 0, {})]:
            counter.on_event(kind, cycle, fields)
        assert dict(counter.counts) == {"sched": 2, "xbar": 1}


class TestInstallUninstall:
    def test_install_points_every_component_at_the_sink(self):
        sink = CountingSink()
        network = make_network(trace_sink=sink)
        assert network.trace is sink
        assert all(r.trace is sink for r in network.routers)
        assert all(l.trace is sink for l in network.links)
        assert all(ni.trace is sink for ni in network.interfaces.values())
        assert all(s.trace is sink for s in network.sinks.values())

    def test_uninstall_restores_zero_overhead(self):
        network = make_network(trace_sink=CountingSink())
        uninstall_tracing(network)
        assert network.trace is None
        assert all(r.trace is None for r in network.routers)
        assert all(l.trace is None for l in network.links)

    def test_untraced_network_has_no_sink(self):
        network = make_network()
        assert network.trace is None
        assert all(l.trace is None for l in network.links)

    def test_traced_delivery_emits_lifecycle(self):
        sink = CountingSink()
        network = make_network(trace_sink=sink)
        network.inject_now(make_message(size=4))
        deliver_all(network)
        assert sink.counts["flit_inject"] == 4
        assert sink.counts["flit_eject"] == 4
        assert sink.counts["route"] == 1
        assert sink.counts["vc_alloc"] == 1
        assert sink.counts["vc_release"] == 1
        assert sink.counts["xbar"] == 4
        # host-in and host-out wires both carry every flit
        assert sink.counts["link_tx"] == 8

    def test_emitted_events_fit_the_schema(self):
        ring = RingBufferSink()
        network = make_network(trace_sink=ring)
        network.inject_now(make_message(size=4))
        deliver_all(network)
        for kind, cycle, fields in ring.records:
            record = {"kind": kind, "cycle": cycle}
            record.update(fields)
            validate_event(record)


class TestChromeTrace:
    def _lifecycle_records(self):
        ring = RingBufferSink()
        network = make_network(trace_sink=ring)
        network.inject_now(make_message(size=4))
        deliver_all(network)
        return ring.records

    def test_complete_worm_becomes_a_slice(self):
        trace = chrome_trace(self._lifecycle_records())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["dur"] >= 1

    def test_every_record_becomes_an_instant(self):
        records = self._lifecycle_records()
        trace = chrome_trace(records)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(records)

    def test_metadata_names_processes(self):
        trace = chrome_trace(self._lifecycle_records())
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert "routers" in names
        assert "links" in names

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, self._lifecycle_records())
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count


def _feed(checker, events):
    for kind, cycle, fields in events:
        checker.on_event(kind, cycle, fields)


def _inject(msg, flit, size=3, node=0):
    fields = {
        "node": node,
        "vc": 0,
        "msg": msg,
        "flit": flit,
        "size": size,
        "cls": "vbr",
    }
    return ("flit_inject", 0, fields)


def _eject(msg, flit, tail=False, node=1):
    return ("flit_eject", 5, {"node": node, "msg": msg, "flit": flit, "tail": tail})


class TestInvariantCheckerSynthetic:
    def test_clean_lifecycle_passes(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        _feed(checker, [_eject(1, 0), _eject(1, 1), _eject(1, 2, tail=True)])
        checker.finish()

    def test_injection_gap_raises(self):
        checker = InvariantChecker()
        checker.on_event(*_inject(1, 0))
        with pytest.raises(InvariantViolation, match="expected 1"):
            checker.on_event(*_inject(1, 2))

    def test_injection_beyond_size_raises(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, 0, size=2), _inject(1, 1, size=2)])
        with pytest.raises(InvariantViolation, match="beyond declared size"):
            checker.on_event(*_inject(1, 2, size=2))

    def test_out_of_order_ejection_raises(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        checker.on_event(*_eject(1, 1))
        with pytest.raises(InvariantViolation, match="order"):
            checker.on_event(*_eject(1, 0))

    def test_tail_at_wrong_flit_raises(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        checker.on_event(*_eject(1, 0))
        with pytest.raises(InvariantViolation, match="tail"):
            checker.on_event(*_eject(1, 1, tail=True))

    def test_tail_without_full_worm_raises_at_finish(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        # flits 0 and 1 vanished; tail arrives alone
        checker.on_event(*_eject(1, 2, tail=True))
        with pytest.raises(InvariantViolation, match="only 1 of 3"):
            checker.finish()

    def test_double_exit_raises_at_finish(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, 0, size=1)])
        checker.on_event(*_eject(1, 0, tail=True))
        checker.on_event(
            "flit_lost", 6, {"link": "l", "msg": 1, "flit": 0, "down": False}
        )
        with pytest.raises(InvariantViolation, match="exited twice"):
            checker.finish()

    def test_nonmonotone_crossbar_progress_raises(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        xbar = lambda flit: (
            "xbar",
            2,
            {
                "router": 0,
                "port": 0,
                "vc": 0,
                "out_port": 1,
                "out_vc": 0,
                "msg": 1,
                "flit": flit,
            },
        )
        checker.on_event(*xbar(0))
        with pytest.raises(InvariantViolation, match="monotone"):
            checker.on_event(*xbar(2))

    def test_release_without_grant_raises(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="without a matching grant"):
            checker.on_event(
                "vc_release", 3, {"router": 0, "port": 1, "vc": 0, "msg": 9}
            )

    def test_grant_then_release_passes(self):
        checker = InvariantChecker()
        checker.on_event(
            "vc_alloc", 2, {"router": 0, "port": 1, "vc": 0, "msg": 9}
        )
        checker.on_event(
            "vc_release", 3, {"router": 0, "port": 1, "vc": 0, "msg": 9}
        )

    def test_lost_flits_balance_the_ledger(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        for flit in range(3):
            checker.on_event(
                "flit_lost",
                4,
                {"link": "l", "msg": 1, "flit": flit, "down": True},
            )
        checker.finish()

    def test_purge_balances_the_ledger(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        # 5 dropped in total, 2 of them still queued in the NI: only the
        # 3 on-wire flits count against the sent ledger
        checker.on_event("purge", 4, {"msg": 1, "dropped": 5, "ni": 2})
        checker.finish()

    def test_purge_with_bad_ni_split_raises(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="ni"):
            checker.on_event("purge", 4, {"msg": 1, "dropped": 2, "ni": 3})

    def test_in_flight_flits_tolerated_without_network(self):
        checker = InvariantChecker()
        _feed(checker, [_inject(1, i) for i in range(3)])
        checker.on_event(*_eject(1, 0))
        checker.finish()  # 2 in flight; no network to audit against


class TestInvariantCheckerLive:
    """The checker riding a real network via the conftest passthrough."""

    def test_clean_run_passes_with_structural_audit(self):
        checker = InvariantChecker(credit_interval=16)
        network = make_network(trace_sink=checker)
        checker.network = network
        for dst in (1, 2, 3):
            network.inject_now(make_message(src=0, dst=dst, size=5))
        deliver_all(network)
        checker.finish()
        assert checker.events_seen > 0
        assert checker.checks_run > 0

    def test_finish_audits_undrained_network(self):
        checker = InvariantChecker()
        network = make_network(trace_sink=checker)
        network.inject_now(make_message(size=6))
        network.run(3)  # worm still mid-flight
        checker.finish(network)

    def test_corrupted_credit_counter_is_caught(self):
        checker = InvariantChecker()
        network = make_network(trace_sink=checker)
        network.inject_now(make_message(size=6))
        network.run(3)
        # sabotage one NI-side credit counter
        ni = network.interfaces[0]
        ni.vcs[0].credits += 1
        with pytest.raises(InvariantViolation, match="credit drift"):
            checker.finish(network)


class TestValidatorCli:
    """``python -m repro.obs`` — the trace-smoke schema gate."""

    def _write(self, path, records):
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def test_valid_file_passes(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [
                {"kind": "flit_inject", "cycle": 0, "node": 0, "vc": 0,
                 "msg": 1, "flit": 0, "size": 4, "cls": "vbr"},
                {"kind": "flit_eject", "cycle": 5, "node": 1, "msg": 1,
                 "flit": 0, "tail": False},
            ],
        )
        assert main([str(path), "--digest"]) == 0
        out = capsys.readouterr().out
        assert "2 events, all valid" in out
        assert "digest:" in out

    def test_bad_record_fails_with_line_number(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "t.jsonl"
        self._write(path, [{"kind": "no_such_kind", "cycle": 0}])
        assert main([str(path)]) == 1
        assert ":1:" in capsys.readouterr().err
