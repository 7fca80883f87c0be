"""Tests for the structured JSONL event log."""

import json

from repro.obs.events import (
    NULL_EVENT_LOG,
    SCHEMA_VERSION,
    EventLog,
    read_json_tolerant,
    read_jsonl_tolerant,
)


class TestEmit:
    def test_record_shape_and_sequence(self):
        log = EventLog()
        log.emit("epoch.close", 120.0, zone=[1, 2], n=5)
        log.emit("task.issue", 180.0, client="bus-0")
        records = log.events()
        assert records[0]["v"] == SCHEMA_VERSION
        assert records[0]["seq"] == 0 and records[1]["seq"] == 1
        assert records[0]["t"] == 120.0
        assert records[0]["zone"] == [1, 2]
        assert len(log) == 2

    def test_filter_by_kind_and_counts(self):
        log = EventLog()
        log.emit("a", 1.0)
        log.emit("b", 2.0)
        log.emit("a", 3.0)
        assert len(log.events("a")) == 2
        assert log.counts_by_kind() == {"a": 2, "b": 1}

    def test_capacity_drops_oldest(self):
        log = EventLog(capacity=2)
        for k in range(4):
            log.emit("e", float(k))
        assert len(log) == 2
        assert log.dropped == 2
        assert [e["t"] for e in log.events()] == [2.0, 3.0]


class TestSerialization:
    def test_jsonl_is_canonical(self):
        log = EventLog()
        log.emit("z.kind", 5.0, b=1, a=2)
        line = log.to_jsonl().strip()
        # keys sorted, compact separators: byte-stable representation
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert line.index('"a"') < line.index('"b"')

    def test_write_and_read_roundtrip(self, tmp_path):
        log = EventLog()
        log.emit("x", 1.0, v2=True)
        path = tmp_path / "events.jsonl"
        log.write_jsonl(path)
        back, n_bad = read_jsonl_tolerant(str(path))
        assert back == log.events()
        assert n_bad == 0

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind":"a","t":1.0}\n\n  \n{"kind":"b","t":2.0}\n')
        records, n_bad = read_jsonl_tolerant(path)
        assert [e["kind"] for e in records] == ["a", "b"]
        assert n_bad == 0

    def test_read_counts_deep_and_non_object_lines_as_bad(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind":"a"}\n' + "[" * 200000 + "\n[1, 2]\n"
                        + '{"kind":"b"}\n')
        records, n_bad = read_jsonl_tolerant(path)
        assert [e["kind"] for e in records] == ["a", "b"]
        assert n_bad == 2


class TestReadJsonFile:
    def test_object_round_trips(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a": [1, 2]}')
        assert read_json_tolerant(path) == ({"a": [1, 2]}, "")

    def test_failures_become_reasons(self, tmp_path):
        cases = {
            "deep.json": "[" * 200000,
            "bad.json": "{not json",
            "list.json": "[1, 2]",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            record, why = read_json_tolerant(path)
            assert record is None and why, name
        record, why = read_json_tolerant(tmp_path / "missing.json")
        assert record is None and "No such file" in why


class TestNullEventLog:
    def test_records_nothing(self):
        NULL_EVENT_LOG.emit("x", 1.0, field=3)
        assert len(NULL_EVENT_LOG) == 0
        assert NULL_EVENT_LOG.events() == []
        assert NULL_EVENT_LOG.to_jsonl() == ""
