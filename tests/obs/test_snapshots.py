"""Tests for the streaming snapshot layer."""

import json

import pytest

from repro.obs.events import EventLog, read_jsonl_tolerant
from repro.obs.snapshots import SNAPSHOT_SCHEMA_VERSION, SnapshotStreamer
from repro.obs.telemetry import Telemetry
from repro.sim.engine import EventEngine


class TestCapture:
    def test_snapshot_shape_and_sequence(self):
        tel = Telemetry()
        tel.counter("c").inc(3)
        tel.gauge("g").set(1.5)
        streamer = SnapshotStreamer(tel, interval_s=10.0)
        snap = streamer.capture(10.0)
        assert snap["v"] == SNAPSHOT_SCHEMA_VERSION
        assert snap["seq"] == 0
        assert snap["t"] == 10.0
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 1.5
        snap2 = streamer.capture(20.0)
        assert snap2["seq"] == 1
        assert streamer.snapshots_taken == 2

    def test_monotone_t_guard(self):
        """Equal or earlier t is a no-op — the run-end flush is idempotent."""
        streamer = SnapshotStreamer(Telemetry(), interval_s=10.0)
        assert streamer.capture(10.0) is not None
        assert streamer.capture(10.0) is None
        assert streamer.capture(5.0) is None
        assert streamer.snapshots_taken == 1

    def test_providers_run_before_capture(self):
        tel = Telemetry()
        streamer = SnapshotStreamer(tel, interval_s=10.0)
        streamer.add_provider(lambda t: tel.gauge("fresh").set(t))
        snap = streamer.capture(30.0)
        assert snap["gauges"]["fresh"] == 30.0

    def test_subscribers_receive_each_snapshot(self):
        streamer = SnapshotStreamer(Telemetry(), interval_s=10.0)
        seen = []
        streamer.subscribe(seen.append)
        streamer.capture(10.0)
        streamer.capture(20.0)
        assert [s["t"] for s in seen] == [10.0, 20.0]
        streamer.unsubscribe(seen.append)
        streamer.capture(30.0)
        assert len(seen) == 2

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SnapshotStreamer(Telemetry(), interval_s=0.0)

    def test_counts_dropped_events(self):
        tel = Telemetry(events=EventLog(capacity=2))
        for i in range(5):
            tel.emit("e", float(i))
        snap = SnapshotStreamer(tel, interval_s=1.0).capture(10.0)
        assert snap["counters"]["obs.events_dropped"] == 3


class TestFileOutput:
    def test_writes_compact_jsonl(self, tmp_path):
        out = tmp_path / "deep" / "snapshots.jsonl"
        tel = Telemetry()
        tel.counter("c").inc()
        with SnapshotStreamer(tel, interval_s=10.0, out_path=out) as streamer:
            streamer.capture(10.0)
            streamer.capture(20.0)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert [r["t"] for r in rows] == [10.0, 20.0]
        # Compact sorted-key encoding: stable bytes across runs.
        assert lines[0] == json.dumps(
            rows[0], sort_keys=True, separators=(",", ":")
        )

    def test_read_snapshots_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        good = json.dumps({"v": 1, "seq": 0, "t": 1.0})
        path.write_text(good + "\n" + '{"v": 1, "seq": 1, "t":')
        snaps, n_bad = read_jsonl_tolerant(path)
        assert len(snaps) == 1
        assert n_bad == 1

    def test_read_snapshots_tolerates_mid_multibyte_truncation(self, tmp_path):
        # A concurrent writer can be caught mid-flush, splitting the
        # file inside a multi-byte UTF-8 sequence; the reader must skip
        # the torn tail, not raise UnicodeDecodeError.
        path = tmp_path / "snapshots.jsonl"
        good = json.dumps({"v": 1, "seq": 0, "t": 1.0}).encode()
        torn = '{"v": 1, "seq": 1, "note": "naïve"'.encode("utf-8")
        cut = torn.index(b"\xc3\xaf") + 1
        path.write_bytes(good + b"\n" + torn[:cut])
        snaps, n_bad = read_jsonl_tolerant(path)
        assert len(snaps) == 1
        assert n_bad == 1


class TestEngineAttach:
    def _run(self, hours_s=100.0, interval=10.0, tick_every=5.0):
        tel = Telemetry()
        engine = EventEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            tel.counter("ticks").inc()

        engine.schedule_every(tick_every, tick, until=hours_s)
        streamer = SnapshotStreamer(tel, interval_s=interval)
        captured = []
        streamer.subscribe(captured.append)
        streamer.attach(engine, until=hours_s)
        engine.run(until=hours_s)
        return captured

    def test_cadence(self):
        captured = self._run(hours_s=100.0, interval=10.0)
        assert [s["t"] for s in captured] == [
            pytest.approx(10.0 * k) for k in range(1, 11)
        ]

    def test_snapshots_observe_post_tick_state(self):
        """At a shared boundary the snapshot sees the tick that just ran."""
        captured = self._run(hours_s=100.0, interval=10.0, tick_every=5.0)
        for snap in captured:
            # Ticks at 5,10,...,t — the one AT t must already be counted.
            expected = int(snap["t"] // 5.0)
            assert snap["counters"]["ticks"] == expected

    def test_final_partial_interval_flushed(self):
        captured = self._run(hours_s=95.0, interval=10.0)
        # Periodic snapshots at 10..90, run hook flushes the tail at 95.
        assert captured[-1]["t"] == 95.0
        assert len(captured) == 10
