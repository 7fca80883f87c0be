"""Tests for the coordinator service's write-ahead log (repro.serve.wal)."""

import json
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.server import replay_wal
from repro.serve.wal import (
    SEGMENT_HEADER,
    WAL_FORMAT_VERSION,
    WalCorruptionError,
    WalFormatError,
    WriteAheadLog,
    iter_wal_records,
    read_wal,
    wal_segments,
)
from repro.serve.wire import ProtocolError, pack_record, unpack_record


def records(n, start=0):
    return [{"task_id": i, "value": float(i) * 1.5} for i in
            range(start, start + n)]


def wire_report(i):
    """A report of the canonical wire shape (packed behind tag 0x01)."""
    return {
        "task_id": i, "client_id": f"bus-{i % 3}", "network": "NetA",
        "kind": "ping", "start_s": 60.0 * i, "end_s": 60.0 * i + 12.0,
        "lat": 43.07 + i * 1e-4, "lon": -89.40, "speed_ms": 8.5,
        "value": 0.12 + i * 1e-3, "samples": [0.1, 0.12, 0.14][: i % 4],
        "extras": {"loss": 0.0} if i % 2 else {},
    }


def record_offsets(segment):
    """Byte offset of every record in a framed segment, in order."""
    data = open(segment, "rb").read()
    offsets, offset = [], len(SEGMENT_HEADER)
    while offset < len(data):
        offsets.append(offset)
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 12 + length
    return offsets


def write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


class TestAppendAndReplay:
    def test_round_trip_in_order(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            seqs = [wal.append(r) for r in records(10)]
        assert seqs == list(range(10))
        assert list(iter_wal_records(wal_dir)) == records(10)

    def test_record_format(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        report = wire_report(1)
        with WriteAheadLog(wal_dir) as wal:
            wal.append(report)
            wal.append({"a": 1})
        (segment,) = wal_segments(wal_dir)
        data = open(segment, "rb").read()
        assert data[:6] == SEGMENT_HEADER == b"\x00RWAL\x02"
        offset, payloads = 6, []
        while offset < len(data):
            length, payload_crc, head_crc = struct.unpack_from(
                ">III", data, offset)
            assert head_crc == zlib.crc32(data[offset:offset + 8])
            payload = data[offset + 12:offset + 12 + length]
            assert payload_crc == zlib.crc32(payload)
            payloads.append(payload)
            offset += 12 + length
        assert offset == len(data)
        packed, fallback = payloads
        #: A canonical report is packed behind tag 0x01 ...
        assert packed[:1] == b"\x01"
        assert packed == pack_record(report)
        assert unpack_record(packed) == report
        #: ... anything else is canonical JSON behind tag 0x00.
        assert fallback == b'\x00{"a":1}'

    def test_reopen_continues_sequence(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            for r in records(5):
                wal.append(r)
        with WriteAheadLog(wal_dir) as wal:
            assert wal.records_logged == 5
            assert wal.append({"task_id": 5}) == 5
        assert len(list(iter_wal_records(wal_dir))) == 6

    def test_reopen_starts_fresh_segment(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"a": 1})
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"b": 2})
        assert len(wal_segments(wal_dir)) == 2

    def test_empty_dir(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        assert list(iter_wal_records(wal_dir)) == []
        assert wal_segments(wal_dir) == []


class TestRecordBytesAcrossCodecs:
    """A report packs to the same record bytes whichever codec carried
    it: a JSON round trip sorts extras and canonicalizes NaN, and so
    does the packing."""

    def test_extras_order_does_not_change_bytes(self):
        a, b = wire_report(1), wire_report(1)
        a["extras"] = {"loss": 0.5, "jitter": 2.0}
        b["extras"] = {"jitter": 2.0, "loss": 0.5}
        assert pack_record(a) == pack_record(b)
        assert pack_record(a)[:1] == b"\x01"

    def test_nan_payload_bits_are_canonical(self):
        odd_nan = struct.unpack(
            ">d", struct.pack(">Q", 0xFFF8000000000001))[0]
        report = wire_report(2)
        report["value"] = odd_nan
        report["samples"] = [0.5, odd_nan]
        report["extras"] = {"loss": odd_nan}
        via_json = json.loads(json.dumps(report))
        assert pack_record(report)[:1] == b"\x01"
        assert (WriteAheadLog.encode_record(report)
                == WriteAheadLog.encode_record(via_json))


class TestRotationAndFsync:
    def test_rotates_at_segment_max_bytes(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir, segment_max_bytes=200) as wal:
            for r in records(20):
                wal.append(r)
        assert wal.segments_rotated >= 2
        assert len(wal_segments(wal_dir)) == wal.segments_rotated + 1
        # Rotation never splits or drops a record.
        assert list(iter_wal_records(wal_dir)) == records(20)

    def test_fsync_batching(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal"), fsync_every=4) as wal:
            for r in records(10):
                wal.append(r)
            assert wal.fsyncs == 2  # after records 4 and 8
        assert wal.fsyncs == 3  # close() syncs the pending tail

    def test_invalid_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "a"), segment_max_bytes=0)
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "b"), fsync_every=0)
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "c"), fsync_interval_s=-1.0)


class TestGroupCommit:
    def test_append_many_returns_contiguous_seqs(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            seqs = wal.append_many(records(8))
            more = wal.append_many(records(3, start=8))
        assert seqs == list(range(8))
        assert more == [8, 9, 10]
        assert list(iter_wal_records(wal_dir)) == records(11)

    def test_append_many_is_one_group_commit(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal"),
                           fsync_every=100) as wal:
            wal.append_many(records(50))
            assert wal.group_commits == 1
            assert wal.fsyncs == 0  # below the count threshold
            wal.append_many(records(60, start=50))
            assert wal.group_commits == 2
            assert wal.fsyncs == 1  # 110 pending >= 100 tripped once

    def test_append_many_empty_is_noop(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal")) as wal:
            assert wal.append_many([]) == []
            assert wal.group_commits == 0

    def test_time_axis_fsync(self, tmp_path):
        import time as time_mod

        with WriteAheadLog(str(tmp_path / "wal"), fsync_every=10_000,
                           fsync_interval_s=0.01) as wal:
            wal.append(records(1)[0])
            assert wal.fsyncs == 0
            time_mod.sleep(0.02)
            #: Next append finds the oldest pending record past the
            #: window and forces the fsync the count axis never would.
            wal.append(records(1, start=1)[0])
            assert wal.fsyncs == 1

    def test_commit_policy_property(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal"), fsync_every=7,
                           fsync_interval_s=0.5,
                           segment_max_bytes=1234) as wal:
            assert wal.commit_policy == {
                "fsync_every": 7,
                "fsync_interval_s": 0.5,
                "segment_max_bytes": 1234,
            }

    def test_rotation_mid_batch_stream_keeps_every_record(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir, segment_max_bytes=150) as wal:
            for lo in range(0, 30, 5):
                wal.append_many(records(5, start=lo))
        assert wal.segments_rotated >= 2
        assert list(iter_wal_records(wal_dir)) == records(30)

    def test_torn_batched_write_repairs_like_single_appends(self, tmp_path):
        """A torn append_many tail is the same legal shape (prefix of
        complete records + one partial line) the repair already fixes."""
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append_many(records(6))
        seg = wal_segments(wal_dir)[-1]
        with open(seg, "rb") as fh:
            data = fh.read()
        with open(seg, "wb") as fh:
            fh.write(data[:-9])  # tear into the final record
        assert list(iter_wal_records(wal_dir)) == records(5)
        with WriteAheadLog(wal_dir) as wal:
            wal.append_many(records(2, start=6))
        assert list(iter_wal_records(wal_dir)) == records(5) + \
            records(2, start=6)


class TestCrashDamage:
    def fill(self, tmp_path, n=6, **kwargs):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir, **kwargs) as wal:
            for r in records(n):
                wal.append(r)
        return wal_dir

    #: What a crash mid-write leaves: a prefix of one more record.
    TORN = WriteAheadLog.encode_record({"torn": True})[:-5]

    def test_torn_tail_in_final_segment_is_tolerated(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        with open(segment, "ab") as fh:
            fh.write(self.TORN)
        assert list(iter_wal_records(wal_dir)) == records(6)

    def test_torn_record_header_in_final_segment_is_tolerated(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        with open(segment, "ab") as fh:
            fh.write(self.TORN[:7])  # crash inside the 12-byte header
        assert list(iter_wal_records(wal_dir)) == records(6)

    def test_crc_mismatch_on_final_record_is_tolerated(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        #: A complete record, header intact, whose payload no longer
        #: matches its CRC: a torn write that still reached full length.
        record = bytearray(WriteAheadLog.encode_record({"torn": True}))
        record[-2] ^= 0xFF
        with open(segment, "ab") as fh:
            fh.write(bytes(record))
        assert list(iter_wal_records(wal_dir)) == records(6)

    def test_mid_segment_corruption_raises(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        data = bytearray(open(segment, "rb").read())
        third = record_offsets(segment)[2]
        data[third + 14] ^= 0xFF  # a payload byte of record 3 of 6
        write_bytes(segment, bytes(data))
        with pytest.raises(WalCorruptionError, match="bad record 3"):
            list(iter_wal_records(wal_dir))

    @pytest.mark.parametrize("length", [3, 0xFFFFFF00])
    def test_corrupt_length_mid_segment_raises(self, tmp_path, length):
        """A length pointing past EOF would pass for a torn tail; the
        header checksum makes it corruption instead."""
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        data = bytearray(open(segment, "rb").read())
        second = record_offsets(segment)[1]
        struct.pack_into(">I", data, second, length)
        write_bytes(segment, bytes(data))
        with pytest.raises(WalCorruptionError, match="corrupt header"):
            list(iter_wal_records(wal_dir))
        with pytest.raises(WalCorruptionError, match="corrupt header"):
            WriteAheadLog(wal_dir)
        assert open(segment, "rb").read() == bytes(data)

    def test_torn_non_final_segment_raises(self, tmp_path):
        wal_dir = self.fill(tmp_path, n=20, segment_max_bytes=200)
        first = wal_segments(wal_dir)[0]
        with open(first, "ab") as fh:
            fh.write(self.TORN)
        with pytest.raises(WalCorruptionError, match="non-final"):
            list(iter_wal_records(wal_dir))

    def test_reopen_repairs_torn_tail(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        size_before = os.path.getsize(segment)
        with open(segment, "ab") as fh:
            fh.write(self.TORN)
        with WriteAheadLog(wal_dir) as wal:
            assert wal.records_logged == 6
            wal.append({"task_id": 6})
        # The torn bytes were truncated away, not left for replay.
        assert os.path.getsize(segment) == size_before
        assert len(list(iter_wal_records(wal_dir))) == 7


class TestMeta:
    def test_meta_round_trip(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.write_meta({"seed": 7, "gen_seed": 1, "radius_m": 250.0})
            wal.append({"a": 1})
        recs, meta = read_wal(wal_dir)
        assert recs == [{"a": 1}]
        assert meta == {"seed": 7, "gen_seed": 1, "radius_m": 250.0,
                        "wal_format": WAL_FORMAT_VERSION}

    def test_meta_absent(self, tmp_path):
        assert WriteAheadLog.read_meta(str(tmp_path)) is None


class TestOldFormatRefused:
    """A WAL written in the line format is refused, and never repaired."""

    @staticmethod
    def line_format_dir(tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        lines = b""
        for record in records(3):
            payload = json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode()
            lines += b"%08x %s\n" % (zlib.crc32(payload), payload)
        #: A torn tail: the shape the old repair would have truncated.
        lines += b"deadbeef {\"torn\":"
        (wal_dir / "wal-00000001.log").write_bytes(lines)
        (wal_dir / "wal_meta.json").write_text(
            '{"gen_seed": 1, "radius_m": 250.0, "seed": 7}\n')
        return str(wal_dir), lines

    def test_line_format_segment_refused_bytes_unchanged(self, tmp_path):
        wal_dir, before = self.line_format_dir(tmp_path)
        (segment,) = wal_segments(wal_dir)
        for open_or_replay in (WriteAheadLog,
                               lambda d: list(iter_wal_records(d)),
                               replay_wal):
            with pytest.raises(WalFormatError, match="line format"):
                open_or_replay(wal_dir)
            assert open(segment, "rb").read() == before
        assert wal_segments(wal_dir) == [segment]

    @pytest.mark.parametrize("command", [["serve", "replay", "--wal"],
                                         ["store", "import", "db.sqlite"]])
    def test_cli_refuses_line_format(self, tmp_path, capsys, command):
        from repro.cli import main

        wal_dir, before = self.line_format_dir(tmp_path)
        command = [str(tmp_path / a) if a.endswith(".sqlite") else a
                   for a in command]
        assert main(command + [wal_dir]) == 1
        assert "line format" in capsys.readouterr().err
        assert open(wal_segments(wal_dir)[0], "rb").read() == before

    def test_unknown_format_version_refused(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"a": 1})
        (segment,) = wal_segments(wal_dir)
        data = bytearray(open(segment, "rb").read())
        data[5] = WAL_FORMAT_VERSION + 1
        write_bytes(segment, bytes(data))
        with pytest.raises(WalFormatError, match="version"):
            WriteAheadLog(wal_dir)
        assert open(segment, "rb").read() == bytes(data)

    def test_format_error_is_a_corruption_error(self):
        assert issubclass(WalFormatError, WalCorruptionError)


#: The valid multi-record segment every fuzz case mutates: packed
#: reports and JSON-fallback records interleaved, NaN included.
FUZZ_RECORDS = [wire_report(i) if i % 3 else {"task_id": i, "odd": [i]}
                for i in range(9)]
FUZZ_RECORDS[4]["value"] = float("nan")


def canonical(record):
    return json.dumps(record, sort_keys=True)


def fuzz_segment():
    with tempfile.TemporaryDirectory() as tmp:
        with WriteAheadLog(tmp) as wal:
            wal.append_many(FUZZ_RECORDS)
        (segment,) = wal_segments(tmp)
        return open(segment, "rb").read()


FUZZ_SEGMENT = fuzz_segment()


@st.composite
def damaged_segments(draw):
    """The fuzz segment after 1-3 truncations, bit flips or appends."""
    data = bytearray(FUZZ_SEGMENT)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "append"]))
        if op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data[i] ^= 1 << draw(st.integers(0, 7))
        else:
            data += draw(st.binary(min_size=1, max_size=40))
    return bytes(data)


class TestSegmentFuzz:
    """Hostile segment bytes: a prefix of what was appended, then a
    quiet stop or one WalCorruptionError — never another exception."""

    def test_clean_segment_yields_every_record(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_bytes(os.path.join(tmp, "wal-00000001.log"),
                        FUZZ_SEGMENT)
            got = [canonical(r) for r in iter_wal_records(tmp)]
        assert got == [canonical(r) for r in FUZZ_RECORDS]

    @given(damaged_segments())
    @settings(max_examples=300, deadline=None)
    def test_damaged_segment_yields_a_prefix_or_raises(self, data):
        got = []
        with tempfile.TemporaryDirectory() as tmp:
            write_bytes(os.path.join(tmp, "wal-00000001.log"), data)
            try:
                for record in iter_wal_records(tmp):
                    got.append(canonical(record))
            except WalCorruptionError:
                pass
        assert got == [canonical(r) for r in FUZZ_RECORDS[:len(got)]]

    @given(st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"\x01" + b),
        st.binary(max_size=200).map(lambda b: b"\x00" + b),
    ))
    @settings(max_examples=300, deadline=None)
    def test_unpack_record_returns_dict_or_protocol_error(self, payload):
        try:
            record = unpack_record(payload)
        except ProtocolError:
            return
        assert isinstance(record, dict)

    @given(st.integers(0, 10_000), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_unpack_record_bit_flips(self, index, bit):
        payload = bytearray(pack_record(wire_report(5)))
        payload[index % len(payload)] ^= 1 << bit
        try:
            record = unpack_record(bytes(payload))
        except ProtocolError:
            return
        assert isinstance(record, dict)
