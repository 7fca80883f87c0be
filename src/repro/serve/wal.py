"""Write-ahead log for the coordinator service's ingest path.

Every report the server admits past backpressure is appended here
*before* it touches the coordinator, so a crashed server can rebuild the
exact coordinator state by replaying the log into a fresh
:class:`~repro.core.controller.MeasurementCoordinator` (rejected reports
are logged too — replay re-runs the same validator deterministically, so
the rejection counters survive a restart byte-for-byte).

Layout and record format
------------------------

A WAL directory holds numbered append-only segments plus a small
metadata file::

    WAL_DIR/
      wal_meta.json        how to rebuild the coordinator (seed, grid, ...)
                           and the record format (``wal_format``)
      wal-00000001.log     records 0..k
      wal-00000002.log     records k+1.. (rotated at segment_max_bytes)

Each segment starts with the 6-byte header ``\x00RWAL`` + format
version (:data:`WAL_FORMAT_VERSION`), then holds framed records::

    >I payload length | >I crc32(payload) | >I crc32(first 8 bytes) | payload

The payload is :func:`repro.serve.wire.pack_record`'s output: tag
``0x01`` plus the report struct-packed exactly as the binary frame codec
packs it, or tag ``0x00`` plus canonical JSON for a record that does not
fit that layout.  A report therefore appends the same bytes whether it
arrived as JSON or as binary.  The header's own checksum tells a corrupt
length field apart from a record cut short by a crash.  A segment
written in the older line format (``<crc32 hex> <JSON>\n``) is refused
with :class:`WalFormatError` and left untouched.

Appends go through a buffered file
handle that is ``flush()``-ed to the OS before the append (or batch
of appends — see below) returns, so a killed *process* loses nothing
already acknowledged, and ``fsync()``-ed under the **group-commit
policy** — every ``fsync_every`` records *or* every
``fsync_interval_s`` seconds of pending appends, whichever trips
first, plus at rotation/close (bounding what a killed *machine* can
lose).  :meth:`WriteAheadLog.append_many` stages a whole batch with a
single buffered write and a single flush, which is what the server's
ingest writer leans on: one group commit per queue drain instead of
one flush per report.  Replay walks segments in order and verifies
every checksum; a torn or bad record is only legal as the final
record of the final segment — exactly what a mid-write crash produces
(a torn batched write persists a prefix of complete records plus at
most one partial record, which is the same shape) — and recovery stops
there.  Corruption anywhere else, a corrupt record header included,
raises :class:`WalCorruptionError` loudly instead of silently dropping
data.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.serve.wire import ProtocolError, pack_record, unpack_record

__all__ = [
    "WAL_META_FILENAME",
    "WAL_FORMAT_VERSION",
    "SEGMENT_PREFIX",
    "SEGMENT_HEADER",
    "WalCorruptionError",
    "WalFormatError",
    "WriteAheadLog",
    "iter_wal_records",
    "read_wal",
    "wal_segments",
]

WAL_META_FILENAME = "wal_meta.json"
SEGMENT_PREFIX = "wal-"
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

#: Record format written by this build.  Version 1 was the line format
#: (``<crc32 hex> <JSON>\n``, no segment header); this build reads and
#: writes version 2 only.
WAL_FORMAT_VERSION = 2

#: Every segment opens with this: a magic that no line-format segment
#: can start with (those begin with a hex digit), then the version.
SEGMENT_MAGIC = b"\x00RWAL"
SEGMENT_HEADER = SEGMENT_MAGIC + bytes((WAL_FORMAT_VERSION,))

#: Record header: payload length, crc32(payload), then crc32 of those
#: first 8 bytes — so a corrupt length is caught, not read as a tear.
_RECORD_HEAD = struct.Struct(">III")
_pack_len_crc = struct.Struct(">II").pack
_pack_u32 = struct.Struct(">I").pack
_crc32 = zlib.crc32

#: How a line-format (version 1) segment starts: 8 hex digits, a space.
_LINE_FORMAT_RE = re.compile(rb"[0-9a-f]{8} ")
#: Bytes of a segment's start that tell its format.
_FORMAT_PROBE_BYTES = 9

#: Default segment rotation threshold (bytes of records per segment).
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

#: Default fsync batch: one fsync per this many appended records.
DEFAULT_FSYNC_EVERY = 64

#: Default fsync time window (seconds): pending appends older than this
#: are fsynced even when the count threshold has not tripped.  0
#: disables the time axis (count-only policy — the PR-5 behavior).
DEFAULT_FSYNC_INTERVAL_S = 0.0


class WalCorruptionError(Exception):
    """A CRC/parse failure anywhere a crash could not have produced it."""


class WalFormatError(WalCorruptionError):
    """A segment in a record format this build does not read.

    Raised before any repair, so the refused segment's bytes are left
    as they were; replay it with the build that wrote it.
    """


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}.log"


def wal_segments(wal_dir: str) -> List[str]:
    """Sorted absolute paths of the directory's WAL segments."""
    try:
        names = os.listdir(wal_dir)
    except OSError:
        return []
    out = [n for n in names if _SEGMENT_RE.match(n)]
    return [os.path.join(wal_dir, n) for n in sorted(out)]


class WriteAheadLog:
    """Append-only, CRC-checked, segment-rotated durable report log."""

    def __init__(
        self,
        wal_dir: str,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        fsync_interval_s: float = DEFAULT_FSYNC_INTERVAL_S,
    ):
        if segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be >= 1")
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if fsync_interval_s < 0:
            raise ValueError("fsync_interval_s must be >= 0")
        self.wal_dir = wal_dir
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync_every = int(fsync_every)
        self.fsync_interval_s = float(fsync_interval_s)
        os.makedirs(wal_dir, exist_ok=True)
        existing = wal_segments(wal_dir)
        if existing:
            #: A previous crash may have torn the last segment's tail.
            #: Truncate it back to its last valid record so every closed
            #: segment is clean — appends then continue in a fresh
            #: segment and replay never meets a torn non-final segment.
            #: A segment in another record format is refused before
            #: the repair could truncate anything of it.
            _repair_tail(existing[-1])
            last = os.path.basename(existing[-1])
            self._segment_index = int(_SEGMENT_RE.match(last).group(1)) + 1
            self.records_logged = sum(
                sum(1 for _ in _scan_segment(path, i == len(existing) - 1))
                for i, path in enumerate(existing)
            )
        else:
            self._segment_index = 1
            self.records_logged = 0
        self.segments_rotated = 0
        self.fsyncs = 0
        self.group_commits = 0
        self._since_fsync = 0
        self._oldest_pending_t: Optional[float] = None
        self._fh = None
        self._fh_bytes = 0

    # -- writing ---------------------------------------------------------

    def _open_segment(self) -> None:
        path = os.path.join(self.wal_dir, _segment_name(self._segment_index))
        self._fh = open(path, "ab")
        self._fh_bytes = self._fh.tell()
        if self._fh_bytes == 0:
            #: Buffered: it reaches the OS with the first records.
            self._fh.write(SEGMENT_HEADER)
            self._fh_bytes = len(SEGMENT_HEADER)

    @staticmethod
    def encode_record(record: Dict[str, Any]) -> bytes:
        """One record dict -> its framed, checksummed WAL record bytes."""
        payload = pack_record(record)
        head = _pack_len_crc(len(payload), _crc32(payload))
        return head + _pack_u32(_crc32(head)) + payload

    def append(self, record: Dict[str, Any]) -> int:
        """Durably stage one record; returns its log sequence number.

        The record is written and flushed to the OS before returning
        (process-crash safe); fsync happens under the group-commit
        policy — every ``fsync_every`` appends or ``fsync_interval_s``
        seconds, whichever trips first (machine-crash window is
        bounded, not zero).
        """
        return self.append_many((record,))[0]

    def append_many(self, records: Sequence[Dict[str, Any]]) -> List[int]:
        """Group-commit a batch of records with ONE write and ONE flush.

        Returns the log sequence number of every record, in order.  The
        whole batch is flushed to the OS before returning — an ACK sent
        after this call is process-crash safe for every record in it —
        and the fsync policy is evaluated once for the batch, so a
        thousand-report drain costs one flush and at most one fsync
        instead of a thousand.
        """
        if not records:
            return []
        if self._fh is None:
            self._open_segment()
        blob = b"".join(map(self.encode_record, records))
        self._fh.write(blob)
        self._fh.flush()
        seq_lo = self.records_logged
        self.records_logged += len(records)
        self._fh_bytes += len(blob)
        if self._since_fsync == 0:
            self._oldest_pending_t = time.monotonic()
        self._since_fsync += len(records)
        self.group_commits += 1
        self.maybe_sync()
        if self._fh_bytes >= self.segment_max_bytes:
            self._rotate()
        return list(range(seq_lo, seq_lo + len(records)))

    def maybe_sync(self) -> None:
        """fsync if the group-commit policy says the window is over.

        The count axis (``fsync_every``) and the time axis
        (``fsync_interval_s``, when non-zero) are ORed: whichever
        trips first forces the fsync.
        """
        if self._since_fsync >= self.fsync_every:
            self.sync()
        elif (
            self.fsync_interval_s > 0
            and self._since_fsync > 0
            and self._oldest_pending_t is not None
            and time.monotonic() - self._oldest_pending_t
            >= self.fsync_interval_s
        ):
            self.sync()

    def sync(self) -> None:
        """fsync the active segment (no-op when nothing is pending)."""
        if self._fh is None or self._since_fsync == 0:
            return
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._since_fsync = 0
        self._oldest_pending_t = None

    @property
    def commit_policy(self) -> Dict[str, Any]:
        """The group-commit knobs, JSON-ready (recorded in wal_meta)."""
        return {
            "fsync_every": self.fsync_every,
            "fsync_interval_s": self.fsync_interval_s,
            "segment_max_bytes": self.segment_max_bytes,
        }

    def _rotate(self) -> None:
        self.sync()
        self._fh.close()
        self._fh = None
        self._segment_index += 1
        self.segments_rotated += 1

    def close(self) -> None:
        """fsync and close the active segment (idempotent)."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- metadata --------------------------------------------------------

    def write_meta(self, meta: Dict[str, Any]) -> None:
        """Persist ``wal_meta.json`` (how to rebuild the coordinator).

        The record format this log writes is stamped in as
        ``wal_format``.
        """
        path = os.path.join(self.wal_dir, WAL_META_FILENAME)
        tmp = path + ".tmp"
        meta = dict(meta, wal_format=WAL_FORMAT_VERSION)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @staticmethod
    def read_meta(wal_dir: str) -> Optional[Dict[str, Any]]:
        """Load ``wal_meta.json`` from a WAL directory (None if absent)."""
        path = os.path.join(wal_dir, WAL_META_FILENAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError:
            return None


def _check_format(name: str, head: bytes) -> None:
    """Raise :class:`WalFormatError` if a segment's first bytes ``head``
    show another record format."""
    if _LINE_FORMAT_RE.match(head):
        raise WalFormatError(
            f"{name}: segment is in the line format of an older build; "
            "this build refuses it (replay it with the build that wrote "
            "it)"
        )
    if (head.startswith(SEGMENT_MAGIC) and len(head) >= len(SEGMENT_HEADER)
            and not head.startswith(SEGMENT_HEADER)):
        raise WalFormatError(
            f"{name}: segment has record format version "
            f"{head[len(SEGMENT_MAGIC)]}; "
            f"this build reads version {WAL_FORMAT_VERSION} only"
        )


def _scan_segment(path: str, final: bool) -> Iterator[Tuple[memoryview,
                                                             int]]:
    """Yield ``(payload, end offset)`` of each intact record in a segment.

    Stops quietly at the damage a crash can leave, which is legal only
    when ``final`` (the last segment): a torn segment header, a record
    header or payload cut short, or a complete final record whose
    payload fails its CRC.  Anything else raises
    :class:`WalCorruptionError`, and a segment in another record
    format raises :class:`WalFormatError`.
    """
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        data = fh.read()
    _check_format(name, data[:_FORMAT_PROBE_BYTES])
    if not data.startswith(SEGMENT_HEADER):
        if not data or (final and SEGMENT_HEADER.startswith(data)):
            return  # empty, or a header torn by a crash
        raise WalCorruptionError(f"{name}: bad segment header")
    view = memoryview(data)
    size = len(data)
    crc32 = _crc32
    unpack_head = _RECORD_HEAD.unpack_from
    offset = len(SEGMENT_HEADER)
    index = 0
    while offset < size:
        index += 1
        start = offset + _RECORD_HEAD.size
        if start > size:
            break  # torn record header
        length, payload_crc, head_crc = unpack_head(data, offset)
        if crc32(view[offset:offset + 8]) != head_crc:
            raise WalCorruptionError(
                f"{name}: corrupt header of record {index} at byte {offset}"
            )
        end = start + length
        if end > size:
            break  # torn payload
        payload = view[start:end]
        if crc32(payload) != payload_crc:
            if final and end == size:
                #: Final record of the final segment failed its CRC: a
                #: torn write that still reached its full length.
                return
            raise WalCorruptionError(
                f"{name}: bad record {index} at byte {offset}"
            )
        yield payload, end
        offset = end
    if offset < size and not final:
        raise WalCorruptionError(
            f"{name}: torn record in a non-final segment"
        )


def _repair_tail(segment_path: str) -> None:
    """Truncate a segment to its last valid record (crash-tail repair)."""
    good_end = 0
    for _, good_end in _scan_segment(segment_path, final=True):
        pass
    size = os.path.getsize(segment_path)
    if good_end == 0 and size >= len(SEGMENT_HEADER):
        good_end = len(SEGMENT_HEADER)  # a header and no intact record
    if good_end < size:
        with open(segment_path, "ab") as fh:
            fh.truncate(good_end)


def iter_wal_records(wal_dir: str) -> Iterator[Dict[str, Any]]:
    """Yield every record across segments, in append order.

    Tolerates exactly the damage a crash can cause: a torn or truncated
    *final* record of the *final* segment (replay stops there).  A bad
    record anywhere else — mid-segment, or in a non-final segment —
    raises :class:`WalCorruptionError`; a segment in another record
    format raises :class:`WalFormatError`.
    """
    segments = wal_segments(wal_dir)
    for seg_i, path in enumerate(segments):
        final = seg_i == len(segments) - 1
        for payload, end in _scan_segment(path, final):
            try:
                record = unpack_record(payload)
            except ProtocolError as exc:
                raise WalCorruptionError(
                    f"{os.path.basename(path)}: undecodable record ending "
                    f"at byte {end}: {exc}"
                ) from None
            yield record


def read_wal(wal_dir: str) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """All records plus the metadata dict for a WAL directory."""
    return list(iter_wal_records(wal_dir)), WriteAheadLog.read_meta(wal_dir)
