"""The coordinator service's versioned, length-prefixed wire protocol.

Every frame on the control channel is a 4-byte big-endian unsigned
length prefix followed by exactly that many bytes of payload, encoded
by the session's negotiated **codec**:

* ``json`` (the default, and the only pre-negotiation encoding) — one
  flat UTF-8 JSON object whose ``"type"`` key names the frame.  The
  encoding is canonical (sorted keys, compact separators), so a frame's
  bytes are a pure function of its message dict, and Python's
  repr-based float serialization round-trips every
  ``MeasurementReport`` field exactly — the property the WAL-replay
  byte-identity guarantee rests on.  ``NaN`` is allowed (a failed
  ping's primary value is NaN); both ends are this module, so the
  non-strict JSON extension is safe.
* ``binary`` (opt-in, negotiated in HELLO/WELCOME) — a tagged payload.
  REPORT_BATCH frames whose reports conform to the canonical report
  schema are struct-packed (IEEE-754 doubles, so every float —
  infinities and negative zero included — round-trips exactly, and a
  NaN arrives as the one NaN canonical JSON decodes to); every other
  message rides as canonical JSON behind a one-byte tag.  Decoding a
  binary payload reproduces the sender's message dict *exactly* (same
  keys, same value types).  The per-report packing is also the WAL's
  record payload (:func:`pack_record`), so a report appends the same
  WAL bytes whichever codec carried it.

HELLO and WELCOME are always JSON — a client offers ``"codecs"`` in
HELLO, the server picks one and names it in WELCOME, and both ends
switch for every subsequent frame (see DESIGN.md §10 for the
negotiation state machine).

Frame types (see DESIGN.md §10 for the session state machine):

============  ======================  =====================================
type          direction               purpose
============  ======================  =====================================
HELLO         client -> server        open a session (protocol ``v``, codecs)
WELCOME       server -> client        session accepted (id, limits, codec)
POLL          client -> server        position beacon asking for work
TASK          server -> client        a ``MeasurementTask`` to execute
REPORT        client -> server        a completed ``MeasurementReport``
REPORT_BATCH  client -> server        many reports, client seqs lo..lo+n-1
ACK           server -> client        report durably staged (WAL sequence)
ACK_BATCH     server -> client        range-ACK for a staged batch
RETRY         server -> client        ingest saturated; retry after a delay
PING/PONG     both                    heartbeat / "no task for you"
STATS         client -> server        ask for the server's metric snapshots
REDIRECT      server -> client        frame NOT processed; resend to shard X
MAP_UPDATE    supervisor -> shard     push a new cluster shard map
MAP_ACK       shard -> supervisor     shard map adopted (echoes version)
ERROR         server -> client        typed protocol error; session closes
BYE           both                    orderly close
============  ======================  =====================================

The three cluster frames (REDIRECT / MAP_UPDATE / MAP_ACK) are
additive: protocol version 1 is unchanged, and a single-node server
never emits them (see DESIGN.md §11 for the cluster state machine).

Malformed input never tracebacks a session: decoding raises one of the
typed :class:`WireError` subclasses below, which the session layer maps
to an ERROR frame (``code`` = the exception's wire code) followed by a
close.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional, Tuple

from repro.clients.protocol import (
    MeasurementReport,
    MeasurementTask,
    MeasurementType,
)
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "LENGTH_PREFIX",
    "FRAME_TYPES",
    "CODEC_JSON",
    "CODEC_BINARY",
    "SUPPORTED_CODECS",
    "WireError",
    "FrameTooLargeError",
    "TruncatedFrameError",
    "ProtocolError",
    "VersionMismatchError",
    "encode_frame",
    "decode_payload",
    "pack_record",
    "unpack_record",
    "read_frame",
    "task_to_wire",
    "task_from_wire",
    "report_to_wire",
    "report_from_wire",
]

#: Protocol version spoken by this build.  A HELLO carrying any other
#: version is answered with an ERROR(code="version-mismatch") and the
#: session is closed — there is exactly one version in the wild so far.
PROTOCOL_VERSION = 1

#: Hard ceiling on a frame's payload size.  A length prefix above this
#: is treated as a protocol violation (corrupt stream or hostile peer),
#: not an allocation request.
MAX_FRAME_BYTES = 1 << 20

#: The 4-byte big-endian unsigned length prefix.
LENGTH_PREFIX = struct.Struct(">I")

#: Frame payload codecs this build can negotiate.  ``json`` is the
#: canonical default (and the only legal encoding for HELLO/WELCOME);
#: ``binary`` struct-packs the REPORT_BATCH hot path.
CODEC_JSON = "json"
CODEC_BINARY = "binary"
SUPPORTED_CODECS = (CODEC_JSON, CODEC_BINARY)

#: Every frame type either end may legitimately send.
FRAME_TYPES = frozenset(
    {
        "HELLO", "WELCOME", "POLL", "TASK", "REPORT", "REPORT_BATCH",
        "ACK", "ACK_BATCH", "RETRY", "PING", "PONG", "STATS",
        "STATS_REPLY", "REDIRECT", "MAP_UPDATE", "MAP_ACK", "ERROR",
        "BYE",
    }
)


class WireError(Exception):
    """Base of every typed protocol failure.

    ``code`` is the machine-readable token carried by the ERROR frame a
    server answers with; ``detail`` is the human-readable elaboration.
    """

    code = "protocol-error"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class FrameTooLargeError(WireError):
    """Length prefix exceeds the negotiated maximum frame size."""

    code = "frame-too-large"


class TruncatedFrameError(WireError):
    """The stream ended mid-frame (partial prefix or partial payload)."""

    code = "truncated-frame"


class ProtocolError(WireError):
    """Payload is not a valid frame (bad JSON, wrong shape, bad type)."""

    code = "bad-frame"


class VersionMismatchError(WireError):
    """HELLO carried a protocol version this server does not speak."""

    code = "version-mismatch"


def encode_frame(message: Dict[str, Any],
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 codec: str = CODEC_JSON) -> bytes:
    """Serialize one message dict to its length-prefixed frame bytes.

    ``codec`` selects the payload encoding negotiated for the session
    (:data:`CODEC_JSON` pre-negotiation).  Raises :class:`ProtocolError`
    for a message without a ``type`` and :class:`FrameTooLargeError`
    when the encoded payload would exceed ``max_frame_bytes`` (the
    sender's symmetric share of the limit).
    """
    if "type" not in message:
        raise ProtocolError("message has no 'type'")
    if codec == CODEC_BINARY:
        payload = _encode_binary_payload(message)
    else:
        payload = _canonical_json(message)
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame payload {len(payload)} bytes > limit {max_frame_bytes}"
        )
    return LENGTH_PREFIX.pack(len(payload)) + payload


def decode_payload(payload: bytes, codec: str = CODEC_JSON) -> Dict[str, Any]:
    """Parse a frame payload into its message dict (typed errors only)."""
    if codec == CODEC_BINARY:
        return _decode_binary_payload(payload)
    message = _json_object(payload)
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("frame has no string 'type'")
    return message


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    codec: str = CODEC_JSON,
) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream.

    ``codec`` must match what the peer negotiated for this session.
    Returns the decoded message dict, or ``None`` on a clean EOF at a
    frame boundary (the peer closed between frames).  Raises
    :class:`TruncatedFrameError` on EOF inside a frame,
    :class:`FrameTooLargeError` for an oversized length prefix, and
    :class:`ProtocolError` for undecodable payloads.
    """
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise TruncatedFrameError(
            f"EOF after {len(exc.partial)} of {LENGTH_PREFIX.size} "
            "length-prefix bytes"
        ) from None
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame length {length} > limit {max_frame_bytes}"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrameError(
            f"EOF after {len(exc.partial)} of {length} payload bytes"
        ) from None
    return decode_payload(payload, codec)


# -- the binary codec --------------------------------------------------------
#
# A binary payload is a one-byte tag followed by tag-specific bytes:
#
#   0x00  the remaining bytes are canonical JSON (the escape hatch every
#         frame type, and every report, can ride);
#   0x01  struct-packed report bodies: in a frame, a REPORT_BATCH header
#         and then every report packed back to back; in a WAL record
#         (pack_record), exactly one report.
#
# One report codec serves both: the REPORT_BATCH functions loop over
# the per-report body that pack_record/unpack_record wrap, so a frame
# and a WAL record carry the same bytes for the same report.  Packing
# is *type-preserving*: unpack(pack(r)) == r with identical value
# types, extras are packed in sorted key order, and every NaN is packed
# as the NaN canonical JSON decodes to — so a report packs to the same
# bytes whether it crossed the wire as binary or as JSON.  A report
# that does not conform (an int where a float belongs, an exotic key,
# an out-of-range task_id) silently falls back to the JSON tag —
# conformance buys speed, never correctness.
#
# Packed report body (big-endian):
#
#   >q6dBBH  task_id, start_s, end_s, lat, lon, speed_ms, value, then the
#            UTF-8 byte lengths of network, kind and client_id
#            network, kind, client_id (UTF-8)
#   >I       len(samples), then that many >d
#   >I       len(extras), then per key: >H key length, key, >d value

_BIN_TAG_JSON = 0x00
_BIN_TAG_PACKED = 0x01

#: REPORT_BATCH binary header: tag, seq_lo (i64), report count (u32).
_BIN_BATCH_HEADER = struct.Struct(">BqI")
#: Fixed head of a packed report body (see the layout above).
_BIN_REPORT_HEAD = struct.Struct(">q6dBBH")
_BIN_U32 = struct.Struct(">I")
_BIN_U16 = struct.Struct(">H")
_BIN_DOUBLE = struct.Struct(">d")
#: The smallest packed report: its head, no strings, two zero counts.
#: A hostile report count is checked against it before any allocation.
_BIN_REPORT_MIN = _BIN_REPORT_HEAD.size + 2 * _BIN_U32.size

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_FLOAT_ONLY = frozenset({float})

#: The NaN that canonical JSON decodes to.  Every NaN is packed as this
#: one, so NaN payload bits a JSON round trip would drop never reach
#: the packed form either.
_CANONICAL_NAN = json.loads("NaN")

#: The exact key set of a canonical wire report (what report_to_wire
#: emits); anything else falls back to the JSON tag.
_REPORT_KEYS = frozenset(
    {
        "task_id", "client_id", "network", "kind", "start_s", "end_s",
        "lat", "lon", "speed_ms", "value", "samples", "extras",
    }
)

_NO_EXTRAS = _BIN_U32.pack(0)
_COUNTED_DOUBLES: Dict[int, struct.Struct] = {}


class _NotPackable(Exception):
    """A report or REPORT_BATCH does not conform to the packed schema."""


def _canonical_json(message: Any) -> bytes:
    """Sorted-key, compact JSON bytes (the one canonical spelling)."""
    return json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _json_object(data: Any) -> Dict[str, Any]:
    """UTF-8 JSON bytes -> a dict (:class:`ProtocolError` otherwise)."""
    try:
        obj = json.loads(str(data, "utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolError(f"payload is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("payload must be a JSON object")
    return obj


def _is_int64(v: Any) -> bool:
    return type(v) is int and _INT64_MIN <= v <= _INT64_MAX


def _counted_doubles(n: int) -> struct.Struct:
    """Struct for a u32 count then ``n`` doubles (memoized for small ``n``)."""
    s = _COUNTED_DOUBLES.get(n)
    if s is None:
        s = struct.Struct(f">I{n}d")
        if n <= 256:  # hostile counts must not grow the memo
            _COUNTED_DOUBLES[n] = s
    return s


def _pack_report(r: Any) -> bytes:
    """One conforming report's packed body (raises _NotPackable)."""
    #: Twelve entries, all twelve canonical keys present: exactly the
    #: canonical key set.
    if type(r) is not dict or len(r) != len(_REPORT_KEYS):
        raise _NotPackable
    try:
        task_id = r["task_id"]
        samples = r["samples"]
        extras = r["extras"]
        fixed = (r["start_s"], r["end_s"], r["lat"], r["lon"],
                 r["speed_ms"], r["value"])
        network, kind, client_id = r["network"], r["kind"], r["client_id"]
    except KeyError:
        raise _NotPackable from None
    if (not _is_int64(task_id) or type(samples) is not list
            or type(extras) is not dict
            or not _FLOAT_ONLY.issuperset(map(type, fixed))
            or not _FLOAT_ONLY.issuperset(map(type, samples))):
        raise _NotPackable
    total = sum(samples, sum(fixed))
    if total != total:
        #: Some value is NaN (or +inf and -inf cancelled): spell every
        #: NaN the canonical way.
        fixed = [v if v == v else _CANONICAL_NAN for v in fixed]
        samples = [v if v == v else _CANONICAL_NAN for v in samples]
    try:
        network = network.encode()
        kind = kind.encode()
        client_id = client_id.encode()
        n = len(samples)
        body = (
            _BIN_REPORT_HEAD.pack(task_id, *fixed, len(network), len(kind),
                                  len(client_id))
            + network + kind + client_id
            + _counted_doubles(n).pack(n, *samples)
        )
        if not extras:
            return body + _NO_EXTRAS
        parts = [body, _BIN_U32.pack(len(extras))]
        for k in sorted(extras):
            v = extras[k]
            if type(k) is not str or type(v) is not float:
                raise _NotPackable
            kb = k.encode()
            parts.append(_BIN_U16.pack(len(kb)) + kb + _BIN_DOUBLE.pack(
                v if v == v else _CANONICAL_NAN
            ))
        return b"".join(parts)
    except (AttributeError, TypeError, UnicodeEncodeError, struct.error):
        #: A non-string where a string belongs, a lone surrogate, a
        #: string too long for its length field — all mean "not the
        #: canonical shape", not an error.
        raise _NotPackable from None


def _unpack_report(view: memoryview, offset: int) -> Tuple[Dict[str, Any],
                                                           int]:
    """One packed report body at ``offset`` -> (report dict, end offset).

    Raises :class:`ProtocolError` on an overrun, ``struct.error`` or
    ``UnicodeDecodeError`` on other malformed bytes (callers map both).
    """
    end = len(view)
    (task_id, start_s, end_s, lat, lon, speed_ms, value, n_net, n_kind,
     n_client) = _BIN_REPORT_HEAD.unpack_from(view, offset)
    offset += _BIN_REPORT_HEAD.size
    kind_at = offset + n_net
    client_at = kind_at + n_kind
    strings_end = client_at + n_client
    if strings_end > end:
        raise ProtocolError("truncated string in packed report")
    strings = str(view[offset:strings_end], "utf-8")
    if len(strings) == strings_end - offset:
        #: All ASCII: byte offsets are character offsets.
        network = strings[:n_net]
        kind = strings[n_net:n_net + n_kind]
        client_id = strings[n_net + n_kind:]
    else:
        network = str(view[offset:kind_at], "utf-8")
        kind = str(view[kind_at:client_at], "utf-8")
        client_id = str(view[client_at:strings_end], "utf-8")
    (n_samples,) = _BIN_U32.unpack_from(view, strings_end)
    offset = strings_end + _BIN_U32.size
    if n_samples * 8 > end - offset:
        raise ProtocolError("packed report samples overrun payload")
    _, *samples = _counted_doubles(n_samples).unpack_from(view, strings_end)
    offset += 8 * n_samples
    (n_extras,) = _BIN_U32.unpack_from(view, offset)
    offset += _BIN_U32.size
    if n_extras * (_BIN_U16.size + 8) > end - offset:
        raise ProtocolError("packed report extras overrun payload")
    extras = {}
    for _ in range(n_extras):
        (n_key,) = _BIN_U16.unpack_from(view, offset)
        offset += _BIN_U16.size
        if offset + n_key > end:
            raise ProtocolError("truncated extras key in packed report")
        key = str(view[offset:offset + n_key], "utf-8")
        offset += n_key
        (extras[key],) = _BIN_DOUBLE.unpack_from(view, offset)
        offset += _BIN_DOUBLE.size
    return {
        "task_id": task_id,
        "client_id": client_id,
        "network": network,
        "kind": kind,
        "start_s": start_s,
        "end_s": end_s,
        "lat": lat,
        "lon": lon,
        "speed_ms": speed_ms,
        "value": value,
        "samples": samples,
        "extras": extras,
    }, offset


def pack_record(record: Dict[str, Any]) -> bytes:
    """One report dict -> its tagged binary form.

    A report of the canonical wire shape is struct-packed behind tag
    ``0x01``; any other dict rides as canonical JSON behind tag
    ``0x00``.  This is the payload of every WAL record
    (:mod:`repro.serve.wal`), and the body a REPORT_BATCH frame repeats.
    """
    try:
        return b"\x01" + _pack_report(record)
    except _NotPackable:
        return b"\x00" + _canonical_json(record)


def unpack_record(payload: Any) -> Dict[str, Any]:
    """Tagged bytes from :func:`pack_record` -> the record dict.

    Raises :class:`ProtocolError` for bytes :func:`pack_record` could
    not have produced (unknown tag, truncation, trailing bytes, bad
    UTF-8, JSON that is not an object).
    """
    if not payload:
        raise ProtocolError("empty record")
    tag = payload[0]
    if tag == _BIN_TAG_JSON:
        return _json_object(payload[1:])
    if tag != _BIN_TAG_PACKED:
        raise ProtocolError(f"unknown record tag 0x{tag:02x}")
    view = memoryview(payload)
    try:
        record, offset = _unpack_report(view, 1)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed packed record: {exc}") from None
    if offset != len(view):
        raise ProtocolError(
            f"packed record has {len(view) - offset} trailing byte(s)"
        )
    return record


def _pack_report_batch(message: Dict[str, Any]) -> bytes:
    """Struct-pack a conforming REPORT_BATCH (raises _NotPackable)."""
    if message.keys() != {"type", "seq_lo", "reports"}:
        raise _NotPackable
    seq_lo = message["seq_lo"]
    reports = message["reports"]
    if not _is_int64(seq_lo) or type(reports) is not list:
        raise _NotPackable
    if len(reports) > 0xFFFFFFFF:
        raise _NotPackable
    return _BIN_BATCH_HEADER.pack(
        _BIN_TAG_PACKED, seq_lo, len(reports)
    ) + b"".join(map(_pack_report, reports))


def _encode_binary_payload(message: Dict[str, Any]) -> bytes:
    """Message dict -> binary payload (struct-packed when possible)."""
    if message.get("type") == "REPORT_BATCH":
        try:
            return _pack_report_batch(message)
        except _NotPackable:
            pass
    return b"\x00" + _canonical_json(message)


def _decode_binary_payload(payload: bytes) -> Dict[str, Any]:
    """Binary payload -> message dict (typed errors only)."""
    if not payload:
        raise ProtocolError("empty binary payload")
    tag = payload[0]
    if tag == _BIN_TAG_JSON:
        return decode_payload(payload[1:], CODEC_JSON)
    if tag == _BIN_TAG_PACKED:
        return _unpack_report_batch(payload)
    raise ProtocolError(f"unknown binary payload tag 0x{tag:02x}")


def _unpack_report_batch(payload: bytes) -> Dict[str, Any]:
    """Struct-packed REPORT_BATCH bytes -> the exact sender message."""
    view = memoryview(payload)
    try:
        _, seq_lo, count = _BIN_BATCH_HEADER.unpack_from(view, 0)
        if count * _BIN_REPORT_MIN > len(payload):
            raise ProtocolError(
                f"binary batch claims {count} reports in "
                f"{len(payload)} bytes"
            )
        offset = _BIN_BATCH_HEADER.size
        reports = []
        for _ in range(count):
            report, offset = _unpack_report(view, offset)
            reports.append(report)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed binary batch: {exc}") from None
    if offset != len(payload):
        raise ProtocolError(
            f"binary batch has {len(payload) - offset} trailing byte(s)"
        )
    return {"type": "REPORT_BATCH", "seq_lo": seq_lo, "reports": reports}


# -- dataclass codecs --------------------------------------------------------


def task_to_wire(task: MeasurementTask) -> Dict[str, Any]:
    """``MeasurementTask`` -> JSON-ready dict (exact float round-trip)."""
    return {
        "task_id": task.task_id,
        "network": task.network.value,
        "kind": task.kind.value,
        "zone_id": list(task.zone_id) if task.zone_id is not None else None,
        "issued_at_s": task.issued_at_s,
        "deadline_s": task.deadline_s,
        "params": dict(task.params),
    }


def task_from_wire(data: Dict[str, Any]) -> MeasurementTask:
    """Wire dict -> ``MeasurementTask`` (:class:`ProtocolError` if malformed)."""
    try:
        zone = data.get("zone_id")
        return MeasurementTask(
            task_id=int(data["task_id"]),
            network=NetworkId(data["network"]),
            kind=MeasurementType(data["kind"]),
            zone_id=(int(zone[0]), int(zone[1])) if zone is not None else None,
            issued_at_s=float(data.get("issued_at_s", 0.0)),
            deadline_s=(
                float(data["deadline_s"])
                if data.get("deadline_s") is not None else None
            ),
            params={str(k): float(v)
                    for k, v in (data.get("params") or {}).items()},
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed TASK payload: {exc}") from None


def report_to_wire(report: MeasurementReport) -> Dict[str, Any]:
    """``MeasurementReport`` -> JSON-ready dict (exact float round-trip)."""
    return {
        "task_id": report.task_id,
        "client_id": report.client_id,
        "network": report.network.value,
        "kind": report.kind.value,
        "start_s": report.start_s,
        "end_s": report.end_s,
        "lat": report.point.lat,
        "lon": report.point.lon,
        "speed_ms": report.speed_ms,
        "value": report.value,
        "samples": list(report.samples),
        "extras": dict(report.extras),
    }


def report_from_wire(data: Dict[str, Any]) -> MeasurementReport:
    """Wire dict -> ``MeasurementReport`` (:class:`ProtocolError` if malformed)."""
    try:
        return MeasurementReport(
            task_id=int(data["task_id"]),
            client_id=str(data["client_id"]),
            network=NetworkId(data["network"]),
            kind=MeasurementType(data["kind"]),
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            point=GeoPoint(float(data["lat"]), float(data["lon"])),
            speed_ms=float(data["speed_ms"]),
            value=float(data["value"]),
            samples=[float(s) for s in (data.get("samples") or [])],
            extras={str(k): float(v)
                    for k, v in (data.get("extras") or {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed REPORT payload: {exc}") from None
